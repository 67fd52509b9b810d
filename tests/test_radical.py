"""Envelope of zero, Jacobson radical, and the semiprime enumeration."""

import io
from collections import Counter
from fractions import Fraction

import pytest

import dense_reference as ref
from artquot import radical
from artquot.cli import main
from artquot.instances import SamplerConfig, sample_modules
from artquot.linalg import Subspace
from artquot.quotient import QuotientModule, monomial_span, positive_degree_span
from artquot.radical import (
    envelope_of_submodule_bruteforce,
    envelope_zero,
    jacobson_radical,
    satisfies_radical_formula,
    semiprime_bruteforce,
    _monomial_operators,
    _upsets,
)
from artquot.reduced import monomials_up_to_degree
from artquot.ring import AlgebraError, InternalCheckError, parse_input, poly_monomial
from artquot.suites import run_suite

FLAT7 = "ring x,y; ideal x^4, x^3*y, y^2"
SMALL4 = '{"ring": ["x1","x2"], "ideal": ["x1^2", "x1*x2", "x2^3"]}'


def module_from(text):
    return QuotientModule(*parse_input(text))


def test_envelope_is_the_positive_degree_span():
    for _, m in sample_modules(30, seed=41, config=SamplerConfig(dim_bound=30)):
        env = envelope_zero(m)
        assert env == positive_degree_span(m)
        assert env == jacobson_radical(m, env)


@pytest.mark.parametrize("seed", [0, 5])
def test_unit_check_agrees_with_sampled_vectors(seed):
    # the replaced sampling loop and the exact rank check both pass
    for _, m in sample_modules(30, seed=41, config=SamplerConfig(dim_bound=30)):
        ref.sampled_unit_check(m, seed=seed)
        envelope_zero(m, seed=seed)


def test_unit_check_is_live(monkeypatch, capsys):
    monkeypatch.setattr(radical, "is_invertible", lambda op: False)
    monkeypatch.setattr("sys.stdin", io.StringIO(FLAT7))
    assert main(["radical"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "internal check failed: "
        "a unit-like polynomial had a vanishing power on a nonzero element\n"
    )


def test_upset_count_on_known_staircase():
    m = module_from(SMALL4)
    ups = list(_upsets(m))
    assert len(ups) == 7  # including the empty set and the whole module
    full = (1 << m.dim) - 1
    assert sum(1 for u in ups if u != full) == 6


def test_semiprime_enumeration_on_known_staircase():
    m = module_from(SMALL4)
    report = semiprime_bruteforce(m, positive_degree_span(m))
    assert report.submodules_scanned == 6
    full = (1 << m.dim) - 1
    assert report.upsets == tuple(u for u in _upsets(m) if u != full)
    assert report.unique
    assert len(report.semiprime) == 1
    assert report.semiprime[0] == ((1, 0), (0, 1), (0, 2))
    assert report.intersection.dim == 3
    assert report.intersection == envelope_zero(m)


def test_semiprime_unique_everywhere_within_bound():
    for _, m in sample_modules(25, seed=42, config=SamplerConfig(dim_bound=14)):
        report = semiprime_bruteforce(m, positive_degree_span(m))
        assert report.unique
        assert report.intersection == envelope_zero(m)


def test_semiprime_needs_a_monomial_spanned_radical():
    m = module_from(SMALL4)
    mixed = Subspace(m.dim, [{1: Fraction(1), 2: Fraction(1)}])
    with pytest.raises(InternalCheckError, match="monomial-spanned"):
        semiprime_bruteforce(m, mixed)


def test_semiprime_respects_the_enumeration_bound():
    m = module_from("ring x,y; ideal x^5, y^5")  # dim 25
    assert m.dim > radical.ENUMERATION_BOUND == 14
    with pytest.raises(AlgebraError, match="enumeration bound 14"):
        semiprime_bruteforce(m, positive_degree_span(m))


def test_submodule_envelope_matches_sum_with_radical():
    m = module_from(FLAT7)
    env = envelope_zero(m)
    # N = the up-set generated by x^2: {x^2, x^3, x^2*y}
    exps = [(2, 0), (3, 0), (2, 1)]
    brute = envelope_of_submodule_bruteforce(m, exps, _monomial_operators(m))
    assert brute == monomial_span(m, exps).sum(env)


def test_envelope_of_zero_submodule_is_the_radical():
    m = module_from(FLAT7)
    operators = _monomial_operators(m)
    assert envelope_of_submodule_bruteforce(m, [], operators) == envelope_zero(m)


def test_full_report_on_known_module():
    report = satisfies_radical_formula(module_from(SMALL4))
    assert report.satisfies
    assert report.envelope_dim == 3
    assert report.jacobson_dim == 3
    assert report.semiprime_dim == 3
    assert report.semiprime_unique is True
    assert not report.enumeration_skipped
    assert report.spot_checks == 3


def test_report_skips_enumeration_above_bound():
    m = module_from("ring x,y; ideal x^5, y^5")
    report = satisfies_radical_formula(m)
    assert report.satisfies
    assert report.enumeration_skipped
    assert report.semiprime_dim is None
    assert report.spot_checks == 0
    assert report.envelope_dim == 24


def test_trivial_module():
    m = module_from("ring x,y; ideal x, y")
    report = satisfies_radical_formula(m)
    assert report.envelope_dim == 0
    assert report.semiprime_dim == 0
    assert report.satisfies


def _count_calls(monkeypatch, name: str) -> list:
    built = []
    original = getattr(radical, name)

    def counted(module, *args, **kwargs):
        built.append(module)
        return original(module, *args, **kwargs)

    monkeypatch.setattr(radical, name, counted)
    return built


@pytest.mark.parametrize("argv", [["radical"], ["radical", "--seed", "3"]])
def test_radical_command_builds_one_envelope(argv, monkeypatch, capsys):
    built = _count_calls(monkeypatch, "envelope_zero")
    monkeypatch.setattr("sys.stdin", io.StringIO(FLAT7))
    assert main(argv) == 0
    capsys.readouterr()
    assert len(built) == 1


def test_radical_formula_builds_one_envelope(monkeypatch):
    built = _count_calls(monkeypatch, "envelope_zero")
    for seed in (0, 5):
        satisfies_radical_formula(module_from(SMALL4), seed=seed)
    assert len(built) == 2
    assert run_suite("radical", 3, 0).ok
    assert len(built) == 5


def test_radical_formula_scans_the_upsets_once(monkeypatch):
    scanned = _count_calls(monkeypatch, "_upsets")
    for seed in (0, 5):
        satisfies_radical_formula(module_from(SMALL4), seed=seed)
    assert len(scanned) == 2
    assert run_suite("radical", 3, 0).ok
    assert len(scanned) == 5


def test_spot_checks_build_each_monomial_operator_once(monkeypatch):
    m = module_from(FLAT7)
    built = Counter()
    original = m.poly_matrix

    def counted(poly):
        built[poly] += 1
        return original(poly)

    monkeypatch.setattr(m, "poly_matrix", counted)
    table = _monomial_operators(m)
    # the table is read off the stored shifts, not evaluated column by column
    assert not built
    monkeypatch.undo()
    # one entry per staircase monomial of degree <= 6, in basis order
    monos = [e for e in m.basis if sum(e) <= 6]
    assert len(table) == len(monos) == m.dim == 7
    assert all(
        op == m.poly_matrix(poly_monomial(e)) for op, e in zip(table, monos)
    )
    # the 28 operators of all monomials of degree <= 6, zero ones included,
    # give the same envelope of every monomial submodule
    full = [m.poly_matrix(poly_monomial(e)) for e in monomials_up_to_degree(m.n, 6)]
    assert len(full) == 28
    for mask in _upsets(m):
        exps = radical._mask_monomials(m, mask)
        assert envelope_of_submodule_bruteforce(m, exps, table) == (
            envelope_of_submodule_bruteforce(m, exps, full)
        )
    tables = _count_calls(monkeypatch, "_monomial_operators")
    assert satisfies_radical_formula(m).spot_checks == radical.SPOT_CHECKS == 3
    assert len(tables) == 1
