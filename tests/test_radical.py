"""Envelope of zero, Jacobson radical, and the semiprime enumeration."""

import io
from collections import Counter
from fractions import Fraction
from math import comb

import pytest

import dense_reference as ref
from artquot import cli, radical
from artquot.cli import main
from artquot.instances import SamplerConfig, sample_modules
from artquot.linalg import SlotMap, Subspace, op_power
from artquot.quotient import QuotientModule, monomial_span, positive_degree_span
from artquot.radical import (
    envelope_of_submodule_bruteforce,
    envelope_zero,
    jacobson_radical,
    satisfies_radical_formula,
    semiprime_bruteforce,
    _monomial_maps,
    _upsets,
)
from artquot.reduced import monomials_up_to_degree
from artquot.ring import (
    AlgebraError,
    InternalCheckError,
    Polynomial,
    parse_input,
    poly_monomial,
)
from artquot.suites import run_suite

FLAT7 = "ring x,y; ideal x^4, x^3*y, y^2"
STAIR11 = "ring x,y; ideal x^4, x^3*y, x^2*y^2, x*y^3, y^5"
SMALL4 = '{"ring": ["x1","x2"], "ideal": ["x1^2", "x1*x2", "x2^3"]}'


def module_from(text):
    return QuotientModule(*parse_input(text))


def mask_of(m, exps):
    """The slot mask of the standard monomials `exps`."""
    return sum(1 << m.index[e] for e in exps)


def span_of(m, mask):
    """The span of the standard monomials in the slots of `mask`."""
    return monomial_span(m, [e for b, e in enumerate(m.basis) if mask >> b & 1])


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
        envelope_zero(m)


def test_variables_are_triangular_exactly_when_nilpotent_on_samples():
    # on staircase modules the slot-order reading and the d-th power agree
    draws = [m for _, m in sample_modules(40, seed=45, config=SamplerConfig(dim_bound=60))]
    assert max(m.dim for m in draws) > 30
    for m in draws:
        for op in m.action:
            triangular = all(t > b for b, col in enumerate(op) for t in col)
            assert triangular == (not any(op_power(op, m.dim)))
        envelope_zero(m)


def test_slot_maps_are_the_monomial_operators():
    # every monomial of degree <= 2, the staircase ones and those in I
    named = [module_from(t) for t in (FLAT7, STAIR11, "ring x,y,z; ideal x^2, y^2, z^2")]
    sampled = [m for _, m in sample_modules(20, seed=46, config=SamplerConfig(dim_bound=30))]
    for m in named + sampled:
        for e in monomials_up_to_degree(m.n, 2):
            reference = ref.act_poly_matrix(m, poly_monomial(e))
            assert m.monomial_map(e).slots == _column_map(reference)


class _BackwardsShift(QuotientModule):
    """k[x]/(x^3) with x acting by 1 -> x -> 0 and x^2 -> 1: nilpotent
    (its cube is zero), but slot 2 goes to the earlier slot 0."""

    def _shift_maps(self):
        return (SlotMap((1, None, 0), (1, 0, 1)),)


def test_nilpotency_check_is_live(monkeypatch, capsys):
    mutant = _BackwardsShift(*parse_input("ring x; ideal x^3"))
    assert not any(op_power(mutant.action[0], mutant.dim))
    monkeypatch.setattr(cli, "_read_module", lambda args: mutant)
    assert main(["radical"]) == 3
    assert capsys.readouterr() == (
        "", "internal check failed: a variable failed to be nilpotent\n"
    )


def test_unit_check_is_live(monkeypatch, capsys):
    # every term fixes every slot, so no unit reads as c*I plus a strictly
    # triangular part
    monkeypatch.setattr(
        QuotientModule,
        "monomial_map",
        lambda module, e: SlotMap(tuple(range(module.dim)), (1,) * module.dim),
    )
    monkeypatch.setattr("sys.stdin", io.StringIO(FLAT7))
    assert main(["radical"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "internal check failed: "
        "a unit-like polynomial had a vanishing power on a nonzero element\n"
    )


def _unit_domain(n):
    """The exponents envelope_zero's unit check reads: every positive-degree
    one of degree <= 2."""
    return [e for e in monomials_up_to_degree(n, 2) if any(e)]


@pytest.mark.parametrize("seed", [0, 5])
def test_unit_check_reads_each_exponent_once(seed, monkeypatch):
    # one slot map per exponent of the domain, whatever seed the radical
    # formula runs under: 2, 5 or 9 of them in one, two or three variables
    calls = Counter()
    inside = []
    original_map = QuotientModule.monomial_map
    original_envelope = radical.envelope_zero

    def counted(module, e):
        if inside:
            calls[e] += 1
        return original_map(module, e)

    def envelope(module):
        inside.append(module)
        try:
            return original_envelope(module)
        finally:
            inside.pop()

    monkeypatch.setattr(QuotientModule, "monomial_map", counted)
    monkeypatch.setattr(radical, "envelope_zero", envelope)
    sampled = [m for _, m in sample_modules(20, seed=47, config=SamplerConfig(dim_bound=30))]
    assert {m.n for m in sampled} == {1, 2, 3}
    for m in sampled:
        calls.clear()
        satisfies_radical_formula(m, seed=seed)
        assert list(calls) == _unit_domain(m.n)
        assert set(calls.values()) == {1}
        assert len(calls) == {1: 2, 2: 5, 3: 9}[m.n]


def test_unit_check_reads_every_drawn_exponent(monkeypatch, capsys):
    # a slot map broken at one exponent only, which then fixes every slot,
    # fails the check, for each exponent of the domain: x*y included, on a
    # three-variable staircase that holds it
    original = QuotientModule.monomial_map
    for text in (FLAT7, "ring x,y,z; ideal z, y^2, x^4"):
        m = module_from(text)
        exponents = _unit_domain(m.n)
        assert len(exponents) == {2: 5, 3: 9}[m.n]
        for bad in exponents:
            def broken(module, e, bad=bad):
                if e == bad:
                    return SlotMap(tuple(range(module.dim)), (1,) * module.dim)
                return original(module, e)

            monkeypatch.setattr(QuotientModule, "monomial_map", broken)
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            assert main(["radical"]) == 3
            assert capsys.readouterr() == ("", (
                "internal check failed: "
                "a unit-like polynomial had a vanishing power on a nonzero element\n"
            ))
    assert (1, 1, 0) in exponents and (1, 1, 0) in m.index


def test_envelope_builds_no_polynomial(monkeypatch):
    sampled = [m for _, m in sample_modules(20, seed=48, config=SamplerConfig(dim_bound=30))]
    built = []
    original = Polynomial.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Polynomial, "__init__", counted)
    poly_monomial((1, 0))
    assert len(built) == 1
    built.clear()
    for m in sampled:
        assert envelope_zero(m) == positive_degree_span(m)
    assert built == []


@pytest.mark.parametrize(
    "name, fake, message",
    [
        # no up-set holds m*M, so the intersection is empty
        ("_upsets", lambda m: [0], "semiprime intersection differs from the envelope of zero"),
        # no monomial acts, so each envelope is N alone
        ("_monomial_maps", lambda m: (), "submodule envelope differs from N + m*M"),
    ],
)
def test_mask_checks_are_live(name, fake, message, monkeypatch, capsys):
    monkeypatch.setattr(radical, name, fake)
    monkeypatch.setattr("sys.stdin", io.StringIO(FLAT7))
    assert main(["radical"]) == 3
    assert capsys.readouterr() == ("", f"internal check failed: {message}\n")


def test_upset_count_on_known_staircase():
    m = module_from(SMALL4)
    ups = list(_upsets(m))
    assert len(ups) == 7  # including the empty set and the whole module
    full = (1 << m.dim) - 1
    assert sum(1 for u in ups if u != full) == 6


def test_upsets_match_the_mask_scan():
    named = [
        module_from(t)
        for t in ("ring x,y; ideal x^7, y^2", STAIR11, "ring x,y,z; ideal x^2, y^2, z^2")
    ]
    sampled = [m for _, m in sample_modules(40, seed=43, config=SamplerConfig(dim_bound=14))]
    assert max(m.dim for m in sampled) > 10
    for m in named + sampled:
        assert _upsets(m) == ref.upsets_by_mask_scan(m)


def _macmahon(a, b, c):
    """Plane partitions in an a x b x c box: the order ideals of its cells."""
    count = Fraction(1)
    for i in range(1, a + 1):
        for j in range(1, b + 1):
            for k in range(1, c + 1):
                count *= Fraction(i + j + k - 1, i + j + k - 2)
    return count


@pytest.mark.parametrize(
    "text, count",
    [
        ("ring x,y; ideal x^3, y^4", 35),
        ("ring x,y; ideal x^7, y^2", 36),
        ("ring x,y,z; ideal x^2, y^2, z^2", 20),
        ("ring x,y,z; ideal x^2, y^2, z^3", 50),
        ("ring x; ideal x^14", 15),
    ],
)
def test_upset_counts_on_boxes(text, count):
    # an a x b rectangle has C(a+b, a) order ideals, a box MacMahon's count,
    # and a chain of d cells d + 1
    m = module_from(text)
    box = [max(e[i] for e in m.basis) + 1 for i in range(m.n)]
    if m.n == 1:
        assert count == box[0] + 1
    elif m.n == 2:
        assert count == comb(box[0] + box[1], box[0])
    else:
        assert count == _macmahon(*box)
    assert len(_upsets(m)) == count


def test_semiprime_enumeration_on_known_staircase():
    m = module_from(SMALL4)
    report = semiprime_bruteforce(m, positive_degree_span(m))
    assert report.submodules_scanned == 6
    full = (1 << m.dim) - 1
    assert report.upsets == tuple(u for u in _upsets(m) if u != full)
    assert report.unique
    assert len(report.semiprime) == 1
    assert report.semiprime[0] == mask_of(m, [(1, 0), (0, 1), (0, 2)])
    assert report.intersection.bit_count() == 3
    assert span_of(m, report.intersection) == envelope_zero(m)


def test_semiprime_unique_everywhere_within_bound():
    for _, m in sample_modules(25, seed=42, config=SamplerConfig(dim_bound=14)):
        report = semiprime_bruteforce(m, positive_degree_span(m))
        assert report.unique
        assert span_of(m, report.intersection) == envelope_zero(m)


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
    brute = envelope_of_submodule_bruteforce(m, mask_of(m, exps), _monomial_maps(m))
    assert span_of(m, brute) == Subspace(m.dim, monomial_span(m, exps).rows + env.rows)


def test_envelope_of_zero_submodule_is_the_radical():
    m = module_from(FLAT7)
    maps = _monomial_maps(m)
    assert span_of(m, envelope_of_submodule_bruteforce(m, 0, maps)) == envelope_zero(m)


def test_mask_envelope_matches_the_subspace_reference():
    # every up-set of the named modules and of 25 sampled ones, against the
    # scan that tests each power with Subspace.contains
    named = [
        module_from(t)
        for t in ("ring x,y; ideal x^7, y^2", STAIR11, "ring x,y,z; ideal x^2, y^2, z^2")
    ]
    sampled = [m for _, m in sample_modules(25, seed=44, config=SamplerConfig(dim_bound=14))]
    assert max(m.dim for m in sampled) > 10
    for m in named + sampled:
        maps = _monomial_maps(m)
        monos = [e for e in m.basis if sum(e) <= 6]
        operators = [m.poly_matrix(poly_monomial(e)) for e in monos]
        for mask in _upsets(m):
            exps = [e for b, e in enumerate(m.basis) if mask >> b & 1]
            expected = ref.envelope_of_submodule_bruteforce(m, exps, operators)
            assert span_of(m, envelope_of_submodule_bruteforce(m, mask, maps)) == expected


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


def _column_map(op):
    """The slot map of a monomial's operator: each column is one unit
    vector or zero."""
    assert all(len(col) <= 1 and set(col.values()) <= {1} for col in op)
    return tuple(next(iter(col), None) for col in op)


def test_spot_checks_build_each_monomial_operator_once(monkeypatch):
    m = module_from(FLAT7)
    built = Counter()
    original = m.poly_matrix

    def counted(poly):
        built[poly] += 1
        return original(poly)

    monkeypatch.setattr(m, "poly_matrix", counted)
    table = _monomial_maps(m)
    # the table is read off the basis index, not evaluated column by column
    assert not built
    monkeypatch.undo()
    # one map per staircase monomial of degree <= 6, in basis order, each
    # the columns of the monomial's operator
    monos = [e for e in m.basis if sum(e) <= 6]
    assert len(table) == len(monos) == m.dim == 7
    assert all(
        r == _column_map(m.poly_matrix(poly_monomial(e))) for r, e in zip(table, monos)
    )
    # the 28 maps of all monomials of degree <= 6, zero ones included,
    # give the same envelope of every monomial submodule
    full = [
        _column_map(m.poly_matrix(poly_monomial(e)))
        for e in monomials_up_to_degree(m.n, 6)
    ]
    assert len(full) == 28
    for mask in _upsets(m):
        assert envelope_of_submodule_bruteforce(m, mask, table) == (
            envelope_of_submodule_bruteforce(m, mask, full)
        )
    tables = _count_calls(monkeypatch, "_monomial_maps")
    assert satisfies_radical_formula(m).spot_checks == radical.SPOT_CHECKS == 3
    assert len(tables) == 1
