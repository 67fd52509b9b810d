"""Corner sets, the reduced part, and the element-level reducedness oracle."""

import io
import random
import sys
from fractions import Fraction
from itertools import product

import pytest

from artquot import reduced, suites
from artquot.cli import main
from artquot.instances import sample_modules
from artquot.quotient import QuotientModule, positive_degree_span, socle
from artquot.ring import (
    AlgebraError,
    InternalCheckError,
    VariableSet,
    grlex_key,
    minimalize,
    parse_input,
    parse_polynomial_list,
    poly_monomial,
)
from artquot.reduced import (
    is_coreduced_subspace,
    largest_reduced_submodule,
    monomials_up_to_degree,
    outside_corners,
    reduced_membership_oracle,
    witness_candidates,
)
from artquot.suites import run_suite
from artquot.torsion import classify
from dense_reference import poly_mul

STAIR11 = "ring x,y; ideal x^4, x^3*y, x^2*y^2, x*y^3, y^5"
FLAT7 = "ring x,y; ideal x^4, x^3*y, y^2"
SMALL4 = '{"ring": ["x1","x2"], "ideal": ["x1^2", "x1*x2", "x2^3"]}'


def module_from(text):
    return QuotientModule(*parse_input(text))


def test_known_corner_sets():
    assert outside_corners(module_from(STAIR11)) == (
        (3, 0), (2, 1), (1, 2), (0, 4),
    )
    assert outside_corners(module_from(FLAT7)) == ((3, 0), (2, 1))
    assert outside_corners(module_from(SMALL4)) == ((1, 0), (0, 2))
    # all monomials of degree n + 1: the corners are the degree-n monomials
    for n, count in ((2, 3), (3, 10)):
        names = tuple(f"x{i + 1}" for i in range(n))
        m = QuotientModule(VariableSet(names), minimalize(
            e for e in monomials_up_to_degree(n, n + 1) if sum(e) == n + 1
        ))
        corners = outside_corners(m)
        assert len(corners) == count
        assert corners == tuple(e for e in m.basis if sum(e) == n)
        assert len(largest_reduced_submodule(m, corners)) == count


def test_corners_and_inner_partition_the_basis():
    for _, m in sample_modules(40, seed=21):
        corners = outside_corners(m)
        assert set(corners) <= set(m.basis)
        # a monomial is inner exactly when some variable keeps it in the staircase
        steps = [tuple(int(j == i) for j in range(m.n)) for i in range(m.n)]
        for e in m.basis:
            moved = any(tuple(a + b for a, b in zip(e, s)) in m.index for s in steps)
            assert moved == (e not in corners)


def test_reduced_part_equals_socle():
    for _, m in sample_modules(40, seed=22):
        corners = outside_corners(m)
        span = largest_reduced_submodule(m, corners)  # raises if the sides differ
        assert span == socle(m)
        assert span == tuple(map(m.position, corners))


def test_corner_span_is_killed_by_every_variable():
    m = module_from(STAIR11)
    span = largest_reduced_submodule(m, outside_corners(m))
    for i in range(m.n):
        poly = poly_monomial(tuple(int(j == i) for j in range(m.n)))
        for row in ({b: 1} for b in span):
            assert m.act(poly, row) == {}


def test_membership_oracle_accepts_corners_and_rejects_inner():
    for _, m in sample_modules(15, seed=23):
        corners = outside_corners(m)
        bound = max(max(g) for g in m.ideal.min_gens)
        witnesses = witness_candidates(m.n, bound, 8, 0)
        for e in corners:
            assert reduced_membership_oracle(m, m.basis_element(e), witnesses)
        for e in (e for e in m.basis if e not in corners):
            assert not reduced_membership_oracle(m, m.basis_element(e), witnesses)


def test_membership_oracle_on_mixed_elements():
    m = module_from(FLAT7)
    witnesses = witness_candidates(m.n, 4, 8, 0)
    corner_mix = {m.index[(3, 0)]: Fraction(1), m.index[(2, 1)]: Fraction(-2)}
    assert reduced_membership_oracle(m, corner_mix, witnesses)
    tainted = {m.index[(3, 0)]: Fraction(1), m.index[(1, 0)]: Fraction(1)}
    assert not reduced_membership_oracle(m, tainted, witnesses)
    assert reduced_membership_oracle(m, {}, witnesses)


def test_ideal_reducedness_cases():
    m = module_from(FLAT7)
    defining = [poly_monomial(g) for g in m.ideal.min_gens]
    assert classify(m, defining).j_reduced
    y = parse_polynomial_list("y", m.variables)[0]
    assert not classify(m, [y]).j_reduced  # y^2 = 0 but y kills less than that
    flat = module_from("ring x,y; ideal x, y^2")
    x = parse_polynomial_list("x", flat.variables)[0]
    assert classify(flat, [x]).j_reduced  # x already acts as zero


def test_socle_is_coreduced():
    for _, m in sample_modules(25, seed=24):
        span = largest_reduced_submodule(m, outside_corners(m))
        assert is_coreduced_subspace(m, span, witness_candidates(m.n, 2, 10, 0))


def test_acting_twice_is_acting_by_the_square():
    # is_coreduced_subspace builds a^2 N as a(aN)
    for _, m in sample_modules(8, seed=25):
        mixed = {j: -1 if j % 2 else j + 1 for j in range(m.dim)}
        vecs = [{j: 1} for j in range(m.dim)] + [mixed]
        for a in witness_candidates(m.n, 2, 8, 0):
            for v in vecs:
                assert m.act(a, m.act(a, v)) == m.act(poly_mul(a, a), v)


def test_positive_degree_span_is_not_coreduced_when_layered():
    m = module_from("ring x; ideal x^3")
    span = positive_degree_span(m)  # {x, x^2}: x*N = {x^2} but x^2*N = 0
    assert not is_coreduced_subspace(m, span, witness_candidates(m.n, 3, 10, 0))


def test_coreduced_rejects_non_submodules():
    m = module_from(FLAT7)
    witnesses = witness_candidates(m.n, 2, 8, 0)
    not_closed = (m.position((1, 0)),)
    with pytest.raises(AlgebraError, match="^subspace is not a submodule$"):
        is_coreduced_subspace(m, not_closed, witnesses)
    for outside in ((m.dim,), (-1, 0)):
        with pytest.raises(AlgebraError, match="^subspace does not live in this module$"):
            is_coreduced_subspace(m, outside, witnesses)


def test_zero_subspace_is_coreduced():
    m = module_from(FLAT7)
    assert is_coreduced_subspace(m, (), witness_candidates(m.n, 2, 8, 0))


def test_coreduced_sampling_checks_are_live(monkeypatch):
    # the witnesses' aN and a^2 N are compared by rank alone; a rank that
    # reads every pair as different contradicts the socle's exact yes, and
    # one that reads every pair as equal contradicts the whole module's no
    m = module_from(FLAT7)
    witnesses = witness_candidates(m.n, 2, 8, 0)
    calls = iter(range(10**6))
    monkeypatch.setattr(reduced, "rank", lambda vectors, width: next(calls))
    with pytest.raises(InternalCheckError, match="said yes but sampling found"):
        is_coreduced_subspace(m, socle(m), witnesses)
    monkeypatch.setattr(reduced, "rank", lambda vectors, width: 0)
    whole = tuple(range(m.dim))
    with pytest.raises(InternalCheckError, match="said no but sampling found no"):
        is_coreduced_subspace(m, whole, witnesses)


def test_monomials_up_to_degree():
    monos = monomials_up_to_degree(2, 2)
    assert monos == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    assert len(monomials_up_to_degree(3, 4)) == 35
    # the degree-by-degree walk is the sorted degree box
    for n, bound in ((1, 3), (3, 4), (4, 3)):
        box = [e for e in product(range(bound + 1), repeat=n) if sum(e) <= bound]
        assert monomials_up_to_degree(n, bound) == sorted(box, key=grlex_key)


def test_oracle_fixed_set_is_exactly_the_corner_set():
    for text in (STAIR11, FLAT7, SMALL4):
        m = module_from(text)
        bound = max(max(g) for g in m.ideal.min_gens)
        witnesses = witness_candidates(m.n, bound, 8, 0)
        fixed = tuple(
            e
            for e in m.basis
            if reduced_membership_oracle(m, m.basis_element(e), witnesses)
        )
        assert fixed == outside_corners(m)


def _count_corners(monkeypatch) -> list:
    """Record the module of every outside_corners call, wherever imported."""
    seen = []
    original = reduced.outside_corners

    def counted(module):
        seen.append(module)
        return original(module)

    for name, mod in list(sys.modules.items()):
        if not name.startswith("artquot"):
            continue
        if getattr(mod, "outside_corners", None) is original:
            monkeypatch.setattr(mod, "outside_corners", counted)
    return seen


@pytest.mark.parametrize(
    "command, modules", [("report", 2), ("socle", 1), ("hilbert", 1)]
)
def test_each_command_finds_the_corners_once_per_module(
    command, modules, monkeypatch, capsys
):
    # report also reads the corners of the inverse system, a second module
    seen = _count_corners(monkeypatch)
    monkeypatch.setattr("sys.stdin", io.StringIO(FLAT7))
    assert main([command]) == 0
    capsys.readouterr()
    assert len(seen) == len({id(m) for m in seen}) == modules


@pytest.mark.parametrize("suite", ["socle-equality", "hs-duality", "coreduced"])
def test_each_suite_case_finds_the_corners_once(suite, monkeypatch):
    seen = _count_corners(monkeypatch)
    assert run_suite(suite, 4, 0).ok
    assert len(seen) == len({id(m) for m in seen}) == 4


def _count_witness_lists(monkeypatch) -> list:
    built = []
    original = reduced.witness_candidates

    def counted(*args):
        built.append(args)
        return original(*args)

    monkeypatch.setattr(suites, "witness_candidates", counted)
    monkeypatch.setattr(reduced, "witness_candidates", counted)
    return built


def test_socle_equality_case_builds_the_witnesses_once(monkeypatch):
    built = _count_witness_lists(monkeypatch)
    assert run_suite("socle-equality", 4, 0).ok
    assert len(built) == 4


def test_coreduced_case_builds_the_witnesses_once(monkeypatch):
    built = _count_witness_lists(monkeypatch)
    assert run_suite("coreduced", 4, 0).ok
    assert len(built) == 4
    # the degree bound is at least 2, the sample 20 polynomials
    assert all(bound >= 2 and trials == 20 for _, bound, trials, _ in built)


def test_witness_candidates_are_a_fresh_list_equal_to_the_uncached_build():
    reduced._monomial_witnesses.cache_clear()
    cases = ((1, 3, 4, 0), (2, 2, 20, 7), (3, 4, 8, 5), (2, 2, 4, 9))
    for n, bound, trials, seed in cases:
        first = witness_candidates(n, bound, trials, seed)
        second = witness_candidates(n, bound, trials, seed)
        assert first is not second and first == second
        first.clear()
        assert witness_candidates(n, bound, trials, seed) == second
        # the uncached build: every monomial anew, then the seeded draws
        rng = random.Random(seed)
        uncached = [poly_monomial(e) for e in monomials_up_to_degree(n, bound)]
        uncached += [
            reduced._random_poly(rng, n, bound, constant=t % 2 == 0)
            for t in range(trials)
        ]
        assert second == uncached
    # (2, 2) was asked for twice, with other trials and seeds: built once
    assert reduced._monomial_witnesses.cache_info().misses == 3
