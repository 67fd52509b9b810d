"""Apolarity, inverse systems, duality of Hilbert series, truncated duals.

The contraction rule is pinned by hand-computed values first; everything
built on top of it is compared against those primitives, never against
itself.
"""

import io
import re
from itertools import product
from math import factorial
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from artquot import inverse, torsion
from artquot.cli import main
from artquot.instances import sample_ideals, sample_modules
from artquot.inverse import (
    InverseSystem,
    contraction,
    hilbert_duality_check,
    inverse_system,
    perp_of_submodule,
    truncated_dual,
    truncated_dual_report,
)
from artquot.linalg import SlotMap, slot_columns, slot_map
from artquot.quotient import QuotientModule, hilbert, minimal_outside
from artquot.reduced import monomials_up_to_degree, outside_corners
from artquot.ring import (
    AlgebraError,
    InternalCheckError,
    Polynomial,
    VariableSet,
    divides,
    minimalize,
    parse_input,
    poly_monomial,
)
from artquot.suites import run_suite
from dense_reference import apolarity, complement_min_gens, full_space, poly_mul

FLAT7 = "ring x,y; ideal x^4, x^3*y, y^2"
SMALL4 = '{"ring": ["x1","x2"], "ideal": ["x1^2", "x1*x2", "x2^3"]}'


def module_from(text):
    return QuotientModule(*parse_input(text))


def mono(*exps):
    return poly_monomial(tuple(exps))


def plus(*polys):
    return Polynomial([t for p in polys for t in p.terms.items()])


def test_contraction_rule_by_hand():
    # x o X^3 = 3 X^2, x^2 o X^3 = 6 X, x^3 o X^3 = 6, x^4 o X^3 = 0
    assert apolarity(mono(1), mono(3)) == poly_monomial((2,), 3)
    assert apolarity(mono(2), mono(3)) == poly_monomial((1,), 6)
    assert apolarity(mono(3), mono(3)) == poly_monomial((0,), 6)
    assert apolarity(mono(4), mono(3)) == Polynomial()
    # mixed variables act independently
    assert apolarity(mono(1, 0), mono(0, 1)) == Polynomial()
    assert apolarity(mono(1, 1), mono(1, 1)) == mono(0, 0)
    assert apolarity(mono(1, 2), mono(2, 3)) == poly_monomial((1, 1), 12)


@st.composite
def exponent_pairs(draw):
    n = draw(st.integers(1, 4))
    exps = st.tuples(*[st.integers(0, 6)] * n)
    return draw(exps), draw(exps)


@given(exponent_pairs())
def test_contraction_matches_apolarity_on_monomials(pair):
    a, b = pair
    c = contraction(a, b)
    image = apolarity(poly_monomial(a), poly_monomial(b))
    if all(ai <= bi for ai, bi in zip(a, b)):
        expected = 1
        for ai, bi in zip(a, b):
            expected *= factorial(bi) // factorial(bi - ai)
        assert c == expected
        assert image == poly_monomial(tuple(bi - ai for ai, bi in zip(a, b)), c)
    else:
        assert c == 0
        assert image == Polynomial()


def test_contraction_rejects_mismatched_arities():
    with pytest.raises(AlgebraError, match="mismatched arities"):
        contraction((1, 0), (1, 0, 0))


def test_contraction_is_linear_and_multiplicative():
    f = plus(poly_monomial((2, 1), 2), poly_monomial((0, 3), -1))
    p = mono(1, 0)
    q = mono(0, 1)
    assert apolarity(plus(p, q), f) == plus(apolarity(p, f), apolarity(q, f))
    assert apolarity(poly_mul(p, q), f) == apolarity(p, apolarity(q, f))
    assert apolarity(q, apolarity(p, f)) == apolarity(p, apolarity(q, f))


def test_known_inverse_system():
    system = inverse_system(module_from(SMALL4))
    assert system.basis == ((0, 0), (1, 0), (0, 1), (0, 2))
    assert system.labels() == ["1", "X1", "X2", "X2^2"]
    assert system.grading.coeffs == (1, 2, 1)


def test_known_inner_span_and_dual_corners():
    system = inverse_system(module_from(SMALL4))
    span = system.inner
    assert span.dim == 2
    assert span.contains(system.basis_element((0, 0)))
    assert span.contains(system.basis_element((0, 1)))
    assert not span.contains(system.basis_element((1, 0)))
    assert system.corners == ((1, 0), (0, 2))


def test_socle_dual_generators():
    # the corner duals generate the largest reduced quotient I-perp / m o I-perp
    system = inverse_system(module_from(SMALL4))
    assert [system.label(e) for e in system.corners] == ["X1", "X2^2"]
    assert system.inner.dim == 2
    system = inverse_system(module_from(FLAT7))
    assert [system.label(e) for e in system.corners] == ["X^3", "X^2*Y"]


def test_every_ideal_generator_annihilates_the_dual_basis():
    for _, variables, ideal in sample_ideals(25, seed=31):
        system = inverse_system(QuotientModule(variables, ideal))
        for g in ideal.min_gens:
            for e in system.basis:
                assert apolarity(poly_monomial(g), poly_monomial(e)) == Polynomial()


def test_dual_basis_mirrors_the_staircase():
    # the dual monomials every generator of I contracts to zero, found by
    # apolarity alone, are the basis I-perp takes from the staircase
    for _, m in sample_modules(25, seed=32):
        system = inverse_system(m)
        gens = [poly_monomial(g) for g in m.ideal.min_gens]
        top = max(sum(e) for e in m.basis) + 1
        killed = tuple(
            e
            for e in monomials_up_to_degree(m.n, top)
            if not any(apolarity(g, poly_monomial(e)).terms for g in gens)
        )
        assert system.basis == killed


def test_hilbert_duality_on_known_module():
    module = module_from(FLAT7)
    system = inverse_system(module)
    corners = outside_corners(module)
    hs_m, hs_d, hs_r, hs_rd = hilbert_duality_check(module, system, corners)
    assert hs_m.coeffs == (1, 2, 2, 2)
    assert hs_d.coeffs == (1, 2, 2, 2)
    assert hs_r.coeffs == (0, 0, 0, 2)
    assert hs_rd.coeffs == (0, 0, 0, 2)


def test_hilbert_duality_everywhere():
    for _, m in sample_modules(30, seed=33):
        system = inverse_system(m)
        corners = outside_corners(m)
        hs_m, hs_d, hs_r, hs_rd = hilbert_duality_check(m, system, corners)
        assert hs_m == hs_d and hs_r == hs_rd
        assert hs_m == hilbert(m)


def test_perp_round_trips_to_the_ideal():
    for _, m in sample_modules(30, seed=34):
        system = inverse_system(m)
        duals = [poly_monomial(e) for e in system.basis]
        assert perp_of_submodule(m.variables, duals) == m.ideal


def test_perp_of_partial_monomial_span():
    variables = VariableSet(("x", "y"))
    # annihilator of span{1, X, Y, XY} is <x^2, y^2>
    duals = [mono(0, 0), mono(1, 0), mono(0, 1), mono(1, 1)]
    assert perp_of_submodule(variables, duals) == minimalize([(2, 0), (0, 2)])
    # a nonzero coefficient generates the same submodule
    scaled = [poly_monomial(e, 3) for e in ((0, 0), (1, 0), (0, 1), (1, 1))]
    assert perp_of_submodule(variables, scaled) == minimalize([(2, 0), (0, 2)])


def test_perp_refuses_a_generator_set_that_is_not_minimal(monkeypatch):
    # perp builds its ideal from minimal_outside's list as it stands, so a
    # surplus multiple of a generator is refused, not silently dropped
    def with_a_multiple(closure, n):
        gens = minimal_outside(closure, n)
        return gens + [tuple(e + 1 for e in gens[0])]

    monkeypatch.setattr(inverse, "minimal_outside", with_a_multiple)
    variables = VariableSet(("x", "y"))
    duals = [mono(0, 0), mono(1, 0), mono(0, 1), mono(1, 1)]
    with pytest.raises(AlgebraError, match="generators are not minimal"):
        perp_of_submodule(variables, duals)


@st.composite
def dual_monomial_sets(draw):
    n = draw(st.integers(1, 4))
    exps = st.tuples(*[st.integers(0, 4)] * n)
    return n, draw(st.lists(exps, min_size=1, max_size=5))


@given(dual_monomial_sets())
def test_minimal_outside_and_perp_match_the_box_reference(drawn):
    n, exps = drawn
    closure = {c for e in exps for c in product(*(range(v + 1) for v in e))}
    reference = complement_min_gens(closure, n)
    assert tuple(minimal_outside(closure, n)) == reference.min_gens
    variables = VariableSet(tuple(f"x{i}" for i in range(n)))
    duals = [poly_monomial(e, 2) for e in exps]
    assert perp_of_submodule(variables, duals) == reference


def test_perp_rejects_a_non_monomial_dual():
    variables = VariableSet(("x", "y"))
    for w in (plus(mono(2, 0), mono(0, 2)), Polynomial()):  # X^2 + Y^2, 0
        with pytest.raises(AlgebraError, match="non-monomial"):
            perp_of_submodule(variables, [mono(0, 0), w])


def test_perp_rejects_a_dual_of_the_wrong_arity():
    # too short, too long, and a zero vector one entry too long, which
    # the closure would take as the cell 1 of a 3-variable ring
    variables = VariableSet(("x", "y"))
    for exps in ((3,), (1, 2, 3), (0, 0, 0)):
        with pytest.raises(AlgebraError, match="^mismatched arities under apolarity$"):
            perp_of_submodule(variables, [mono(0, 0), poly_monomial(exps)])


def test_perp_rejects_empty_input():
    with pytest.raises(AlgebraError):
        perp_of_submodule(VariableSet(("x",)), [])


def test_truncated_dual_basis():
    td = truncated_dual(2, 2)
    assert td.basis == ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
    with pytest.raises(AlgebraError):
        truncated_dual(0, 2)


def test_truncated_dual_is_the_inverse_system_of_a_power_of_m():
    for n in range(1, 5):
        for bound in range(1, 6):
            td = truncated_dual(n, bound)
            assert isinstance(td, InverseSystem)
            assert td.basis == tuple(monomials_up_to_degree(n, bound))
            top = [e for e in monomials_up_to_degree(n, bound + 1) if sum(e) > bound]
            assert td.ideal == minimalize(top)
    with pytest.raises(AlgebraError):
        truncated_dual(2, 0)


def test_truncated_dual_checks_are_live(monkeypatch):
    # the report reads the system's operators and inverse.contraction; each
    # case breaks one of them on the real degree <= 2 dual in x, y
    system = truncated_dual(2, 2)
    moves_all = tuple(tuple({0: 1} for _ in op) for op in system.action)
    moves_one = tuple(({0: 1},) + op[1:] for op in system.action)
    cases = [
        # (split, operators, contraction value, message)
        (1, moves_all, None, "trailing variable fails to annihilate (0, 0)"),
        (2, moves_one, None, "a positive-degree monomial moved 1"),
        (0, system.action, 1, "power witness fails to kill (1, 0)"),
        (0, system.action, 0, "variable witness wrongly kills (1, 0)"),
        (2, system.action, 1, "reduced witness fails to kill (1, 0)"),
        (2, system.action, 0, "reduced witness wrongly kills (1, 0)"),
    ]
    for split, action, value, message in cases:
        slot_maps = tuple(map(slot_map, action))
        broken = SimpleNamespace(basis=system.basis, slot_maps=slot_maps)
        with monkeypatch.context() as m:
            m.setattr(inverse, "truncated_dual", lambda n, bound: broken)
            if value is not None:
                m.setattr(inverse, "contraction", lambda a, b: value)
            with pytest.raises(InternalCheckError, match=f"^{re.escape(message)}$"):
                truncated_dual_report(2, split, 2)


def test_truncation_report_reads_slot_maps(monkeypatch):
    # the truncated dual is built from slot maps, and the report reads
    # those; no dict columns of `action` are built
    built = []
    monkeypatch.setattr(
        torsion, "slot_columns", lambda m: built.append(m) or slot_columns(m)
    )
    for n, split, bound in [(2, 1, 3), (3, 1, 3), (3, 2, 4)]:
        truncated_dual_report(n, split, bound)
    assert built == []


def test_truncation_report_witnesses_check_out():
    for n, split, bound in [(2, 1, 3), (3, 1, 3), (3, 2, 4)]:
        report = truncated_dual_report(n, split, bound)
        assert report.annihilation_checks > 0
        assert report.membership_checks > 0
        duals = [e for e in monomials_up_to_degree(n, bound) if any(e)]
        assert len(report.witnesses) == len(duals)
        for e, killer, single in report.witnesses:
            # the witness pair shows the element is not reduced in the
            # truncated dual: a power kills it while the variable does not
            assert apolarity(poly_monomial(killer), poly_monomial(e)) == Polynomial()
            assert apolarity(poly_monomial(single), poly_monomial(e)) != Polynomial()


def test_unit_ideal_has_trivial_dual():
    variables = VariableSet(("x", "y"))
    system = inverse_system(QuotientModule(variables, minimalize([(1, 0), (0, 1)])))
    assert system.basis == ((0, 0),)
    assert system.corners == ((0, 0),)
    assert system.inner.dim == 0


def test_contraction_operators_match_apolarity():
    for _, variables, ideal in sample_ideals(25, seed=35):
        system = inverse_system(QuotientModule(variables, ideal))
        for i, op in enumerate(system.action):
            x = poly_monomial(tuple(int(j == i) for j in range(variables.n)))
            for e, col in zip(system.basis, op):
                image = apolarity(x, poly_monomial(e))
                assert col == {system.index[f]: c for f, c in image.terms.items()}


def test_dual_corners_are_the_staircase_corners():
    for _, variables, ideal in sample_ideals(25, seed=35):
        module = QuotientModule(variables, ideal)
        system = inverse_system(module)
        assert system.corners == outside_corners(module)


def test_contraction_image_check_is_live(monkeypatch):
    monkeypatch.setattr(inverse, "image_span", lambda ops, d: full_space(d))
    with pytest.raises(InternalCheckError, match="non-maximal duals"):
        inverse_system(module_from(FLAT7))


def test_downward_closure_check_is_live():
    # drop one target of M's shift by y: the cell x*y of FLAT7 then has no
    # preimage under it, as if x*y were in the basis and x were not
    module = module_from(FLAT7)
    shift_y = module.slot_maps[1]
    slots = tuple(None if t == module.index[(1, 1)] else t for t in shift_y.slots)
    module.slot_maps = (module.slot_maps[0], SlotMap(slots, shift_y.coeffs))
    with pytest.raises(InternalCheckError, match="^dual staircase is not downward closed$"):
        inverse_system(module)


def test_contraction_maps_invert_the_shifts():
    # contraction by x_i sends each target of M's shift by x_i back to its
    # source, with coefficient e_i, and kills the cells with e_i = 0
    for _, variables, ideal in sample_ideals(25, seed=36):
        module = QuotientModule(variables, ideal)
        system = inverse_system(module)
        for i, (shift, back) in enumerate(zip(module.slot_maps, system.slot_maps)):
            for b, e in enumerate(module.basis):
                t = shift.slots[b]
                if t is not None:
                    assert back.slots[t] == b and back.coeffs[t] == e[i] + 1
                if e[i] == 0:
                    assert back.slots[b] is None and back.coeffs[b] == 0


def test_generator_annihilation_check_is_live(monkeypatch):
    # (3, 0) = X^3 is the first maximal dual monomial of FLAT7 in canonical
    # order, the first the check reads
    monkeypatch.setattr(inverse, "contraction", lambda a, b: 1)
    message = "dual staircase monomial (3, 0) not annihilated by a generator"
    with pytest.raises(InternalCheckError, match=f"^{re.escape(message)}$"):
        inverse_system(module_from(FLAT7))


def test_non_staircase_survival_check_is_live(monkeypatch):
    # (0, 2) = Y^2 is the first minimal non-staircase dual monomial of
    # FLAT7 in canonical order
    monkeypatch.setattr(inverse, "contraction", lambda a, b: 0)
    message = "non-staircase dual monomial (0, 2) annihilated by every generator"
    with pytest.raises(InternalCheckError, match=f"^{re.escape(message)}$"):
        inverse_system(module_from(FLAT7))


def test_hilbert_duality_check_is_live(monkeypatch, capsys):
    # contraction by x sends X*Y to 1 instead of Y: X*Y then lies at depth
    # 1, so I-perp reads 1 + 4t + 2t^2 + t^3 against M's 1 + 3t + 3t^2 +
    # t^3.  Y is still a target (of Z*Y under z), so the contraction image
    # check passes; the commutation check, which would refuse the maps
    # first, is patched out.
    cube = "ring x,y,z; ideal x^2, y^2, z^2"
    index = module_from(cube).index
    original, built = inverse._contraction_map, []

    def redirected(shift, exps):
        m = original(shift, exps)
        built.append(m)
        if len(built) > 1:
            return m
        slots = list(m.slots)
        slots[index[(1, 1, 0)]] = index[(0, 0, 0)]
        return SlotMap(tuple(slots), m.coeffs)

    monkeypatch.setattr(inverse, "_contraction_map", redirected)
    monkeypatch.setattr(torsion, "slot_maps_commute", lambda *args: True)
    monkeypatch.setattr("sys.stdin", io.StringIO(cube))
    assert main(["hilbert"]) == 3
    out, err = capsys.readouterr()
    assert (out, err) == ("", "internal check failed: Hilbert series of M and I-perp differ\n")


def test_inverse_system_builds_no_polynomial(monkeypatch):
    module = module_from("ring x,y; ideal x^14, y^14")
    built = []
    init = Polynomial.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Polynomial, "__init__", counted)
    inverse_system(module)
    assert built == []


def test_inverse_system_runs_every_contraction_check(monkeypatch):
    # every maximal basis monomial against every generator, then, for each
    # minimal monomial outside the staircase (the generators of I), the
    # generators tried up to the first that moves it: 1 * 3 + (1 + 2 + 3)
    # = 9 on x^5, y^5, z^5
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return contraction(a, b)

    monkeypatch.setattr(inverse, "contraction", counted)
    for text, pinned in (("ring x,y,z; ideal x^5, y^5, z^5", 9), (FLAT7, 12)):
        module = module_from(text)
        gens = module.ideal.min_gens
        maximal = outside_corners(module)
        expected = len(maximal) * len(gens) + sum(
            next(k for k, g in enumerate(gens, 1) if divides(g, e)) for e in gens
        )
        assert expected == pinned
        calls.clear()
        inverse_system(module)
        assert len(calls) == expected


def _count_systems(monkeypatch) -> list:
    built = []
    post_init = InverseSystem.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(InverseSystem, "__post_init__", counted)
    return built


@pytest.mark.parametrize("command", ["report", "dual", "hilbert"])
def test_each_command_builds_one_inverse_system(command, monkeypatch, capsys):
    built = _count_systems(monkeypatch)
    monkeypatch.setattr("sys.stdin", io.StringIO(FLAT7))
    assert main([command]) == 0
    capsys.readouterr()
    assert len(built) == 1


def test_hs_duality_case_builds_one_inverse_system(monkeypatch):
    built = _count_systems(monkeypatch)
    assert run_suite("hs-duality", 5, 0).ok
    assert len(built) == 5
