"""Torsion parts, completions, Matlis duals, and the class tags.

Staircase quotients are finite modules themselves: their operators are
checked against the shift tables, the functor values against hand-computed
kernels and images.  `classify` carries the torsion-theory claims, so the
torsion part and the completion are read off its fields.
"""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from artquot import suites, torsion
from artquot.instances import (
    _random_unimodular,
    random_finite_module,
    random_monomial_ideal_polys,
    sample_modules,
)
from artquot.linalg import (
    SlotMap,
    Subspace,
    op_mul,
    op_power,
    op_transpose,
    rank,
    slot_compose,
    slot_map,
    slot_maps_commute,
    slot_power,
)
from artquot.quotient import QuotientModule
from artquot.ring import (
    AlgebraError,
    InternalCheckError,
    parse_input,
    parse_polynomial_list,
    poly_monomial,
)
from artquot.torsion import (
    FiniteModule,
    TtfTag,
    classify,
    conjugate,
    image_span,
    joint_kernel,
    matlis_dual,
    verify_ttf_duality,
)
import dense_reference as ref
from dense_reference import (
    ev_add,
    full_space,
    operator_from_rows,
    operator_rows,
    poly_mul,
    submodule_module,
    word_rank_profile,
)

STAIR11 = "ring x,y; ideal x^4, x^3*y, x^2*y^2, x*y^3, y^5"
FLAT7 = "ring x,y; ideal x^4, x^3*y, y^2"


def module_from(text):
    return QuotientModule(*parse_input(text))


def annihilator_of(module, gens):
    """(0 : J), the joint kernel of the generator operators."""
    return joint_kernel([module.poly_matrix(g) for g in gens], module.dim)


def image_of(module, gens):
    """J M, the image span of the generator operators."""
    return image_span([module.poly_matrix(g) for g in gens], module.dim)


def scalar_module(*diags):
    """One variable acting as a diagonal matrix."""
    d = len(diags)
    mat = tuple(
        tuple(diags[i] if i == j else 0 for j in range(d)) for i in range(d)
    )
    return FiniteModule(1, d, (operator_from_rows(mat),))


def test_from_quotient_matches_action_matrices():
    # the quotient's operators are the 0/1 shift matrices of the staircase
    m = module_from(FLAT7)
    assert isinstance(m, FiniteModule)
    assert m.dim == 7 and m.nvars == m.n == 2
    for i in range(m.n):
        step = tuple(int(j == i) for j in range(m.n))
        rows = [[0] * m.dim for _ in range(m.dim)]
        for b, e in enumerate(m.basis):
            target = m.index.get(ev_add(e, step))
            if target is not None:
                rows[target][b] = 1
        assert operator_rows(m.action[i]) == tuple(map(tuple, rows))


def test_commutation_is_validated():
    a = ((0, 1), (0, 0))
    b = ((1, 0), (0, 2))
    with pytest.raises(AlgebraError):
        FiniteModule(2, 2, (operator_from_rows(a), operator_from_rows(b)))


_NONZERO = st.one_of(
    st.sampled_from((-3, -1, 2, 5)),
    st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool),
)


@st.composite
def slot_map_pairs(draw, max_dim=6):
    """Two single-entry operators on one space, with all coefficients 1 or
    with nonzero int and Fraction ones.  Half the time the second has the
    first's slots, so the slot maps commute and only the coefficients can
    tell the two products apart."""
    d = draw(st.integers(1, max_dim))
    coeff = st.just(1) if draw(st.booleans()) else _NONZERO

    def coeffs_for(slots):
        return tuple(0 if t is None else draw(coeff) for t in slots)

    slot = st.one_of(st.none(), st.integers(0, d - 1))
    sa = tuple(draw(st.lists(slot, min_size=d, max_size=d)))
    sb = sa if draw(st.booleans()) else tuple(draw(st.lists(slot, min_size=d, max_size=d)))
    return SlotMap(sa, coeffs_for(sa)), SlotMap(sb, coeffs_for(sb))


def columns(m: SlotMap):
    return tuple({} if t is None else {t: c} for t, c in zip(*m))


@settings(max_examples=300)
@given(slot_map_pairs())
def test_slot_composition_matches_products(pair):
    a, b = pair
    ops = columns(a), columns(b)
    assert (slot_map(ops[0]), slot_map(ops[1])) == (a, b)
    assert columns(slot_compose(a, b)) == op_mul(*ops)
    commute = op_mul(*ops) == op_mul(*reversed(ops))
    assert slot_maps_commute(a, b) == slot_maps_commute(b, a) == commute
    if commute:
        FiniteModule(2, len(ops[0]), ops)
    else:
        with pytest.raises(AlgebraError, match="action matrices 0 and 1 do not commute"):
            FiniteModule(2, len(ops[0]), ops)


def test_commuting_slots_with_non_commuting_coefficients():
    # a sends slot 0 to twice slot 1 and kills slot 1; b is diag(1, 3).
    # Both products send slot 0 to slot 1 and kill slot 1, but a*b takes
    # 2 times slot 1 and b*a 6 times.
    a = SlotMap((1, None), (2, 0))
    b = SlotMap((0, 1), (1, 3))
    assert slot_compose(a, b).slots == slot_compose(b, a).slots == (1, None)
    assert slot_compose(a, b).coeffs == (2, 0) != slot_compose(b, a).coeffs == (6, 0)
    assert not slot_maps_commute(a, b)
    with pytest.raises(AlgebraError, match="action matrices 0 and 1 do not commute"):
        FiniteModule(2, 2, (columns(a), columns(b)))
    # with unit coefficients the same slots commute
    assert slot_maps_commute(SlotMap((1, None), (1, 0)), SlotMap((0, 1), (1, 1)))


@settings(max_examples=200)
@given(slot_map_pairs(), st.integers(1, 9))
def test_slot_power_matches_operator_power(pair, k):
    m = pair[0]
    assert columns(slot_power(m, k)) == op_power(columns(m), k)


def test_slot_power_stops_at_the_zero_map(monkeypatch):
    # a shift on 4 slots is zero from its 4th power on, so its power
    # 2^4000 - 1 squares twice and composes once before it stops
    shift = SlotMap((1, 2, 3, None), (1, 1, 1, 0))
    calls = []

    def counted(a, b):
        calls.append(None)
        return slot_compose(a, b)

    monkeypatch.setattr("artquot.linalg.slot_compose", counted)
    assert slot_power(shift, 2**4000 - 1) == SlotMap((None,) * 4, (0,) * 4)
    assert len(calls) == 3


def test_monomial_maps_need_single_entry_operators():
    a = operator_from_rows(((1, 1), (0, 1)))  # column 1 holds two entries
    b = operator_from_rows(((2, 0), (0, 2)))
    module = FiniteModule(2, 2, (a, op_mul(a, a)))
    assert module.slot_maps == (None, None)
    assert module.monomial_map((1, 0)) is None
    mixed = FiniteModule(2, 2, (b, a))
    assert mixed.slot_maps == (slot_map(b), None)
    assert mixed.monomial_map((1, 0)) is None
    assert mixed.poly_matrix(poly_monomial((1, 0), 1)) == b


def test_huge_power_of_a_cycle_is_composed_not_applied():
    # x cycles three slots, so x^2000000 is x^2, found by squaring the
    # slot map instead of applying x two million times
    cycle = ({1: 1}, {2: 1}, {0: 1})
    module = FiniteModule(1, 3, (cycle,))
    start = time.perf_counter()
    op = module.poly_matrix(poly_monomial((2_000_000,), 1))
    assert time.perf_counter() - start < 1.0
    assert op == op_mul(cycle, cycle) == ({2: 1}, {0: 1}, {1: 1})


class _NotDownSet(QuotientModule):
    """Shifts on {1, x, x*y}, which is not a down-set: y is missing, so
    y * 1 = 0 while y * x = x*y."""

    def __init__(self):
        self.basis = ((0, 0), (1, 0), (1, 1))
        self.index = {e: i for i, e in enumerate(self.basis)}
        self.names = ("x", "y")
        FiniteModule.__init__(self, 2, 3, slot_maps=self._shift_maps())


def test_shifts_of_a_non_down_set_do_not_commute(monkeypatch):
    # single-entry operators never reach the product check
    monkeypatch.setattr(torsion, "op_mul", None)
    with pytest.raises(AlgebraError, match="action matrices 0 and 1 do not commute"):
        _NotDownSet()


def test_multi_entry_operators_are_checked_by_products(monkeypatch):
    a = operator_from_rows(((1, 1), (0, 1)))  # column 1 holds two entries
    b = operator_from_rows(((1, 0), (0, 2)))
    assert slot_map(a) is None and slot_map(b) is not None
    products = []

    def counted(x, y):
        products.append((x, y))
        return op_mul(x, y)

    monkeypatch.setattr(torsion, "op_mul", counted)
    with pytest.raises(AlgebraError, match="action matrices 0 and 1 do not commute"):
        FiniteModule(2, 2, (a, b))
    assert products == [(a, b), (b, a)]
    FiniteModule(2, 2, (a, op_mul(a, a)))


def test_operators_are_validated():
    with pytest.raises(AlgebraError):
        FiniteModule(1, 2, (({}, {2: Fraction(1)}),))  # row out of range
    with pytest.raises(AlgebraError):
        FiniteModule(1, 2, (({}, {0: Fraction(0)}),))  # stored zero
    with pytest.raises(AlgebraError):
        FiniteModule(1, 2, (({},),))  # one column short


def test_slot_form_operators_are_validated():
    good = SlotMap((1, None), (1, 0))
    assert FiniteModule(1, 2, slot_maps=(good,)).action == (({1: 1}, {}),)
    for bad in (
        SlotMap((2, None), (1, 0)),  # row out of range
        SlotMap((-1, None), (1, 0)),
        SlotMap((1, None), (0, 0)),  # a stored zero
        SlotMap((1, None), (1, 1)),  # an empty column with an entry
        SlotMap((1, None), (0, 5)),  # both, as many zeros as empty columns
        SlotMap((1,), (1,)),  # one column short
        SlotMap((1, None), (1,)),
    ):
        with pytest.raises(AlgebraError, match="wrong shape or a stored zero"):
            FiniteModule(1, 2, slot_maps=(bad,))
    with pytest.raises(AlgebraError, match="one action matrix per variable"):
        FiniteModule(2, 2, slot_maps=(good,))
    assert FiniteModule(0, 2, ()).slot_maps == ()
    assert FiniteModule(0, 2, slot_maps=()).action == ()
    with pytest.raises(AlgebraError, match="operators or their slot maps"):
        FiniteModule(1, 2)
    with pytest.raises(AlgebraError, match="operators or their slot maps"):
        FiniteModule(1, 2, (({1: 1}, {}),), slot_maps=(good,))


def test_slot_form_and_column_form_build_the_same_module():
    for _, m in sample_modules(20, seed=47):
        again = FiniteModule(m.nvars, m.dim, m.action)
        assert again.slot_maps == m.slot_maps
        assert again.action == m.action
    with pytest.raises(AlgebraError, match="action matrices 0 and 1 do not commute"):
        FiniteModule(2, 3, slot_maps=(SlotMap((1, None, None), (1, 0, 0)),
                                      SlotMap((None, 2, None), (0, 1, 0))))


def test_poly_matrix_respects_products():
    m = module_from(FLAT7)
    p = parse_polynomial_list("x*y + 2*x", m.variables)[0]
    q = parse_polynomial_list("y - 1", m.variables)[0]
    assert m.poly_matrix(poly_mul(p, q)) == op_mul(m.poly_matrix(p), m.poly_matrix(q))


def test_annihilator_and_image_known_values():
    m = module_from(FLAT7)
    y = parse_polynomial_list("y", m.variables)[0]
    ann = annihilator_of(m, [y])
    expected = Subspace(
        m.dim,
        [m.basis_element(e) for e in [(0, 1), (1, 1), (3, 0), (2, 1)]],
    )
    assert ann == expected

    big = module_from(STAIR11)
    j = [poly_monomial((3, 0)), poly_monomial((0, 4))]
    image = image_of(big, j)
    assert image == Subspace(
        big.dim, [big.basis_element((3, 0)), big.basis_element((0, 4))]
    )


def test_torsion_part_is_everything_for_nilpotent_actions():
    # every variable is nilpotent on an Artinian staircase quotient, so the
    # torsion part is the whole module even though the first level is smaller
    m = module_from(FLAT7)
    y = parse_polynomial_list("y", m.variables)[0]
    assert classify(m, [y]).gamma_dim == m.dim
    assert annihilator_of(m, [poly_mul(y, y)]).dim == m.dim  # y^2 = 0 on this module
    assert annihilator_of(m, [y]).dim == 4


def test_split_check_fires_when_the_power_is_too_small(monkeypatch):
    # with G^2 in place of G^d, G = x, the two halves are ker x^2 (dim 4)
    # and im x^2 (dim 3); their dimensions add up to 7, but im x^2 lies in
    # ker x^2.  x is one term, so its slot map is the one squared up
    m = module_from(FLAT7)
    x = parse_polynomial_list("x", m.variables)[0]
    assert classify(m, [x]).gamma_dim == m.dim
    monkeypatch.setattr(torsion, "_square_up", lambda slot, power, d: power)
    with pytest.raises(InternalCheckError, match="direct sum"):
        classify(m, [x])


def test_split_check_fires_on_the_operator_path_too(monkeypatch):
    # x + x*y = x(1 + y) has the kernels and images of x's powers, and
    # columns of two entries, so its operator's square is the one squared up
    m = module_from(FLAT7)
    g = parse_polynomial_list("x + x*y", m.variables)[0]
    assert not torsion._form([m.poly_matrix(g)])[0]
    assert classify(m, [g]).gamma_dim == m.dim
    monkeypatch.setattr(torsion, "_square_up", lambda slot, power, d: power)
    with pytest.raises(InternalCheckError, match="direct sum"):
        classify(m, [g])


def test_torsion_part_of_invertible_action_is_zero():
    fm = scalar_module(2, 3)
    x = poly_monomial((1,))
    tag = classify(fm, [x])
    assert tag.gamma_dim == 0
    assert tag.lambda_dim == 0  # x M = M


def test_mixed_action_splits():
    fm = scalar_module(0, 5)
    x = poly_monomial((1,))
    tag = classify(fm, [x])
    assert tag.gamma_dim == 1
    assert tag.lambda_dim == 1


def test_submodule_and_quotient_modules():
    fm = scalar_module(0, 5, 0)
    x = poly_monomial((1,))
    gamma = Subspace(fm.dim, torsion._levels(fm, [x])[4])
    sub = submodule_module(fm, gamma)
    assert sub.dim == 2
    assert sub.action[0] == ({}, {})
    quo = ref.quotient_module(ref.DenseModule.of(fm), gamma)
    assert quo.dim == 1
    assert quo.action[0] == ((5,),)


def test_matlis_dual_is_an_involution_with_swapped_functors():
    rng = random.Random(9)
    for _ in range(20):
        fm = random_finite_module(rng)
        gens = random_monomial_ideal_polys(rng, fm.nvars)
        dual = matlis_dual(fm)
        assert matlis_dual(dual).action == fm.action
        # annihilators pair with images, torsion with completion
        assert annihilator_of(fm, gens).dim == fm.dim - image_of(dual, gens).dim
        mine, theirs = classify(fm, gens), classify(dual, gens)
        assert mine.gamma_dim == theirs.lambda_dim
        assert mine.lambda_dim == theirs.gamma_dim


def test_reduced_and_coreduced_predicates():
    m = module_from(FLAT7)
    y = parse_polynomial_list("y", m.variables)[0]
    assert not classify(m, [y]).j_reduced
    defining = [poly_monomial(g) for g in m.ideal.min_gens]
    tag = classify(m, defining)
    assert tag.j_reduced
    assert tag.j_coreduced  # both images are zero


def test_classify_whole_quotient_is_torsion():
    m = module_from(FLAT7)
    defining = [poly_monomial(g) for g in m.ideal.min_gens]
    tag = classify(m, defining)
    assert tag.tag == "T_I"
    assert tag.j_reduced and tag.j_coreduced
    assert tag.gamma_dim == m.dim and tag.lambda_dim == m.dim


def test_classify_invertible_action_is_coreduced_torsion():
    fm = scalar_module(2)
    tag = classify(fm, [poly_monomial((1,))])
    # x M = M and the module is also torsion-free; the coreduced tag wins
    assert tag.tag == "FrakT_I"
    assert tag.j_coreduced and tag.gamma_dim == 0


def test_classify_zero_action_is_torsion():
    fm = scalar_module(0)
    tag = classify(fm, [poly_monomial((1,))])
    assert tag.tag == "T_I"
    assert tag.gamma_dim == 1


def test_classify_mixed_module_has_no_tag():
    fm = scalar_module(0, 2)
    tag = classify(fm, [poly_monomial((1,))])
    assert tag.tag == "none"
    assert tag.gamma_dim == 1 and tag.lambda_dim == 1


def test_tag_invariants_are_enforced():
    with pytest.raises(AlgebraError):
        TtfTag("T_I", False, True, 1, 1)
    with pytest.raises(AlgebraError):
        TtfTag("FrakT_I", True, False, 0, 0)
    with pytest.raises(AlgebraError):
        TtfTag("bogus", True, True, 0, 0)


def test_duality_exchanges_the_classes():
    rng = random.Random(17)
    seen = set()
    for _ in range(40):
        fm = random_finite_module(rng)
        gens = random_monomial_ideal_polys(rng, fm.nvars)
        report = verify_ttf_duality(fm, gens)
        assert report.ok
        seen.add(report.hypothesis_met)
    # the sampler exercises both the applicable and the skipped branch
    assert seen == {True, False}


def test_duality_skips_when_hypotheses_fail():
    m = module_from(FLAT7)
    y = parse_polynomial_list("y", m.variables)[0]
    report = verify_ttf_duality(m, [y])  # not reduced relative to <y>
    assert not report.hypothesis_met
    assert report.items == ("skipped", "skipped", "skipped")


def test_level_collapse_on_known_cases():
    # reduced and coreduced: Gamma = (0 : J), and the completion is M / J M
    m = module_from(FLAT7)
    defining = [poly_monomial(g) for g in m.ideal.min_gens]
    tag = classify(m, defining)
    assert tag.j_reduced and tag.j_coreduced
    assert tag.gamma_dim == annihilator_of(m, defining).dim
    assert tag.lambda_dim == m.dim - image_of(m, defining).dim

    # zero action: every torsion level is M
    flat = FiniteModule(1, 2, (({}, {}),))
    x = poly_monomial((1,))
    tag = classify(flat, [x])
    assert tag.gamma_dim == annihilator_of(flat, [x]).dim == 2


def _fake_fitting(gamma_of, tail_of):
    """A `_fitting` returning the given functions of the true split, Gamma
    as the subspace its basis spans and J^inf M as its dimension."""
    fitting = torsion._fitting

    def fake(slot, family, d):
        gamma, tail_dim = fitting(slot, family, d)
        return list(gamma_of(Subspace(d, gamma), d).rows), tail_of(tail_dim, d)

    return fake


def _same(space, d):
    return space


def test_semisimple_collapse_check_is_live(monkeypatch):
    fake = _fake_fitting(lambda gamma, d: Subspace(d), _same)
    monkeypatch.setattr(torsion, "_fitting", fake)
    flat = FiniteModule(1, 2, (({}, {}),))
    with pytest.raises(InternalCheckError, match="semisimple module"):
        classify(flat, [poly_monomial((1,))])


def test_reduced_collapse_check_is_live(monkeypatch):
    fake = _fake_fitting(lambda gamma, d: Subspace(d), _same)
    monkeypatch.setattr(torsion, "_fitting", fake)
    m = module_from(FLAT7)
    with pytest.raises(InternalCheckError, match="deeper torsion part"):
        classify(m, [poly_monomial(g) for g in m.ideal.min_gens])


def test_coreduced_collapse_check_is_live(monkeypatch):
    fake = _fake_fitting(_same, lambda tail, d: full_space(d).dim)
    monkeypatch.setattr(torsion, "_fitting", fake)
    m = module_from(FLAT7)
    with pytest.raises(InternalCheckError, match="deeper completion"):
        classify(m, [poly_monomial(g) for g in m.ideal.min_gens])


def test_classification_is_conjugation_invariant():
    rng = random.Random(23)
    for _ in range(15):
        fm = random_finite_module(rng, conjugated=False)
        gens = random_monomial_ideal_polys(rng, fm.nvars)
        p, p_inv = _random_unimodular(rng, fm.dim)
        other = conjugate(fm, p, p_inv)
        a = classify(fm, gens)
        b = classify(other, gens)
        assert (a.tag, a.j_reduced, a.j_coreduced, a.gamma_dim, a.lambda_dim) == (
            b.tag, b.j_reduced, b.j_coreduced, b.gamma_dim, b.lambda_dim,
        )
        assert word_rank_profile(fm) == word_rank_profile(other)


def test_word_rank_profile_sees_the_difference():
    assert word_rank_profile(scalar_module(0, 1)) != word_rank_profile(
        scalar_module(1, 1)
    )


def test_zero_module_classifies_cleanly():
    # the zero module over k[x]
    zero = FiniteModule(1, 0, ((),))
    tag = classify(zero, [poly_monomial((1,))])
    assert tag.gamma_dim == 0 and tag.lambda_dim == 0
    report = verify_ttf_duality(zero, [poly_monomial((1,))])
    assert report.ok


def test_ttf_suite_classifies_each_module_once(monkeypatch):
    calls = []
    original = torsion.classify

    def counted(module, gens):
        calls.append(module)
        return original(module, gens)

    monkeypatch.setattr(torsion, "classify", counted)
    monkeypatch.setattr(suites, "classify", counted)
    assert suites.run_suite("ttf-duality", 20, 0).ok
    # the module, its conjugate, and its dual when the hypothesis holds
    assert len(calls) == 55


def test_a_ttf_instance_dualizes_once_and_checks_that_dual(monkeypatch):
    calls, duals, transposed = [], [], []
    original = torsion.matlis_dual
    transpose = suites.op_transpose

    def counted(module):
        calls.append(module)
        duals.append(original(module))
        return duals[-1]

    monkeypatch.setattr(torsion, "matlis_dual", counted)
    monkeypatch.setattr(suites, "matlis_dual", counted)
    monkeypatch.setattr(
        suites, "op_transpose", lambda op: transposed.append(op) or transpose(op)
    )
    met = set()
    for seed in range(12):
        rng = random.Random(seed)
        module = random_finite_module(rng)
        gens = random_monomial_ideal_polys(rng, module.nvars)
        hypothesis = verify_ttf_duality(module, gens).hypothesis_met
        calls.clear()
        duals.clear()
        transposed.clear()
        suites._ttf_case(seed, None)
        met.add(hypothesis)
        # the module is dualized once: by the duality check, or by the
        # double-dual check when the module misses the hypothesis; the
        # double-dual check transposes the operators of that one dual
        assert len(calls) == 1, seed
        assert calls[0].action == module.action, seed
        assert list(map(id, transposed)) == list(map(id, duals[0].action)), seed
    assert met == {True, False}


def test_a_ttf_instance_builds_each_module_once(monkeypatch):
    built, met = [], []
    post_init = FiniteModule.__post_init__
    check = suites.verify_ttf_duality

    def recorded(module, gens):
        report = check(module, gens)
        met.append(report.hypothesis_met)
        return report

    monkeypatch.setattr(
        FiniteModule, "__post_init__", lambda self: built.append(self) or post_init(self)
    )
    monkeypatch.setattr(suites, "verify_ttf_duality", recorded)
    for seed in range(12):
        built.clear()
        suites._ttf_case(seed, None)
        # the drawn module, its conjugate and its dual; the sampler sums
        # the base matrix's powers without a module of its own
        assert len(built) == 3, seed
    assert set(met) == {True, False}


def test_the_report_carries_the_dual_it_classified():
    rng = random.Random(17)
    for _ in range(20):
        fm = random_finite_module(rng)
        gens = random_monomial_ideal_polys(rng, fm.nvars)
        report = verify_ttf_duality(fm, gens)
        if report.hypothesis_met:
            assert report.dual.action == matlis_dual(fm).action
        else:
            assert report.dual is None


def fitting_by_the_dth_power(slot, family, d):
    """Gamma_J M and dim J^inf M off op_power/slot_power(G, d) of each G."""
    power = slot_power if slot else op_power
    ker, tail = torsion._read(slot, [power(g, d) for g in family], d)
    if slot:
        return Subspace.units(d, ker), len(tail)
    return Subspace(d, ref.kernel(ker, d).rows), Subspace(d, tail).dim


def test_squared_up_powers_split_as_the_dth_powers():
    modules = []
    for seed in range(60):
        rng = random.Random(seed)
        fm = random_finite_module(rng)
        gens = random_monomial_ideal_polys(rng, fm.nvars)
        modules += [(fm, gens), (matlis_dual(fm), gens)]
    for _, m in sample_modules(15, seed=29):
        xs = [poly_monomial(tuple(int(j == i) for j in range(m.n))) for i in range(m.n)]
        for gens in ([poly_monomial(g) for g in m.ideal.min_gens], xs, xs[:1]):
            modules += [(m, gens), (matlis_dual(m), gens)]
    forms = set()
    for module, gens in modules:
        d = module.dim
        ops = [
            module.poly_matrix(g) if t is None else t
            for g, t in zip(gens, map(module.term_map, gens))
        ]
        slot, family = torsion._form(ops)
        forms.add(slot)
        gamma, tail_dim = torsion._levels(module, gens)[4:]
        assert (Subspace(d, gamma), tail_dim) == fitting_by_the_dth_power(
            slot, family, d
        )
    assert forms == {True, False}


def test_squaring_up_stops_at_the_zero_map(monkeypatch):
    # x1^2 lies in the ideal, so the square of x1 is the zero map and is
    # not squared again: one composition in all, where squaring up to
    # 2^16 >= 65,536 would compose fifteen zero maps of 65,536 cells
    names = [f"x{i}" for i in range(1, 17)]
    text = f"ring {','.join(names)}; ideal " + ", ".join(f"{x}^2" for x in names)
    cube = module_from(text)
    x1 = poly_monomial((1,) + (0,) * 15)
    composed = []

    def counted(a, b):
        composed.append(1)
        return slot_compose(a, b)

    monkeypatch.setattr(torsion, "slot_compose", counted)
    start = time.perf_counter()
    tag = classify(cube, [x1])
    assert time.perf_counter() - start < 1.0
    assert len(composed) == 1
    assert (tag.gamma_dim, tag.lambda_dim) == (cube.dim, cube.dim)


def test_one_generator_is_eliminated_once_per_level(monkeypatch):
    # x+y has no slot map, so each level's family is one dict-column
    # operator: its columns alone give both dimensions.  The J level, the
    # J^2 level and the split make one `rank` each, and only the Fitting
    # power is transposed, for Gamma's basis
    module = module_from("ring x,y; ideal x^4, y^4")
    (gen,) = parse_polynomial_list("x+y", module.variables)
    calls = {"rank": 0, "op_transpose": 0}

    def counting(name, f):
        def counted(*args):
            calls[name] += 1
            return f(*args)
        return counted

    monkeypatch.setattr(torsion, "rank", counting("rank", rank))
    monkeypatch.setattr(torsion, "op_transpose", counting("op_transpose", op_transpose))
    tag = classify(module, [gen])
    assert calls == {"rank": 3, "op_transpose": 1}
    # x+y is nilpotent on the 16-dimensional box, with a kernel of 4 and
    # a square's kernel of 7, so the levels do not collapse
    assert tag == TtfTag("none", False, False, 16, 16)


_ENTRIES = st.one_of(
    st.integers(-4, 4),
    st.fractions(-3, 3, max_denominator=5).filter(lambda q: q.denominator > 1),
)


@st.composite
def dict_operators(draw, d):
    """(an operator on k^d as dict columns, its kind): zero, nilpotent
    (strictly upper triangular), full rank (upper triangular with a nonzero
    diagonal) or any entries, with int and Fraction values."""
    kind = draw(st.sampled_from(["zero", "nilpotent", "full", "any"]))
    cols = []
    for j in range(d):
        col = {}
        for i in range(d):
            if kind == "zero" or (kind != "any" and i > j):
                continue
            if kind == "nilpotent" and i == j:
                continue
            x = draw(_ENTRIES)
            if kind == "full" and i == j:
                x = x or 1
            if x:
                col[i] = x
        cols.append(col)
    return tuple(cols), kind


def two_readings(ops, d):
    """The dimensions of a family's joint kernel and image span, read off
    its stacked nonzero rows and its nonzero columns."""
    rows = [r for op in ops for r in op_transpose(op) if r]
    cols = [c for op in ops for c in op if c]
    return d - rank(rows, d), rank(cols, d)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 8).flatmap(
    lambda d: st.tuples(st.just(d), st.lists(dict_operators(d), min_size=3, max_size=3))
))
def test_one_operator_family_matches_both_readings(drawn):
    d, ops = drawn
    (g, kind), *_ = ops
    dims = torsion._dims(False, [g], d)
    assert dims == two_readings([g], d)
    expected = {"zero": 0, "full": d}.get(kind)
    if expected is not None:
        assert dims[1] == expected
    if kind == "nilpotent":
        assert dims[0] >= 1
    # a family of three, handed over as an iterator, keeps both readings
    family = [op for op, _ in ops]
    assert torsion._dims(False, iter(family), d) == two_readings(family, d)
