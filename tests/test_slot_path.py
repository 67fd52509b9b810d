"""The slot path of the torsion core against the general path it replaces.

`torsion._form` reads a family as slot maps when each is injective on its
live slots: then `joint_kernel` reads the columns dead in every map,
`image_span` the union of the targets, and `_levels`/`_fitting` count both
for J, J^2 and the d-th powers.  The general path, which the tests force
through `_form`, stacks dict columns and runs `null_basis`, `rank` and
`rref`; the kernel and image it reads are `dense_reference.joint_kernel`
and `image_span`, which the slot reads are held to.
The inputs are the modules the dense-reference tests draw (the ladder,
sampled staircases, random commuting families with and without a change
of basis), their inverse systems and their Matlis duals, and single-entry
maps that are not injective on their live slots, which must take the
general path in `classify` and which `joint_kernel` and `image_span`
refuse.  A module built from dict columns, as a Matlis dual or a
random family is, takes the general path; rebuilt from the slot maps read
off its columns (`dense_reference.slot_module`), where every column holds
one entry at most, it takes the slot path, and the two must agree.
"""

import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_reference as ref
from artquot import torsion
from artquot.instances import (
    SamplerConfig,
    random_finite_module,
    random_monomial_ideal_polys,
    sample_modules,
)
from artquot.inverse import inverse_system
from artquot.linalg import (
    SlotMap,
    slot_columns,
    slot_compose,
    slot_power,
    slot_targets,
)
from artquot.quotient import QuotientModule
from artquot.ring import (
    AlgebraError,
    InternalCheckError,
    Polynomial,
    parse_input,
    poly_monomial,
)
from artquot.torsion import _levels, classify, image_span, joint_kernel, matlis_dual

LADDER = (
    "ring x,y; ideal x^2, y^2",
    "ring x,y; ideal x^4, y^4",
    "ring x,y,z; ideal x^3, y^3, z^3",
    "ring x,y; ideal x^4, x^3*y, x^2*y^2, x*y^3, y^5",
    "ring x,y; ideal x^4, x^3*y, y^2",
    "ring x1,x2; ideal x1^2, x1*x2, x2^3",
)


def general_form(ops):
    """`torsion._form` forced onto the general path: the dict columns."""
    return False, [ref.columns(op) for op in ops]


def staircase_modules():
    for text in LADDER:
        yield QuotientModule(*parse_input(text))
    config = SamplerConfig(dim_bound=40)
    for _, module in sample_modules(30, seed=61, config=config):
        yield module


def random_modules():
    for seed in range(120):
        for conjugated in (False, True):
            rng = random.Random(seed)
            yield random_finite_module(rng, conjugated), rng


def families(module, gens):
    """Generator maps of J, the products of two, and the d-th powers,
    as slot maps where each generator has one, else as operators."""
    ops = []
    for g in gens:
        m = module.term_map(g)
        ops.append(module.poly_matrix(g) if m is None else m)
    yield ops
    if all(isinstance(m, SlotMap) for m in ops):
        yield [slot_compose(a, b) for i, a in enumerate(ops) for b in ops[i:]]
        yield [slot_power(m, module.dim) for m in ops]


def assert_paths_agree(ops, d):
    """The slot reads of a family of slot maps against the general ones."""
    assert ref.Subspace.units(d, joint_kernel(ops, d)) == ref.joint_kernel(ops, d)
    assert ref.Subspace.units(d, image_span(ops, d)) == ref.image_span(ops, d)


def assert_levels_agree(module, gens, monkeypatch):
    fast = _levels(module, gens)
    fast_tag = classify(module, gens)
    with monkeypatch.context() as m:
        m.setattr(torsion, "_form", general_form)
        slow = _levels(module, gens)
        slow_tag = classify(module, gens)
    assert fast[:4] == slow[:4] and fast[5] == slow[5]
    assert ref.Subspace(module.dim, fast[4]) == ref.Subspace(module.dim, slow[4])
    assert fast_tag == slow_tag


def test_staircases_and_their_duals_take_the_slot_path(monkeypatch):
    # the duals are built from dict columns, which go to rref; rebuilt from
    # their read-off slot maps they take the slot path
    seen = 0
    for module in staircase_modules():
        system = inverse_system(module)
        for dual in (matlis_dual(module), matlis_dual(system)):
            assert dual.slot_maps is None
            assert not torsion._form(dual.action)[0]
        duals = map(ref.slot_module, map(matlis_dual, (module, system)))
        for mod in (module, system, *duals):
            assert torsion._form(mod.slot_maps)[0]
            assert_paths_agree(mod.slot_maps, mod.dim)
            ideal = [poly_monomial(g) for g in module.ideal.min_gens]
            variables = [poly_monomial(tuple(int(j == i) for j in range(mod.nvars)))
                         for i in range(mod.nvars)]
            pair = [poly_monomial(tuple(int(j < 2) for j in range(mod.nvars)))]
            for gens in (ideal, variables, pair):
                for ops in families(mod, gens):
                    assert torsion._form(ops)[0]
                    assert_paths_agree(ops, mod.dim)
                assert_levels_agree(mod, gens, monkeypatch)
            seen += 1
    assert seen > 100


def test_random_modules_and_their_duals_agree_on_both_paths(monkeypatch):
    # a random module and its dual take the general path; those whose
    # columns hold one entry at most take the slot path too, rebuilt from
    # their read-off slot maps
    slot, general = 0, 0
    for module, rng in random_modules():
        gens = random_monomial_ideal_polys(rng, module.nvars)
        mods = [module, matlis_dual(module)]
        mods += [m for m in map(ref.slot_module, mods) if m is not None]
        for mod in mods:
            for ops in families(mod, gens):
                if torsion._form(ops)[0]:
                    assert_paths_agree(ops, mod.dim)
                    slot += 1
                else:
                    general += 1
            assert_levels_agree(mod, gens, monkeypatch)
    # both paths are exercised by these draws
    assert slot > 50 and general > 50


@st.composite
def colliding_maps(draw, max_dim=7):
    """A single-entry map with two live columns sharing a target, and a
    nonzero coefficient on each."""
    d = draw(st.integers(2, max_dim))
    slots = draw(st.lists(st.one_of(st.none(), st.integers(0, d - 1)),
                          min_size=d, max_size=d))
    i, j = draw(st.lists(st.integers(0, d - 1), min_size=2, max_size=2, unique=True))
    slots[j] = slots[i] = draw(st.integers(0, d - 1))
    coeffs = [0 if t is None else draw(st.sampled_from((-2, -1, 1, 3))) for t in slots]
    return SlotMap(tuple(slots), tuple(coeffs))


@settings(max_examples=200, deadline=None)
@given(colliding_maps(), st.data())
def test_non_injective_maps_take_the_general_path(m, data):
    d = len(m.slots)
    assert slot_targets(m) is None
    others = data.draw(st.lists(st.sampled_from([
        SlotMap(tuple(range(d)), (1,) * d),
        SlotMap((None,) * d, (0,) * d),
    ]), max_size=2))
    ops = [m, *others]
    assert not torsion._form(ops)[0]
    # two live columns share a target, so the kernel is more than the dead
    # columns' units: a slot reading would miss a vector, and is refused
    kernel = ref.joint_kernel(ops, d)
    dead = [j for j in range(d) if all(o.slots[j] is None for o in ops)]
    if not others or all(o.slots[0] is None for o in others):
        assert kernel.dim > len(dead)
    image = ref.image_span(ops, d)
    assert torsion._dims(*torsion._form(ops), d) == (kernel.dim, image.dim)
    for read in (joint_kernel, image_span):
        with pytest.raises(InternalCheckError, match="^a slot map is not injective"):
            read(ops, d)


def test_classify_on_non_injective_generators_reads_the_general_path(monkeypatch):
    # x acts on k^3 by e0 -> e2 and e1 -> e2: a single-entry map that is
    # not injective, so its kernel is spanned by e0 - e1 and e2
    module = torsion.FiniteModule(1, 3, slot_maps=(SlotMap((2, 2, None), (1, 1, 0)),))
    x = poly_monomial((1,))
    assert not torsion._form([module.term_map(x)])[0]
    assert ref.joint_kernel(module.slot_maps, 3) == ref.Subspace(
        3, [{0: 1, 1: -1}, {2: 1}]
    )
    with pytest.raises(InternalCheckError, match="^a slot map is not injective"):
        joint_kernel(module.slot_maps, 3)
    tag = classify(module, [x])
    assert (tag.gamma_dim, tag.lambda_dim) == (3, 3)
    assert_levels_agree(module, [x], monkeypatch)
    assert_levels_agree(module, [Polynomial({(1,): 2})], monkeypatch)


def both_forms(module):
    """(the module built from slot maps, the module built from the dict
    columns of the same operators): a Matlis dual, built from columns, is
    rebuilt from the slot maps read off them."""
    slot = ref.slot_module(module) if module.slot_maps is None else module
    cols = torsion.FiniteModule(module.nvars, module.dim, module.action)
    assert slot.slot_maps is not None and cols.slot_maps is None
    return slot, cols


def test_each_module_reads_the_same_in_both_forms():
    # the ladder, sampled staircases, their inverse systems and their
    # Matlis duals, each as the slot-map module and as the column module of
    # the same operators: the same levels and tags by the defining ideal, a
    # monomial ideal, a multi-term ideal and a mixed one, the same
    # evaluations, and the same products of elements
    rng = random.Random(97)
    seen = 0
    for module in staircase_modules():
        system = inverse_system(module)
        for mod in (module, system, matlis_dual(module), matlis_dual(system)):
            slot, cols = both_forms(mod)
            n, d = mod.nvars, mod.dim
            x1 = (1,) + (0,) * (n - 1)
            multi = Polynomial({x1: 1, (0,) * (n - 1) + (2,): 2})  # x_1 + 2 x_n^2
            unit = Polynomial({(0,) * n: 1, x1: Fraction(-1, 3)})  # 1 - x_1 / 3
            ideals = (
                [poly_monomial(g) for g in module.ideal.min_gens],
                list(random_monomial_ideal_polys(rng, n)),
                [multi, unit],
                [poly_monomial(x1), multi, Polynomial({(1,) * n: -2})],
            )
            for gens in ideals:
                a, b = _levels(slot, gens), _levels(cols, gens)
                assert a[:4] == b[:4] and a[5] == b[5]
                assert ref.Subspace(d, a[4]) == ref.Subspace(d, b[4])
                assert classify(slot, gens) == classify(cols, gens)
            vecs = ({}, {0: 1}, {d - 1: Fraction(2, 3)},
                    {j: rng.choice((1, -2, Fraction(1, 2))) for j in range(d)
                     if rng.random() < 0.5})
            for poly in (Polynomial({(0,) * n: Fraction(-5, 3)}), Polynomial({}),
                         multi, unit, poly_monomial((d,) + (0,) * (n - 1))):
                assert slot.poly_matrix(poly) == cols.poly_matrix(poly)
                for vec in vecs:
                    assert slot.act(poly, vec) == cols.act(poly, vec)
            for i in range(n):
                for vec in vecs:
                    assert slot.apply(i, vec) == cols.apply(i, vec)
            seen += 1
    assert seen == 4 * (len(LADDER) + 30)


def test_both_forms_refuse_the_shifts_of_a_non_down_set():
    # the shifts of test_torsion._NotDownSet, on {1, x, x*y}: y * 1 = 0
    # while y * x = x*y, so x and y do not commute, as slot maps or as
    # dict columns
    maps = QuotientModule._shift_maps(SimpleNamespace(basis=((0, 0), (1, 0), (1, 1))))
    message = "action matrices 0 and 1 do not commute"
    with pytest.raises(AlgebraError, match=message):
        torsion.FiniteModule(2, 3, slot_maps=maps)
    with pytest.raises(AlgebraError, match=message):
        torsion.FiniteModule(2, 3, tuple(map(slot_columns, maps)))


def test_classify_by_a_monomial_ideal_reads_slot_maps_only(monkeypatch):
    # x and y*z act on k[x,y,z]/(x^3, y^3, z^3) by slot maps injective on
    # their live slots, so classify reads every level off the slots: no
    # product of dict columns and no elimination
    module = QuotientModule(*parse_input("ring x,y,z; ideal x^3, y^3, z^3"))
    gens = [poly_monomial((1, 0, 0)), poly_monomial((0, 1, 1))]
    want = classify(torsion.FiniteModule(3, 27, module.action), gens)

    def refuse(name):
        def refused(*args):
            pytest.fail(f"classify called {name}")
        return refused

    for name in ("op_mul", "rank", "null_basis", "echelon_rows"):
        monkeypatch.setattr(torsion, name, refuse(name))
    tag = classify(module, gens)
    assert tag == want
    assert (tag.tag, tag.gamma_dim, tag.lambda_dim) == ("none", 27, 27)
