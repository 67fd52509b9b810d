"""The slot path of the torsion core against the general path it replaces.

`torsion._form` reads a family as slot maps when each is injective on its
live slots: then `joint_kernel` reads the columns dead in every map,
`image_span` the union of the targets, and `_levels`/`_fitting` count both
for J, J^2 and the d-th powers.  The general path, which the tests force
through `_form`, stacks dict columns and runs `null_basis`, `rank` and
`rref`.
The inputs are the modules the dense-reference tests draw (the ladder,
sampled staircases, random commuting families with and without a change
of basis), their inverse systems and their Matlis duals, and single-entry
maps that are not injective on their live slots, which must take the
general path.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

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
    Subspace,
    null_basis,
    op_transpose,
    rank,
    slot_columns,
    slot_compose,
    slot_power,
    slot_targets,
)
from artquot.quotient import QuotientModule
from artquot.ring import Polynomial, parse_input, poly_monomial
from artquot.torsion import _levels, classify, image_span, joint_kernel, matlis_dual

LADDER = (
    "ring x,y; ideal x^2, y^2",
    "ring x,y; ideal x^4, y^4",
    "ring x,y,z; ideal x^3, y^3, z^3",
    "ring x,y; ideal x^4, x^3*y, x^2*y^2, x*y^3, y^5",
    "ring x,y; ideal x^4, x^3*y, y^2",
    "ring x1,x2; ideal x1^2, x1*x2, x2^3",
)


def columns(op):
    return slot_columns(op) if isinstance(op, SlotMap) else op


def general_form(ops, image=True):
    """`torsion._form` forced onto the general path: the dict columns."""
    return False, [columns(op) for op in ops], None


def general_kernel(ops, d):
    rows = [row for op in ops for row in op_transpose(columns(op)) if row]
    return Subspace(d, null_basis(rows, d))


def general_image(ops, d):
    return Subspace(d, [col for op in ops for col in columns(op) if col])


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
    assert joint_kernel(ops, d) == general_kernel(ops, d)
    assert image_span(ops, d) == general_image(ops, d)


def assert_levels_agree(module, gens, monkeypatch):
    fast = _levels(module, gens)
    fast_tag = classify(module, gens)
    with monkeypatch.context() as m:
        m.setattr(torsion, "_form", general_form)
        slow = _levels(module, gens)
        slow_tag = classify(module, gens)
    assert fast[:4] == slow[:4] and fast[5] == slow[5]
    assert Subspace(module.dim, fast[4]) == Subspace(module.dim, slow[4])
    assert fast_tag == slow_tag


def test_staircases_and_their_duals_take_the_slot_path(monkeypatch):
    seen = 0
    for module in staircase_modules():
        system = inverse_system(module)
        for mod in (module, system, matlis_dual(module), matlis_dual(system)):
            assert torsion._form(mod.slot_maps)[0]
            assert_paths_agree(mod.slot_maps, mod.dim)
            assert_paths_agree(mod.action, mod.dim)
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
    slot, general = 0, 0
    for module, rng in random_modules():
        gens = random_monomial_ideal_polys(rng, module.nvars)
        for mod in (module, matlis_dual(module)):
            for ops in families(mod, gens):
                assert_paths_agree(ops, mod.dim)
                if torsion._form(ops)[0]:
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
    # columns' units: a slot reading would miss a vector
    kernel = joint_kernel(ops, d)
    assert kernel == general_kernel(ops, d)
    dead = [j for j in range(d) if all(o.slots[j] is None for o in ops)]
    if not others or all(o.slots[0] is None for o in others):
        assert kernel.dim > len(dead)
    assert image_span(ops, d) == general_image(ops, d)
    assert image_span(ops, d).dim == rank(general_image(ops, d).rows, d)


def test_classify_on_non_injective_generators_reads_the_general_path(monkeypatch):
    # x acts on k^3 by e0 -> e2 and e1 -> e2: a single-entry map that is
    # not injective, so its kernel is spanned by e0 - e1 and e2
    module = torsion.FiniteModule(1, 3, slot_maps=(SlotMap((2, 2, None), (1, 1, 0)),))
    x = poly_monomial((1,))
    assert not torsion._form([module.term_map(x)])[0]
    assert joint_kernel(module.slot_maps, 3) == Subspace(3, [{0: 1, 1: -1}, {2: 1}])
    tag = classify(module, [x])
    assert (tag.gamma_dim, tag.lambda_dim) == (3, 3)
    assert_levels_agree(module, [x], monkeypatch)
    assert_levels_agree(module, [Polynomial({(1,): 2})], monkeypatch)
