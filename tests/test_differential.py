"""The sparse module and linear-algebra layers against the dense reference.

Every comparison is exact: operators as dense rows, subspaces as canonical
RREF rows, tags field by field.  The torsion part, computed by Fitting's
lemma, is compared with the reference's stabilization chain, the
completion's dimension through the `classify` fields, and the sparse `rref`
with the dense one on the rows and columns the torsion core reduces.  On
staircases, their inverse systems and their Matlis duals, `poly_matrix` (a
sum of coefficient times slot map) is compared with one `act` per unit
column.
"""

import random
from fractions import Fraction

import pytest

import dense_reference as ref
from artquot import instances
from artquot.instances import (
    SamplerConfig,
    random_finite_module,
    random_monomial_ideal_polys,
    sample_modules,
)
from artquot.inverse import inverse_system
from artquot.linalg import Subspace, op_power, op_transpose, rref
from artquot.quotient import QuotientModule
from artquot.ring import Polynomial, parse_input, poly_monomial
from artquot.torsion import (
    _levels,
    _products,
    classify,
    image_span,
    joint_kernel,
    matlis_dual,
)

# The benchmark ladder's staircases up to dim 27: the pure-power boxes and
# the three worked examples.
LADDER = (
    "ring x,y; ideal x^2, y^2",
    "ring x,y; ideal x^4, y^4",
    "ring x,y,z; ideal x^2, y^2, z^2",
    "ring x,y,z; ideal x^3, y^3, z^3",
    "ring x,y; ideal x^4, x^3*y, x^2*y^2, x*y^3, y^5",
    "ring x,y; ideal x^4, x^3*y, y^2",
    "ring x1,x2; ideal x1^2, x1*x2, x2^3",
)


def variable_polys(n):
    return [poly_monomial(tuple(int(j == i) for j in range(n))) for i in range(n)]


def random_poly(rng, n):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        e = tuple(rng.randint(0, 2) for _ in range(n))
        terms[e] = Fraction(rng.choice((-2, -1, 1, 3)), rng.choice((1, 2)))
    return Polynomial(terms)


def assert_matches_reference(module, gens, rng):
    dense = ref.DenseModule.of(module)
    for _ in range(2):
        poly = random_poly(rng, module.nvars)
        assert ref.operator_rows(module.poly_matrix(poly)) == dense.poly_matrix(poly)
    ops = [module.poly_matrix(g) for g in gens]
    assert joint_kernel(ops, module.dim) == ref.annihilator_of(dense, gens)
    assert image_span(ops, module.dim) == ref.image_of(dense, gens)
    gamma, _ = ref.torsion_part_with_exponent(dense, gens)
    assert Subspace(module.dim, _levels(module, gens)[4]) == gamma
    assert_classify_matches_reference(module, gens)


def assert_classify_matches_reference(module, gens):
    tag = classify(module, gens)
    assert (
        tag.tag, tag.j_reduced, tag.j_coreduced, tag.gamma_dim, tag.lambda_dim
    ) == ref.classify_fields(ref.DenseModule.of(module), gens)


def assert_rref_matches_reference(module, gens):
    """The torsion core reduces the stacked transposed rows (joint kernels)
    and the columns (image spans) of the generator operators, of their
    pairwise products and of their d-th powers."""
    d = module.dim
    ops = [module.poly_matrix(g) for g in gens]
    for family in (ops, _products(ops), [op_power(op, d) for op in ops]):
        stacked = [row for op in family for row in op_transpose(op) if row]
        columns = [col for op in family for col in op if col]
        for vectors in (stacked, columns):
            rows, pivots = rref(vectors, d)
            want_rows, want_pivots = ref.rref([ref.dense(v, d) for v in vectors], d)
            assert pivots == want_pivots
            assert tuple(ref.dense(r, d) for r in rows) == want_rows
            assert all(all(r.values()) for r in rows)  # no stored zeros


def test_rref_matches_dense_reference_on_torsion_inputs():
    for seed in range(200):
        rng = random.Random(seed)
        module = random_finite_module(rng)
        gens = random_monomial_ideal_polys(rng, module.nvars)
        assert_rref_matches_reference(module, gens)
    for text in LADDER:
        module = QuotientModule(*parse_input(text))
        xs = variable_polys(module.n)
        for gens in (
            [poly_monomial(g) for g in module.ideal.min_gens],
            [Polynomial({**xs[0].terms, **xs[1].terms})],  # x_1 + x_2
            list(xs),
        ):
            assert_rref_matches_reference(module, gens)


def test_random_modules_match_dense_reference():
    for seed in range(200):
        rng = random.Random(seed)
        module = random_finite_module(rng)
        gens = random_monomial_ideal_polys(rng, module.nvars)
        assert_matches_reference(module, gens, rng)
        # the draw is conjugated by a random change of basis; classify
        # reads ranks only, and must read them right on its dual as well
        assert_classify_matches_reference(matlis_dual(module), gens)


@pytest.mark.parametrize("text", LADDER)
def test_ladder_staircases_match_dense_reference(text):
    module = QuotientModule(*parse_input(text))
    rng = random.Random(text)
    xs = variable_polys(module.n)
    # the maximal ideal read straight off the action: (0 : m) and m M
    dense = ref.DenseModule.of(module)
    assert joint_kernel(module.action, module.dim) == ref.annihilator_of(dense, xs)
    assert image_span(module.action, module.dim) == ref.image_of(dense, xs)
    for gens in (
        [poly_monomial(g) for g in module.ideal.min_gens],
        [Polynomial({**xs[0].terms, **xs[1].terms})],  # x_1 + x_2
        list(xs),
    ):
        assert_matches_reference(module, gens, rng)


def test_slot_map_poly_matrix_matches_act_reference():
    # polynomials with a constant term, a term inside I, a staircase term
    # and a random one, with Fraction coefficients, on staircases, their
    # inverse systems (where x^e acts by contraction) and their Matlis duals
    # (transposed shifts, a plain FiniteModule)
    sampled = [m for _, m in sample_modules(25, seed=71, config=SamplerConfig(dim_bound=40))]
    modules = [QuotientModule(*parse_input(t)) for t in LADDER] + sampled
    rng = random.Random(71)

    def coeff():
        return Fraction(rng.choice((-3, -1, 2, 7)), rng.choice((1, 2, 3)))

    for m in modules:
        for module in (m, inverse_system(m), matlis_dual(m)):
            for _ in range(4):
                terms = {(0,) * m.n: coeff()}
                for e in (rng.choice(m.ideal.min_gens), rng.choice(m.basis),
                          tuple(rng.randint(0, 3) for _ in range(m.n))):
                    terms[e] = terms.get(e, 0) + coeff()
                poly = Polynomial(terms)
                assert all(module.monomial_map(e) is not None for e in poly.terms)
                assert module.poly_matrix(poly) == ref.act_poly_matrix(module, poly)


def test_unimodular_draws_match_dense_reference():
    # P from sparse columns and P^-1 from rref([P | 1]), against the dense
    # factors and triangular solves, on the same random draws
    for seed in range(300):
        rng, old = random.Random(seed), random.Random(seed)
        assert instances._random_unimodular(rng, 8) == ref.random_unimodular(old, 8)
        assert rng.getstate() == old.getstate()


@pytest.mark.parametrize("conjugated", [False, True])
def test_sampler_draws_match_dense_reference(conjugated, monkeypatch):
    drawn = []
    for seed in range(600):
        rng = random.Random(seed)
        drawn.append((random_finite_module(rng, conjugated).action, rng.getstate()))
    monkeypatch.setattr(instances, "_random_base_matrix", ref.random_base_matrix)
    monkeypatch.setattr(instances, "_random_unimodular", ref.random_unimodular)
    for seed, (action, state) in enumerate(drawn):
        rng = random.Random(seed)
        assert random_finite_module(rng, conjugated).action == action, seed
        assert rng.getstate() == state, seed
