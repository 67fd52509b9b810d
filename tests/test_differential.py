"""The sparse module layer against the dense reference it replaced.

Every comparison is exact: operators as dense rows, subspaces as canonical
RREF rows, completions by their induced action, tags field by field.  The
torsion part and the completion, computed by Fitting's lemma, are compared
with the reference's stabilization chains.
"""

import random
from fractions import Fraction

import pytest

import dense_reference as ref
from artquot.instances import random_finite_module, random_monomial_ideal_polys
from artquot.linalg import operator_rows
from artquot.quotient import QuotientModule
from artquot.ring import Polynomial, parse_input, poly_monomial, variable_polys
from artquot.torsion import (
    annihilator_of,
    classify,
    completion,
    image_of,
    torsion_part,
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
        assert operator_rows(module.poly_matrix(poly)) == dense.poly_matrix(poly)
    assert annihilator_of(module, gens) == ref.annihilator_of(dense, gens)
    assert image_of(module, gens) == ref.image_of(dense, gens)
    gamma, _ = ref.torsion_part_with_exponent(dense, gens)
    assert torsion_part(module, gens) == gamma
    lam, _ = ref.adic_completion(dense, gens)
    assert ref.DenseModule.of(completion(module, gens)) == lam
    tag = classify(module, gens)
    assert (
        tag.tag, tag.j_reduced, tag.j_coreduced, tag.gamma_dim, tag.lambda_dim
    ) == ref.classify_fields(dense, gens)


def test_random_modules_match_dense_reference():
    for seed in range(200):
        rng = random.Random(seed)
        module = random_finite_module(rng)
        gens = random_monomial_ideal_polys(rng, module.nvars)
        assert_matches_reference(module, gens, rng)


@pytest.mark.parametrize("text", LADDER)
def test_ladder_staircases_match_dense_reference(text):
    module = QuotientModule(*parse_input(text))
    rng = random.Random(text)
    xs = variable_polys(module.n)
    for gens in (
        [poly_monomial(g) for g in module.ideal.min_gens],
        [xs[0] + xs[1]],
        list(xs),
    ):
        assert_matches_reference(module, gens, rng)
