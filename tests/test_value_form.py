"""Integral values are stored as ints (the value form of artquot.linalg).

A Fraction that equals an int gives the same results, so no other test
sees the difference; these pin the form itself, because every operator the
CLI and the suites build is integral and int arithmetic is several times
cheaper than Fraction arithmetic.
"""

import random

import pytest

from artquot.instances import _random_unimodular, random_finite_module
from artquot.inverse import InverseSystem
from artquot.linalg import op_inverse, rref
from artquot.quotient import QuotientModule
from artquot.ring import parse_input, poly_monomial
from dense_reference import kernel, operator_from_rows

# the structure and action ladders: pure-power boxes up to dim 196 and the
# three worked examples
LADDER = (
    *(f"ring x,y; ideal x^{k}, y^{k}" for k in (2, 4, 7, 10, 14)),
    *(f"ring x,y,z; ideal x^{k}, y^{k}, z^{k}" for k in (2, 3, 4, 5)),
    "ring x,y; ideal x^4, x^3*y, x^2*y^2, x*y^3, y^5",
    "ring x,y; ideal x^4, x^3*y, y^2",
    "ring x1,x2; ideal x1^2, x1*x2, x2^3",
)


def entry_types(ops) -> set:
    return {type(x) for op in ops for col in op for x in col.values()}


@pytest.mark.parametrize("text", LADDER)
def test_staircase_and_contraction_operators_hold_ints(text):
    module = QuotientModule(*parse_input(text))
    system = InverseSystem(module)
    assert entry_types(module.action) == {int}
    assert entry_types(system.action) == {int}
    assert type(module.basis_element(module.basis[-1])[module.dim - 1]) is int
    # a monomial's operator is a product of shifts
    assert entry_types([module.poly_matrix(poly_monomial(module.basis[-1]))]) == {int}


@pytest.mark.parametrize("seed", range(20))
def test_random_modules_and_their_conjugates_hold_ints(seed):
    plain = random_finite_module(random.Random(seed), conjugated=False)
    conjugated = random_finite_module(random.Random(seed))
    assert entry_types(plain.action) <= {int}
    assert entry_types(conjugated.action) <= {int}


def test_inverse_of_a_unimodular_operator_holds_ints():
    for dim in range(1, 9):
        p, p_inv = _random_unimodular(random.Random(dim), dim)
        assert entry_types([p, p_inv]) == {int}
    # stored as Fractions, P = [[2, 1], [1, 1]] still has an int inverse
    p = operator_from_rows(((2, 1), (1, 1)))
    assert entry_types([op_inverse(p)]) == {int}


def test_integral_reduced_form_holds_ints():
    vectors = [{0: 2, 1: 4, 2: 6}, {0: 1, 1: 2, 2: 4}, {0: 3, 1: 7, 2: 1}]
    rows, pivots = rref(vectors, 3)
    assert pivots == (0, 1, 2)
    assert entry_types([rows]) == {int}
    rows, _ = rref(vectors[:2], 3)
    assert rows == ({0: 1, 1: 2}, {2: 1})
    assert entry_types([rows]) == {int}
    # the null space of [[2, 1, 0], [0, 0, 5]] is spanned by (1, -2, 0)
    null = kernel([{0: 2, 1: 1}, {2: 5}], 3)
    assert null.rows == ({0: 1, 1: -2},)
    assert entry_types([null.rows]) == {int}
