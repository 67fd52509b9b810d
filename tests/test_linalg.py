"""Exact linear algebra against a plain Gaussian-elimination oracle.

The oracle below does textbook reduced row echelon form with Fraction
pivots and no integer tricks.  RREF is unique for a given row space, so
agreeing with the oracle on every input is the strongest possible check.
"""

from fractions import Fraction
import random

import pytest
from hypothesis import given, settings, strategies as st

from artquot.linalg import (
    Subspace,
    dense,
    is_invertible,
    kernel,
    op_apply,
    op_mul,
    op_power,
    op_transpose,
    operator_from_rows,
    operator_rows,
    rank,
    rref,
    sparse_apply,
)
from artquot.ring import poly_monomial
from artquot.torsion import FiniteModule
from dense_reference import residual_matrix

fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=3
)


def vectors_st(width, max_rows=5):
    return st.lists(
        st.tuples(*([fractions] * width)), min_size=0, max_size=max_rows
    )


def naive_rref(vectors, width):
    rows = [[Fraction(x) for x in v] for v in vectors]
    pivot_rows = []
    pivot_cols = []
    for col in range(width):
        src = None
        for r in rows:
            if any(r[:col]) or r[col] == 0:
                continue
            src = r
            break
        if src is None:
            continue
        rows.remove(src)
        src = [x / src[col] for x in src]
        rows = [
            [a - r[col] * b for a, b in zip(r, src)] for r in rows
        ]
        pivot_rows = [
            [a - r[col] * b for a, b in zip(r, src)] for r in pivot_rows
        ]
        pivot_rows.append(src)
        pivot_cols.append(col)
    return tuple(tuple(r) for r in pivot_rows), tuple(pivot_cols)


@given(vectors_st(4))
def test_rref_matches_naive_elimination(vectors):
    assert rref(vectors, 4) == naive_rref(vectors, 4)


@given(vectors_st(3, max_rows=6))
def test_rref_shape(vectors):
    rows, pivots = rref(vectors, 3)
    for r, lead in zip(rows, pivots):
        assert next(i for i, x in enumerate(r) if x) == lead
        assert r[lead] == 1
        # pivot column is cleared everywhere else
        assert all(other[lead] == 0 for other in rows if other is not r)
    assert list(pivots) == sorted(pivots)


def test_rref_known_case():
    rows, pivots = rref([(2, 4, 6), (1, 2, 4)], 3)
    assert rows == ((Fraction(1), Fraction(2), Fraction(0)),
                    (Fraction(0), Fraction(0), Fraction(1)))
    assert pivots == (0, 2)


@given(vectors_st(4), vectors_st(4))
def test_subspace_dimension_formula(u_vecs, w_vecs):
    u = Subspace(4, u_vecs)
    w = Subspace(4, w_vecs)
    s = u.sum(w)
    i = u.intersection(w)
    assert u.dim + w.dim == s.dim + i.dim
    assert s.contains_subspace(u) and s.contains_subspace(w)
    assert u.contains_subspace(i) and w.contains_subspace(i)


@given(vectors_st(4), st.tuples(*([fractions] * 4)))
def test_membership_by_reduction(vectors, probe):
    space = Subspace(4, vectors)
    red = space.reduce(probe)
    assert space.contains(probe) == all(x == 0 for x in red)
    if space.contains(probe):
        coords = space.coords(probe)
        rebuilt = [Fraction(0)] * 4
        for c, row in zip(coords, space.rows):
            for k, x in enumerate(row):
                rebuilt[k] += c * x
        assert tuple(rebuilt) == tuple(Fraction(x) for x in probe)


@given(vectors_st(4))
def test_residual_matrix_cuts_out_the_span(vectors):
    space = Subspace(4, vectors)
    res = residual_matrix(space)
    for row in space.rows:
        assert all(x == 0 for x in op_apply(operator_from_rows(res), row))
    cut = kernel(res, 4)
    assert cut == space


def test_zero_and_full():
    z = Subspace.zero(3)
    f = Subspace.full(3)
    assert z.dim == 0 and f.dim == 3
    assert f.contains_subspace(z)
    assert z.sum(f) == f and z.intersection(f) == z


@given(st.lists(st.tuples(*([fractions] * 3)), min_size=0, max_size=4))
def test_kernel_annihilates_and_rank_nullity(matrix_rows):
    ker = kernel(matrix_rows, 3)
    for v in ker.rows:
        for row in matrix_rows:
            assert sum(Fraction(a) * b for a, b in zip(row, v)) == 0
    assert rank(matrix_rows, 3) + ker.dim == 3


def test_matrix_helpers():
    rng = random.Random(5)
    rows_a = tuple(
        tuple(Fraction(rng.randint(-3, 3)) for _ in range(3)) for _ in range(3)
    )
    rows_b = tuple(
        tuple(Fraction(rng.randint(-3, 3)) for _ in range(3)) for _ in range(3)
    )
    a, b = operator_from_rows(rows_a), operator_from_rows(rows_b)
    assert operator_rows(a) == rows_a
    assert all(x for col in a for x in col.values())  # no stored zeros
    eye = operator_from_rows([[int(i == j) for j in range(3)] for i in range(3)])
    assert op_mul(a, eye) == a and op_mul(eye, a) == a
    line = FiniteModule(1, 3, (a,))
    assert line.poly_matrix(poly_monomial((3,))) == op_mul(a, op_mul(a, a))
    assert line.poly_matrix(poly_monomial((0,))) == eye
    # repeated squaring agrees with repeated multiplication
    assert op_power(a, 0) == eye and op_power(a, 1) == a
    for k in (3, 6, 7):
        assert op_power(a, k) == line.poly_matrix(poly_monomial((k,)))
    assert op_power((), 0) == ()
    assert op_transpose(op_transpose(a)) == a
    # (a b)^T = b^T a^T
    assert op_transpose(op_mul(a, b)) == op_mul(op_transpose(b), op_transpose(a))
    # columns are the images of the unit vectors
    for j in range(3):
        unit = tuple(Fraction(int(i == j)) for i in range(3))
        assert op_apply(a, unit) == dense(a[j], 3)
        assert sparse_apply(a, {j: Fraction(1)}) == a[j]


def test_is_invertible():
    assert is_invertible([[int(i == j) for j in range(4)] for i in range(4)])
    singular = ((Fraction(1), Fraction(2)), (Fraction(2), Fraction(4)))
    assert not is_invertible(singular)


def test_subspace_equality_is_row_space_equality():
    a = Subspace(3, [(1, 1, 0), (0, 0, 1)])
    b = Subspace(3, [(2, 2, 2), (0, 0, 5)])
    assert a == b
    assert hash(a) == hash(b)
    assert a != Subspace(3, [(1, 0, 0)])


def test_coords_rejects_outside_vectors():
    space = Subspace(3, [(1, 0, 0)])
    with pytest.raises(Exception):
        space.coords((0, 1, 0))


@settings(max_examples=40)
@given(vectors_st(5, max_rows=7))
def test_rref_idempotent(vectors):
    rows, pivots = rref(vectors, 5)
    assert rref(rows, 5) == (rows, pivots)
