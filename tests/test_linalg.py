"""Exact linear algebra against a plain Gaussian-elimination oracle.

The oracle below does textbook reduced row echelon form on dense rows with
Fraction pivots and no integer tricks; the sparse vectors drawn here are
expanded for it.  RREF is unique for a given row space, so agreeing with
the oracle on every input is the strongest possible check.  Entries are
drawn in every form a stored value takes (ints, integral Fractions and
other Fractions, mixed within one vector), and the results must not
depend on the form.
"""

from fractions import Fraction
from math import gcd
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from artquot import linalg
from artquot.linalg import (
    Subspace,
    op_inverse,
    op_mul,
    op_power,
    op_transpose,
    rref,
    sparse_apply,
)
from artquot.instances import SamplerConfig, sample_modules
from artquot.quotient import QuotientModule
from artquot.reduced import _random_poly
from artquot.ring import AlgebraError, Polynomial, parse_input, poly_monomial
from artquot.torsion import FiniteModule
import dense_reference as ref
from dense_reference import (
    coords,
    dense,
    full_space,
    is_invertible,
    kernel,
    operator_from_rows,
    operator_rows,
    rank,
    residual_matrix,
    sparse,
)

entries = st.one_of(
    st.integers(-4, 4),
    st.integers(-4, 4).map(Fraction),
    st.fractions(min_value=-4, max_value=4, max_denominator=3),
)


def sparse_vectors(width):
    """Sparse vectors of the given width, mostly with few entries."""
    return st.dictionaries(
        st.integers(0, width - 1), entries.filter(bool), max_size=min(width, 4)
    )


@st.composite
def matrices(draw, max_width=12, max_rows=6):
    """(width, rows): up to max_rows sparse vectors of one width <= max_width."""
    width = draw(st.integers(1, max_width))
    return width, draw(st.lists(sparse_vectors(width), max_size=max_rows))


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


@given(matrices())
def test_rref_matches_naive_elimination(matrix):
    width, vectors = matrix
    rows, pivots = rref(vectors, width)
    expected = naive_rref([dense(v, width) for v in vectors], width)
    assert (tuple(dense(r, width) for r in rows), pivots) == expected


@given(matrices(max_rows=8))
def test_rref_shape(matrix):
    width, vectors = matrix
    rows, pivots = rref(vectors, width)
    for r, lead in zip(rows, pivots):
        assert min(r) == lead and max(r) < width
        assert r[lead] == 1
        assert all(r.values())  # no stored zeros
        # pivot column is cleared everywhere else
        assert all(lead not in other for other in rows if other is not r)
    assert list(pivots) == sorted(pivots)


def test_rref_known_case():
    rows, pivots = rref([{0: 2, 1: 4, 2: 6}, {0: 1, 1: 2, 2: 4}], 3)
    assert rows == ({0: Fraction(1), 1: Fraction(2)}, {2: Fraction(1)})
    assert pivots == (0, 2)


@st.composite
def dense_matrices(draw, max_width=8, max_rows=8):
    """(width, rows): rows with most entries nonzero, so that the echelon
    rows hold many pivot columns and back-substitution has work to do."""
    width = draw(st.integers(1, max_width))
    row = st.lists(entries, min_size=width, max_size=width)
    return width, [sparse(r) for r in draw(st.lists(row, max_size=max_rows))]


def assert_rref_matches_sympy(width, vectors):
    sympy = pytest.importorskip("sympy")
    rows, pivots = rref(vectors, width)
    entries = [
        sympy.Rational(x.numerator, x.denominator)
        for v in vectors
        for x in dense(v, width)
    ]
    reduced, expected_pivots = sympy.Matrix(len(vectors), width, entries).rref()
    expected = tuple(
        tuple(Fraction(int(x.p), int(x.q)) for x in reduced.row(i))
        for i in range(len(expected_pivots))
    )
    assert pivots == tuple(expected_pivots)
    assert tuple(dense(r, width) for r in rows) == expected


@settings(max_examples=60, deadline=None)
@given(dense_matrices())
def test_rref_matches_sympy(matrix):
    assert_rref_matches_sympy(*matrix)


def test_unit_rows_need_no_back_substitution(monkeypatch):
    # each shift column is a unit vector, so every echelon row is one too,
    # no row holds another row's pivot column, and back-substitution
    # eliminates nothing: rref makes only the forward pass's eliminations
    module = QuotientModule(*parse_input("ring x,y; ideal x^14, y^14"))
    calls = []
    eliminate = linalg._eliminate
    monkeypatch.setattr(
        linalg, "_eliminate", lambda *a: calls.append(a) or eliminate(*a)
    )
    columns = [col for op in module.action for col in op]
    forward = linalg.echelon_rows(columns, module.dim)
    assert all(len(row) == 1 for row in forward)
    assert calls  # a cell that two shifts reach is eliminated once
    before = len(calls)
    rows, pivots = rref(columns, module.dim)
    assert len(pivots) == module.dim - 1  # every monomial but 1 is a shift
    assert len(calls) == 2 * before


@st.composite
def content_matrices(draw, max_width=7, max_rows=8):
    """(width, rows): int and Fraction entries, some of 10^6 and more in
    size, in rows that are often scaled by a common factor."""
    width = draw(st.integers(1, max_width))
    big = st.one_of(st.integers(10**6, 10**12), st.integers(-(10**12), -(10**6)))
    value = st.one_of(entries, big, big.map(Fraction), big.map(lambda x: Fraction(x, 7)))
    factors = st.sampled_from((1, 1, 6, -(10**6), 3**20, Fraction(5, 3)))
    rows = []
    for _ in range(draw(st.integers(0, max_rows))):
        row = draw(st.dictionaries(st.integers(0, width - 1), value.filter(bool)))
        factor = draw(factors)
        rows.append({i: factor * x for i, x in row.items()})
    return width, rows


@settings(deadline=None)
@given(content_matrices())
def test_echelon_rows_match_per_step_normalization(matrix):
    width, rows = matrix
    before = [dict(row) for row in rows]
    got = linalg.echelon_rows(rows, width)
    assert rows == before  # no input vector is mutated
    assert got == ref.echelon_normalizing_each_step(before, width)
    for row in got:
        # primitive integer rows with a positive lead
        assert all(type(x) is int for x in row.values())
        assert row[min(row)] > 0 and gcd(*row.values()) == 1


def test_echelon_divides_out_each_pivot_rows_content_once(monkeypatch):
    # a dense integer matrix whose pivots are rarely 1: its content is
    # divided out once per pivot row, not after every elimination step
    rng = random.Random(28)
    rows = [{j: rng.choice((-1, 1)) * rng.randint(2, 9) for j in range(8)} for _ in range(8)]
    calls = []
    normalize = linalg._gcd_normalize
    monkeypatch.setattr(
        linalg, "_gcd_normalize", lambda *a: calls.append(a) or normalize(*a)
    )
    forward = linalg.echelon_rows(rows, 8)
    assert len(forward) == rank([dense(row, 8) for row in rows], 8) == len(calls)


@st.composite
def single_entry_matrices(draw, max_width=10, max_rows=8):
    """(width, rows): each row holds at most one nonzero entry, int or
    Fraction and of either sign, beside up to two explicit zeros; columns
    repeat across rows and rows may be empty."""
    width = draw(st.integers(1, max_width))
    column = st.integers(0, width - 1)
    rows = []
    for _ in range(draw(st.integers(0, max_rows))):
        row = draw(st.dictionaries(column, st.sampled_from((0, Fraction(0))), max_size=2))
        if draw(st.booleans()):
            row[draw(column)] = draw(entries.filter(bool))
        rows.append(row)
    return width, rows


@given(single_entry_matrices())
def test_single_entry_rows_skip_elimination(matrix):
    # rank counts such rows by their columns; rref eliminates them as it
    # does any rows, down to the sorted unit rows
    width, vectors = matrix
    with mock.patch.object(linalg, "_echelon", side_effect=AssertionError):
        r = linalg.rank(vectors, width)
    rows, pivots = rref(vectors, width)
    cols = sorted({c for v in vectors for c, x in v.items() if x})
    assert r == len(cols)
    assert pivots == tuple(cols)
    assert rows == tuple({c: 1} for c in cols)
    assert all(type(x) is int for r in rows for x in r.values())
    expected = naive_rref([dense(v, width) for v in vectors], width)
    assert (tuple(dense(r, width) for r in rows), pivots) == expected


@settings(max_examples=60, deadline=None)
@given(single_entry_matrices())
def test_single_entry_rows_match_sympy(matrix):
    assert_rref_matches_sympy(*matrix)


@pytest.mark.parametrize("bad", [{5: 2}, {-1: Fraction(1, 2)}, {0: 0, 7: -3}])
def test_single_entry_index_errors_match_the_general_path(bad):
    rows = [{1: 3}, {}, bad, {2: 1}]
    with pytest.raises(AlgebraError) as fast:
        rref(rows, 5)
    with pytest.raises(AlgebraError) as general:
        linalg._echelon(rows, 5)
    # a two-entry row sends every row down the general path, in order
    for mixed in ([{0: 1, 1: 1}] + rows, rows[:3] + [{0: 1, 1: 1}]):
        with pytest.raises(AlgebraError) as eliminated:
            rref(mixed, 5)
        assert str(eliminated.value) == str(fast.value)
    assert str(fast.value) == str(general.value) == "vector index out of range(5)"


@st.composite
def early_full_matrices(draw, max_width=6):
    """(width, rows, k): rows whose first k span all of k^width -- a row
    with two entries, then a shuffled upper-triangular block with a nonzero
    diagonal -- followed by rows of ints and Fractions beside explicit
    zeros, some of those zeros at indices outside the range."""
    width = draw(st.integers(2, max_width))
    nonzero = entries.filter(bool)
    head = [{0: draw(nonzero), width - 1: draw(nonzero)}]
    block = []
    for i in range(width):
        row = {i: draw(nonzero)}
        for j in range(i + 1, width):
            if draw(st.booleans()):
                row[j] = draw(entries)
        block.append(row)
    block = draw(st.permutations(block))
    zero = st.sampled_from((0, Fraction(0)))
    tail = draw(st.lists(
        st.dictionaries(st.integers(0, width - 1), st.one_of(entries, zero), max_size=width),
        max_size=5,
    ))
    for row in tail:
        if draw(st.booleans()):
            row[draw(st.sampled_from((-1, width, width + 3)))] = draw(zero)
    return width, head + block + tail, len(head) + len(block)


@given(early_full_matrices())
def test_full_span_matches_naive_elimination(matrix):
    width, vectors, _ = matrix
    rows, pivots = rref(vectors, width)
    assert pivots == tuple(range(width))
    assert rows == tuple({c: 1} for c in range(width))
    assert all(type(x) is int for r in rows for x in r.values())
    expected = naive_rref([dense(v, width) for v in vectors], width)
    assert (tuple(dense(r, width) for r in rows), pivots) == expected
    assert linalg.rank(vectors, width) == width


@settings(max_examples=60, deadline=None)
@given(early_full_matrices())
def test_full_span_matches_sympy(matrix):
    width, vectors, _ = matrix
    assert_rref_matches_sympy(width, vectors)


@given(early_full_matrices())
def test_rows_after_a_full_span_are_not_eliminated(matrix):
    width, vectors, k = matrix
    seen = []
    integerize = linalg._integerize
    with mock.patch.object(
        linalg, "_integerize", side_effect=lambda v: seen.append(v) or integerize(v)
    ):
        assert len(linalg._echelon(vectors, width)) == width
    assert len(seen) <= k
    # and rref back-substitutes nothing once the forward pass is done
    calls = []
    eliminate = linalg._eliminate
    with mock.patch.object(
        linalg, "_eliminate", side_effect=lambda *a: calls.append(a) or eliminate(*a)
    ):
        linalg.rank(vectors, width)
        forward = len(calls)
        rref(vectors, width)
    assert len(calls) == 2 * forward


@pytest.mark.parametrize("bad", [0, 1, 2])
@given(matrix=early_full_matrices(), data=st.data())
def test_rows_after_a_full_span_keep_their_index_errors(bad, matrix, data):
    width, vectors, k = matrix
    row = ({width: Fraction(1, 2)}, {-1: 3}, {0: 1, width + 1: Fraction(-2, 3)})[bad]
    at = data.draw(st.integers(k, len(vectors)))
    rows = vectors[:at] + [row] + vectors[at:]
    for reduce in (rref, linalg.rank):
        with pytest.raises(AlgebraError) as err:
            reduce(rows, width)
        assert str(err.value) == f"vector index out of range({width})"


def test_out_of_range_index_is_rejected():
    for bad in ({3: Fraction(1)}, {0: Fraction(1), -1: Fraction(2)}):
        with pytest.raises(AlgebraError):
            rref([bad], 3)
        with pytest.raises(AlgebraError):
            Subspace(3, [bad])
        with pytest.raises(AlgebraError):
            kernel([bad], 3)
        with pytest.raises(AlgebraError):
            full_space(3).reduce(bad)
        line = FiniteModule(1, 3, (({}, {}, {}),))
        with pytest.raises(AlgebraError):
            line.act(poly_monomial((1,)), bad)


@given(st.one_of(matrices(), dense_matrices(), single_entry_matrices()))
def test_rank_is_the_rref_row_count(matrix):
    width, vectors = matrix
    assert linalg.rank(vectors, width) == len(rref(vectors, width)[0])


@settings(max_examples=60, deadline=None)
@given(st.one_of(dense_matrices(), single_entry_matrices()))
def test_rank_matches_sympy(matrix):
    sympy = pytest.importorskip("sympy")
    width, vectors = matrix
    entries = [
        sympy.Rational(x.numerator, x.denominator)
        for v in vectors
        for x in dense(v, width)
    ]
    expected = sympy.Matrix(len(vectors), width, entries).rank()
    assert linalg.rank(vectors, width) == expected


@given(single_entry_matrices())
def test_rank_of_single_entry_rows_skips_elimination(matrix):
    width, vectors = matrix
    with mock.patch.object(linalg, "_echelon", side_effect=AssertionError):
        r = linalg.rank(vectors, width)
    assert r == len({c for v in vectors for c, x in v.items() if x})


@pytest.mark.parametrize("bad", [{5: 2}, {-1: Fraction(1, 2)}, {0: 0, 7: -3}])
def test_rank_index_errors_match_rref(bad):
    rows = [{1: 3}, {}, bad, {2: 1}]
    # the single-entry scan and, with a two-entry row first or last, the
    # forward pass
    for vectors in (rows, [{0: 1, 1: 1}] + rows, rows[:3] + [{0: 1, 1: 1}]):
        with pytest.raises(AlgebraError) as ranked:
            linalg.rank(vectors, 5)
        with pytest.raises(AlgebraError) as reduced:
            rref(vectors, 5)
        assert str(ranked.value) == str(reduced.value) == "vector index out of range(5)"


@given(matrices(), st.data())
def test_subspace_dimension_formula(matrix, data):
    width, u_vecs = matrix
    w_vecs = data.draw(st.lists(sparse_vectors(width), max_size=6))
    u = Subspace(width, u_vecs)
    w = Subspace(width, w_vecs)
    s = Subspace(width, u.rows + w.rows)
    assert max(u.dim, w.dim) <= s.dim <= u.dim + w.dim
    assert all(s.contains(r) for r in u.rows + w.rows)
    assert s == Subspace(width, u_vecs + w_vecs)


@given(matrices(), st.data())
def test_membership_by_reduction(matrix, data):
    width, vectors = matrix
    probe = data.draw(sparse_vectors(width))
    space = Subspace(width, vectors)
    red = space.reduce(probe)
    assert space.contains(probe) == (not red)
    assert all(red.values()) and not set(red) & set(space.pivots)
    # probe - red lies in the span
    diff = dict(probe)
    for k, x in red.items():
        diff[k] = diff.get(k, 0) - x
    assert space.contains({k: x for k, x in diff.items() if x})
    if space.contains(probe):
        rebuilt = [Fraction(0)] * width
        for c, row in zip(coords(space, probe), space.rows):
            for k, x in row.items():
                rebuilt[k] += c * x
        assert tuple(rebuilt) == dense(probe, width)


@given(matrices(max_width=6))
def test_residual_matrix_cuts_out_the_span(matrix):
    width, vectors = matrix
    space = Subspace(width, vectors)
    res = residual_matrix(space)
    for row in space.rows:
        assert not sparse_apply(operator_from_rows(res), row)
    cut = kernel([sparse(r) for r in res], width)
    assert cut == space


def test_zero_and_full():
    z = Subspace(3)
    f = full_space(3)
    assert z.dim == 0 and f.dim == 3
    assert z.rows == () and z.pivots == ()
    assert f.rows == ({0: 1}, {1: 1}, {2: 1})
    assert Subspace(3, z.rows + f.rows) == f and Subspace(3, z.rows + z.rows) == z


@given(matrices())
def test_kernel_annihilates_and_rank_nullity(matrix):
    width, matrix_rows = matrix
    ker = kernel(matrix_rows, width)
    for v in ker.rows:
        for row in matrix_rows:
            assert sum(Fraction(a) * v.get(k, 0) for k, a in row.items()) == 0
    assert len(rref(matrix_rows, width)[0]) + ker.dim == width


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
        assert sparse_apply(a, {j: Fraction(1)}) == a[j]
        assert line.act(poly_monomial((1,)), {j: Fraction(1)}) == a[j]


def test_is_invertible():
    eye = operator_from_rows([[int(i == j) for j in range(4)] for i in range(4)])
    assert is_invertible(eye)
    singular = operator_from_rows(((1, 2), (2, 4)))
    assert not is_invertible(singular)


@st.composite
def square_operators(draw, max_dim=7):
    """Square operators with small integer entries, often singular."""
    d = draw(st.integers(1, max_dim))
    entries = st.sampled_from((-2, -1, 0, 0, 0, 1, 1, 2))
    row = st.lists(entries, min_size=d, max_size=d)
    rows = draw(st.lists(row, min_size=d, max_size=d))
    return operator_from_rows(rows)


@given(square_operators())
def test_is_invertible_agrees_with_dense_rank(op):
    assert is_invertible(op) == (rank(operator_rows(op), len(op)) == len(op))


@given(st.one_of(st.just(()), square_operators(max_dim=5)))
def test_op_power_is_the_repeated_product(op):
    eye = tuple({j: 1} for j in range(len(op)))
    power = eye
    for k in range(10):
        assert op_power(op, k) == power
        power = op_mul(power, op)


def test_op_power_starts_from_the_operator(monkeypatch):
    # op^1 is op itself and op^2 one product: no identity is multiplied in
    op = operator_from_rows([[1, 2], [0, 1]])
    calls = []
    mul = linalg.op_mul
    monkeypatch.setattr(linalg, "op_mul", lambda a, b: calls.append(1) or mul(a, b))
    assert op_power(op, 1) is op and calls == []
    assert op_power(op, 2) == mul(op, op) and len(calls) == 1
    # 13 = 8 + 4 + 1: three squarings and two products
    calls.clear()
    op_power(op, 13)
    assert len(calls) == 5


def test_is_invertible_agrees_with_dense_rank_on_unit_operators():
    # seeded units of degree <= 2, the kind radical.envelope_zero checks by
    # their exponents: the slot-order verdict (a nonzero constant, and every
    # positive-degree term sends each slot to a later one or to None) is
    # the dense rank's
    for seed, m in sample_modules(12, seed=8, config=SamplerConfig(dim_bound=30)):
        rng = random.Random(seed)
        for _ in range(20):
            r = _random_poly(rng, m.n, 2, constant=True)
            op = m.poly_matrix(r)
            full = rank(operator_rows(op), m.dim) == m.dim
            raises = all(
                t is None or t > b
                for e in r.terms if any(e)
                for b, t in enumerate(m.monomial_map(e).slots)
            )
            slot_verdict = r.constant_term() != 0 and raises
            assert is_invertible(op) == full == slot_verdict == (r.constant_term() != 0)


@st.composite
def unit_triangular_factors(draw, max_dim=7):
    """Dense unit lower and unit upper triangular matrices of one size."""
    d = draw(st.integers(1, max_dim))
    entries = st.sampled_from((-2, -1, 0, 0, 1, 2))

    def factor(below):
        return [
            [1 if i == j else draw(entries) if (i > j) == below else 0
             for j in range(d)]
            for i in range(d)
        ]

    return factor(True), factor(False)


@given(unit_triangular_factors())
def test_op_inverse_matches_triangular_solves(factors):
    lower, upper = factors
    p, p_inv = ref.unimodular_from_factors(lower, upper)
    assert op_inverse(p) == p_inv


@given(square_operators())
def test_op_inverse_inverts_or_rejects(op):
    d = len(op)
    if rank(operator_rows(op), d) < d:
        with pytest.raises(AlgebraError, match="singular"):
            op_inverse(op)
        return
    a, inv = operator_rows(op), operator_rows(op_inverse(op))
    eye = ref.identity_matrix(d)
    assert ref.mat_mul(a, inv) == eye == ref.mat_mul(inv, a)


def test_op_inverse_known_value_and_singular_operators():
    assert op_inverse(operator_from_rows(((2, 1), (1, 1)))) == operator_from_rows(
        ((1, -1), (-1, 2))
    )
    with pytest.raises(AlgebraError, match="singular"):
        op_inverse(operator_from_rows(((1, 2), (2, 4))))
    with pytest.raises(AlgebraError, match="singular"):
        op_inverse(({}, {1: Fraction(1)}))


def test_subspace_equality_is_row_space_equality():
    a = Subspace(3, [{0: 1, 1: 1}, {2: 1}])
    b = Subspace(3, [{0: 2, 1: 2, 2: 2}, {2: 5}])
    assert a == b
    assert a != Subspace(3, [{0: 1}])


def test_coords_rejects_outside_vectors():
    space = Subspace(3, [{0: Fraction(1)}])
    assert coords(space, {0: Fraction(4)}) == (4,)
    with pytest.raises(AlgebraError):
        coords(space, {1: Fraction(1)})


@settings(max_examples=40)
@given(matrices(max_rows=7))
def test_rref_idempotent(matrix):
    width, vectors = matrix
    rows, pivots = rref(vectors, width)
    assert rref(rows, width) == (rows, pivots)


def as_fractions(vec: dict) -> dict:
    """The same sparse vector with every entry a Fraction."""
    return {i: Fraction(x) for i, x in vec.items()}


@given(matrices())
def test_mixed_entries_give_the_results_of_fractions(matrix):
    width, vectors = matrix
    uniform = [as_fractions(v) for v in vectors]
    rows, pivots = rref(vectors, width)
    assert (rows, pivots) == rref(uniform, width)
    assert (tuple(dense(r, width) for r in rows), pivots) == naive_rref(
        [dense(v, width) for v in uniform], width
    )
    assert Subspace(width, vectors) == Subspace(width, uniform)
    ker = kernel(vectors, width)
    assert ker == kernel(uniform, width)
    assert len(rows) + ker.dim == width


@st.composite
def mixed_operator_pairs(draw, max_dim=6):
    """Two square operators of one size, columns with mixed entries."""
    d = draw(st.integers(1, max_dim))
    column = sparse_vectors(d)
    return tuple(draw(column) for _ in range(d)), tuple(draw(column) for _ in range(d))


@given(mixed_operator_pairs())
def test_mixed_operators_match_dense_reference(pair):
    a, b = pair
    d = len(a)
    rows_a, rows_b = operator_rows(a), operator_rows(b)
    assert operator_rows(op_mul(a, b)) == ref.mat_mul(rows_a, rows_b)
    if rank(rows_a, d) < d:
        with pytest.raises(AlgebraError, match="singular"):
            op_inverse(a)
        return
    inv = op_inverse(a)
    assert inv == op_inverse(tuple(as_fractions(col) for col in a))
    eye = ref.identity_matrix(d)
    assert ref.mat_mul(rows_a, operator_rows(inv)) == eye


@settings(max_examples=40, deadline=None)
@given(mixed_operator_pairs(max_dim=5), st.data())
def test_mixed_polynomials_act_as_on_dense_reference(pair, data):
    # a commuting pair (a, q(a)); q, p and the vector mix ints and Fractions
    a, _ = pair
    d = len(a)
    coeffs = st.lists(entries, min_size=1, max_size=3)
    q = Polynomial(((k,), c) for k, c in enumerate(data.draw(coeffs)))
    module = FiniteModule(2, d, (a, FiniteModule(1, d, (a,)).poly_matrix(q)))
    exps = st.tuples(st.integers(0, 2), st.integers(0, 2))
    p = Polynomial(data.draw(st.lists(st.tuples(exps, entries), max_size=4)))
    expected = ref.DenseModule.of(module).poly_matrix(p)
    assert operator_rows(module.poly_matrix(p)) == expected
    vec = data.draw(sparse_vectors(d))
    assert dense(module.act(p, vec), d) == ref.mat_vec(expected, dense(vec, d))


def test_unit_spans_are_their_rref():
    for cols in ([], [3], [4, 0, 2, 0], list(range(6))):
        space = Subspace.units(6, cols)
        assert space == Subspace(6, [{c: 1} for c in cols])
        assert space.dim == len(set(cols))
    for cols in ([6], [-1, 2]):
        with pytest.raises(AlgebraError, match="out of range"):
            Subspace.units(6, cols)
