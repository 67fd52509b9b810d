"""Exact linear algebra over the rationals.

Row reduction runs fraction-free: each incoming row is scaled to integers,
eliminated against the current pivot rows by integer cross-multiplication
(with gcd normalization to keep entries small), and only the final
normalization to reduced echelon form touches Fractions.  Everything is
exact; there is no floating point.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

from .ring import AlgebraError

Vector = tuple  # tuple[Fraction, ...]
Matrix = tuple  # tuple[Vector, ...], row-major


def _integerize(row: Sequence) -> list[int]:
    den = 1
    vals = [Fraction(x) for x in row]
    for x in vals:
        den = den * x.denominator // gcd(den, x.denominator)
    return [int(x * den) for x in vals]


def _gcd_normalize(row: list[int]) -> list[int]:
    g = 0
    for x in row:
        g = gcd(g, x)
    if g == 0:
        return row
    lead = next(x for x in row if x)
    if lead < 0:
        g = -g
    return [x // g for x in row]


def _lead(row: Sequence[int], start: int = 0) -> int | None:
    for c in range(start, len(row)):
        if row[c]:
            return c
    return None


def rref(vectors: Iterable[Sequence], width: int):
    """Canonical reduced row echelon form.

    Returns (rows, pivots): rows are tuples of Fractions with pivot entries
    1 and zeros above and below each pivot; pivots are the pivot columns in
    increasing order.  Zero rows are dropped.
    """
    pivot_rows: dict[int, list[int]] = {}
    for vec in vectors:
        if len(vec) != width:
            raise AlgebraError("vector has wrong length")
        row = _integerize(vec)
        c = _lead(row)
        while c is not None and c in pivot_rows:
            p = pivot_rows[c]
            a, b = p[c], row[c]
            row = [a * x - b * y for x, y in zip(row, p)]
            row = _gcd_normalize(row)
            c = _lead(row, c + 1)
        if c is not None:
            pivot_rows[c] = _gcd_normalize(row)
    pivots = tuple(sorted(pivot_rows))
    rows = []
    for c in pivots:
        r = pivot_rows[c]
        piv = r[c]
        rows.append([Fraction(x, piv) for x in r])
    # eliminate above the pivots
    for j in range(len(pivots) - 1, -1, -1):
        cj = pivots[j]
        for i in range(j):
            f = rows[i][cj]
            if f:
                rows[i] = [xi - f * xj for xi, xj in zip(rows[i], rows[j])]
    return tuple(tuple(r) for r in rows), pivots


class Subspace:
    """A linear subspace of k^ambient, stored as canonical RREF rows."""

    __slots__ = ("ambient", "rows", "pivots")

    def __init__(self, ambient: int, vectors: Iterable[Sequence] = ()):
        self.ambient = ambient
        self.rows, self.pivots = rref(vectors, ambient)

    @classmethod
    def zero(cls, ambient: int) -> "Subspace":
        return cls(ambient, ())

    @classmethod
    def full(cls, ambient: int) -> "Subspace":
        unit = [[Fraction(int(i == j)) for j in range(ambient)] for i in range(ambient)]
        return cls(ambient, unit)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, vec: Sequence) -> Vector:
        """Residual of vec after reduction by the stored rows; zero iff vec is in the span."""
        v = [Fraction(x) for x in vec]
        if len(v) != self.ambient:
            raise AlgebraError("vector has wrong length")
        for row, p in zip(self.rows, self.pivots):
            f = v[p]
            if f:
                v = [xi - f * ri for xi, ri in zip(v, row)]
        return tuple(v)

    def contains(self, vec: Sequence) -> bool:
        return not any(self.reduce(vec))

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(r) for r in other.rows)

    def sum(self, other: "Subspace") -> "Subspace":
        if self.ambient != other.ambient:
            raise AlgebraError("ambient dimensions differ")
        return Subspace(self.ambient, list(self.rows) + list(other.rows))

    def intersection(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: reduce [U|U; W|0]; rows with zero left half span U cap W."""
        if self.ambient != other.ambient:
            raise AlgebraError("ambient dimensions differ")
        d = self.ambient
        block = [list(r) + list(r) for r in self.rows]
        block += [list(r) + [Fraction(0)] * d for r in other.rows]
        rows, _ = rref(block, 2 * d)
        vecs = [r[d:] for r in rows if not any(r[:d])]
        return Subspace(d, vecs)

    def coords(self, vec: Sequence) -> Vector:
        """Coordinates of vec in the row basis; raises if vec is outside."""
        v = [Fraction(x) for x in vec]
        out = []
        for row, p in zip(self.rows, self.pivots):
            f = v[p]
            out.append(f)
            if f:
                v = [xi - f * ri for xi, ri in zip(v, row)]
        if any(v):
            raise AlgebraError("vector is not in the subspace")
        return tuple(out)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.ambient, self.rows))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"


def kernel(matrix_rows: Sequence[Sequence], width: int) -> Subspace:
    """Null space {v : A v = 0} of the matrix with the given rows."""
    rows, pivots = rref(matrix_rows, width)
    pivot_set = set(pivots)
    vecs = []
    for f in range(width):
        if f in pivot_set:
            continue
        v = [Fraction(0)] * width
        v[f] = Fraction(1)
        for row, p in zip(rows, pivots):
            v[p] = -row[f]
        vecs.append(v)
    return Subspace(width, vecs)


def rank(matrix_rows: Sequence[Sequence], width: int) -> int:
    rows, _ = rref(matrix_rows, width)
    return len(rows)


# ---------------------------------------------------------------------------
# sparse operators
#
# An Operator is a square matrix stored by columns: entry j is the dict
# {row: Fraction} of the nonzero entries of column j, the image of the j-th
# basis vector.  No zero is ever stored and no column is mutated after
# construction, so two operators are equal exactly when they are equal as
# matrices.  Sparse vectors use the same {index: Fraction} form.

Operator = tuple  # tuple[dict[int, Fraction], ...]


def sparse_apply(op: Operator, vec: dict) -> dict:
    """The sparse vector op * vec; vec holds no zeros."""
    out: dict = {}
    summed = False
    for j, c in vec.items():
        for i, a in op[j].items():
            # entries of 1 are common (every shift operator) and a Fraction
            # product costs several times a comparison
            x = c if a == 1 else a * c
            if i in out:
                out[i] += x
                summed = True
            else:
                out[i] = x
    # a product of nonzeros is nonzero; only a sum can cancel
    return {i: x for i, x in out.items() if x} if summed else out


def op_apply(op: Operator, vec: Sequence) -> Vector:
    """The dense vector op * vec."""
    out = [Fraction(0)] * len(op)
    for j, c in enumerate(vec):
        if c:
            for i, a in op[j].items():
                out[i] += c if a == 1 else a * c
    return tuple(out)


def op_mul(a: Operator, b: Operator) -> Operator:
    """The composition a * b: b acts first."""
    return tuple(sparse_apply(a, col) for col in b)


def op_power(op: Operator, k: int) -> Operator:
    """op**k by repeated squaring; op**0 is the identity."""
    out = tuple({j: Fraction(1)} for j in range(len(op)))
    while k:
        if k & 1:
            out = op_mul(out, op)
        k >>= 1
        if k:
            op = op_mul(op, op)
    return out


def op_transpose(op: Operator) -> Operator:
    cols: list[dict] = [{} for _ in op]
    for j, col in enumerate(op):
        for i, x in col.items():
            cols[i][j] = x
    return tuple(cols)


def dense(vec: dict, d: int) -> Vector:
    zero = Fraction(0)
    return tuple(vec.get(i, zero) for i in range(d))


def operator_from_rows(rows: Sequence[Sequence]) -> Operator:
    """The operator of a square row-major matrix."""
    cols: list[dict] = [{} for _ in rows]
    for i, row in enumerate(rows):
        if len(row) != len(rows):
            raise AlgebraError("matrix is not square")
        for j, x in enumerate(row):
            if x:
                cols[j][i] = Fraction(x)
    return tuple(cols)


def operator_rows(op: Operator) -> Matrix:
    """Row-major dense matrix of the operator, for row reduction."""
    return tuple(dense(row, len(op)) for row in op_transpose(op))


def is_invertible(mat: Matrix) -> bool:
    return rank(mat, len(mat)) == len(mat)
