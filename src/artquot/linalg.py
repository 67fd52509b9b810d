"""Exact linear algebra over the rationals.

There is one vector form: a sparse vector is a dict {index: value} that
stores no zeros, the form an operator column also takes.  The value form,
stated here once for the whole package: a value is an exact rational,
stored as a Python `int` when it is born integral (staircase shifts,
contraction coefficients, unit columns, integer draws, integral polynomial
coefficients) and as a `fractions.Fraction` otherwise.  Arithmetic may turn
either into an integral Fraction; that compares and hashes equal to the
int, so no result depends on the type, and ints only make the common,
integral case cheap.  There is no floating point.

Row reduction runs fraction-free on the stored entries only, in the sense
of Bareiss (1968): each incoming row is scaled to integers (rows of ints
as they are), eliminated against the current pivot rows by integer
cross-multiplication (the two multipliers divided by their gcd first),
divided by its content once, when it becomes a pivot row, back-substituted
the same way, and only the final division by each pivot can make a
Fraction, where the pivot does not divide an entry.  Each step is a
positive multiple of the step on the primitive row, so the pivot rows are
the primitive rows with positive leads that a division after every step
gives.  Skipping those divisions lets entries grow within one row's
elimination: on verify-mix's ttf-duality instances the largest entry
reaches 773 bits against 327 (seed 5) and 569 against 259 (seed 71), yet
the gcd pass over the row after every step cost more: without it the
suite runs about 9% faster in process (seed 71, median of 5), and
`classify` by two generators with non-unit leads twice as fast.  Once the
pivot rows span the whole space, elimination stops: the rows still to
come lie in the span and are only checked for out-of-range indices, and
the rref is the identity, with nothing to back-substitute.  `rank`
runs the forward pass alone, for callers that read only a dimension: a
nesting of two spaces is an equality exactly when their ranks agree.
It first counts rows with at most one nonzero entry by their columns,
with no elimination: the coreducedness sampling sends it tens of
thousands of such rows per verify-mix pass, and without that scan the
benchmark's action-ladder pass read about 3% slower (in process, on a
2-core host).  `rref` has the one path, as no workload sends it enough
such rows to pay for a second.
`echelon_rows` returns the forward pass's rows, so a caller can extend a
span it has already eliminated.
`null_basis` reads one kernel vector per free column off a single rref,
for `torsion`'s Fitting split on dict columns.

Operators with at most one entry per column have a second, single-entry
form: a slot map (`SlotMap`), the target slot of each column or None for
an empty one, and a coefficient per column (0 for an empty one).  The
operators of a staircase module take it: the shifts of M, the
contractions of I-perp (coefficient e_i) and every monomial x^e.
Staircase modules are built from slot maps, and `slot_columns` turns a
slot map into columns; no slot map is read off an operator's columns.  A
slot map injective on its live slots (`slot_targets`) kills exactly the
vectors on its dead columns and has the unit vectors at its targets as
image, so the kernels and images of such maps are spans of unit
vectors, read as sets of slots with no elimination; no span has another
form in the package.  The commutation check of a module built from slot
maps composes them (`slot_maps_commute`); x^e is a product of the
variables' slot maps raised to powers (`slot_power`).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, compress, count, repeat
from math import gcd, lcm
from operator import is_not
from typing import Iterable, Iterator, NamedTuple

from .ring import AlgebraError


def _integerize(vec: dict) -> dict[int, int]:
    if all(type(x) is int for x in vec.values()):
        return {i: x for i, x in vec.items() if x}
    den = lcm(*(x.denominator for x in vec.values()))
    return {i: x.numerator * (den // x.denominator) for i, x in vec.items() if x}


def _gcd_normalize(row: dict[int, int], lead: int) -> dict[int, int]:
    """The primitive integer multiple of row with a positive entry at lead."""
    g = 0
    for x in row.values():
        g = gcd(g, x)
        if g == 1:
            break
    if row[lead] < 0:
        g = -g
    return row if g == 1 else {i: x // g for i, x in row.items()}


def _eliminate(row: dict[int, int], p: dict[int, int], c: int) -> dict[int, int]:
    """A positive multiple of row with column c cleared by the pivot row p,
    whose entry at c is positive: a * row - b * p for the entries a of p
    and b of row at c, both divided by their gcd first."""
    a, b = p[c], row[c]
    g = gcd(a, b)
    if g != 1:
        a, b = a // g, b // g
    if a != 1:
        row = {i: a * x for i, x in row.items()}
    _axpy(row, -b, p)
    return row


def _echelon(vectors: Iterable[dict], width: int) -> dict[int, dict[int, int]]:
    """The forward pass of rref: primitive integer rows keyed by their
    leading columns, which are distinct, so the row count is the rank.
    A row's content is divided out once, when it becomes a pivot row; the
    steps before scale it by positive factors only, so the pivot row is
    the one a division after every step would give.
    Once there are `width` pivot rows the span is full and every later row
    lies in it, so later rows are only checked for their indices."""
    pivot_rows: dict[int, dict[int, int]] = {}
    vectors = iter(vectors)
    for vec in vectors:
        row = _integerize(vec)
        if not row:
            continue
        c = min(row)
        if c < 0 or max(row) >= width:
            raise AlgebraError(f"vector index out of range({width})")
        while c in pivot_rows:
            row = _eliminate(row, pivot_rows[c], c)
            if not row:
                break
            c = min(row)
        if row:
            pivot_rows[c] = _gcd_normalize(row, c)
            if len(pivot_rows) == width:
                break
    for vec in vectors:
        if vec and (min(vec) < 0 or max(vec) >= width) and any(
            x and (c < 0 or c >= width) for c, x in vec.items()
        ):
            raise AlgebraError(f"vector index out of range({width})")
    return pivot_rows


def rank(vectors: Iterable[dict], width: int) -> int:
    """The dimension of the span of sparse vectors: rref's forward pass
    only, for callers that read no more than a dimension.  Rows with at
    most one nonzero entry each are unit rows up to scale, counted by
    their columns with no elimination, until the first row with two."""
    vectors = iter(vectors)
    seen, cols = [], set()
    for vec in vectors:
        if len(vec) > 1 and sum(1 for x in vec.values() if x) > 1:
            # the first row with two entries: eliminate everything, in order
            return len(_echelon(chain(seen, (vec,), vectors), width))
        seen.append(vec)
        for c, x in vec.items():
            if x:
                if c < 0 or c >= width:
                    raise AlgebraError(f"vector index out of range({width})")
                cols.add(c)
    return len(cols)


def echelon_rows(vectors: Iterable[dict], width: int) -> list[dict[int, int]]:
    """The rows of rref's forward pass: primitive integer rows with
    distinct leading columns, as many as the rank, spanning what the
    vectors span.  Put first among more rows, they are pivots again at
    once, so only the rows after them are eliminated."""
    return list(_echelon(vectors, width).values())


def rref(vectors: Iterable[dict], width: int):
    """Canonical reduced row echelon form of sparse vectors.

    Returns (rows, pivots): rows are sparse vectors with pivot entries 1 and
    no other entry in a pivot column; pivots are the pivot columns in
    increasing order.  Zero rows are dropped.  An entry is an int wherever
    the reduced form is integral.  A full span is the identity and skips
    back-substitution.
    """
    pivot_rows = _echelon(vectors, width)
    if len(pivot_rows) == width:
        pivots = tuple(range(width))
        return tuple([{c: 1} for c in pivots]), pivots
    pivots = tuple(sorted(pivot_rows))
    # eliminate above the pivots in integers, bottom row first: the rows
    # below row j are already reduced, so each one clears its own pivot
    # column from row j and touches no other pivot column
    for cj in reversed(pivots):
        rj = pivot_rows[cj]
        above = sorted((c for c in rj if c != cj and c in pivot_rows), reverse=True)
        for c in above:
            rj = _eliminate(rj, pivot_rows[c], c)
        if above:
            pivot_rows[cj] = _gcd_normalize(rj, cj)
    rows = []
    for c in pivots:
        r = pivot_rows[c]
        piv = r[c]
        rows.append(r if piv == 1 else {
            i: x // piv if x % piv == 0 else Fraction(x, piv) for i, x in r.items()
        })
    return tuple(rows), pivots


def _axpy(v: dict, f, row: dict) -> None:
    """v += f * row in place, keeping v free of zeros."""
    for i, x in row.items():
        y = v.get(i, 0) + f * x
        if y:
            v[i] = y
        else:
            del v[i]


def null_basis(vectors: Iterable[dict], width: int) -> list[dict]:
    """A basis of {v : A v = 0} for the matrix A whose rows are the given
    vectors: one vector per free column f of A's rref, 1 at f and minus
    column f's entries at the pivots."""
    rows, pivots = rref(vectors, width)
    # the entries of each free column, read once off the rows
    free: dict[int, dict] = {f: {f: 1} for f in range(width)}
    for row, p in zip(rows, pivots):
        del free[p]
        for f, x in row.items():
            if f != p:
                free[f][p] = -x
    return list(free.values())


# ---------------------------------------------------------------------------
# sparse operators
#
# An Operator is a square matrix stored by columns: entry j is the dict
# {row: value} of the nonzero entries of column j, the image of the j-th
# basis vector, with values in the form the module docstring states (an
# int when integral, else a Fraction).  No zero is ever stored and no
# column is mutated after construction, so two operators are equal exactly
# when they are equal as matrices.  Sparse vectors use the same
# {index: value} form.

Operator = tuple  # tuple[dict[int, int | Fraction], ...]


def sparse_apply(op: Operator, vec: dict) -> dict:
    """The sparse vector op * vec; vec holds no zeros."""
    out: dict = {}
    summed = False
    for j, c in vec.items():
        for i, a in op[j].items():
            # entries of 1 are common (every shift operator), and skipping
            # their product also keeps a Fraction c from being rebuilt
            x = c if a == 1 else a * c
            if i in out:
                out[i] += x
                summed = True
            else:
                out[i] = x
    # a product of nonzeros is nonzero; only a sum can cancel
    return {i: x for i, x in out.items() if x} if summed else out


def op_mul(a: Operator, b: Operator) -> Operator:
    """The composition a * b: b acts first."""
    return tuple(sparse_apply(a, col) for col in b)


def op_power(op: Operator, k: int) -> Operator:
    """op**k by repeated squaring, starting from op itself; op**0 is the
    identity."""
    if not k:
        return tuple({j: 1} for j in range(len(op)))
    out = None
    while True:
        if k & 1:
            out = op if out is None else op_mul(out, op)
        k >>= 1
        if not k:
            return out
        op = op_mul(op, op)


def op_conjugate(op: Operator, p: Operator, p_inv: Operator) -> Operator:
    """P * op * P^-1, op after the change of basis P."""
    return op_mul(op_mul(p, op), p_inv)


def op_transpose(op: Operator) -> Operator:
    cols: list[dict] = [{} for _ in op]
    for j, col in enumerate(op):
        for i, x in col.items():
            cols[i][j] = x
    return tuple(cols)


def op_inverse(op: Operator) -> Operator:
    """P^-1, the right half of rref([P | 1]); AlgebraError when P is singular."""
    d = len(op)
    rows, pivots = rref(
        ({**row, d + i: 1} for i, row in enumerate(op_transpose(op))), 2 * d
    )
    if pivots[:d] != tuple(range(d)):
        raise AlgebraError("the operator is singular")
    right = tuple({j - d: x for j, x in row.items() if j >= d} for row in rows)
    return op_transpose(right)


def op_sum(terms: Iterable[tuple], d: int) -> Operator:
    """The operator sum of c * op over the (c, op) terms, op in dict columns
    on d slots.  One term 1 * op is op itself."""
    terms = list(terms)
    if len(terms) == 1 and terms[0][0] == 1:
        return terms[0][1]
    cols: list[dict] = [{} for _ in range(d)]
    summed = False
    for c, op in terms:
        for col, src in zip(cols, op):
            for t, x in src.items():
                # as in sparse_apply, an entry of 1 keeps c as it is
                x = c if x == 1 else x * c
                if t in col:
                    col[t] += x
                    summed = True
                else:
                    col[t] = x
    if summed:
        # a product of nonzeros is nonzero; only a sum can cancel
        return tuple({i: x for i, x in col.items() if x} for col in cols)
    return tuple(cols)


# ---------------------------------------------------------------------------
# single-entry operators


class SlotMap(NamedTuple):
    """An operator with at most one entry per column: column j holds
    coeffs[j] at row slots[j], or nothing when slots[j] is None (and then
    coeffs[j] is 0).  Coefficients are in the value form above."""

    slots: tuple  # tuple[int | None, ...]
    coeffs: tuple


def unit_map(slots: tuple) -> SlotMap:
    """The slot map with these slots whose every filled column holds 1."""
    return SlotMap(slots, tuple([0 if t is None else 1 for t in slots]))


def slot_columns(m: SlotMap) -> Operator:
    """m as an operator, one dict per column."""
    return tuple({} if t is None else {t: x} for t, x in zip(*m))


def live_columns(m: SlotMap) -> Iterator[int]:
    """The columns that m does not send to zero, in increasing order."""
    return compress(count(), map(is_not, m.slots, repeat(None)))


def dead_columns(maps: Iterable[SlotMap], d: int) -> list[int]:
    """The columns of range(d) that every map sends to zero, in order."""
    return sorted(set(range(d)).difference(*map(live_columns, maps)))


def slot_targets(m: SlotMap) -> set | None:
    """The set of m's target slots when no two live columns of m share one,
    else None.  Then m is injective on its live slots: m v = 0 exactly when
    v lives on m's dead columns, and m's image is spanned by the unit
    vectors at its targets."""
    targets = set(m.slots)
    targets.discard(None)
    return targets if len(targets) == len(m.slots) - m.slots.count(None) else None


def slot_apply(m: SlotMap, vec: dict) -> dict:
    """The sparse vector m * vec, as `sparse_apply` computes it for the
    columns of m."""
    slots, coeffs = m
    out: dict = {}
    summed = False
    for j, c in vec.items():
        t = slots[j]
        if t is None:
            continue
        a = coeffs[j]
        x = c if a == 1 else a * c
        if t in out:
            out[t] += x
            summed = True
        else:
            out[t] = x
    return {i: x for i, x in out.items() if x} if summed else out


def slot_compose(a: SlotMap, b: SlotMap) -> SlotMap:
    """The composition a * b as a slot map: b acts first."""
    (sa, ca), (sb, cb) = a, b
    slots = tuple([None if t is None else sa[t] for t in sb])
    if unit_entries(a) and unit_entries(b):
        # every entry of the product is 1 too
        return unit_map(slots)
    # a product of nonzeros is nonzero, so no filled column empties
    coeffs = [0 if s is None else x * ca[t] for s, t, x in zip(slots, sb, cb)]
    return SlotMap(slots, tuple(coeffs))


def slot_power(m: SlotMap, k: int) -> SlotMap:
    """m**k by repeated squaring, as `op_power`; m**0 is the identity.  A
    power that is the zero map stops it: every higher power is zero too."""
    if not k:
        return unit_map(tuple(range(len(m.slots))))
    out = None
    while True:
        if k & 1:
            out = m if out is None else slot_compose(out, m)
        k >>= 1
        if not k:
            return out
        m = slot_compose(m, m)
        if not any(m.coeffs):
            return m


def unit_entries(m: SlotMap) -> bool:
    """Whether every filled column of m holds 1."""
    return m.coeffs.count(0) + m.coeffs.count(1) == len(m.coeffs)


def slot_maps_commute(a: SlotMap, b: SlotMap, ones: bool | None = None) -> bool:
    """Whether a * b == b * a.  Where every entry of both is 1, so is every
    entry of both products, and the composed slots decide; `ones` says so
    when the caller has already read it (`unit_entries`)."""
    if ones is None:
        ones = unit_entries(a) and unit_entries(b)
    if ones:
        (sa, _), (sb, _) = a, b
        return [None if t is None else sa[t] for t in sb] == [
            None if t is None else sb[t] for t in sa
        ]
    return slot_compose(a, b) == slot_compose(b, a)
