"""Dense-matrix reference for the sparse module and linear-algebra layers.

This is the earlier implementation of finite modules, kept for tests: each
variable acts by a row-major tuple of Fraction rows, products are dense
`mat_mul`, and the torsion and completion functors run the stabilization
chains (ascending annihilators of J^k, descending images J^k M) that
artquot.torsion replaced by Fitting's lemma.  The earlier row reduction on
dense tuples is kept too, and so is the sparse forward pass that divided
each row by its content after every elimination step, which
`linalg._echelon` replaced by one division per pivot row, and the
sampled-vector unit check that artquot.radical replaced by the rank of
each unit's operator, and that
rank test, `is_invertible` on the sparse forward pass, which
artquot.radical replaced in turn by reading the slot order, and the
sampler's dense draws of a base matrix and of a change of basis with its
inverse by triangular solves, which artquot.instances replaced by sparse
columns and `linalg.op_inverse`.  So is the box walk for the minimal
monomials outside a down-set, which `quotient.minimal_outside` replaced,
and the scan of all 2^dim bitmasks for the up-closed staircase subsets,
which the order-ideal walk `radical._upsets` replaced, and the submodule
envelope scan on subspaces, which `radical`'s scan on staircase slot masks
replaced, and the evaluation of a polynomial by one `act` per unit column,
which `FiniteModule.poly_matrix` replaced by a sum over the terms: of
coefficient times slot map, each monomial's map composed from the
variables' maps, on every module whose operators have at most one entry
per column, and of coefficient times a product of operator powers on the
others.  `act` itself, one element times a polynomial, is held to the
dense products.  So are the set-up
passes that `ring` and `quotient` replaced: the antichain test over all
ordered pairs of generators, once in `minimalize` and again in the
`MonomialIdeal` check, the pure-power scan per variable and generator, and
the staircase walk that carried a generator list with every prefix and
sliced each generator's tail for its height.  The exponent-vector checks
as they read one entry per Python step are kept too (`minimalize`, the
`MonomialIdeal` check and the `Polynomial` constructor), and so are the
sampler's rejection loop that returned no staircase, so that
`QuotientModule` walked it again, and its commuting families evaluated on
a throwaway one-variable module.  The differential
tests require the sparse code to give the same matrices, subspaces,
echelon forms and tags, and the unit checks to agree.  `apolarity`, the contraction extended bilinearly to polynomials, is
the reference the inverse-system tests hold the exponent-vector
`inverse.contraction` and the contraction operators to.  `Subspace` is
the general subspace, kept as canonical rref rows, that `artquot.linalg`
carried while some span was read by elimination; every span the package
builds is spanned by standard monomials and read as their slots now, and
the tests hold those slots to it (`Subspace.units` is such a span).
`joint_kernel` and `image_span` are the general readings that
`artquot.torsion` replaced by slot reads: the null space of the stacked
rows and the span of the columns of a family of operators in either form.
`kernel`, the span of `linalg.null_basis`, is the Subspace form the
linear-algebra tests read a null space in.  `ev_add`,
`poly_mul` (the product of two polynomials, with which `_squares` builds
J^2) and `contains` (monomial-ideal membership) were part of `artquot.ring`
that only tests used; the tests read them here.  `slot_map` is the
read-off by which a module built from dict columns carried slot maps as
well, operator by operator; `slot_module` rebuilds such a module from its
read-off slot maps, for the tests that hold the two forms to each other.
"""

from __future__ import annotations

import random
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd
from operator import itemgetter
from typing import Iterable, Sequence

from artquot import linalg
from artquot.instances import _random_base_matrix, _random_unimodular
from artquot.inverse import contraction
from artquot.linalg import (
    Operator, SlotMap, _axpy, _echelon, null_basis, op_mul, op_transpose,
    slot_columns, sparse_apply,
)
from artquot.quotient import QuotientModule, monomial_span, staircase
from artquot.reduced import _COEFF_POOL, _random_poly, monomials_up_to_degree
from artquot.quotient import MAX_DIM
from artquot.ring import (
    AlgebraError,
    ExponentVector,
    InternalCheckError,
    MonomialIdeal,
    NotArtinianError,
    Polynomial,
    VariableSet,
    divides,
    grlex_key,
    minimalize,
)
from artquot.torsion import FiniteModule

Matrix = tuple  # tuple[tuple[Fraction, ...], ...], row-major


def sparse(vec: Sequence) -> dict:
    """The sparse form {index: Fraction} of a dense vector."""
    return {i: Fraction(x) for i, x in enumerate(vec) if x}


def dense(vec: dict, d: int) -> tuple:
    """The dense form, of length d, of a sparse vector."""
    return tuple(Fraction(vec.get(i, 0)) for i in range(d))


def operator_rows(op) -> Matrix:
    """Row-major dense matrix of a sparse operator."""
    return tuple(dense(row, len(op)) for row in op_transpose(op))


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


class Subspace:
    """A linear subspace of k^ambient, stored as canonical RREF rows."""

    __slots__ = ("ambient", "rows", "pivots")

    def __init__(self, ambient: int, vectors: Iterable[dict] = ()):
        self.ambient = ambient
        self.rows, self.pivots = linalg.rref(vectors, ambient)

    @classmethod
    def units(cls, ambient: int, cols: Iterable[int]) -> "Subspace":
        """The span of the unit vectors at `cols`: its rref is their unit
        rows in increasing order, so no elimination runs."""
        space = cls.__new__(cls)
        space.ambient = ambient
        space.pivots = tuple(sorted(set(cols)))
        if space.pivots and (space.pivots[0] < 0 or space.pivots[-1] >= ambient):
            raise AlgebraError(f"vector index out of range({ambient})")
        space.rows = tuple([{c: 1} for c in space.pivots])
        return space

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, vec: dict) -> dict:
        """vec minus its part along the stored rows; empty iff vec is in the span."""
        if vec and (min(vec) < 0 or max(vec) >= self.ambient):
            raise AlgebraError(f"vector index out of range({self.ambient})")
        v = {i: x for i, x in vec.items() if x}
        for row, p in zip(self.rows, self.pivots):
            f = v.get(p)
            if f:
                _axpy(v, -f, row)
        return v

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self.pivots == other.pivots
            and self.rows == other.rows
        )

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"


def columns(op) -> Operator:
    """An operator's dict columns, read off its slot map if it has one."""
    return slot_columns(op) if isinstance(op, SlotMap) else op


def joint_kernel(ops: Sequence, d: int) -> Subspace:
    """The elements every operator kills, operators as dict columns or
    slot maps: the null space of their stacked nonzero rows."""
    rows = [row for op in ops for row in op_transpose(columns(op)) if row]
    return Subspace(d, null_basis(rows, d))


def image_span(ops: Sequence, d: int) -> Subspace:
    """The sum of the operators' images, operators as dict columns or slot
    maps: the span of their nonzero columns."""
    return Subspace(d, [col for op in ops for col in columns(op) if col])


def full_space(d: int) -> Subspace:
    """All of k^d."""
    return Subspace(d, ({i: Fraction(1)} for i in range(d)))


def slot_map(op: Operator) -> SlotMap | None:
    """op as a slot map, or None when some column holds two entries or more."""
    if max(map(len, op), default=0) > 1:
        return None
    return SlotMap(
        tuple(next(iter(col), None) for col in op),
        tuple(next(iter(col.values()), 0) for col in op),
    )


def slot_module(module: FiniteModule) -> FiniteModule | None:
    """The module built from the slot maps read off its operators, None
    when some operator has a column of two entries or more."""
    maps = tuple(map(slot_map, module.action))
    if None in maps:
        return None
    return FiniteModule(module.nvars, module.dim, slot_maps=maps)


# ---------------------------------------------------------------------------
# ring helpers

def ev_add(a: ExponentVector, b: ExponentVector) -> ExponentVector:
    return tuple(ai + bi for ai, bi in zip(a, b))


def poly_mul(p: Polynomial, q: Polynomial) -> Polynomial:
    """The product of two polynomials, term by term."""
    return Polynomial(
        (ev_add(ea, eb), ca * cb)
        for ea, ca in p.terms.items()
        for eb, cb in q.terms.items()
    )


def contains(ideal: MonomialIdeal, exps: ExponentVector) -> bool:
    """Whether x^exps lies in the ideal: some generator divides it."""
    if len(exps) != ideal.n:
        raise AlgebraError("exponent vector has wrong length")
    return any(divides(g, exps) for g in ideal.min_gens)


# ---------------------------------------------------------------------------
# dense fraction-free row reduction

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
    """Canonical reduced row echelon form of dense rows, as tuples."""
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


def echelon_normalizing_each_step(vectors: Iterable[dict], width: int) -> list[dict]:
    """The forward pass `linalg._echelon` made before it deferred content
    removal to the pivot rows: the row is divided by its content before the
    first elimination step and again after every step."""
    pivot_rows: dict[int, dict[int, int]] = {}
    for vec in vectors:
        row = linalg._integerize(vec)
        if not row:
            continue
        c = min(row)
        if c < 0 or max(row) >= width:
            raise AlgebraError(f"vector index out of range({width})")
        row = linalg._gcd_normalize(row, c)
        while c in pivot_rows:
            row = linalg._eliminate(row, pivot_rows[c], c)
            if not row:
                break
            c = min(row)
            row = linalg._gcd_normalize(row, c)
        if row:
            pivot_rows[c] = row
            if len(pivot_rows) == width:
                break
    return list(pivot_rows.values())


def rank(vectors: Iterable[Sequence], width: int) -> int:
    """Rank of dense rows: the number of pivots of the dense rref."""
    return len(rref(vectors, width)[0])


def is_invertible(op: Operator) -> bool:
    """Whether a square sparse operator has full rank, by the forward pass
    of `linalg.rref`: its pivot rows have distinct leading columns."""
    return len(_echelon(op, len(op))) == len(op)


def kernel(vectors: Iterable[dict], width: int) -> Subspace:
    """Null space {v : A v = 0} of the matrix whose rows are the given
    sparse vectors, the span of `linalg.null_basis`."""
    return Subspace(width, null_basis(vectors, width))


def coords(space: Subspace, vec: dict) -> tuple:
    """Coordinates of a sparse vec in the row basis; raises if vec is outside.

    RREF rows are unit vectors on the pivot columns, so the coordinates are
    the entries of vec there.
    """
    if space.reduce(vec):
        raise AlgebraError("vector is not in the subspace")
    return tuple(Fraction(vec.get(p, 0)) for p in space.pivots)


# ---------------------------------------------------------------------------
# dense modules


def identity_matrix(d: int) -> Matrix:
    return tuple(tuple(Fraction(int(i == j)) for j in range(d)) for i in range(d))


def zero_matrix(d: int) -> Matrix:
    return tuple(tuple(Fraction(0) for _ in range(d)) for _ in range(d))


def mat_vec(mat: Matrix, vec) -> tuple:
    return tuple(
        sum((r[j] * vec[j] for j in range(len(vec)) if vec[j]), Fraction(0))
        for r in mat
    )


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum((x * y for x, y in zip(row, col) if x and y), Fraction(0)) for col in bt)
        for row in a
    )


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(a: Matrix, c) -> Matrix:
    c = Fraction(c)
    return tuple(tuple(c * x for x in row) for row in a)


def mat_pow(a: Matrix, k: int) -> Matrix:
    out = identity_matrix(len(a))
    for _ in range(k):
        out = mat_mul(out, a)
    return out


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a))


@dataclass(frozen=True)
class DenseModule:
    """A finite module given by dense action matrices."""

    nvars: int
    dim: int
    action: tuple[Matrix, ...]

    @classmethod
    def of(cls, module: FiniteModule) -> "DenseModule":
        return cls(
            module.nvars,
            module.dim,
            tuple(operator_rows(op) for op in module.action),
        )

    def poly_matrix(self, poly) -> Matrix:
        out = zero_matrix(self.dim)
        for exps, coeff in poly.terms.items():
            term = identity_matrix(self.dim)
            for i, e in enumerate(exps):
                for _ in range(e):
                    term = mat_mul(term, self.action[i])
            out = mat_add(out, mat_scale(term, coeff))
        return out


def act_poly_matrix(module: FiniteModule, poly: Polynomial) -> Operator:
    """The operator of `poly`, one `act` on each unit column."""
    return tuple(module.act(poly, {j: 1}) for j in range(module.dim))


def _squares(gens):
    return [
        poly_mul(gens[i], gens[j]) for i in range(len(gens)) for j in range(i, len(gens))
    ]


def annihilator_of(module: DenseModule, gens) -> Subspace:
    stacked = []
    for g in gens:
        stacked.extend(sparse(r) for r in module.poly_matrix(g))
    return kernel(stacked, module.dim)


def image_of(module: DenseModule, gens) -> Subspace:
    vecs = []
    for g in gens:
        vecs.extend(sparse(c) for c in zip(*module.poly_matrix(g)))
    return Subspace(module.dim, vecs)


def residual_matrix(space: Subspace) -> Matrix:
    """Matrix of v -> v - (projection onto the span); its kernel is the span."""
    d = space.ambient
    rows = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    for row, p in zip(space.rows, space.pivots):
        row = dense(row, d)
        for i in range(d):
            f = rows[i][p]
            if f:
                rows[i] = [xi - f * ri for xi, ri in zip(rows[i], row)]
    # rows currently hold images of unit vectors as *rows*; the residual
    # map is symmetric in this representation only if we transpose
    return tuple(zip(*rows))


def torsion_part_with_exponent(module: DenseModule, gens):
    mats = [module.poly_matrix(g) for g in gens]
    current = Subspace(module.dim)
    exponent = 0
    for k in range(1, module.dim + 2):
        res = residual_matrix(current)
        stacked = []
        for mat in mats:
            stacked.extend(sparse(r) for r in mat_mul(res, mat))
        nxt = kernel(stacked, module.dim)
        if nxt == current:
            break
        current = nxt
        exponent = k
    return current, exponent


def quotient_module(module: DenseModule, space: Subspace) -> DenseModule:
    d = module.dim
    free = [c for c in range(d) if c not in set(space.pivots)]
    if not free:
        return DenseModule(module.nvars, 0, tuple(() for _ in module.action))
    mats = []
    for mat in module.action:
        cols = []
        for c in free:
            unit = [Fraction(0)] * d
            unit[c] = Fraction(1)
            red = space.reduce(sparse(mat_vec(mat, unit)))
            cols.append([red.get(f, Fraction(0)) for f in free])
        mats.append(tuple(zip(*cols)))
    return DenseModule(module.nvars, len(free), tuple(mats))


def adic_completion(module: DenseModule, gens):
    mats = [module.poly_matrix(g) for g in gens]
    current = full_space(module.dim)
    exponent = 0
    for k in range(1, module.dim + 2):
        vecs = [
            sparse(mat_vec(mat, dense(r, module.dim)))
            for mat in mats
            for r in current.rows
        ]
        nxt = Subspace(module.dim, vecs)
        if nxt == current:
            break
        current = nxt
        exponent = k
    return quotient_module(module, current), exponent


def classify_fields(module: DenseModule, gens) -> tuple:
    """(tag, J-reduced, J-coreduced, gamma dim, lambda dim), as TtfTag holds them."""
    gens = list(gens)
    reduced = annihilator_of(module, gens) == annihilator_of(module, _squares(gens))
    coreduced = image_of(module, gens) == image_of(module, _squares(gens))
    gamma, _ = torsion_part_with_exponent(module, gens)
    lam, _ = adic_completion(module, gens)
    image = image_of(module, gens)
    if reduced and gamma.dim == module.dim:
        tag = "T_I"
    elif coreduced and image.dim == module.dim:
        tag = "FrakT_I"
    elif reduced and gamma.dim == 0:
        tag = "F_I"
    else:
        tag = "none"
    return tag, reduced, coreduced, gamma.dim, lam.dim


def submodule_module(module: FiniteModule, space: Subspace) -> FiniteModule:
    """Restrict the action to an invariant subspace, in its row basis."""
    mats = []
    for mat in DenseModule.of(module).action:
        # images of the basis vectors, as coordinate rows; transposed to act
        # on coordinate columns
        rows = [
            coords(space, sparse(mat_vec(mat, dense(r, module.dim))))
            for r in space.rows
        ]
        mats.append(operator_from_rows(transpose(tuple(rows))))
    return FiniteModule(module.nvars, space.dim, tuple(mats))


def word_rank_profile(module: FiniteModule) -> dict:
    """Rank of every monomial word of length <= dim in the action matrices.

    The actions commute, so words collapse to exponent vectors.  Two
    isomorphic modules share this profile.
    """
    action = DenseModule.of(module).action
    profile = {}
    for exps in monomials_up_to_degree(module.nvars, module.dim):
        if not any(exps):
            continue
        word = identity_matrix(module.dim)
        for i, e in enumerate(exps):
            for _ in range(e):
                word = mat_mul(word, action[i])
        profile[exps] = rank(word, module.dim)
    return profile


def sampled_unit_check(module: FiniteModule, trials: int = 20, seed: int = 0) -> None:
    """Apply each seeded unit d times to a random nonzero vector; raise if a
    power vanishes.  Samples what `radical.envelope_zero` checks exactly."""
    rng = random.Random(seed)
    for _ in range(trials):
        r = _random_poly(rng, module.nvars, 2, constant=True)
        if r.constant_term() == 0:
            continue
        vec = {}
        for j in range(module.dim):
            if rng.random() < 0.5:
                vec[j] = Fraction(rng.choice(_COEFF_POOL))
        if not vec:
            continue
        power = vec
        for _ in range(module.dim):
            power = module.act(r, power)
            if not power:
                raise InternalCheckError(
                    "a unit-like polynomial had a vanishing power on a nonzero element"
                )


# ---------------------------------------------------------------------------
# the sampler's earlier dense draws

_ENTRY_POOL = (-2, -1, 0, 0, 1, 1, 2)


def random_base_matrix(rng: random.Random, dim: int) -> Operator:
    """Upper triangular; nilpotent, invertible, or a mixed block of both."""
    mode = rng.choice(("nilpotent", "invertible", "mixed"))
    rows = [[Fraction(0)] * dim for _ in range(dim)]
    split = dim if mode == "nilpotent" else 0 if mode == "invertible" else rng.randint(0, dim)
    for i in range(dim):
        for j in range(i + 1, dim):
            rows[i][j] = Fraction(rng.choice(_ENTRY_POOL))
        if i >= split:
            rows[i][i] = Fraction(rng.choice((-2, -1, 1, 2)))
    return operator_from_rows(rows)


def invert_unit_triangular(mat: Sequence[Sequence], is_lower: bool) -> Operator:
    """The inverse of a dense triangular matrix, one column at a time by
    forward (lower) or backward (upper) substitution."""
    d = len(mat)
    inv = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    order = range(d) if is_lower else range(d - 1, -1, -1)
    for col in range(d):
        for i in order:
            s = Fraction(0)
            for k in range(d):
                if k != i and mat[i][k]:
                    s += mat[i][k] * inv[k][col]
            inv[i][col] = (Fraction(int(i == col)) - s) / mat[i][i]
    return operator_from_rows(inv)


def unimodular_from_factors(lower, upper) -> tuple[Operator, Operator]:
    """P = L U and P^-1 = U^-1 L^-1 from dense unit triangular factors."""
    p = op_mul(operator_from_rows(lower), operator_from_rows(upper))
    p_inv = op_mul(
        invert_unit_triangular(upper, False), invert_unit_triangular(lower, True)
    )
    return p, p_inv


def random_unimodular(rng: random.Random, dim: int) -> tuple[Operator, Operator]:
    """A change of basis and its inverse, built as unit triangular factors."""
    lower = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
    upper = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
    for i in range(dim):
        for j in range(i):
            lower[i][j] = Fraction(rng.choice((-1, 0, 0, 1)))
            upper[j][i] = Fraction(rng.choice((-1, 0, 0, 1)))
    return unimodular_from_factors(lower, upper)


def complement_min_gens(closure: set, n: int) -> MonomialIdeal:
    """The ideal generated by the complement of a finite down-set: every
    cell of the box one step past it that lies outside with all its lower
    neighbours inside, minimalized."""
    box = [max((e[i] for e in closure), default=0) + 1 for i in range(n)]
    gens = []
    for cand in product(*(range(b + 1) for b in box)):
        if cand in closure:
            continue
        below_ok = all(
            cand[i] == 0
            or tuple(v - int(j == i) for j, v in enumerate(cand)) in closure
            for i in range(n)
        )
        if below_ok:
            gens.append(cand)
    return minimalize(gens)


def upsets_by_mask_scan(module: FiniteModule) -> list[int]:
    """Every up-closed subset of the basis under the action, as a bitmask:
    all 2^dim masks in ascending order, each kept when it holds every
    single-variable shift of each of its slots."""
    covers = []
    for b in range(module.dim):
        m = 0
        for op in module.action:
            for t in op[b]:
                m |= 1 << t
        covers.append(m)
    out = []
    for mask in range(1 << module.dim):
        if all(
            covers[b] & mask == covers[b]
            for b in range(module.dim) if mask >> b & 1
        ):
            out.append(mask)
    return out


def envelope_of_submodule_bruteforce(
    module: QuotientModule, exps: Sequence[ExponentVector],
    operators: Sequence[Operator],
) -> Subspace:
    """{r*m : r in `operators`, m basis class, r^k m in N} on subspaces:
    N is the span of the monomials `exps`, and each power r^k m, k <= dim+1,
    is tested by `Subspace.contains`."""
    n_space = Subspace.units(module.dim, monomial_span(module, exps))
    vecs = list(n_space.rows)
    for r in operators:
        for b in range(module.dim):
            vec = module.basis_element(module.basis[b])
            power = vec
            for _ in range(module.dim + 1):
                power = sparse_apply(r, power)
                if n_space.contains(power):
                    vecs.append(sparse_apply(r, vec))
                    break
    return Subspace(module.dim, vecs)


def apolarity(poly: Polynomial, dual: Polynomial) -> Polynomial:
    """Contraction of a dual element by a polynomial, extended bilinearly."""
    items = []
    for a, ca in poly.terms.items():
        for b, cb in dual.terms.items():
            c = contraction(a, b)
            if c:
                items.append((tuple(bi - ai for ai, bi in zip(a, b)), ca * cb * c))
    return Polynomial(items)


def check_antichain_all_pairs(gens: Sequence[ExponentVector]) -> None:
    """The earlier `MonomialIdeal` check: lengths and signs per generator,
    then every ordered pair of distinct generators, then the order."""
    if not gens:
        raise AlgebraError("empty generator set")
    n = len(gens[0])
    for g in gens:
        if len(g) != n:
            raise AlgebraError("generators have mixed lengths")
        if any(e < 0 for e in g):
            raise AlgebraError("negative exponent in generator")
    for g in gens:
        for h in gens:
            if h != g and divides(h, g):
                raise AlgebraError("generators are not minimal")
    if list(gens) != sorted(gens, key=grlex_key):
        raise AlgebraError("generators are not canonically sorted")


def minimalize_all_pairs(gens: Iterable[ExponentVector]) -> tuple:
    """The earlier `minimalize`: drop every generator that another one of
    the pool divides, sort, and run `check_antichain_all_pairs`."""
    pool = {tuple(int(e) for e in g) for g in gens}
    if not pool:
        raise AlgebraError("empty generator set")
    keep = [g for g in pool if not any(h != g and divides(h, g) for h in pool)]
    out = tuple(sorted(keep, key=grlex_key))
    check_antichain_all_pairs(out)
    return out


def staircase_by_prefixes(
    variables: VariableSet, ideal: MonomialIdeal
) -> list[ExponentVector]:
    """The earlier column walk: every prefix carries the generators that
    divide it, and its column is as tall as the least exponent among those
    whose tail past the column is zero, found by slicing that tail."""
    if ideal.n != variables.n:
        raise AlgebraError("ideal and variable set have different arities")
    for i in range(variables.n):
        if not any(
            all(e == 0 for j, e in enumerate(g) if j != i) for g in ideal.min_gens
        ):
            raise NotArtinianError(variables.names[i])
    walk = [((), ideal.min_gens)]
    for i in range(variables.n):
        grown = []
        for prefix, gens in walk:
            height = min(g[i] for g in gens if not any(g[i + 1:]))
            if len(grown) + height > MAX_DIM:
                raise AlgebraError(
                    f"the quotient has more than {MAX_DIM} standard monomials; "
                    "it is too large to enumerate"
                )
            gens = sorted(gens, key=itemgetter(i))
            k = 0
            for a in range(height):
                while gens[k][i] <= a:
                    k += 1
                grown.append((prefix + (a,), gens[:k]))
        walk = grown
    return sorted(sorted((cell for cell, _ in walk), reverse=True), key=sum)


# ---------------------------------------------------------------------------
# the exponent-vector checks one entry at a time, and the sampler's draws
# before its staircase became the module's basis


def grlex_key_per_entry(exps: ExponentVector):
    return (sum(exps), tuple(-e for e in exps))


def polynomial_terms_per_entry(terms) -> dict:
    """The earlier `Polynomial` constructor: each key built and checked for
    negative exponents one entry at a time."""
    items = terms.items() if isinstance(terms, Mapping) else terms
    acc: dict = {}
    for exps, coeff in items:
        key = tuple(int(e) for e in exps)
        if any(e < 0 for e in key):
            raise AlgebraError("negative exponent in polynomial term")
        if type(coeff) is not int:
            coeff = Fraction(coeff)
        acc[key] = acc.get(key, 0) + coeff
    return {k: v.numerator if v.denominator == 1 else v for k, v in acc.items() if v}


def check_ideal_per_entry(gens: Sequence[ExponentVector]) -> None:
    """The earlier `MonomialIdeal` check: lengths and signs entry by entry,
    then the antichain along the grlex order, then the order."""
    if not gens:
        raise AlgebraError("empty generator set")
    n = len(gens[0])
    for g in gens:
        if len(g) != n:
            raise AlgebraError("generators have mixed lengths")
        if any(e < 0 for e in g):
            raise AlgebraError("negative exponent in generator")
    order = sorted(gens, key=grlex_key_per_entry)
    for k, g in enumerate(order):
        if any(divides(h, g) for h in order[:k]):
            raise AlgebraError("generators are not minimal")
    if list(gens) != order:
        raise AlgebraError("generators are not canonically sorted")


def minimalize_per_entry(gens: Iterable[ExponentVector]) -> tuple:
    """The earlier `minimalize`: each generator converted one entry at a
    time, kept unless a kept one divides it, then `check_ideal_per_entry`."""
    pool = sorted({tuple(int(e) for e in g) for g in gens}, key=grlex_key_per_entry)
    if not pool:
        raise AlgebraError("empty generator set")
    if len(set(map(len, pool))) > 1:
        raise AlgebraError("generators have mixed lengths")
    keep: list = []
    for g in pool:
        if not any(divides(h, g) for h in keep):
            keep.append(g)
    check_ideal_per_entry(keep)
    return tuple(keep)


def random_artinian_ideal_by_rejection(rng: random.Random, config):
    """The earlier sampler loop: it walked each draw's staircase for its
    dimension only, and `QuotientModule` walked the accepted one again."""
    while True:
        n = rng.randint(1, 3)
        variables = VariableSet(("x", "y", "z")[:n])
        bounds = [rng.randint(1, 6) for _ in range(n)]
        gens = []
        for i in range(n):
            e = [0] * n
            e[i] = bounds[i]
            gens.append(tuple(e))
        for _ in range(rng.randint(0, 2 * n)):
            e = tuple(rng.randrange(b) for b in bounds)
            if any(e):
                gens.append(e)
        ideal = minimalize(gens)
        dim = len(staircase(variables, ideal))
        if 1 <= dim <= config.dim_bound:
            return variables, ideal


def random_finite_module_by_line_module(
    rng: random.Random, conjugated: bool = True
) -> FiniteModule:
    """The earlier commuting family: each extra operator a polynomial in
    the base matrix, evaluated by `poly_matrix` on a one-variable module
    built for that purpose."""
    n = rng.randint(1, 3)
    dim = rng.randint(1, 8)
    base = _random_base_matrix(rng, dim)
    line = FiniteModule(1, dim, (base,))
    mats = [base]
    for _ in range(n - 1):
        coeffs = [rng.choice(_ENTRY_POOL) for _ in range(3)]
        mats.append(line.poly_matrix(Polynomial(((k,), c) for k, c in enumerate(coeffs))))
    if conjugated:
        p, p_inv = _random_unimodular(rng, dim)
        mats = [linalg.op_conjugate(op, p, p_inv) for op in mats]
    return FiniteModule(n, dim, tuple(mats))
