"""Macaulay inverse systems under the apolarity contraction.

The polynomial ring acts on a second copy of itself (written in upper-case
variables) by differentiation-style contraction:

    x^a o X^b  =  (b! / (b-a)!) X^(b-a)   when b >= a componentwise,
                  0                        otherwise,

extended bilinearly.  `contraction` holds that coefficient on exponent
vectors and is the one home of the rule; every check here reads monomials,
so no polynomial is contracted.  In characteristic zero the inverse system
of a monomial ideal is spanned by the dual staircase monomials, and the
corner combinatorics of the staircase mirrors over to the dual side.

`inverse_system` builds I-perp once, as a module of contraction slot maps
on the staircase basis and index of M = R/I itself, each M's shift by x_i
read backwards with coefficient e_i, with its grading (each dual
monomial's depth under contraction, so that the Hilbert-series check
compares M with what the contraction maps say), its contraction image (the
union of the contraction targets) and its corners (the generators of its
largest reduced quotient); contraction by x^e and the inverse-system
readings are read off those maps.  Its checks that the generators of I
kill exactly the staircase duals run `contraction` on exponent vectors: on
the maximal staircase duals, which every staircase dual divides, and on
the minimal monomials outside the staircase, which every other outside
monomial is a multiple of, and which are read off M's shift slots and the
contraction slots.  The truncated dual, all dual monomials of degree <= D,
is I-perp of m^(D+1), built the same way; `truncated_dual_report` reads
the slots of its contraction maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement, product
from math import perm, prod
from typing import Sequence

from .linalg import SlotMap, Subspace, dead_columns
from .quotient import HilbertSeries, QuotientModule, hilbert, minimal_outside
from .ring import (
    AlgebraError,
    ExponentVector,
    InternalCheckError,
    MonomialIdeal,
    Polynomial,
    VariableSet,
    grlex_key,
    minimalize,
    total_degree,
)
from .torsion import FiniteModule, image_span


def contraction(a: ExponentVector, b: ExponentVector) -> int:
    """The coefficient of x^a o X^b: b!/(b-a)! when a divides b, else 0."""
    if len(a) != len(b):
        raise AlgebraError("mismatched arities under apolarity")
    # perm(bi, ai) = bi!/(bi-ai)!, which is 0 when ai > bi
    return prod(map(perm, b, a))


def _contraction_map(shift: SlotMap, exps: tuple[int, ...]) -> SlotMap:
    """Contraction by x_i from M's shift by x_i and the x_i-exponents of
    the basis: the shift inverted, so column e goes back to the slot of
    e - s_i, the cell the shift sends to e, with coefficient e_i.  The
    shift's targets are cells with e_i > 0, and every such cell must be
    one of them."""
    back = dict(zip(shift.slots, range(len(exps)))).get
    slots = tuple(map(back, range(len(exps))))
    if slots.count(None) != exps.count(0):
        raise InternalCheckError("dual staircase is not downward closed")
    return SlotMap(slots, exps)


class InverseSystem(QuotientModule):
    """I-perp on the dual staircase basis, a module under contraction.

    Variables, ideal, basis and index are those of the module M = R/I it is
    built from; only the operators and the labels differ.  Column e of
    contraction by x_i holds e_i at X^(e - s_i) for the i-th unit exponent
    vector s_i: M's shift by x_i read backwards (`_contraction_map`).
    Contraction by x^e is the product of these slot maps
    (`FiniteModule.monomial_map`), whose column b holds b!/(b-e)! as a
    product of the falling factors.  inverse_system builds it and stores
    the checked structures below.
    """

    grading: HilbertSeries
    inner: Subspace  # the contraction image m o I-perp
    corners: tuple[ExponentVector, ...]  # dual basis monomials outside it

    def __init__(self, module: QuotientModule):
        self.variables, self.ideal = module.variables, module.ideal
        self.basis, self.index = module.basis, module.index
        self.names = module.variables.dual_names()
        maps = tuple(map(_contraction_map, module.slot_maps, zip(*module.basis)))
        FiniteModule.__init__(self, module.n, module.dim, slot_maps=maps)


def inverse_system(module: QuotientModule) -> InverseSystem:
    """I-perp of M = R/I, spanned by the dual monomials of M's staircase.

    Exact checks run once, on construction: the contraction operators
    commute, the generators of I contract every maximal dual basis monomial
    to zero and move every minimal non-staircase one, and the contraction
    image is the span of the non-maximal duals.  The basis being downward
    closed (the operators check it), the first check covers every dual
    basis monomial, since each divides a maximal one, and the second every
    non-staircase one.  The dual corners are then the basis monomials off
    the pivots of that image.  The grading counts each dual monomial's
    depth under contraction, which `hilbert_duality_check` holds to M's
    Hilbert series.
    """
    system = InverseSystem(module)
    basis, d = system.basis, system.dim
    gens = module.ideal.min_gens
    # X^e is maximal when no shift of M moves x^e
    maximal = dead_columns(module.slot_maps, d)
    for k in maximal:
        for g in gens:
            if contraction(g, basis[k]):
                raise InternalCheckError(
                    f"dual staircase monomial {basis[k]} not annihilated by a generator"
                )
    for e in _minimal_outside(module, system):
        if not any(contraction(g, e) for g in gens):
            raise InternalCheckError(
                f"non-staircase dual monomial {e} annihilated by every generator"
            )
    inner = image_span(system.slot_maps, d)
    if inner != Subspace.units(d, set(range(d)).difference(maximal)):
        raise InternalCheckError(
            "contraction image differs from the span of non-maximal duals"
        )
    pivots = set(inner.pivots)
    system.grading = HilbertSeries.from_degrees(_contraction_depths(system))
    system.inner = inner
    system.corners = tuple(e for k, e in enumerate(basis) if k not in pivots)
    return system


def _minimal_outside(
    module: QuotientModule, system: InverseSystem
) -> list[ExponentVector]:
    """`quotient.minimal_outside` of M's staircase, read off the slots.

    c = b + s_i lies outside the staircase exactly when M's shift by x_i
    kills b, and its lower neighbour c - s_j (j != i, b_j > 0) is the shift
    by x_i of b's contraction by x_j.  Each c is reached once, from
    b = c - s_i for the first variable x_i of c, so b has no x_j for j < i."""
    basis = module.basis
    downs = [m.slots for m in system.slot_maps]
    start = range(system.dim)
    found = []
    for i, shift in enumerate(module.slot_maps):
        up, later = shift.slots, downs[i + 1:]
        for k in start:
            if up[k] is None and all(
                down[k] is None or up[down[k]] is not None for down in later
            ):
                b = basis[k]
                found.append(b[:i] + (b[i] + 1,) + b[i + 1:])
        start = [k for k in start if downs[i][k] is None]
    return sorted(found, key=grlex_key)


def _contraction_depths(system: InverseSystem) -> list[int]:
    """The degree of each dual basis monomial, read off the contraction
    maps alone: in basis (grlex) order, 0 where no contraction moves it,
    else 1 + the depth of the cell its first live contraction sends it to."""
    maps = system.slot_maps
    first = maps[-1].slots
    for m in maps[-2::-1]:
        first = [f if t is None else t for t, f in zip(m.slots, first)]
    depth = [0] * system.dim
    for k, t in enumerate(first):
        if t is not None:
            depth[k] = depth[t] + 1
    return depth


def hilbert_duality_check(
    module: QuotientModule, system: InverseSystem, corners: Sequence[ExponentVector]
) -> tuple[HilbertSeries, HilbertSeries, HilbertSeries, HilbertSeries]:
    """(HS of M, of I-perp, of the reduced part, of its dual); the first two
    and the last two must agree.  `corners` are the outside corners of M."""
    hs_module = hilbert(module)
    hs_dual = system.grading
    hs_reduced = HilbertSeries.from_degrees(total_degree(e) for e in corners)
    hs_reduced_dual = HilbertSeries.from_degrees(
        total_degree(e) for e in system.corners
    )
    if hs_module != hs_dual:
        raise InternalCheckError("Hilbert series of M and I-perp differ")
    if hs_reduced != hs_reduced_dual:
        raise InternalCheckError(
            "Hilbert series of the reduced part and its dual differ"
        )
    return hs_module, hs_dual, hs_reduced, hs_reduced_dual


# ---------------------------------------------------------------------------
# annihilators of dual submodules

def perp_of_submodule(
    variables: VariableSet, duals: Sequence[Polynomial]
) -> MonomialIdeal:
    """The monomial ideal annihilating a finite set of dual monomials.

    Contraction commutes with the ring action, so annihilating the listed
    elements annihilates the submodule they generate: the dual monomials
    below them, whose complement is generated by the returned ideal.  Each
    dual must be a single term in the ring's variables; its nonzero
    coefficient does not matter.
    """
    if not duals:
        raise AlgebraError("empty dual generator set")
    closure = set()
    for f in duals:
        if len(f.terms) != 1:
            raise AlgebraError("perp needs dual monomials, got a non-monomial")
        (e,) = f.terms
        if len(e) != variables.n:
            raise AlgebraError("mismatched arities under apolarity")
        closure.update(product(*(range(v + 1) for v in e)))
    return MonomialIdeal(tuple(minimal_outside(closure, variables.n)))


# ---------------------------------------------------------------------------
# the truncated full dual space

def truncated_dual(n: int, degree_bound: int) -> InverseSystem:
    """All dual monomials of degree <= degree_bound in n variables: the
    inverse system of m^(degree_bound + 1), whose generators are the
    monomials of degree degree_bound + 1."""
    if n < 1 or degree_bound < 1:
        raise AlgebraError("need n >= 1 and degree_bound >= 1")
    variables = VariableSet(tuple(f"x{i}" for i in range(1, n + 1)))
    power = minimalize(
        tuple(c.count(i) for i in range(n))
        for c in combinations_with_replacement(range(n), degree_bound + 1)
    )
    return inverse_system(QuotientModule(variables, power))


@dataclass(frozen=True)
class DualTruncationReport:
    """Witness bookkeeping for the reducedness structure of a truncated dual.

    witnesses lists, per dual monomial other than 1, a pair
    (power that kills it, single variable that does not).
    """

    n: int
    split_index: int
    degree_bound: int
    subring_size: int
    annihilation_checks: int
    membership_checks: int
    witnesses: tuple[tuple[ExponentVector, ExponentVector, ExponentVector], ...]


def _witness_pair(
    e: ExponentVector, j: int, reduced: bool
) -> tuple[ExponentVector, ExponentVector]:
    """(x_j^(s+1), x_j) for s = e_j >= 1, checked to show that X^e is not
    reduced: the power kills X^e and the variable does not."""
    kill = tuple((e[j] + 1) * int(t == j) for t in range(len(e)))
    single = tuple(int(t == j) for t in range(len(e)))
    if contraction(kill, e):
        raise InternalCheckError(
            f"reduced witness fails to kill {e}"
            if reduced
            else f"power witness fails to kill {e}"
        )
    if not contraction(single, e):
        raise InternalCheckError(
            f"reduced witness wrongly kills {e}"
            if reduced
            else f"variable witness wrongly kills {e}"
        )
    return kill, single


def truncated_dual_report(n: int, split_index: int, degree_bound: int) -> DualTruncationReport:
    """Check the reducedness dichotomy on the degree-truncated dual space.

    Splitting the variables at `split_index` (written i below): the ideal
    generated by the trailing variables x_{i+1}..x_n contracts the leading
    subring (dual monomials in the first i variables) to zero, so their
    columns of the trailing contraction operators are empty; a dual
    monomial outside that subring carries a trailing variable x_j to the
    power s >= 1, and then x_j^(s+1) kills it while x_j does not; and every
    dual monomial other than 1 admits such a witness pair for some variable
    it contains, so only the constants are reduced.  The constant 1 is
    moved by no variable, hence by no monomial of positive degree.
    """
    if not 0 <= split_index <= n:
        raise AlgebraError("split index out of range")
    system = truncated_dual(n, degree_bound)
    trailing = system.slot_maps[split_index:]
    subring = ann_checks = mem_checks = 0
    witnesses = []
    for k, e in enumerate(system.basis):
        if not any(e[split_index:]):
            subring += 1
            for m in trailing:
                if m.slots[k] is not None:
                    raise InternalCheckError(
                        f"trailing variable fails to annihilate {e}"
                    )
                ann_checks += 1
        else:
            j = next(j for j in range(split_index, n) if e[j])
            _witness_pair(e, j, reduced=False)
            mem_checks += 1
        if any(e):
            j = next(j for j in range(n) if e[j])
            witnesses.append((e, *_witness_pair(e, j, reduced=True)))
        elif any(m.slots[k] is not None for m in system.slot_maps):
            raise InternalCheckError("a positive-degree monomial moved 1")
    return DualTruncationReport(
        n=n,
        split_index=split_index,
        degree_bound=degree_bound,
        subring_size=subring,
        annihilation_checks=ann_checks,
        membership_checks=mem_checks,
        witnesses=tuple(witnesses),
    )
