"""Macaulay inverse systems under the apolarity contraction.

The polynomial ring acts on a second copy of itself (written in upper-case
variables) by differentiation-style contraction:

    x^a o X^b  =  (b! / (b-a)!) X^(b-a)   when b >= a componentwise,
                  0                        otherwise,

extended bilinearly.  `contraction` holds that coefficient on exponent
vectors and is the one home of the rule; `apolarity` extends it to
polynomials.  In characteristic zero the inverse system of a monomial
ideal is spanned by the dual staircase monomials, and the corner
combinatorics of the staircase mirrors over to the dual side.

`inverse_system` builds I-perp once, as a module of contraction operators
on the staircase basis and index of M = R/I itself, with its grading, its
contraction image and its corners (the generators of its largest reduced
quotient); the inverse-system readings are read off it.  Its checks that
the generators of I kill exactly the staircase duals run `contraction` on
exponent vectors: on the maximal staircase duals, which every staircase
dual divides, and on the minimal monomials outside the staircase, which
every other outside monomial is a multiple of.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import perm, prod
from typing import Sequence

from .linalg import Operator, Subspace
from .quotient import (
    HilbertSeries,
    QuotientModule,
    hilbert,
    minimal_outside,
    monomial_span,
)
from .ring import (
    AlgebraError,
    ExponentVector,
    InternalCheckError,
    MonomialIdeal,
    Polynomial,
    VariableSet,
    ev_add,
    minimalize,
    poly_monomial,
    total_degree,
)
from .reduced import monomials_up_to_degree
from .torsion import FiniteModule, image_span


def contraction(a: ExponentVector, b: ExponentVector) -> int:
    """The coefficient of x^a o X^b: b!/(b-a)! when a divides b, else 0."""
    if len(a) != len(b):
        raise AlgebraError("mismatched arities under apolarity")
    # perm(bi, ai) = bi!/(bi-ai)!, which is 0 when ai > bi
    return prod(map(perm, b, a))


def apolarity(poly: Polynomial, dual: Polynomial) -> Polynomial:
    """Contraction of a dual element by a polynomial, extended bilinearly."""
    items = []
    for a, ca in poly.terms.items():
        for b, cb in dual.terms.items():
            c = contraction(a, b)
            if c:
                items.append((tuple(bi - ai for ai, bi in zip(a, b)), ca * cb * c))
    return Polynomial(items)


class InverseSystem(QuotientModule):
    """I-perp on the dual staircase basis, a module under contraction.

    Variables, ideal, basis and index are those of the module M = R/I it is
    built from; only the operators and the labels differ.  Column e of
    action[i] is contraction by x_i, which is e_i X^(e - s_i) for the i-th
    unit exponent vector s_i.  inverse_system builds it and stores the
    checked structures below.
    """

    grading: HilbertSeries
    inner: Subspace  # the contraction image m o I-perp
    corners: tuple[ExponentVector, ...]  # dual basis monomials outside it

    def __init__(self, module: QuotientModule):
        self.variables, self.ideal = module.variables, module.ideal
        self.basis, self.index = module.basis, module.index
        ops = tuple(self._operator(i) for i in range(module.n))
        FiniteModule.__init__(self, module.n, module.dim, ops)

    def _operator(self, i: int) -> Operator:
        cols = []
        for e in self.basis:
            if e[i] == 0:
                cols.append({})
                continue
            pos = self.index.get(tuple(v - int(j == i) for j, v in enumerate(e)))
            if pos is None:
                raise InternalCheckError("dual staircase is not downward closed")
            cols.append({pos: e[i]})
        return tuple(cols)

    def _names(self) -> tuple[str, ...]:
        return self.variables.dual_names()


def inverse_system(module: QuotientModule) -> InverseSystem:
    """I-perp of M = R/I, spanned by the dual monomials of M's staircase.

    Exact checks run once, on construction: the contraction operators
    commute, the generators of I contract every maximal dual basis monomial
    to zero and move every minimal non-staircase one, and the contraction
    image is the span of the non-maximal duals.  The basis being downward
    closed (the operators check it), the first check covers every dual
    basis monomial, since each divides a maximal one, and the second every
    non-staircase one.  The dual corners are then the basis monomials off
    the pivots of that image.
    """
    system = InverseSystem(module)
    basis, n = system.basis, module.n
    gens = module.ideal.min_gens
    steps = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    maximal, non_maximal = [], []
    for e in basis:
        grows = any(ev_add(e, s) in system.index for s in steps)
        (non_maximal if grows else maximal).append(e)
    for e in maximal:
        for g in gens:
            if contraction(g, e):
                raise InternalCheckError(
                    f"dual staircase monomial {e} not annihilated by a generator"
                )
    for e in minimal_outside(system.index, n):
        if not any(contraction(g, e) for g in gens):
            raise InternalCheckError(
                f"non-staircase dual monomial {e} annihilated by every generator"
            )
    inner = image_span(system.action, system.dim)
    if inner != monomial_span(system, non_maximal):
        raise InternalCheckError(
            "contraction image differs from the span of non-maximal duals"
        )
    pivots = set(inner.pivots)
    system.grading = hilbert(system)
    system.inner = inner
    system.corners = tuple(e for k, e in enumerate(basis) if k not in pivots)
    return system


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
    dual must be a single term; its nonzero coefficient does not matter.
    """
    if not duals:
        raise AlgebraError("empty dual generator set")
    closure = set()
    for f in duals:
        if len(f.terms) != 1:
            raise AlgebraError("perp needs dual monomials, got a non-monomial")
        (e,) = f.terms
        closure.update(product(*(range(v + 1) for v in e)))
    return minimalize(minimal_outside(closure, variables.n))


# ---------------------------------------------------------------------------
# the truncated full dual space

@dataclass(frozen=True)
class TruncatedDual:
    """All dual monomials of degree <= degree_bound in n variables."""

    n: int
    degree_bound: int
    basis: tuple[ExponentVector, ...]


def truncated_dual(n: int, degree_bound: int) -> TruncatedDual:
    if n < 1 or degree_bound < 1:
        raise AlgebraError("need n >= 1 and degree_bound >= 1")
    return TruncatedDual(
        n, degree_bound, tuple(monomials_up_to_degree(n, degree_bound))
    )


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


def truncated_dual_report(n: int, split_index: int, degree_bound: int) -> DualTruncationReport:
    """Check the reducedness dichotomy on the degree-truncated dual space.

    Splitting the variables at `split_index` (written i below): the ideal
    generated by the trailing variables x_{i+1}..x_n contracts the leading
    subring (dual monomials in the first i variables) to zero; a dual
    monomial outside that subring carries a trailing variable x_j to the
    power s >= 1, and then x_j^(s+1) kills it while x_j does not; and every
    dual monomial other than 1 admits such a witness pair for some variable
    it contains, so only the constants are reduced.
    """
    if not 0 <= split_index <= n:
        raise AlgebraError("split index out of range")
    td = truncated_dual(n, degree_bound)
    ann_checks = 0
    mem_checks = 0
    witnesses = []
    for e in td.basis:
        dual = poly_monomial(e)
        in_subring = all(e[j] == 0 for j in range(split_index, n))
        if in_subring:
            for j in range(split_index, n):
                step = tuple(int(t == j) for t in range(n))
                if not apolarity(poly_monomial(step), dual).is_zero:
                    raise InternalCheckError(
                        f"trailing variable fails to annihilate {e}"
                    )
                ann_checks += 1
        else:
            j = next(
                j for j in range(split_index, n) if e[j] > 0
            )
            s = e[j]
            kill = tuple((s + 1) * int(t == j) for t in range(n))
            single = tuple(int(t == j) for t in range(n))
            if not apolarity(poly_monomial(kill), dual).is_zero:
                raise InternalCheckError(f"power witness fails to kill {e}")
            if apolarity(poly_monomial(single), dual).is_zero:
                raise InternalCheckError(f"variable witness wrongly kills {e}")
            mem_checks += 1
        if any(e):
            j = next(j for j in range(n) if e[j] > 0)
            s = e[j]
            kill = tuple((s + 1) * int(t == j) for t in range(n))
            single = tuple(int(t == j) for t in range(n))
            if not apolarity(poly_monomial(kill), dual).is_zero:
                raise InternalCheckError(f"reduced witness fails to kill {e}")
            if apolarity(poly_monomial(single), dual).is_zero:
                raise InternalCheckError(f"reduced witness wrongly kills {e}")
            witnesses.append((e, kill, single))
        else:
            # the constant: no monomial a of positive degree has a o 1 != 0,
            # so no witness pair can exist and 1 stays reduced
            for a in monomials_up_to_degree(n, degree_bound + 1):
                if any(a) and not apolarity(poly_monomial(a), dual).is_zero:
                    raise InternalCheckError("a positive-degree monomial moved 1")
    return DualTruncationReport(
        n=n,
        split_index=split_index,
        degree_bound=degree_bound,
        subring_size=sum(
            1
            for e in td.basis
            if all(e[j] == 0 for j in range(split_index, n))
        ),
        annihilation_checks=ann_checks,
        membership_checks=mem_checks,
        witnesses=tuple(witnesses),
    )

