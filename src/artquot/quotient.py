"""Finite quotients R/I by Artinian monomial ideals.

The standard-monomial (staircase) basis is enumerated by a bounded box
walk.  R/I is a FiniteModule whose variables act as staircase shifts: the
operator of x_i sends each basis monomial to its x_i-multiple, or to zero
when that lies in I.  Module elements are sparse vectors {position:
Fraction} over that basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import prod
from typing import Iterable

from .linalg import Operator, Subspace
from .ring import (
    AlgebraError,
    ExponentVector,
    MonomialIdeal,
    VariableSet,
    ev_add,
    grlex_key,
    monomial_str,
    pure_power_bounds,
    total_degree,
)
from .torsion import FiniteModule, joint_kernel


@dataclass(frozen=True)
class HilbertSeries:
    """Degree census of a graded finite module; trailing coefficient nonzero."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if any(c < 0 for c in self.coeffs):
            raise AlgebraError("negative Hilbert coefficient")
        if self.coeffs and self.coeffs[-1] == 0:
            raise AlgebraError("trailing Hilbert coefficient must be nonzero")

    @classmethod
    def from_degrees(cls, degrees: Iterable[int]) -> "HilbertSeries":
        counts: dict[int, int] = {}
        for d in degrees:
            counts[d] = counts.get(d, 0) + 1
        if not counts:
            return cls(())
        top = max(counts)
        return cls(tuple(counts.get(d, 0) for d in range(top + 1)))

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for d, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if d == 0:
                parts.append(str(c))
            else:
                t = "t" if d == 1 else f"t^{d}"
                parts.append(t if c == 1 else f"{c}{t}")
        return " + ".join(parts)


# The staircase is found by walking its bounding box; a larger box is
# refused before any cell is made.
MAX_BOX_CELLS = 10**6


def staircase(variables: VariableSet, ideal: MonomialIdeal) -> list[ExponentVector]:
    """Standard monomials of R/I in canonical order."""
    bounds = pure_power_bounds(variables, ideal)
    if prod(bounds) > MAX_BOX_CELLS:
        raise AlgebraError(
            f"the staircase box has more than {MAX_BOX_CELLS} cells; "
            "the quotient is too large to enumerate"
        )
    cells = [
        e
        for e in product(*(range(b) for b in bounds))
        if not ideal.contains(e)
    ]
    return sorted(cells, key=grlex_key)


class QuotientModule(FiniteModule):
    """R/I on its staircase basis; each variable acts by a staircase shift."""

    def __init__(self, variables: VariableSet, ideal: MonomialIdeal):
        if ideal.n != variables.n:
            raise AlgebraError("ideal and variable set have different arities")
        if ideal.contains((0,) * variables.n):
            raise AlgebraError("unit ideal: the quotient is the zero ring")
        self.variables = variables
        self.ideal = ideal
        self.basis = tuple(staircase(variables, ideal))
        self.index = {e: i for i, e in enumerate(self.basis)}
        ops = tuple(self._operator(i) for i in range(variables.n))
        super().__init__(variables.n, len(self.basis), ops)

    def _operator(self, i: int) -> Operator:
        """x_i shifts each standard monomial up, or to zero inside I."""
        one = Fraction(1)
        step = tuple(int(j == i) for j in range(self.variables.n))
        targets = (self.index.get(ev_add(e, step)) for e in self.basis)
        return tuple({} if t is None else {t: one} for t in targets)

    def _names(self) -> tuple[str, ...]:
        return self.variables.names

    @property
    def n(self) -> int:
        return self.nvars

    def label(self, exps: ExponentVector) -> str:
        return monomial_str(self._names(), exps)

    def labels(self) -> list[str]:
        return [self.label(e) for e in self.basis]

    def basis_element(self, exps: ExponentVector) -> dict:
        pos = self.index.get(tuple(exps))
        if pos is None:
            raise AlgebraError(f"{exps} is not a standard monomial")
        return {pos: Fraction(1)}

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim}, vars={self._names()})"


def hilbert(module: QuotientModule) -> HilbertSeries:
    return HilbertSeries.from_degrees(total_degree(e) for e in module.basis)


def socle(module: QuotientModule) -> Subspace:
    """(0 :_M m), the joint kernel of the variable operators."""
    return joint_kernel(module.action, module.dim)


def monomial_span(module: QuotientModule, exps_list: Iterable[ExponentVector]) -> Subspace:
    """Span of classes of standard monomials."""
    vecs = [module.basis_element(e) for e in exps_list]
    return Subspace(module.dim, vecs)


def subspace_monomials(module: QuotientModule, space: Subspace):
    """The standard monomials spanning `space`, or None if some row is not
    a single basis monomial."""
    found = []
    for row in space.rows:
        # an RREF row with a single entry is a unit vector
        if len(row) != 1:
            return None
        (i,) = row
        found.append(module.basis[i])
    return sorted(found, key=grlex_key)


def positive_degree_span(module: QuotientModule) -> Subspace:
    """Span of all standard monomials of positive degree."""
    return monomial_span(
        module, (e for e in module.basis if total_degree(e) > 0)
    )
