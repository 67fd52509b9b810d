"""Finite quotients R/I by Artinian monomial ideals.

The standard-monomial (staircase) basis is enumerated column by column,
visiting only cells outside I; `minimal_outside` reads the minimal
monomials outside a down-set.  R/I is a FiniteModule whose variables act
as staircase shifts: the operator of x_i sends each basis monomial to its
x_i-multiple, or to zero when that lies in I.  The module is built from
the shifts' slot maps, one lookup per cell each, and builds no dict
operator.  Module elements are sparse vectors {position: value} over that
basis, values in the form `linalg` states; every shift entry is the int
1.  Every span here is spanned by standard monomials and is read as the
sorted tuple of their slots.  A shift is injective on the cells it moves,
so the socle is the span of the cells no shift moves.  Every monomial x^e
acts by a slot map (`monomial_map`), composed from the shifts' own slot
maps, which `poly_matrix` sums over a polynomial's terms.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import compress, repeat
from operator import add, mul
from typing import Iterable

from .linalg import SlotMap, unit_map
from .ring import (
    AlgebraError,
    ExponentVector,
    MonomialIdeal,
    VariableSet,
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
        counts = Counter(degrees)
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


# Largest staircase enumerated.  Near this budget every command, with
# `classify` by the defining ideal, peaks under 170 MB RSS and ends within
# 9 s on a shared 2-core host (ru_maxrss, one process per command,
# `cli.main` in process, Python 3.11, best of 3): 0.2-0.8 s and 35-79 MB
# on x^46,y^46,z^46 (dim 97,336), 0.2-2.5 s and 40-99 MB on x1^2..x16^2
# (dim 65,536), and 0.3-4.9 s and 50-139 MB on x1^2..x16^2 with x17..x32
# as generators, where `report` is the slowest and `dual`, `hilbert` and
# `report` are the heaviest.  `classify` by an --ideal is not held to
# that.  Its J^2 level composes every pair of generators, so 32 monomials
# on x^316,y^316 take 11.3 s and 171 MB.  The powers of a multi-term
# generator fill in as they are squared up: `--ideal x+y` takes 14.3 s
# and 164 MB on x^150,y^150 (dim 22,500), and `--ideal '2*x+3*y,
# 5*x^2+7*y'`, whose non-unit leads eliminate longer, 9.7 s and 36 MB on
# x^70,y^70 (dim 4,900), one run each.
MAX_DIM = 10**5


def staircase(variables: VariableSet, ideal: MonomialIdeal) -> list[ExponentVector]:
    """Standard monomials of R/I in canonical order, walked column by column:
    with the first i exponents fixed, the x_{i+1} column is as tall as the
    least x_{i+1}-exponent of a generator that divides that prefix and
    involves no later variable.  Every prefix starts a standard monomial,
    so no level of the walk outgrows the dimension, and the refusal past
    MAX_DIM fires before a level holds more cells than that.

    Prefixes that carry the same generators share one height and one child
    list: the walk keeps one group of prefixes per generator set (keyed by
    a bitmask of generator indices) and finds each generator's last
    variable once.  Where a run of the column that shares one child list
    is one cell wide (always, in a column of height one), the children
    share the parent's prefixes and only a common tail grows.  The last
    level emits its cells without generator lists."""
    pure_power_bounds(variables, ideal)
    columns = list(zip(*ideal.min_gens))
    everyone = range(len(columns[0]))
    # the last variable each generator involves; the unit monomial's is 0
    last = [0] * len(everyone)
    for i, col in enumerate(columns):
        for j in compress(everyone, col):
            last[j] = i
    # a group: the generators its cells carry, and parts (tail, prefixes)
    # whose cells are p + tail for p in prefixes
    walk = [(everyone, [((), [()])])]
    for i in range(variables.n - 1):
        col, grown, size = columns[i], {}, 0
        for idx, parts in walk:
            height = min(col[j] for j in idx if last[j] == i)
            size += height * sum(len(prefixes) for _, prefixes in parts)
            if size > MAX_DIM:
                raise _too_large()
            idx = sorted(idx, key=col.__getitem__)
            a = k = mask = 0
            while a < height:
                # the generator that sets the height stops this scan
                while col[idx[k]] <= a:
                    mask |= 1 << idx[k]
                    k += 1
                # the cells a..stop-1 of the column carry idx[:k]
                stop = min(col[idx[k]], height)
                child = grown.get(mask)
                if child is None:
                    child = grown[mask] = (idx[:k], [])
                if stop == a + 1:
                    child[1].extend([(tail + (a,), prefixes) for tail, prefixes in parts])
                else:
                    child[1].append(((), _grow(parts, range(a, stop))))
                a = stop
        walk = grown.values()
    col, cells = columns[-1], []
    for idx, parts in walk:
        # every generator left involves the last variable
        height = min(col[j] for j in idx)
        if len(cells) + height * sum(len(prefixes) for _, prefixes in parts) > MAX_DIM:
            raise _too_large()
        cells += _grow(parts, range(height))
    # grlex: descending lex in C, then a stable sort by degree
    cells.sort(reverse=True)
    cells.sort(key=sum)
    return cells


def _grow(parts, column: range) -> list[ExponentVector]:
    """Every cell p + tail + (b,) of the parts for b in the column, each
    part's cells in lex order when its prefixes are."""
    cells = []
    for tail, prefixes in parts:
        ends = [tail + (b,) for b in column]
        cells += [p + e for p in prefixes for e in ends]
    return cells


def _too_large() -> AlgebraError:
    return AlgebraError(
        f"the quotient has more than {MAX_DIM} standard monomials; "
        "it is too large to enumerate"
    )


def minimal_outside(downset, n: int) -> list[ExponentVector]:
    """The monomials b + s_i outside a finite down-set whose every lower
    neighbour lies inside, in canonical order: the minimal generators of
    the complement.  Each is reached once, from b = c - s_i for the first
    variable x_i of c."""
    found = []
    for b in downset:
        for i in range(n):
            c = b[:i] + (b[i] + 1,) + b[i + 1:]
            if c not in downset and all(
                c[j] == 0 or c[:j] + (c[j] - 1,) + c[j + 1:] in downset
                for j in range(i + 1, n)
            ):
                found.append(c)
            if b[i]:
                break
    return sorted(found, key=grlex_key)


def standard_basis(
    variables: VariableSet, ideal: MonomialIdeal
) -> tuple[ExponentVector, ...]:
    """The staircase as the basis of R/I; AlgebraError for the unit ideal."""
    # staircase checks the arities; only the unit ideal has no cells
    basis = tuple(staircase(variables, ideal))
    if not basis:
        raise AlgebraError("unit ideal: the quotient is the zero ring")
    return basis


class QuotientModule(FiniteModule):
    """R/I on its staircase basis; each variable acts by a staircase shift.
    A caller that has already walked the staircase, as the sampler has to
    accept a draw, passes that walk as `basis`, and no second walk runs."""

    def __init__(
        self,
        variables: VariableSet,
        ideal: MonomialIdeal,
        basis: Iterable[ExponentVector] | None = None,
    ):
        self.variables = variables
        self.ideal = ideal
        self.basis = standard_basis(variables, ideal) if basis is None else tuple(basis)
        self.index = dict(zip(self.basis, range(len(self.basis))))
        self.names = variables.names
        super().__init__(variables.n, len(self.basis), slot_maps=self._shift_maps())

    def _shift_maps(self) -> tuple[SlotMap, ...]:
        """x_i sends each standard monomial e to e + s_i, or to zero inside
        I.  Each exponent vector is coded as a mixed-radix int whose digit i
        has room for one more than the largest x_i-exponent of the basis, so
        e + s_i codes as code(e) + stride_i with no carry, and each shift is
        one dict lookup per cell."""
        d = len(self.basis)
        columns = list(zip(*self.basis))
        strides, stride = [], 1
        for col in reversed(columns):
            strides.append(stride)
            stride *= max(col) + 2
        strides.reverse()
        codes = [0] * d
        for col, s in zip(columns, strides):
            codes = list(map(add, codes, map(mul, col, repeat(s))))
        where = dict(zip(codes, range(d))).get
        return tuple(
            unit_map(tuple(map(where, map(add, codes, repeat(s))))) for s in strides
        )

    @property
    def n(self) -> int:
        return self.nvars

    def label(self, exps: ExponentVector) -> str:
        return monomial_str(self.names, exps)

    def labels(self) -> list[str]:
        return [self.label(e) for e in self.basis]

    def position(self, exps: ExponentVector) -> int:
        pos = self.index.get(tuple(exps))
        if pos is None:
            raise AlgebraError(f"{exps} is not a standard monomial")
        return pos

    def basis_element(self, exps: ExponentVector) -> dict:
        return {self.position(exps): 1}

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim}, vars={self.names})"


def hilbert(module: QuotientModule) -> HilbertSeries:
    return HilbertSeries.from_degrees(map(sum, module.basis))


def socle(module: QuotientModule) -> tuple[int, ...]:
    """(0 :_M m), the joint kernel of the variable operators, as its slots."""
    return joint_kernel(module.slot_maps, module.dim)


def monomial_span(
    module: QuotientModule, exps_list: Iterable[ExponentVector]
) -> tuple[int, ...]:
    """Span of classes of standard monomials, as their sorted slots."""
    return tuple(sorted(set(map(module.position, exps_list))))


def positive_degree_span(module: QuotientModule) -> tuple[int, ...]:
    """Span of all standard monomials of positive degree, as their slots."""
    return tuple(b for b, e in enumerate(module.basis) if total_degree(e) > 0)
