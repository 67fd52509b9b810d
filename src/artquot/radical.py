"""Envelope, Jacobson radical, and semiprime submodules of staircase quotients.

The envelope of zero collects the products r*m where some power of r kills
m; for an Artinian monomial quotient its span, the Jacobson radical, and
the intersection of the semiprime submodules all equal the span of the
positive-degree standard monomials.  Alongside the span, every variable is
checked nilpotent by the slot order (the staircase is listed in grlex
order, so a variable sends each slot to a later slot or to zero), and
every unit (a polynomial with nonzero constant term) invertible by the
grading: each variable raises the total degree of every slot it does not
kill by exactly one, so every positive-degree term of a unit is
nilpotent.
Semiprime submodules are found among the monomial submodules, which are
exactly the up-closed subsets (order ideals) of the staircase under
divisibility, enumerated by one walk over the basis.  The envelope and the
Jacobson radical are spanned by standard monomials and compared as the
sorted tuples of their slots.  After that check a monomial submodule is a
bitmask over the staircase slots: the envelope is read into one mask, and
the semiprime intersection and the spot-checked submodule envelopes are
masks, each monomial acting on slots by its slot map
(`FiniteModule.monomial_map`, composed from the shifts' slot maps).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from .quotient import QuotientModule, positive_degree_span
from .ring import AlgebraError, InternalCheckError, total_degree
from .torsion import image_span

# Monomial submodules are enumerated only up to this module dimension.
ENUMERATION_BOUND = 14
# Submodule envelopes spot-checked.
SPOT_CHECKS = 3


def _forward(slots) -> bool:
    """Whether a slot map sends each slot b to a later slot or to zero."""
    return not any([t <= b for b, t in enumerate(slots) if t is not None])


def envelope_zero(module: QuotientModule) -> tuple[int, ...]:
    """Span of {r*m : r^k m = 0 for some k}, which is m*M here, as its slots.

    Two exact checks run alongside the span.  Every variable sends each
    slot b to later slots only, read off the slot order, so it is strictly
    lower triangular and nilpotent.  Every variable sends each slot it does
    not kill to a cell of total degree one higher, read off the grading
    (the basis exponents).  Then the positive-degree part of a unit
    r = c + sum a_e x^e (c != 0) raises degree by at least one, so it is
    nilpotent, r is c*I plus a nilpotent part and invertible, and no power
    of r kills a nonzero element.  One check covers every unit.
    """
    span = image_span(module.slot_maps, module.dim)
    # every variable multiple of a basis class lands in the envelope
    for m in module.slot_maps:
        if not _forward(m.slots):
            raise InternalCheckError("a variable failed to be nilpotent")
    degree = list(map(total_degree, module.basis))
    for m in module.slot_maps:
        if any([
            degree[t] != degree[b] + 1 for b, t in enumerate(m.slots) if t is not None
        ]):
            raise InternalCheckError(
                "a unit-like polynomial had a vanishing power on a nonzero element"
            )
    return span


def jacobson_radical(
    module: QuotientModule, envelope: tuple[int, ...]
) -> tuple[int, ...]:
    """Span of the positive-degree standard monomials, as their slots;
    checked against `envelope`, the envelope of zero of M."""
    span = positive_degree_span(module)
    if span != envelope:
        raise InternalCheckError("Jacobson radical differs from the envelope of zero")
    return span


# ---------------------------------------------------------------------------
# monomial submodules as bitmasks over the staircase

def _slot_mask(slots: tuple[int, ...]) -> int:
    """The bitmask of the staircase slots `slots`."""
    return sum(1 << b for b in slots)


def _upsets(module: QuotientModule) -> list[int]:
    """All monomial submodules, the up-closed staircase subsets, as sorted masks.

    Grlex extends divisibility, so every single-variable shift of slot b has
    a larger index; envelope_zero's nilpotency check verifies this first.
    Walking the slots from last to first, slot b joins each up-set already
    found that holds all of its shifts.
    """
    out = [0]
    for b in reversed(range(module.dim)):
        shifts = 0
        for m in module.slot_maps:
            t = m.slots[b]
            if t is not None:
                shifts |= 1 << t
        out += [m | 1 << b for m in out if m & shifts == shifts]
    return sorted(out)


@dataclass(frozen=True)
class SemiprimeReport:
    """Result of the brute-force semiprime enumeration, as slot masks."""

    intersection: int
    semiprime: tuple[int, ...]
    # the proper monomial submodules scanned, ascending
    upsets: tuple[int, ...]

    @property
    def submodules_scanned(self) -> int:
        return len(self.upsets)

    @property
    def unique(self) -> bool:
        return len(self.semiprime) == 1


def semiprime_bruteforce(
    module: QuotientModule, mm: tuple[int, ...]
) -> SemiprimeReport:
    """Enumerate proper monomial submodules N and keep those with M/N reduced.

    M/N is reduced exactly when the maximal ideal maps M into N, so the
    test is the single containment m*M <= N; `mm` is m*M, the slots of the
    positive-degree standard monomials.  The quotient by the full
    module is zero and vacuously reduced; submodules are therefore required
    to be proper, matching the usual properness convention for (semi)prime
    submodules.
    """
    if module.dim > ENUMERATION_BOUND:
        raise AlgebraError(
            f"module dimension {module.dim} exceeds the enumeration bound "
            f"{ENUMERATION_BOUND}"
        )
    mm_mask = _slot_mask(mm)
    full = (1 << module.dim) - 1
    upsets = tuple(m for m in _upsets(module) if m != full)
    semiprime = tuple(m for m in upsets if mm_mask & ~m == 0)
    inter = full if semiprime else 0
    for m in semiprime:
        inter &= m
    return SemiprimeReport(inter, semiprime, upsets)


def _monomial_maps(module: QuotientModule) -> tuple[tuple[int | None, ...], ...]:
    """The spot checks' r: the slot map of each staircase monomial of degree
    <= 6, in basis order; the zero maps of the other monomials would add
    nothing to an envelope."""
    return tuple(
        module.monomial_map(e).slots for e in module.basis if total_degree(e) <= 6
    )


def envelope_of_submodule_bruteforce(
    module: QuotientModule, mask: int, maps: Sequence[Sequence[int | None]]
) -> int:
    """Direct scan of {r*m : r monomial, m basis class, r^k m in N}, as a
    slot mask; N is the monomial submodule `mask`.

    r runs over `maps`, the table `_monomial_maps(module)`, which a caller
    scanning several submodules of one module builds once.  Each power
    r^k m is a basis monomial or zero, so its membership in N is a bit test.
    """
    out = mask
    for r in maps:
        for b, image in enumerate(r):
            t = b
            for _ in range(module.dim + 1):
                t = r[t]
                if t is None or mask >> t & 1:
                    if image is not None:
                        out |= 1 << image
                    break
    return out


@dataclass(frozen=True)
class RadicalFormulaReport:
    envelope_dim: int
    jacobson_dim: int
    semiprime_dim: int | None
    semiprime_unique: bool | None
    enumeration_skipped: bool
    spot_checks: int
    satisfies: bool


def satisfies_radical_formula(
    module: QuotientModule, seed: int = 0
) -> RadicalFormulaReport:
    """Check the radical-formula chain on one staircase quotient.

    The envelope of zero, the Jacobson radical, and (when the dimension is
    within the enumeration bound) the intersection of the semiprime
    submodules must all coincide.  Quotients of M by monomial submodules
    are again staircase quotients, so this single check propagates to every
    submodule; a few random submodule envelopes are spot-checked directly,
    drawn from the enumerated submodules by `seed`.
    """
    env = envelope_zero(module)
    jac = jacobson_radical(module, env)
    semiprime_dim = None
    unique = None
    skipped = module.dim > ENUMERATION_BOUND
    done = 0
    if not skipped:
        report = semiprime_bruteforce(module, jac)
        env_mask = _slot_mask(env)
        semiprime_dim = report.intersection.bit_count()
        unique = report.unique
        if report.intersection != env_mask:
            raise InternalCheckError(
                "semiprime intersection differs from the envelope of zero"
            )
        rng = random.Random(seed)
        maps = _monomial_maps(module)
        for _ in range(SPOT_CHECKS):
            mask = rng.choice(report.upsets)
            if envelope_of_submodule_bruteforce(module, mask, maps) != mask | env_mask:
                raise InternalCheckError(
                    "submodule envelope differs from N + m*M"
                )
            done += 1
    return RadicalFormulaReport(
        envelope_dim=len(env),
        jacobson_dim=len(jac),
        semiprime_dim=semiprime_dim,
        semiprime_unique=unique,
        enumeration_skipped=skipped,
        spot_checks=done,
        satisfies=True,
    )
