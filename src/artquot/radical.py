"""Envelope, Jacobson radical, and semiprime submodules of staircase quotients.

The envelope of zero collects the products r*m where some power of r kills
m; for an Artinian monomial quotient its span, the Jacobson radical, and
the intersection of the semiprime submodules all equal the span of the
positive-degree standard monomials.  Alongside the span, every variable is
checked nilpotent and every seeded unit (a polynomial with nonzero constant
term) is checked to act invertibly, by the exact rank of its operator: no
power of a unit kills a nonzero element.  Semiprime submodules are
found among the monomial submodules, which are exactly the up-closed
subsets (order ideals) of the staircase under divisibility, enumerated by
one walk over the basis; the spot checks draw from that one enumeration
and read one table of monomial operators per module.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from .linalg import Operator, Subspace, is_invertible, op_mul, op_power, sparse_apply
from .quotient import (
    QuotientModule,
    monomial_span,
    positive_degree_span,
    subspace_monomials,
)
from .ring import AlgebraError, ExponentVector, InternalCheckError, total_degree
from .reduced import _random_poly
from .torsion import image_span

# Monomial submodules are enumerated only up to this module dimension.
ENUMERATION_BOUND = 14
# Seeded units checked invertible, and submodule envelopes spot-checked.
UNIT_TRIALS = 20
SPOT_CHECKS = 3


def envelope_zero(module: QuotientModule, seed: int = 0) -> Subspace:
    """Span of {r*m : r^k m = 0 for some k}, which is m*M here.

    Two exact checks run alongside the span.  Every variable is nilpotent:
    its d-th power is the zero operator, d = dim M.  Every one of
    UNIT_TRIALS seeded units r (polynomials with nonzero constant term)
    acts by an invertible operator, so no power of r kills a nonzero
    element; the rank of the operator covers every element at once.
    """
    span = image_span(module.action, module.dim)
    # every variable multiple of a basis class lands in the envelope
    for op in module.action:
        if any(op_power(op, module.dim)):
            raise InternalCheckError("a variable failed to be nilpotent")
    rng = random.Random(seed)
    for _ in range(UNIT_TRIALS):
        r = _random_poly(rng, module.n, 2, constant=True)
        if r.constant_term() != 0 and not is_invertible(module.poly_matrix(r)):
            raise InternalCheckError(
                "a unit-like polynomial had a vanishing power on a nonzero element"
            )
    return span


def jacobson_radical(module: QuotientModule, envelope: Subspace) -> Subspace:
    """Span of the positive-degree standard monomials; checked against
    `envelope`, the envelope of zero of M."""
    span = positive_degree_span(module)
    if span != envelope:
        raise InternalCheckError("Jacobson radical differs from the envelope of zero")
    return span


# ---------------------------------------------------------------------------
# monomial submodules as bitmasks over the staircase

def _upsets(module: QuotientModule) -> list[int]:
    """All monomial submodules (up-closed staircase subsets), as ascending
    bitmasks.

    Grlex extends divisibility, so every single-variable shift of slot b
    has a larger index.  Walking the slots from last to first, slot b
    joins each up-set already found that holds all of its shifts.
    """
    out = [0]
    for b in reversed(range(module.dim)):
        shifts = 0
        for op in module.action:
            for t in op[b]:
                shifts |= 1 << t
        out += [m | 1 << b for m in out if m & shifts == shifts]
    return sorted(out)


def _mask_monomials(module: QuotientModule, mask: int) -> tuple[ExponentVector, ...]:
    return tuple(
        module.basis[b] for b in range(module.dim) if mask >> b & 1
    )


@dataclass(frozen=True)
class SemiprimeReport:
    """Result of the brute-force semiprime enumeration."""

    intersection: Subspace
    semiprime: tuple[tuple[ExponentVector, ...], ...]
    # the proper monomial submodules scanned, as ascending bitmasks
    upsets: tuple[int, ...]

    @property
    def submodules_scanned(self) -> int:
        return len(self.upsets)

    @property
    def unique(self) -> bool:
        return len(self.semiprime) == 1


def semiprime_bruteforce(module: QuotientModule, mm: Subspace) -> SemiprimeReport:
    """Enumerate proper monomial submodules N and keep those with M/N reduced.

    M/N is reduced exactly when the maximal ideal maps M into N, so the
    test is the single containment m*M <= N; `mm` is m*M, the span of the
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
    mm_exps = subspace_monomials(module, mm)
    if mm_exps is None:
        raise InternalCheckError("expected a monomial-spanned subspace")
    mm_mask = 0
    for e in mm_exps:
        mm_mask |= 1 << module.index[e]
    full = (1 << module.dim) - 1
    upsets = tuple(m for m in _upsets(module) if m != full)
    semiprime = []
    inter = full
    for mask in upsets:
        if mm_mask & ~mask == 0:
            semiprime.append(mask)
            inter &= mask
    spaces = tuple(
        _mask_monomials(module, m) for m in sorted(semiprime)
    )
    inter_space = monomial_span(
        module, _mask_monomials(module, inter if semiprime else 0)
    )
    return SemiprimeReport(inter_space, spaces, upsets)


def _monomial_operators(module: QuotientModule) -> tuple[Operator, ...]:
    """The operators of the monomials of degree <= 6 that are not zero, the
    spot checks' r: those of the staircase monomials, in basis order.

    Each is a product of stored shifts, x^e = x_i * x^(e - s_i) for the
    first variable x_i of e, whose factor x^(e - s_i) is a staircase
    monomial of lower degree.  A zero operator would add only empty rows
    to an envelope, so leaving it out changes no spot check.
    """
    # the basis runs in grlex order and starts at the monomial 1
    table = {module.basis[0]: tuple({j: 1} for j in range(module.dim))}
    for e in module.basis[1:]:
        if total_degree(e) > 6:
            break
        i = next(i for i, v in enumerate(e) if v)
        below = e[:i] + (e[i] - 1,) + e[i + 1:]
        table[e] = op_mul(module.action[i], table[below])
    return tuple(table.values())


def envelope_of_submodule_bruteforce(
    module: QuotientModule, submodule_mask_exps: Sequence[ExponentVector],
    operators: Sequence[Operator],
) -> Subspace:
    """Direct scan of {r*m : r monomial, m basis class, r^k m in N}.

    r runs over `operators`, the table `_monomial_operators(module)`, which
    a caller scanning several submodules of one module builds once.
    """
    n_space = monomial_span(module, submodule_mask_exps)
    vecs = list(n_space.rows)
    for r in operators:
        for b in range(module.dim):
            vec = module.basis_element(module.basis[b])
            power = vec
            landed = False
            for _ in range(module.dim + 1):
                power = sparse_apply(r, power)
                if n_space.contains(power):
                    landed = True
                    break
            if landed:
                vecs.append(sparse_apply(r, vec))
    return Subspace(module.dim, vecs)


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
    drawn from the enumerated submodules.
    """
    env = envelope_zero(module, seed=seed)
    jac = jacobson_radical(module, env)
    semiprime_dim = None
    unique = None
    skipped = module.dim > ENUMERATION_BOUND
    done = 0
    if not skipped:
        report = semiprime_bruteforce(module, jac)
        semiprime_dim = report.intersection.dim
        unique = report.unique
        if report.intersection != env:
            raise InternalCheckError(
                "semiprime intersection differs from the envelope of zero"
            )
        rng = random.Random(seed)
        operators = _monomial_operators(module)
        for _ in range(SPOT_CHECKS):
            exps = _mask_monomials(module, rng.choice(report.upsets))
            brute = envelope_of_submodule_bruteforce(module, exps, operators)
            expected = monomial_span(module, exps).sum(env)
            if brute != expected:
                raise InternalCheckError(
                    "submodule envelope differs from N + m*M"
                )
            done += 1
    return RadicalFormulaReport(
        envelope_dim=env.dim,
        jacobson_dim=jac.dim,
        semiprime_dim=semiprime_dim,
        semiprime_unique=unique,
        enumeration_skipped=skipped,
        spot_checks=done,
        satisfies=True,
    )
