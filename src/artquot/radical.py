"""Envelope, Jacobson radical, and semiprime submodules of staircase quotients.

The envelope of zero collects the products r*m where some power of r kills
m; for an Artinian monomial quotient its span, the Jacobson radical, and
the intersection of the semiprime submodules all equal the span of the
positive-degree standard monomials.  Semiprime submodules are enumerated
by brute force over the monomial submodules, which are exactly the
up-closed subsets of the staircase under divisibility.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .linalg import Subspace, op_power, sparse_apply
from .quotient import (
    QuotientModule,
    monomial_span,
    positive_degree_span,
    subspace_monomials,
)
from .ring import (
    AlgebraError,
    ExponentVector,
    InternalCheckError,
    poly_monomial,
    variable_polys,
)
from .reduced import _COEFF_POOL, _random_poly, monomials_up_to_degree
from .torsion import image_of

DEFAULT_ENUMERATION_BOUND = 14


def envelope_zero(
    module: QuotientModule, trials: int = 20, seed: int = 0
) -> Subspace:
    """Span of {r*m : r^k m = 0 for some k}, which is m*M here.

    Sampling checks run alongside the exact span: every variable really is
    nilpotent on every basis class, and no sampled unit (a polynomial with
    nonzero constant term) has a vanishing power on a nonzero element.
    """
    span = image_of(module, variable_polys(module.n))
    # every variable multiple of a basis class lands in the envelope
    for op in module.action:
        if any(op_power(op, module.dim)):
            raise InternalCheckError("a variable failed to be nilpotent")
    rng = random.Random(seed)
    for _ in range(trials):
        r = _random_poly(rng, module.n, 2, constant=True)
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

def _cover_masks(module: QuotientModule) -> list[int]:
    """For each basis slot, the bitmask of its single-variable shifts."""
    masks = []
    for b in range(module.dim):
        m = 0
        for op in module.action:
            for t in op[b]:
                m |= 1 << t
        masks.append(m)
    return masks


def _upsets(module: QuotientModule):
    """All monomial submodules (up-closed staircase subsets), as bitmasks."""
    covers = _cover_masks(module)
    d = module.dim
    out = []
    for mask in range(1 << d):
        ok = True
        rest = mask
        while rest:
            low = rest & -rest
            b = low.bit_length() - 1
            if covers[b] & mask != covers[b]:
                ok = False
                break
            rest ^= low
        if ok:
            out.append(mask)
    return out


def _mask_monomials(module: QuotientModule, mask: int) -> tuple[ExponentVector, ...]:
    return tuple(
        module.basis[b] for b in range(module.dim) if mask >> b & 1
    )


@dataclass(frozen=True)
class SemiprimeReport:
    """Result of the brute-force semiprime enumeration."""

    intersection: Subspace
    semiprime: tuple[tuple[ExponentVector, ...], ...]
    submodules_scanned: int

    @property
    def unique(self) -> bool:
        return len(self.semiprime) == 1


def semiprime_bruteforce(
    module: QuotientModule, bound: int = DEFAULT_ENUMERATION_BOUND
) -> SemiprimeReport:
    """Enumerate proper monomial submodules N and keep those with M/N reduced.

    M/N is reduced exactly when the maximal ideal maps M into N, so the
    test is the single containment m*M <= N.  The quotient by the full
    module is zero and vacuously reduced; submodules are therefore required
    to be proper, matching the usual properness convention for (semi)prime
    submodules.
    """
    if module.dim > bound:
        raise AlgebraError(
            f"module dimension {module.dim} exceeds the enumeration bound {bound}"
        )
    mm = positive_degree_span(module)
    mm_exps = subspace_monomials(module, mm)
    if mm_exps is None:
        raise InternalCheckError("expected a monomial-spanned subspace")
    mm_mask = 0
    for e in mm_exps:
        mm_mask |= 1 << module.index[e]
    full = (1 << module.dim) - 1
    semiprime = []
    inter = full
    count = 0
    for mask in _upsets(module):
        if mask == full:
            continue
        count += 1
        if mm_mask & ~mask == 0:
            semiprime.append(mask)
            inter &= mask
    spaces = tuple(
        _mask_monomials(module, m) for m in sorted(semiprime)
    )
    inter_space = monomial_span(
        module, _mask_monomials(module, inter if semiprime else 0)
    )
    return SemiprimeReport(inter_space, spaces, count)


def envelope_of_submodule_bruteforce(
    module: QuotientModule, submodule_mask_exps: Sequence[ExponentVector],
    degree_bound: int = 6,
) -> Subspace:
    """Direct scan of {r*m : r monomial, m basis class, r^k m in N}."""
    n_space = monomial_span(module, submodule_mask_exps)
    vecs = list(n_space.rows)
    for r_exps in monomials_up_to_degree(module.n, degree_bound):
        r = module.poly_matrix(poly_monomial(r_exps))
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
    module: QuotientModule,
    bound: int = DEFAULT_ENUMERATION_BOUND,
    spot_checks: int = 3,
    seed: int = 0,
) -> RadicalFormulaReport:
    """Check the radical-formula chain on one staircase quotient.

    The envelope of zero, the Jacobson radical, and (when the dimension is
    within the enumeration bound) the intersection of the semiprime
    submodules must all coincide.  Quotients of M by monomial submodules
    are again staircase quotients, so this single check propagates to every
    submodule; a few random submodule envelopes are spot-checked directly.
    """
    env = envelope_zero(module, seed=seed)
    jac = jacobson_radical(module, env)
    semiprime_dim = None
    unique = None
    skipped = module.dim > bound
    if not skipped:
        report = semiprime_bruteforce(module, bound)
        semiprime_dim = report.intersection.dim
        unique = report.unique
        if report.intersection != env:
            raise InternalCheckError(
                "semiprime intersection differs from the envelope of zero"
            )
    rng = random.Random(seed)
    done = 0
    if module.dim <= bound:
        ups = [m for m in _upsets(module) if m != (1 << module.dim) - 1]
        for _ in range(spot_checks):
            mask = rng.choice(ups)
            exps = _mask_monomials(module, mask)
            brute = envelope_of_submodule_bruteforce(module, exps)
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
