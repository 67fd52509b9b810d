"""Outside corners, the largest reduced submodule, and reducedness oracles.

An element m of a module is "reduced" when a^2 m = 0 forces a m = 0 for
every ring element a.  For a staircase quotient the reduced part, the
socle, and the span of the outside corner monomials all coincide, and the
functions here insist that they agree.  Each is spanned by standard
monomials and read as the sorted tuple of their slots, so two of them
agree when the tuples do.  The socle and the corner span are not
independent readings: both are the columns dead in every one of M's
shift slot maps, read by `linalg.dead_columns` (`quotient.socle` through
`joint_kernel`), so their comparison can fail only through a bug in that
reading.  A corner set read from the generators alone would make it a
cross-check (ROADMAP item 1).
"""

from __future__ import annotations

import random
from functools import cache
from typing import Sequence
from .linalg import dead_columns, rank
from .quotient import QuotientModule, monomial_span, socle
from .ring import (
    AlgebraError,
    ExponentVector,
    InternalCheckError,
    Polynomial,
    grlex_key,
    poly_monomial,
)

_COEFF_POOL = (-2, -1, 1, 2)


def outside_corners(module: QuotientModule) -> tuple[ExponentVector, ...]:
    """Standard monomials pushed into the ideal by every variable, in basis
    order: the slots dead in every variable's slot map."""
    dead = dead_columns(module.slot_maps, module.dim)
    return tuple(map(module.basis.__getitem__, dead))


def largest_reduced_submodule(
    module: QuotientModule, corners: Sequence[ExponentVector]
) -> tuple[int, ...]:
    """Span of the outside corners of M, as their slots; checked against
    (0 :_M m) exactly."""
    span = monomial_span(module, corners)
    ann = socle(module)
    if span != ann:
        raise InternalCheckError(
            "corner span and maximal-ideal annihilator disagree: "
            f"dims {len(span)} vs {len(ann)}"
        )
    return span


def monomials_up_to_degree(n: int, bound: int) -> list[ExponentVector]:
    """All exponent vectors with total degree <= bound, in canonical order
    (grlex_key: degree by degree, first variable largest)."""
    monos = [()]
    for _ in range(n):
        monos = [e + (k,) for e in monos for k in range(bound + 1 - sum(e))]
    return sorted(monos, key=grlex_key)


def _random_poly(rng: random.Random, n: int, degree_bound: int, constant: bool) -> Polynomial:
    terms = []
    if constant:
        terms.append(((0,) * n, rng.choice(_COEFF_POOL)))
    for _ in range(rng.randint(1, 3)):
        exps = [0] * n
        for _ in range(rng.randint(1, max(1, degree_bound))):
            exps[rng.randrange(n)] += 1
        terms.append((tuple(exps), rng.choice(_COEFF_POOL)))
    return Polynomial(terms)


@cache
def _monomial_witnesses(n: int, degree_bound: int) -> tuple[Polynomial, ...]:
    """Every monomial in n variables of total degree <= degree_bound, as
    polynomials, built once per (n, degree_bound) in a process."""
    return tuple(map(poly_monomial, monomials_up_to_degree(n, degree_bound)))


def witness_candidates(n: int, degree_bound: int, trials: int, seed: int) -> list[Polynomial]:
    """The reducedness oracles' search space in n variables: every monomial
    of total degree <= degree_bound, then `trials` seeded random
    polynomials (alternating with and without constant term).  The list is
    the caller's; the monomials in it are shared between calls."""
    cands = list(_monomial_witnesses(n, degree_bound))
    rng = random.Random(seed)
    for t in range(trials):
        cands.append(_random_poly(rng, n, degree_bound, constant=t % 2 == 0))
    return cands


def reduced_membership_oracle(
    module: QuotientModule, vec: dict, witnesses: Sequence[Polynomial]
) -> bool:
    """Search `witnesses`, built once per module by `witness_candidates`,
    for an a with a^2 v = 0 but a v != 0: False as soon as one turns up,
    True otherwise.  One-sided: True is only as strong as the search."""
    for a in witnesses:
        av = module.act(a, vec)
        if av and not module.act(a, av):
            return False
    return True


def is_coreduced_subspace(
    module: QuotientModule, space: Sequence[int], witnesses: Sequence[Polynomial]
) -> bool:
    """Whether the submodule N spanned by the standard monomials at the
    slots `space` satisfies aN = a^2 N for all a.

    Exact criterion: N is coreduced iff every variable kills N.  The verdict
    is cross-validated on `witnesses`, built once per module by
    `witness_candidates`, by the ranks of aN and a^2 N; disagreement raises
    InternalCheckError.  Raises AlgebraError when `space` is not closed
    under the module action.
    """
    if min(space, default=0) < 0 or max(space, default=-1) >= module.dim:
        raise AlgebraError("subspace does not live in this module")
    units = [{b: 1} for b in space]
    images = [module.apply(i, u) for u in units for i in range(module.n)]
    # a vector lies in a span of unit vectors when its support does
    if not all(map(set(space).issuperset, images)):
        raise AlgebraError("subspace is not a submodule")
    exact = not any(images)
    violated = False
    for a in witnesses:
        a_rows = [module.act(a, u) for u in units]
        # a^2 N = a(aN) lies in aN, as N is closed, so the ranks decide
        aa_rows = [module.act(a, v) for v in a_rows]
        if rank(a_rows, module.dim) != rank(aa_rows, module.dim):
            violated = True
            if exact:
                raise InternalCheckError(
                    "coreduced criterion said yes but sampling found aN != a^2 N"
                )
    if not exact and not violated and space:
        raise InternalCheckError(
            "coreduced criterion said no but sampling found no violation"
        )
    return exact
