"""Outside corners, the largest reduced submodule, and reducedness oracles.

An element m of a module is "reduced" when a^2 m = 0 forces a m = 0 for
every ring element a.  For a staircase quotient the reduced part, the
socle, and the span of the outside corner monomials all coincide; the
functions here compute the three descriptions separately and insist that
they agree.
"""

from __future__ import annotations

import random
from typing import Sequence
from .linalg import Subspace, sparse_apply
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
    """Standard monomials pushed into the ideal by every variable, in basis order."""
    return tuple(
        exps
        for b, exps in enumerate(module.basis)
        if not any(op[b] for op in module.action)
    )


def largest_reduced_submodule(
    module: QuotientModule, corners: Sequence[ExponentVector]
) -> Subspace:
    """Span of the outside corners of M; checked against (0 :_M m) exactly."""
    span = monomial_span(module, corners)
    ann = socle(module)
    if span != ann:
        raise InternalCheckError(
            "corner span and maximal-ideal annihilator disagree: "
            f"dims {span.dim} vs {ann.dim}"
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


def witness_candidates(n: int, degree_bound: int, trials: int, seed: int) -> list[Polynomial]:
    """The reducedness oracles' search space in n variables: every monomial
    of total degree <= degree_bound, then `trials` seeded random
    polynomials (alternating with and without constant term)."""
    cands = [poly_monomial(e) for e in monomials_up_to_degree(n, degree_bound)]
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
    module: QuotientModule,
    space: Subspace,
    degree_bound: int = 2,
    trials: int = 8,
    seed: int = 0,
) -> bool:
    """Whether the submodule N spanned by `space` satisfies aN = a^2 N for all a.

    Exact criterion: N is coreduced iff every variable kills N.  The verdict
    is cross-validated by sampling monomials up to `degree_bound` and seeded
    random polynomials; disagreement raises InternalCheckError.  Raises
    AlgebraError when `space` is not closed under the module action.
    """
    if space.ambient != module.dim:
        raise AlgebraError("subspace does not live in this module")
    if degree_bound < 1:
        raise AlgebraError("degree_bound must be at least 1")
    images = [sparse_apply(op, row) for row in space.rows for op in module.action]
    if not all(space.contains(v) for v in images):
        raise AlgebraError("subspace is not a submodule")
    exact = not any(images)
    violated = False
    for a in witness_candidates(module.n, degree_bound, trials, seed):
        a_rows = [module.act(a, r) for r in space.rows]
        a_im = Subspace(module.dim, a_rows)
        # a^2 N = a(aN)
        aa_im = Subspace(module.dim, [module.act(a, v) for v in a_rows])
        if a_im != aa_im:
            violated = True
            if exact:
                raise InternalCheckError(
                    "coreduced criterion said yes but sampling found aN != a^2 N"
                )
    if not exact and not violated and space.dim > 0:
        raise InternalCheckError(
            "coreduced criterion said no but sampling found no violation"
        )
    return exact
