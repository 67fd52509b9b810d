"""Seeded random instances for the verification suites.

The ideal distribution is fixed and documented so that failures are
reproducible from a seed alone:

  * the number of variables is uniform on {1, 2, 3};
  * each variable gets a pure power with exponent uniform on 1..6;
  * between 0 and 2n extra generators are sampled uniformly from the box
    under the pure powers (zero vectors are rejected);
  * the generator set is minimalized, and the whole draw is rejected and
    retried when the staircase dimension leaves [1, dim_bound].

The staircase walked to accept a draw is the basis of its module:
`sample_modules` hands it to QuotientModule, which walks no staircase.

Instance i of a run with master seed s uses its own seed s + 1000003*i, so
any single instance can be replayed with --count 1.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

from .linalg import Operator, op_conjugate, op_inverse, op_mul, op_sum
from .quotient import QuotientModule, staircase
from .ring import (
    ExponentVector,
    MonomialIdeal,
    Polynomial,
    VariableSet,
    minimalize,
    poly_monomial,
)
from .torsion import FiniteModule

SEED_STRIDE = 1_000_003
# The fixed shape of every draw: variables, pure-power exponent, and the
# dimension of a random commuting family.
MAX_VARS = 3
MAX_EXPONENT = 6
MAX_MODULE_DIM = 8


@dataclass(frozen=True)
class SamplerConfig:
    dim_bound: int = 60


def instance_seed(master_seed: int, index: int) -> int:
    return master_seed + SEED_STRIDE * index


def _draw(
    rng: random.Random, config: SamplerConfig
) -> tuple[VariableSet, MonomialIdeal, list[ExponentVector]]:
    """One accepted draw: variables, ideal and the staircase walked to
    accept it."""
    while True:
        n = rng.randint(1, MAX_VARS)
        variables = VariableSet(("x", "y", "z")[:n])
        bounds = [rng.randint(1, MAX_EXPONENT) for _ in range(n)]
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
        cells = staircase(variables, ideal)
        if 1 <= len(cells) <= config.dim_bound:
            return variables, ideal, cells


def random_artinian_ideal(
    rng: random.Random, config: SamplerConfig = SamplerConfig()
) -> tuple[VariableSet, MonomialIdeal]:
    return _draw(rng, config)[:2]


def sample_ideals(
    count: int, seed: int, config: SamplerConfig = SamplerConfig()
) -> Iterator[tuple[int, VariableSet, MonomialIdeal]]:
    """Yields (instance seed, variables, ideal)."""
    for i in range(count):
        s = instance_seed(seed, i)
        yield s, *random_artinian_ideal(random.Random(s), config)


def sample_modules(
    count: int, seed: int, config: SamplerConfig = SamplerConfig()
) -> Iterator[tuple[int, QuotientModule]]:
    for i in range(count):
        s = instance_seed(seed, i)
        yield s, QuotientModule(*_draw(random.Random(s), config))


# ---------------------------------------------------------------------------
# random commuting matrix families

_ENTRY_POOL = (-2, -1, 0, 0, 1, 1, 2)


def _random_base_matrix(rng: random.Random, dim: int) -> Operator:
    """Upper triangular; nilpotent, invertible, or a mixed block of both."""
    mode = rng.choice(("nilpotent", "invertible", "mixed"))
    cols: list[dict] = [{} for _ in range(dim)]
    split = dim if mode == "nilpotent" else 0 if mode == "invertible" else rng.randint(0, dim)
    for i in range(dim):
        for j in range(i + 1, dim):
            x = rng.choice(_ENTRY_POOL)
            if x:
                cols[j][i] = x
        if i >= split:
            cols[i][i] = rng.choice((-2, -1, 1, 2))
    return tuple(cols)


def _random_unimodular(rng: random.Random, dim: int) -> tuple[Operator, Operator]:
    """A change of basis P = L U from unit triangular factors, and P^-1."""
    lower = [{j: 1} for j in range(dim)]
    upper: list[dict] = [{} for _ in range(dim)]
    for i in range(dim):
        for j in range(i):
            a, b = rng.choice((-1, 0, 0, 1)), rng.choice((-1, 0, 0, 1))
            if a:
                lower[j][i] = a
            if b:
                upper[i][j] = b
        upper[i][i] = 1
    p = op_mul(tuple(lower), tuple(upper))
    return p, op_inverse(p)


def random_finite_module(
    rng: random.Random, conjugated: bool = True
) -> FiniteModule:
    """Commuting family: polynomials of degree at most 2 in one triangular
    base matrix, summed over its powers 1, A and A^2, then an optional
    change of basis of those operators, and one module built from them.
    P A P^-1 is exact, so the module's commutation check holds exactly
    when it would hold before the change of basis."""
    n = rng.randint(1, MAX_VARS)
    dim = rng.randint(1, MAX_MODULE_DIM)
    base = _random_base_matrix(rng, dim)
    powers = (tuple({j: 1} for j in range(dim)), base, op_mul(base, base))
    mats = [base]
    for _ in range(n - 1):
        coeffs = [rng.choice(_ENTRY_POOL) for _ in range(3)]
        mats.append(op_sum([(c, p) for c, p in zip(coeffs, powers) if c], dim))
    if conjugated:
        p, p_inv = _random_unimodular(rng, dim)
        mats = [op_conjugate(op, p, p_inv) for op in mats]
    return FiniteModule(n, dim, tuple(mats))


def random_monomial_ideal_polys(
    rng: random.Random, nvars: int
) -> tuple[Polynomial, ...]:
    """A small random monomial ideal in the module's variables, as polynomials."""
    gens = []
    for _ in range(rng.randint(1, 2)):
        e = [0] * nvars
        for _ in range(rng.randint(1, 2)):
            e[rng.randrange(nvars)] += 1
        gens.append(poly_monomial(tuple(e)))
    return tuple(gens)
