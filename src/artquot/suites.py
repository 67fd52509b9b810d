"""Named verification suites over seeded random instances.

Shared by the `verify` CLI command and the acceptance tests.  Each suite
checks one theorem-level statement on `count` random instances; a failure
records the instance seed and a reproduction command line.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .inverse import hilbert_duality_check, inverse_system, perp_of_submodule
from .instances import (
    SamplerConfig,
    _random_unimodular,
    instance_seed,
    random_finite_module,
    random_monomial_ideal_polys,
    sample_modules,
)
from .linalg import op_transpose
from .quotient import QuotientModule
from .radical import ENUMERATION_BOUND, satisfies_radical_formula
from .ring import InternalCheckError, grlex_key, poly_monomial
from .reduced import (
    is_coreduced_subspace,
    largest_reduced_submodule,
    outside_corners,
    reduced_membership_oracle,
    witness_candidates,
)
from .torsion import classify, conjugate, matlis_dual, verify_ttf_duality


@dataclass
class SuiteResult:
    suite: str
    seed: int
    count: int
    passed: int = 0
    failures: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "count": self.count,
            "passed": self.passed,
            "failed": len(self.failures),
            "failures": self.failures,
        }


def _socle_equality_case(seed: int, module: QuotientModule):
    """Corner span, maximal-ideal annihilator, and the element oracle agree."""
    corners = outside_corners(module)
    # asserts span == annihilator
    span = largest_reduced_submodule(module, corners)
    if len(span) != len(corners):
        raise InternalCheckError("corner span has the wrong dimension")
    bound = max(max(g) for g in module.ideal.min_gens)
    witnesses = witness_candidates(module.n, bound, 4, seed)
    fixed = tuple(
        e
        for e in module.basis
        if reduced_membership_oracle(module, module.basis_element(e), witnesses)
    )
    if fixed != corners:
        raise InternalCheckError("oracle fixed set differs from the corner set")


def _hs_duality_case(seed: int, module: QuotientModule):
    """Macaulay round trip and the two Hilbert-series equalities."""
    system = inverse_system(module)
    duals = [poly_monomial(e) for e in system.basis]
    if perp_of_submodule(module.variables, duals) != module.ideal:
        raise InternalCheckError("inverse system does not round-trip to the ideal")
    corners = outside_corners(module)
    hilbert_duality_check(module, system, corners)  # raises on mismatch
    if sorted(system.corners, key=grlex_key) != sorted(corners, key=grlex_key):
        raise InternalCheckError("dual corners do not mirror the staircase corners")


def _coreduced_case(seed: int, module: QuotientModule):
    """The socle is coreduced: killed by the maximal ideal and stable under
    sampled aN = a^2 N comparisons."""
    socle_span = largest_reduced_submodule(module, outside_corners(module))
    bound = max(max(g) for g in module.ideal.min_gens)
    witnesses = witness_candidates(module.n, max(2, bound), 20, seed)
    if not is_coreduced_subspace(module, socle_span, witnesses):
        raise InternalCheckError("the socle failed the coreducedness criterion")


def _ttf_case(seed: int, module_ignored):
    """Duality equivalences plus conjugation invariance of the classification."""
    rng = random.Random(seed)
    module = random_finite_module(rng)
    gens = random_monomial_ideal_polys(rng, module.nvars)
    report = verify_ttf_duality(module, gens)
    if not report.ok:
        raise InternalCheckError(f"duality items failed: {report.items}")
    p, p_inv = _random_unimodular(rng, module.dim)
    if classify(conjugate(module, p, p_inv), gens) != report.tag:
        raise InternalCheckError("classification is not conjugation invariant")
    # the dual the duality check built, when the hypothesis held; its
    # transposes are the double dual's operators, and when they equal the
    # module's they commute as those do, so no module is built from them
    dual = matlis_dual(module) if report.dual is None else report.dual
    if tuple(map(op_transpose, dual.action)) != module.action:
        raise InternalCheckError("double dual changed the action")


def _radical_case(seed: int, module: QuotientModule):
    report = satisfies_radical_formula(module, seed=seed)
    if not report.satisfies or report.enumeration_skipped:
        raise InternalCheckError("radical formula checks did not complete")
    if report.semiprime_unique is not True:
        raise InternalCheckError("semiprime submodule is not unique")


_SUITES = {
    "socle-equality": (_socle_equality_case, SamplerConfig()),
    "hs-duality": (_hs_duality_case, SamplerConfig()),
    "coreduced": (_coreduced_case, SamplerConfig()),
    "ttf-duality": (_ttf_case, None),
    # a draw past the enumeration fails the case; the bound also picks
    # verify-mix's radical draws, and the benchmark digests pin `semiprime
    # dim skipped` for `radical` at dims 16, 27 and 49, so raising
    # ENUMERATION_BOUND is a benchmark change
    "radical": (_radical_case, SamplerConfig(dim_bound=ENUMERATION_BOUND)),
}

SUITE_NAMES = tuple(sorted(_SUITES))


def run_suite(name: str, count: int, seed: int) -> SuiteResult:
    if name not in _SUITES:
        raise KeyError(name)
    case, config = _SUITES[name]
    result = SuiteResult(suite=name, seed=seed, count=count)
    if config is None:
        # module-free suite: instances are drawn inside the case
        items = ((instance_seed(seed, i), None) for i in range(count))
    else:
        items = sample_modules(count, seed, config)
    for i, (case_seed, module) in enumerate(items):
        try:
            case(case_seed, module)
            result.passed += 1
        except Exception as exc:  # noqa: BLE001 - suites must report, not crash
            result.failures.append(
                {
                    "index": i,
                    "seed": case_seed,
                    "error": f"{type(exc).__name__}: {exc}",
                    "repro": (
                        f"artquot verify --suite {name} --count 1 --seed {case_seed}"
                    ),
                }
            )
    return result
