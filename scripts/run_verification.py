"""Run every randomized suite at full scale and report one line each.

Usage: python3 scripts/run_verification.py [--seed N] [--scale FRACTION]
--scale 0.1 runs a quick smoke pass at a tenth of the counts.  A last line
reports the truncated-dual check, which no suite draws: the reducedness
dichotomy on every split of 1-3 variables at degree bounds 1-4, the same
36 cases at every seed and scale.
"""

import argparse
import sys
import time

from artquot import SUITE_NAMES, InternalCheckError, run_suite, truncated_dual_report

FULL_COUNTS = {
    "socle-equality": 200,
    "hs-duality": 200,
    "coreduced": 200,
    "ttf-duality": 100,
    "radical": 50,
}

# (variables, split index, degree bound)
TRUNCATED_DUALS = [
    (n, i, d) for n in (1, 2, 3) for d in (1, 2, 3, 4) for i in range(n + 1)
]


def print_result(name, passed, count, elapsed):
    mark = "ok" if passed == count else "FAIL"
    print(f"{name:<16} {passed}/{count} {mark} ({elapsed:.2f}s)")


def run_truncated_duals():
    """The number of truncated-dual cases whose checks all hold."""
    passed = 0
    for n, i, d in TRUNCATED_DUALS:
        try:
            truncated_dual_report(n, i, d)
        except InternalCheckError as exc:
            print(f"  repro: truncated_dual_report({n}, {i}, {d}): {exc}", file=sys.stderr)
        else:
            passed += 1
    return passed


def run(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args(argv)

    failures = 0
    for name in SUITE_NAMES:
        count = max(1, round(FULL_COUNTS[name] * args.scale))
        start = time.perf_counter()
        result = run_suite(name, count=count, seed=args.seed)
        print_result(name, result.passed, count, time.perf_counter() - start)
        for failure in result.failures:
            print(f"  repro: {failure['repro']}", file=sys.stderr)
        failures += count - result.passed
    start = time.perf_counter()
    passed = run_truncated_duals()
    print_result("truncated-dual", passed, len(TRUNCATED_DUALS), time.perf_counter() - start)
    failures += len(TRUNCATED_DUALS) - passed
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(run())
