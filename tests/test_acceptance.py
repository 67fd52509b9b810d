"""Acceptance gate: exact small cases, randomized suites, determinism.

Each test covers one numbered criterion, asserts exact values (zero
tolerance) and a wall-clock budget, and prints a single pass/fail line.
Run with -s to see the lines; the -v test status carries the same signal.
"""

import hashlib
import io
import time

from artquot import (
    QuotientModule,
    hilbert_duality_check,
    inverse_system,
    monomial_span,
    outside_corners,
    parse_input,
    run_suite,
    socle,
    truncated_dual,
    truncated_dual_report,
)
from artquot.cli import main

STAIR11 = "ring x,y; ideal x^4, x^3*y, x^2*y^2, x*y^3, y^5"
FLAT7 = "ring x,y; ideal x^4, x^3*y, y^2"
SMALL4 = "ring x1,x2; ideal x1^2, x1*x2, x2^3"


def _module(text):
    variables, ideal = parse_input(text)
    return QuotientModule(variables, ideal)


def _system(text):
    return inverse_system(_module(text))


class _Budget:
    def __init__(self, label, limit):
        self.label = label
        self.limit = limit

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None and elapsed < self.limit else "FAIL"
        print(f"[{status}] {self.label} ({elapsed:.2f}s < {self.limit:.0f}s)")
        if exc_type is None:
            assert elapsed < self.limit, f"{self.label}: {elapsed:.2f}s over budget"


def test_criterion_01_staircase_socle_exact():
    with _Budget("criterion 1: 11-dim staircase socle, exact", 1.0):
        module = _module(STAIR11)
        assert module.dim == 11
        corners = outside_corners(module)
        assert corners == ((3, 0), (2, 1), (1, 2), (0, 4))
        soc = socle(module)
        assert len(soc) == 4  # not Gorenstein
        assert soc == monomial_span(module, corners)


def test_criterion_02_inverse_system_exact():
    with _Budget("criterion 2: inverse system of the 4-dim example, exact", 1.0):
        system = _system(SMALL4)
        assert system.labels() == ["1", "X1", "X2", "X2^2"]
        span = system.inner  # the slots of the image m o I-perp
        assert len(span) == 2
        assert system.position((0, 0)) in span  # 1
        assert system.position((0, 1)) in span  # X2
        assert system.position((1, 0)) not in span
        assert system.corners == ((1, 0), (0, 2))  # cosets X1, X2^2


def test_criterion_03_duality_mirror_exact():
    with _Budget("criterion 3: 7-dim duality mirror, exact", 1.0):
        module = _module(FLAT7)
        assert module.dim == 7
        assert outside_corners(module) == ((3, 0), (2, 1))
        system = _system(FLAT7)
        assert system.corners == ((3, 0), (2, 1))
        corners = outside_corners(module)
        hs_m, hs_d, hs_r, hs_rd = hilbert_duality_check(module, system, corners)
        assert hs_m.coeffs == (1, 2, 2, 2)
        assert hs_d.coeffs == (1, 2, 2, 2)
        assert hs_r.coeffs == (0, 0, 0, 2)
        assert hs_rd.coeffs == (0, 0, 0, 2)


def _suite_criterion(label, suite, count, seed, limit):
    with _Budget(label, limit):
        result = run_suite(suite, count=count, seed=seed)
        assert result.passed == count, result.failures
        assert result.ok


def test_criterion_04_socle_equality_suite():
    _suite_criterion(
        "criterion 4: socle-equality suite 200/200", "socle-equality", 200, 0, 30.0
    )


def test_criterion_05_macaulay_round_trip_suite():
    _suite_criterion(
        "criterion 5: hs-duality suite 200/200", "hs-duality", 200, 0, 30.0
    )


def test_criterion_06_coreduced_suite():
    _suite_criterion(
        "criterion 6: coreduced suite 200/200", "coreduced", 200, 0, 60.0
    )


def test_criterion_07_ttf_duality_suite():
    _suite_criterion(
        "criterion 7: ttf-duality suite 100/100", "ttf-duality", 100, 0, 60.0
    )


def test_criterion_08_radical_suite():
    _suite_criterion("criterion 8: radical suite 50/50", "radical", 50, 0, 120.0)


def test_criterion_09_truncated_dual_checks():
    with _Budget("criterion 9: truncated dual reducedness checks", 10.0):
        for n in (2, 3):
            for d in (3, 4):
                nonconstant = sum(1 for e in truncated_dual(n, d).basis if any(e))
                for i in range(n + 1):
                    # raises InternalCheckError on any failed item
                    report = truncated_dual_report(n, i, d)
                    assert len(report.witnesses) == nonconstant
                    assert report.subring_size + report.membership_checks == (
                        nonconstant + 1
                    )


def _capture(argv, stdin_text, monkeypatch, capsys):
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    rc = main(argv)
    out, _ = capsys.readouterr()
    assert rc == 0
    return hashlib.sha256(out.encode()).hexdigest()


def test_criterion_10_determinism(monkeypatch, capsys):
    with _Budget("criterion 10: byte-identical reruns", 30.0):
        cases = [
            (["report", "--json"], STAIR11),
            (["dual", "--json"], SMALL4),
            (["diagram", "--format", "svg", "--dual"], FLAT7),
            (
                ["verify", "--suite", "ttf-duality", "--count", "5",
                 "--seed", "11", "--json"],
                None,
            ),
        ]
        for argv, text in cases:
            first = _capture(argv, text, monkeypatch, capsys)
            second = _capture(argv, text, monkeypatch, capsys)
            assert first == second, argv
