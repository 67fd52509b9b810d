"""End-to-end and per-layer benchmark for artquot.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload structure-ladder --seed 1 --seconds 36 --trace 0

Workloads (see workloads.py and LAYERS.md):
  structure-ladder  basis/socle/dual/hilbert/report/diagram over the ladder
  action-ladder     classify (twice) and radical over instances up to dim 49
  verify-mix        one instance of every verify suite per round

The loop is closed, single-threaded and in-process: one caller runs the
op list of the workload in order (a pass) and repeats passes while the
next one is likely to end within --seconds (at least one pass, and one
of each kind when tracing).  Latency samples are pooled over all passes.
Times are reported at reference speed: fixed calibration slices run
between ops, and each time is scaled by CAL_REF_S over the mean slice
time measured around it (see `calibrate`); the run also prints the
metrics as measured.
CLI ops call `artquot.cli.main` with stdin and stdout redirected; suite
ops call `run_suite(name, 1, seed)`.  Every op is checked (exit code or suite verdict, stdout digest where one is shipped,
self-check lines).  With --trace 0 the run reports the end-to-end metrics;
with --trace 1 it alternates untraced and traced passes and reports the
per-layer metrics, measured by wrapping the library's public functions.

The package is imported from src/ next to this directory and nowhere else;
without it the benchmark exits with code 2 before printing a result.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from layertrace import PER_OP, LayerTracer  # noqa: E402

SETUP_REPEATS = 11

# Reported times are scaled to a calibration slice of this length.  On the
# machine the baseline in LAYERS.md was measured on, a slice takes about
# 2.1 ms when the host is in its fast state and 3.3 ms in its slow one.
CAL_REF_S = 0.0025
# after each op, calibration slices run for at least this share of its time
CAL_SHARE = 0.1


def calibrate() -> float:
    """Seconds taken by a fixed slice of exact rational arithmetic.

    The host's speed drifts by a third or more over seconds to minutes,
    in CPU time as much as in wall time, so no clock inside the process
    removes it.  The program is pure Python on Fractions like this slice,
    and slows in step with it: the ratio of an op's time to the slices
    run beside it holds within a few percent while both drift by tens of
    percent."""
    t0 = perf_counter()
    s = Fraction(0)
    for i in range(1, 800):
        s += Fraction(1, i)
    return perf_counter() - t0


def calibrate_after(seconds: float) -> list[float]:
    """Calibration slices for at least CAL_SHARE of `seconds`, one at least.

    A long op averages the host's speed over its whole run, where a single
    slice samples one moment of it, so long ops get proportionally more."""
    cal = [calibrate()]
    while sum(cal) < CAL_SHARE * seconds:
        cal.append(calibrate())
    return cal


def at_reference_speed(seconds: float, cal: list[float]) -> float:
    return seconds * CAL_REF_S / statistics.fmean(cal)

# Functions whose calls, inclusive seconds and self seconds go into the
# traced result; the printed table lists every traced function.
TRACED_FUNCTIONS = (
    "cli.main", "cli.build_parser",
    "linalg.rref", "linalg.kernel", "linalg.mat_mul", "linalg.mat_vec",
    "quotient.QuotientModule", "quotient.staircase", "quotient.act",
    "quotient.poly_action_matrix", "quotient.annihilator",
    "quotient.ideal_times_module",
    "inverse.inverse_system", "inverse.inner_span", "inverse.dual_corners",
    "inverse.apolarity", "inverse.hilbert_duality_check",
    "reduced.largest_reduced_submodule", "reduced.reduced_membership_oracle",
    "reduced.is_coreduced_subspace",
    "radical.envelope_zero", "radical.semiprime_bruteforce",
    "radical.envelope_of_submodule_bruteforce",
    "radical.satisfies_radical_formula",
    "torsion.FiniteModule.init", "torsion.FiniteModule.poly_matrix",
    "torsion.classify", "torsion.torsion_part", "torsion.adic_completion",
    "torsion.verify_ttf_duality",
    "instances.random_artinian_ideal", "instances.random_finite_module",
    "suites.run_suite",
)
CLI_COMMANDS = ("basis", "socle", "dual", "hilbert", "report", "diagram",
                "classify", "radical")
SUITES = ("coreduced", "hs-duality", "radical", "socle-equality", "ttf-duality")
EXACT_EXTRAS = ("linalg.rref.rows", "linalg.rref.cells", "linalg.mat_mul.mults",
                "torsion.torsion_part.steps", "torsion.adic_completion.steps")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# set-up: import artquot and build the inputs, several times


def _purge():
    for name in list(sys.modules):
        if name == "artquot" or name.startswith("artquot."):
            del sys.modules[name]


def set_up(workload: str, seed: int):
    """Raw seconds of each set-up, the calibration slices around them, and
    the op list.  The seeded search for the draws runs once, untimed,
    because its length depends on the seed (see workloads.choose)."""
    choice = workloads.choose(workload, seed)
    times, cal = [], [calibrate()]
    for _ in range(SETUP_REPEATS):
        _purge()
        t0 = perf_counter()
        importlib.import_module("artquot")
        importlib.import_module("artquot.cli")
        ops = workloads.build(workload, choice)
        times.append(perf_counter() - t0)
        cal.append(calibrate())
    return times, cal, ops


# ---------------------------------------------------------------------------
# running and checking one op


class Runner:
    def __init__(self, digests: dict):
        self.digests = digests
        # attributes are looked up per call, so traced wrappers are used
        self.cli = sys.modules["artquot.cli"]
        self.suites = sys.modules["artquot.suites"]

    def call(self, op):
        """Runs one op; returns (outcome, stdout).  Not timed here."""
        if op.kind == "suite":
            result = self.suites.run_suite(op.group, 1, op.suite_seed)
            return result.passed == 1 and not result.failures, ""
        out, err = io.StringIO(), io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO(op.stdin)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = self.cli.main(list(op.argv))
                except SystemExit as exc:
                    rc = exc.code
        finally:
            sys.stdin = saved
        return rc, out.getvalue()

    def check(self, op, outcome, stdout) -> str | None:
        if op.kind == "suite":
            return None if outcome is True else "suite instance did not pass"
        if outcome != 0:
            return f"exit code {outcome}"
        want = self.digests.get(op.key)
        if want is not None and want != hashlib.sha256(stdout.encode()).hexdigest():
            return "stdout digest differs"
        return workloads.self_check(op, stdout)


def run_pass(runner: Runner, ops, tracer: LayerTracer | None):
    """One pass over the ops; op i runs between the calibration slices in
    cal[i] and cal[i + 1], which set its speed."""
    lat, failures, cal = [], [], [[calibrate()]]
    if tracer is not None:
        tracer.install()
    t_pass = perf_counter()
    try:
        for op in ops:
            if tracer is not None:
                tracer.begin_op()
            t0 = perf_counter()
            try:
                outcome, stdout = runner.call(op)
            except Exception as exc:  # noqa: BLE001 - a crash is a failed op
                outcome, stdout = f"{type(exc).__name__}: {exc}", ""
            dt = perf_counter() - t0
            if tracer is not None:
                tracer.end_op(op.group)
            reason = runner.check(op, outcome, stdout)
            if reason is not None:
                failures.append(f"{op.key}: {reason}")
            lat.append(dt if reason is None else None)
            cal.append(calibrate_after(dt))
    finally:
        elapsed = perf_counter() - t_pass
        if tracer is not None:
            tracer.uninstall()
    norm = [None if dt is None else at_reference_speed(dt, cal[i] + cal[i + 1])
            for i, dt in enumerate(lat)]
    return {"seconds": elapsed, "ops": ops, "lat": lat, "norm": norm, "cal": cal,
            "failures": failures, "tracer": tracer}


# ---------------------------------------------------------------------------
# metrics


def samples(passes, key="norm", group=None) -> list[float]:
    """Latency of every op in every pass, pooled, at reference speed (key
    "norm") or as measured (key "lat"); only the ops of `group` if given.

    A failed op counts as taking the whole run, so it misses every
    latency limit."""
    whole = sum(p["seconds"] for p in passes)
    return [whole if x is None else x
            for p in passes for x, op in zip(p[key], p["ops"])
            if group is None or op.group == group]


def ops_per_s(passes, key="norm") -> float:
    lat = samples(passes, key)
    return len(lat) / sum(lat)


def percentile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def group_p50_ms(passes, group) -> float:
    vals = samples(passes, group=group)
    return statistics.median(vals) * 1e3 if vals else 0.0


def end_to_end(setup_times, setup_cal, passes, key="norm"):
    lat = samples(passes, key)
    setup = statistics.median(setup_times)
    if key == "norm":
        setup = at_reference_speed(setup, setup_cal)
    return {
        "setup_s": (setup, "s"),
        "ops_per_s": (ops_per_s(passes, key), "1/s"),
        "op_p50_ms": (percentile(lat, 50) * 1e3, "ms"),
        "op_p90_ms": (percentile(lat, 90) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer(plain, traced):
    """Per-pass values: counts from one traced pass (every traced pass runs
    the same ops, so they repeat exactly), seconds as the median over
    traced passes, per-command latency from the untraced passes at
    reference speed."""
    tracers = [p["tracer"] for p in traced]
    t = tracers[0]
    out = {}
    for name in TRACED_FUNCTIONS:
        out[f"{name}.calls"] = (t.calls(name), "count")
        out[f"{name}.s"] = (statistics.median(x.seconds(name) for x in tracers), "s")
        out[f"{name}.self_s"] = (statistics.median(x.self_seconds(name) for x in tracers), "s")
    for name in EXACT_EXTRAS:
        out[name] = (t.counts[name], "count")
    out["linalg.rref.max_bits"] = (t.max_bits, "bits")
    out["torsion.FiniteModule.poly_matrix.reuse"] = (_ratio(
        t.calls("torsion.FiniteModule.poly_matrix"),
        t.counts["torsion.FiniteModule.poly_matrix.distinct"]), "ratio")
    out["radical.semiprime_bruteforce.yield"] = (_ratio(
        t.counts["radical.semiprime_bruteforce.upsets"],
        t.counts["radical.semiprime_bruteforce.masks"]), "ratio")
    for name in PER_OP:
        out[f"{name}.per_op"] = (_ratio(t.calls(name), t.per_op[name]), "ratio")
    for cmd in CLI_COMMANDS:
        out[f"cli.{cmd}.p50_ms"] = (group_p50_ms(plain, cmd), "ms")
    for suite in SUITES:
        out[f"suites.{suite}.p50_ms"] = (group_p50_ms(plain, suite), "ms")
    out["instances.draw_accept_ratio"] = (_ratio(
        t.calls("instances.random_artinian_ideal"), t.counts["instances.draws"]), "ratio")
    out["trace.overhead"] = (ops_per_s(traced) / ops_per_s(plain), "ratio")
    return out


# ---------------------------------------------------------------------------
# reporting


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "none (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref  # detached HEAD
    target = ROOT / ".git" / ref[5:]
    return target.read_text().strip() if target.is_file() else "unknown (packed ref)"


def print_trace_table(traced, ops):
    t = traced[0]["tracer"]
    print("# traced functions, first traced pass (calls, inclusive s, self s), by self time")
    rows = sorted(t.stats.items(), key=lambda kv: -kv[1][2])
    for name, (calls, s, self_s) in rows:
        if calls:
            print(f"#   {name:<48} {calls:>9} {s:>10.4f} {self_s:>10.4f}")
    print("# redundancy: calls per op of each command")
    for group, counter in sorted(t.per_group_calls.items()):
        ops_in_group = sum(1 for op in ops if op.group == group)
        parts = ", ".join(f"{n} {c / ops_in_group:.2f}" for n, c in sorted(counter.items()))
        print(f"#   {group:<16} {parts}")
    first = t.exact_counts()
    repeat = all(p["tracer"].exact_counts() == first for p in traced[1:])
    fingerprint = hashlib.sha256(json.dumps(first).encode()).hexdigest()[:16]
    print(f"# exact counts repeat across {len(traced)} traced passes: "
          f"{'yes' if repeat else 'NO'}; fingerprint {fingerprint} "
          "(equal for equal seeds across runs)")


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "artquot" / "__init__.py").is_file():
        print(f"error: no artquot sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    setup_times, setup_cal, ops = set_up(args.workload, args.seed)
    loaded = Path(sys.modules["artquot"].__file__).resolve()
    if src.resolve() not in loaded.parents:
        print(f"error: artquot was imported from {loaded}", file=sys.stderr)
        return 2
    digests = json.loads((HERE / "digests.json").read_text())["ops"]
    runner = Runner(digests)

    print(f"# perfbench workload {args.workload} seed {args.seed} "
          f"seconds {args.seconds} trace {args.trace}")
    print(f"# python {platform.python_version()} nproc {os.cpu_count()} "
          f"git {git_sha()}")
    print(f"# census: {len(ops)} ops per pass")
    for line in workloads.census(ops):
        print(f"#   {line}")

    passes = []
    t_run = perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        passes.append(run_pass(runner, ops, LayerTracer() if traced else None))
        kinds = {p["tracer"] is not None for p in passes}
        # stop before a pass that would likely end after --seconds
        ahead = perf_counter() - t_run + passes[-1]["seconds"]
        if ahead > args.seconds and (not args.trace or len(kinds) == 2):
            break

    plain = [p for p in passes if p["tracer"] is None]
    traced = [p for p in passes if p["tracer"] is not None]
    failures = [f for p in passes for f in p["failures"]]
    attempted = sum(len(p["lat"]) for p in passes)
    for f in failures[:20]:
        print(f"# FAILED {f}")
    e2e = end_to_end(setup_times, setup_cal, plain)
    raw = end_to_end(setup_times, setup_cal, plain, key="lat")
    cal = [c for p in passes for gap in p["cal"] for c in gap]
    print(f"# passes: {len(plain)} untraced, {len(traced)} traced; latency samples "
          f"{len(ops)} ops x {len(plain)} passes, pooled; failed_ops {len(failures)} of {attempted}")
    print("# pass seconds: " + ", ".join(
        f"{p['seconds']:.2f}{'t' if p['tracer'] else ''}" for p in passes))
    print(f"# setup runs (s): {', '.join(f'{x:.4f}' for x in setup_times)}")
    q = statistics.quantiles(cal, n=4)
    print(f"# calibration slice (ms): median {statistics.median(cal) * 1e3:.4f}, "
          f"quartiles {q[0] * 1e3:.4f} {q[2] * 1e3:.4f}, {len(cal)} slices; "
          f"reference {CAL_REF_S * 1e3:.4f}")
    for name in ("setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms"):
        print(f"# as measured {name} {raw[name][0]} {raw[name][1]}")
    if traced:
        for name, (value, unit) in e2e.items():
            print(f"# untraced {name} {value} {unit}")
        print_trace_table(traced, ops)
        metrics = per_layer(plain, traced)
    else:
        metrics = e2e
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
