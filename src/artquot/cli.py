"""Command line interface.

Every command reads the ideal from --in FILE or stdin (except `verify`,
which generates its own instances) and prints a text report, or JSON with
--json.  Exit codes: 0 success, 1 domain error or failed verification,
2 usage error, 3 failed internal check (a bug in the program).  Stdout is
deterministic for a fixed input and seed; timing notes go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from .diagram import check_drawable, diagram_ascii, diagram_cells, diagram_svg
from .inverse import hilbert_duality_check, inverse_system
from .quotient import HilbertSeries, QuotientModule, standard_basis
from .radical import satisfies_radical_formula
from .ring import (
    AlgebraError,
    InternalCheckError,
    MonomialIdeal,
    ParseError,
    VariableSet,
    monomial_str,
    parse_input,
    parse_polynomial_list,
    poly_monomial,
    render,
    total_degree,
)
from .reduced import largest_reduced_submodule, outside_corners
from .suites import SUITE_NAMES, run_suite
from .torsion import classify

_YES = {True: "yes", False: "no"}


def _read_input(args) -> tuple[VariableSet, MonomialIdeal]:
    try:
        if args.infile:
            with open(args.infile, encoding="utf-8") as fh:
                text = fh.read()
        else:
            text = sys.stdin.read()
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"input is not UTF-8: byte 0x{exc.object[exc.start]:02x} "
            f"at byte offset {exc.start}"
        ) from None
    return parse_input(text)


def _read_module(args) -> QuotientModule:
    return QuotientModule(*_read_input(args))


def _emit(
    args, variables: VariableSet, ideal: MonomialIdeal, payload: dict, lines: list[str]
) -> int:
    """Print the payload or the lines, both headed by the ring and ideal."""
    if args.json:
        gens = [monomial_str(variables.names, g) for g in ideal.min_gens]
        payload = {"ring": list(variables.names), "ideal": gens, **payload}
        print(json.dumps(payload, indent=2))
    else:
        print("\n".join([render(variables, ideal), *lines]))
    return 0


def cmd_basis(args) -> int:
    # the staircase alone: no operator of the module is read here
    variables, ideal = _read_input(args)
    basis = standard_basis(variables, ideal)
    hs = HilbertSeries.from_degrees(map(total_degree, basis))
    labels = [monomial_str(variables.names, e) for e in basis]
    payload = {"dim": len(basis), "basis": labels, "hilbert": list(hs.coeffs)}
    lines = [f"dim {len(basis)}", f"hilbert {hs}", "basis " + ", ".join(labels)]
    return _emit(args, variables, ideal, payload, lines)


def cmd_socle(args) -> int:
    module = _read_module(args)
    corners = outside_corners(module)
    span = largest_reduced_submodule(module, corners)
    socle_hs = HilbertSeries.from_degrees(total_degree(e) for e in corners)
    corner_labels = [module.label(e) for e in corners]
    payload = {
        "dim": span.dim,
        "corners": corner_labels,
        "hilbert": list(socle_hs.coeffs),
        "gorenstein": span.dim == 1,
    }
    lines = [
        f"socle dim {span.dim}",
        "corners " + ", ".join(corner_labels),
        f"socle hilbert {socle_hs}",
        f"gorenstein {_YES[span.dim == 1]}",
    ]
    return _emit(args, module.variables, module.ideal, payload, lines)


def cmd_dual(args) -> int:
    system = inverse_system(_read_module(args))
    labels = system.labels()
    corner_set = set(system.corners)
    corners = [labels[system.index[e]] for e in system.corners]
    inner = [s for e, s in zip(system.basis, labels) if e not in corner_set]
    payload = {
        "dim": system.dim,
        "dual_basis": labels,
        "hilbert": list(system.grading.coeffs),
        "dual_corners": corners,
        "inner": inner,
    }
    lines = [
        f"dual dim {system.dim}",
        "dual basis " + ", ".join(labels),
        f"hilbert {system.grading}",
        "dual corners " + ", ".join(corners),
        "inner " + ", ".join(inner),
    ]
    return _emit(args, system.variables, system.ideal, payload, lines)


def cmd_hilbert(args) -> int:
    module = _read_module(args)
    system = inverse_system(module)
    corners = outside_corners(module)
    hs_m, hs_d, hs_r, hs_rd = hilbert_duality_check(module, system, corners)
    payload = {
        "module": list(hs_m.coeffs),
        "dual": list(hs_d.coeffs),
        "socle": list(hs_r.coeffs),
        "socle_dual": list(hs_rd.coeffs),
        "module_equals_dual": hs_m == hs_d,
        "socle_equals_dual": hs_r == hs_rd,
    }
    lines = [
        f"module {hs_m}",
        f"dual {hs_d}",
        f"socle {hs_r}",
        f"socle dual {hs_rd}",
        f"module = dual {_YES[hs_m == hs_d]}",
        f"socle = socle dual {_YES[hs_r == hs_rd]}",
    ]
    return _emit(args, module.variables, module.ideal, payload, lines)


def cmd_classify(args) -> int:
    module = _read_module(args)
    if args.ideal is not None:
        gens = parse_polynomial_list(args.ideal, module.variables)
    else:
        gens = tuple(poly_monomial(g) for g in module.ideal.min_gens)
    tag = classify(module, gens)
    gen_strs = [g.to_str(module.variables.names) for g in gens]
    payload = {
        "relative_to": gen_strs,
        "tag": tag.tag,
        "reduced": tag.j_reduced,
        "coreduced": tag.j_coreduced,
        "gamma_dim": tag.gamma_dim,
        "lambda_dim": tag.lambda_dim,
    }
    lines = [
        "relative to " + ", ".join(gen_strs),
        f"tag {tag.tag}",
        f"J-reduced {_YES[tag.j_reduced]}",
        f"J-coreduced {_YES[tag.j_coreduced]}",
        f"gamma dim {tag.gamma_dim}",
        f"lambda dim {tag.lambda_dim}",
    ]
    return _emit(args, module.variables, module.ideal, payload, lines)


def cmd_radical(args) -> int:
    module = _read_module(args)
    report = satisfies_radical_formula(module, seed=args.seed)
    payload = {
        "envelope_dim": report.envelope_dim,
        "jacobson_dim": report.jacobson_dim,
        "semiprime_dim": report.semiprime_dim,
        "semiprime_unique": report.semiprime_unique,
        "enumeration_skipped": report.enumeration_skipped,
        "spot_checks": report.spot_checks,
        "strf": report.satisfies,
    }
    semiprime = (
        "skipped" if report.enumeration_skipped else str(report.semiprime_dim)
    )
    unique = (
        "skipped"
        if report.semiprime_unique is None
        else _YES[report.semiprime_unique]
    )
    lines = [
        f"envelope dim {report.envelope_dim}",
        f"jacobson dim {report.jacobson_dim}",
        f"semiprime dim {semiprime}",
        f"semiprime unique {unique}",
        f"spot checks {report.spot_checks}",
        f"satisfies radical formula {_YES[report.satisfies]}",
    ]
    return _emit(args, module.variables, module.ideal, payload, lines)


def cmd_diagram(args) -> int:
    variables, ideal = _read_input(args)
    if args.format != "json":
        check_drawable(variables.n)
    module = QuotientModule(variables, ideal)
    if args.format == "json":
        print(json.dumps(diagram_cells(module, args.dual), indent=2))
    elif args.format == "svg":
        print(diagram_svg(module, args.dual))
    else:
        print(diagram_ascii(module, args.dual))
    return 0


def _report_rows(module: QuotientModule) -> list[dict]:
    system = inverse_system(module)
    corners = outside_corners(module)
    reduced = largest_reduced_submodule(module, corners)
    inner = system.inner
    hs_m, hs_d, hs_r, hs_rd = hilbert_duality_check(module, system, corners)
    # the dual elements killed by every variable are exactly the constants
    dual_socle_ok = outside_corners(system) == ((0,) * module.n,)
    p_labels = [module.label(e) for e in corners]
    d_labels = [system.label(e) for e in system.corners]
    dim = module.dim
    rows = [
        {
            "row": 1,
            "left": f"dim M = {dim}",
            "right": f"dim dual = {system.dim}",
            "remark": "the two have the same dimension",
            "ok": dim == system.dim,
        },
        {
            "row": 2,
            "left": "reduced part generated by " + ", ".join(p_labels),
            "right": "dual quotient generated by " + ", ".join(d_labels),
            "remark": "generated by the outside corner elements",
            "ok": sorted(corners) == sorted(system.corners),
        },
        {
            "row": 3,
            # M / mM is the degree-0 part of M
            "left": f"M / (m M) = k, dim {hs_m.coeffs[0]}",
            "right": "span{1} = k in the dual",
            "remark": "the residue field appears on both sides",
            "ok": hs_m.coeffs[0] == 1,
        },
        {
            "row": 4,
            "left": f"dim M / reduced = {dim - reduced.dim}",
            "right": f"dim (m o dual) = {inner.dim}",
            "remark": "generated by the inner elements",
            "ok": dim - reduced.dim == inner.dim,
        },
        {
            "row": 5,
            "left": "reduced part embeds in M",
            "right": "dual surjects onto dual/(m o dual)",
            "remark": "an embedding and a surjection respectively",
            "ok": reduced.dim == system.dim - inner.dim,
        },
        {
            "row": 6,
            "left": "M surjects onto M/mbar = k",
            "right": "reduced part of the dual embeds as span{1}",
            "remark": "a surjection and an embedding respectively",
            "ok": dual_socle_ok,
        },
        {
            "row": 7,
            "left": "m kills the reduced part of M",
            "right": "m o (dual/(m o dual)) = 0",
            "remark": "both sides are semisimple",
            "ok": _m_kills_reduced(module, reduced),
        },
        {
            "row": 8,
            "left": f"reduced part = socle, dim {reduced.dim}",
            "right": "dual reduced part = dual socle, dim 1",
            "remark": "the reduced submodule and the socle coincide",
            "ok": dual_socle_ok,
        },
        {
            "row": 9,
            "left": f"socle = (0 : m) in M, hilbert {hs_r}",
            "right": f"dual socle hilbert {hs_rd}",
            "remark": "the socle is the annihilator of m",
            "ok": hs_m == hs_d and hs_r == hs_rd,
        },
    ]
    return rows


def _m_kills_reduced(module: QuotientModule, reduced) -> bool:
    return not any(
        module.apply(i, row) for i in range(module.n) for row in reduced.rows
    )


def cmd_report(args) -> int:
    module = _read_module(args)
    rows = _report_rows(module)
    ok = all(r["ok"] for r in rows)
    width_l = max(len(r["left"]) for r in rows)
    width_r = max(len(r["right"]) for r in rows)
    lines = []
    for r in rows:
        lines.append(
            f"{r['row']}. {r['left']:<{width_l}}  <->  "
            f"{r['right']:<{width_r}}  [{'ok' if r['ok'] else 'FAIL'}] "
            f"{r['remark']}"
        )
    lines.append("all rows ok" if ok else "SOME ROWS FAILED")
    _emit(args, module.variables, module.ideal, {"rows": rows, "ok": ok}, lines)
    return 0 if ok else 1


def cmd_verify(args) -> int:
    if args.suite not in SUITE_NAMES:
        print(
            f"error: unknown suite {args.suite!r}; choose from "
            + ", ".join(SUITE_NAMES),
            file=sys.stderr,
        )
        return 2
    started = time.monotonic()
    result = run_suite(args.suite, args.count, args.seed)
    elapsed = time.monotonic() - started
    if args.json:
        print(json.dumps(result.to_json(), indent=2))
    else:
        print(
            f"suite {result.suite} seed {result.seed}: "
            f"{result.passed}/{result.count} pass"
        )
        for f in result.failures:
            print(f"  instance {f['index']} seed {f['seed']}: {f['error']}")
            print(f"  repro: {f['repro']}")
    print(f"elapsed {elapsed:.2f}s", file=sys.stderr)
    return 0 if result.ok else 1


def _add_io(sub, with_json: bool = True):
    sub.add_argument(
        "--in",
        dest="infile",
        metavar="FILE",
        default=None,
        help="read the ideal from FILE instead of stdin",
    )
    if with_json:
        sub.add_argument(
            "--json", action="store_true", help="machine-readable output"
        )


def _count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="artquot",
        description=(
            "exact structure reports for finite quotients of a polynomial "
            "ring by a monomial ideal"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("basis", help="staircase basis and Hilbert series")
    _add_io(p)
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("socle", help="outside corners and the reduced part")
    _add_io(p)
    p.set_defaults(func=cmd_socle)

    p = sub.add_parser("dual", help="inverse system under apolarity")
    _add_io(p)
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("hilbert", help="Hilbert series equalities")
    _add_io(p)
    p.set_defaults(func=cmd_hilbert)

    p = sub.add_parser("classify", help="torsion-theory tag of the quotient")
    _add_io(p)
    p.add_argument(
        "--ideal",
        metavar="POLYS",
        default=None,
        help="comma-separated polynomial generators of the reference ideal "
        "(default: the defining ideal)",
    )
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("radical", help="radical-formula quantities")
    _add_io(p)
    p.add_argument("--seed", type=int, default=0, help="spot-check seed")
    p.set_defaults(func=cmd_radical)

    p = sub.add_parser("diagram", help="Young diagram of the staircase")
    _add_io(p, with_json=False)
    p.add_argument(
        "--format",
        choices=("ascii", "svg", "json"),
        default="ascii",
        help="output format (default ascii)",
    )
    p.add_argument(
        "--dual",
        action="store_true",
        help="also render the dual diagram with dual labels",
    )
    p.set_defaults(func=cmd_diagram)

    p = sub.add_parser("report", help="the nine-row correspondence table")
    _add_io(p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("verify", help="run a named random-instance suite")
    p.add_argument("--suite", required=True, help="suite name")
    p.add_argument(
        "--count", type=_count, default=100, help="instances to run (at least 0)"
    )
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (AlgebraError, InternalCheckError, OSError) as exc:
        # ParseError is an AlgebraError
        bug = isinstance(exc, InternalCheckError)
        print(f"{'internal check failed' if bug else 'error'}: {exc}", file=sys.stderr)
        return 3 if bug else 1


if __name__ == "__main__":
    sys.exit(main())
