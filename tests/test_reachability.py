"""Every `def` in src/artquot is entered by a command, a suite or a script.

The test runs, under `sys.setprofile`, every CLI command in text and in
`--json` where it is accepted, on valid inputs and on inputs the program
refuses, every `verify` suite in both output forms, and both scripts under
scripts/.  It then names each function or method defined in
`src/artquot` that none of these entered.  A `def` is matched by its code
object's first line, which for a decorated `def` is the line of its first
decorator.  A `def` that nothing runs either goes or is listed in ALLOWED
with its reason; as with `test_exports`' exemptions, an entry that gets
reached or deleted fails the test too.
"""

import ast
import importlib.util
import io
import sys
from pathlib import Path

import artquot
from artquot import SUITE_NAMES, reduced
from artquot.cli import build_parser, main

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(artquot.__file__).resolve().parent

ALLOWED = {
    "ring.Polynomial.__eq__": (
        "perfbench/layertrace.py adds (id(module), poly) pairs to a set"
    ),
    "ring.Polynomial.__hash__": (
        "perfbench/layertrace.py adds (id(module), poly) pairs to a set"
    ),
    "radical.SemiprimeReport.submodules_scanned": (
        "read by the layertrace hook on semiprime_bruteforce"
    ),
    "instances.random_artinian_ideal": (
        "perfbench/workloads.py draws its ladder instances with it; the "
        "suites draw through sample_modules, which keeps the staircase"
    ),
    "instances.sample_ideals": (
        "perfbench/workloads.py reads a suite instance's shape with it; the "
        "suites draw through sample_modules, which keeps the staircase"
    ),
    "quotient.QuotientModule.__repr__": "debugging and pytest failure messages",
    "ring.Polynomial.__repr__": "debugging and pytest failure messages",
}

VALID = {
    "3-variable staircase": "ring x,y,z; ideal x^3, y^2, z^2, x*y*z",
    "11-cell worked example": "ring x,y; ideal x^4, x^3*y, x^2*y^2, x*y^3, y^5",
    "1-variable box": "ring t; ideal t^4",
    "JSON input": '{"ring": ["a", "b"], "ideal": ["a^2", "a*b", "b^3"]}',
}
REFUSED = {
    "not Artinian": "ring x,y; ideal x^2",
    "the unit ideal": "ring x,y; ideal 1",
    "over the dimension budget": "ring x,y; ideal x^400, y^400",
    "a coefficient": "ring x,y; ideal 3*x",
    "a dual name clash": "ring x,X; ideal x, X",
}
COMMANDS = (
    ["basis"], ["socle"], ["dual"], ["hilbert"], ["classify"], ["radical"],
    ["report"],
)
DIAGRAMS = (
    ["diagram"], ["diagram", "--dual"], ["diagram", "--format", "svg", "--dual"],
    ["diagram", "--format", "json", "--dual"],
)


def _defs() -> dict:
    """(file, first line) -> dotted name of every def in the package."""
    found = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}.{child.name}"
                line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(path, line)] = name
                walk(child, path, name)
            elif isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}.{child.name}")
            else:
                walk(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), str(path), path.stem)
    return found


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _cli(argv, text, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    return main(argv)


def _drive(monkeypatch, capsys):
    """Run everything the package is for; check the exit codes on the way."""
    for text in VALID.values():
        for argv in COMMANDS:
            assert _cli(argv, text, monkeypatch) == 0, (argv, text)
            assert _cli(argv + ["--json"], text, monkeypatch) == 0, (argv, text)
        for argv in DIAGRAMS:
            # ascii and svg refuse more than two variables
            assert _cli(argv, text, monkeypatch) in (0, 1), (argv, text)
    mixed = ["classify", "--ideal", "x+y, 2*x^2"]
    assert _cli(mixed, VALID["11-cell worked example"], monkeypatch) == 0
    assert _cli(mixed + ["--json"], VALID["11-cell worked example"], monkeypatch) == 0
    for text in REFUSED.values():
        codes = [_cli(argv, text, monkeypatch) for argv in COMMANDS + DIAGRAMS]
        assert 1 in codes and 3 not in codes, (text, codes)
    for name in SUITE_NAMES:
        for extra in ([], ["--json"]):
            argv = ["verify", "--suite", name, "--count", "2", "--seed", "3"]
            assert _cli(argv + extra, "", monkeypatch) == 0, (name, extra)
    assert _load_script("worked_examples").run() == 0
    assert _load_script("run_verification").run(["--scale", "0.02"]) == 0
    capsys.readouterr()


def test_every_def_is_reached(monkeypatch, capsys):
    defs = _defs()
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno))

    # the parser and the monomial witnesses are cached per process; an
    # earlier test may have built them
    build_parser.cache_clear()
    reduced._monomial_witnesses.cache_clear()
    sys.setprofile(profile)
    try:
        _drive(monkeypatch, capsys)
    finally:
        sys.setprofile(None)
    entered = {(str(Path(path).resolve()), line) for path, line in entered}
    unreached = {name for key, name in defs.items() if key not in entered}
    reached = set(defs.values()) - unreached
    missed = sorted(unreached - set(ALLOWED))
    assert not missed, "nothing enters " + ", ".join(missed)
    # an allowance lapses once its def is gone or something enters it
    gone = sorted(set(ALLOWED) - set(defs.values()))
    assert not gone, "allowed but not defined: " + ", ".join(gone)
    entered_allowed = sorted(set(ALLOWED) & reached)
    assert not entered_allowed, "allowed but entered: " + ", ".join(entered_allowed)
