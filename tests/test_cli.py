"""End-to-end command tests driven through main(argv)."""

import hashlib
import io
import json
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from artquot import quotient
from artquot.cli import build_parser, main
from artquot.quotient import staircase
from artquot.ring import InternalCheckError, MonomialIdeal, parse_input
from artquot.torsion import FiniteModule

DIGESTS = Path(__file__).resolve().parent.parent / "perfbench" / "digests.json"
# stdout of command forms the benchmark digests never run, recorded before
# the inverse system was built on the module's own staircase
GOLDEN = Path(__file__).resolve().parent / "golden_cli.json"

STAIR11 = "ring x,y; ideal x^4, x^3*y, x^2*y^2, x*y^3, y^5"
FLAT7 = "ring x,y; ideal x^4, x^3*y, y^2"
SMALL4 = '{"ring": ["x1","x2"], "ideal": ["x1^2", "x1*x2", "x2^3"]}'


def run(argv, stdin_text=None, monkeypatch=None, capsys=None):
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    rc = main(argv)
    out, err = capsys.readouterr()
    return rc, out, err


def test_basis_text(monkeypatch, capsys):
    rc, out, _ = run(["basis"], STAIR11, monkeypatch, capsys)
    assert rc == 0
    assert "dim 11" in out
    assert "hilbert 1 + 2t + 3t^2 + 4t^3 + t^4" in out


def test_basis_json(monkeypatch, capsys):
    rc, out, _ = run(["basis", "--json"], FLAT7, monkeypatch, capsys)
    assert rc == 0
    data = json.loads(out)
    assert data["dim"] == 7
    assert data["hilbert"] == [1, 2, 2, 2]
    assert data["basis"][0] == "1"
    assert data["ideal"] == ["y^2", "x^4", "x^3*y"]


def test_input_from_file(tmp_path, capsys):
    path = tmp_path / "ideal.txt"
    path.write_text(FLAT7)
    rc = main(["socle", "--in", str(path), "--json"])
    out, _ = capsys.readouterr()
    assert rc == 0
    data = json.loads(out)
    assert data["corners"] == ["x^3", "x^2*y"]
    assert data["dim"] == 2
    assert data["gorenstein"] is False


def test_socle_gorenstein_flag(monkeypatch, capsys):
    rc, out, _ = run(
        ["socle"], "ring x,y; ideal x^2, y^2", monkeypatch, capsys
    )
    assert rc == 0
    assert "gorenstein yes" in out
    assert "corners x*y" in out


def test_dual_command(monkeypatch, capsys):
    rc, out, _ = run(["dual", "--json"], SMALL4, monkeypatch, capsys)
    assert rc == 0
    data = json.loads(out)
    assert data["dual_basis"] == ["1", "X1", "X2", "X2^2"]
    assert data["dual_corners"] == ["X1", "X2^2"]
    assert data["inner"] == ["1", "X2"]
    assert data["dim"] == 4


def test_hilbert_command(monkeypatch, capsys):
    rc, out, _ = run(["hilbert"], FLAT7, monkeypatch, capsys)
    assert rc == 0
    assert "module 1 + 2t + 2t^2 + 2t^3" in out
    assert "socle 2t^3" in out
    assert "module = dual yes" in out


def test_classify_default_ideal(monkeypatch, capsys):
    rc, out, _ = run(["classify"], FLAT7, monkeypatch, capsys)
    assert rc == 0
    assert "tag T_I" in out
    assert "J-reduced yes" in out


def test_classify_explicit_ideal(monkeypatch, capsys):
    rc, out, _ = run(
        ["classify", "--ideal", "y", "--json"], FLAT7, monkeypatch, capsys
    )
    assert rc == 0
    data = json.loads(out)
    assert data["relative_to"] == ["y"]
    assert data["reduced"] is False
    assert data["gamma_dim"] == 7  # y is nilpotent, the chain fills up


def test_classify_by_a_huge_power_stops_at_zero(monkeypatch, capsys):
    # x^40 already acts as zero, so x^2000000 must cost no more than x^40
    box = "ring x,y; ideal x^40, y^40"
    start = time.perf_counter()
    rc, out, err = run(["classify", "--ideal", "x^2000000"], box, monkeypatch, capsys)
    elapsed = time.perf_counter() - start
    assert (rc, err) == (0, "")
    assert elapsed < 1.0
    assert out.count("tag ") == 1
    rc, small, _ = run(["classify", "--ideal", "x^40"], box, monkeypatch, capsys)
    assert rc == 0

    def fields(text):
        return [
            line for line in text.splitlines()
            if line.startswith(("tag ", "gamma dim ", "lambda dim "))
        ]

    assert len(fields(out)) == 3
    assert fields(out) == fields(small)


def test_radical_command(monkeypatch, capsys):
    rc, out, _ = run(["radical", "--json"], SMALL4, monkeypatch, capsys)
    assert rc == 0
    data = json.loads(out)
    assert data["envelope_dim"] == 3
    assert data["semiprime_unique"] is True
    assert data["strf"] is True


def test_radical_command_at_dim_400(monkeypatch, capsys):
    rc, out, _ = run(["radical"], "ring x,y; ideal x^20, y^20", monkeypatch, capsys)
    assert rc == 0
    lines = out.splitlines()
    for line in (
        "envelope dim 399",
        "jacobson dim 399",
        "semiprime dim skipped",
        "spot checks 0",
    ):
        assert line in lines


def test_report_rows(monkeypatch, capsys):
    rc, out, _ = run(["report", "--json"], SMALL4, monkeypatch, capsys)
    assert rc == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert len(data["rows"]) == 9
    row1 = data["rows"][0]
    assert "dim M = 4" in row1["left"] and "dim dual = 4" in row1["right"]
    row2 = data["rows"][1]
    assert "x1, x2^2" in row2["left"]
    assert "X1, X2^2" in row2["right"]
    assert all(r["ok"] for r in data["rows"])


def test_report_text_table(monkeypatch, capsys):
    rc, out, _ = run(["report"], STAIR11, monkeypatch, capsys)
    assert rc == 0
    assert out.count("<->") == 9
    assert "all rows ok" in out


def test_report_trivial_quotient(monkeypatch, capsys):
    rc, out, _ = run(["report", "--json"], "ring x,y; ideal x, y", monkeypatch, capsys)
    assert rc == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert "dim M = 1" in data["rows"][0]["left"]


@pytest.mark.parametrize("command", ["socle", "dual", "hilbert", "report"])
def test_structure_commands_evaluate_no_polynomial(command, monkeypatch, capsys):
    # the maximal ideal acts through the stored operators, never through
    # polynomials rebuilt and evaluated one basis vector at a time
    calls = []
    original = FiniteModule.poly_matrix

    def counted(self, poly):
        calls.append(poly)
        return original(self, poly)

    monkeypatch.setattr(FiniteModule, "poly_matrix", counted)
    rc, _, _ = run([command], STAIR11, monkeypatch, capsys)
    assert rc == 0
    assert calls == []


def test_diagram_ascii(monkeypatch, capsys):
    rc, out, _ = run(["diagram"], STAIR11, monkeypatch, capsys)
    assert rc == 0
    assert out.count("[*]") == 4


def test_diagram_dual_renders_both(monkeypatch, capsys):
    rc, out, _ = run(["diagram", "--dual"], FLAT7, monkeypatch, capsys)
    assert rc == 0
    assert "x^3 [*]" in out and "X^3 [*]" in out


def test_diagram_svg_and_json(monkeypatch, capsys):
    rc, out, _ = run(["diagram", "--format", "svg"], FLAT7, monkeypatch, capsys)
    assert rc == 0
    assert out.count("<rect") == 7
    rc, out, _ = run(
        ["diagram", "--format", "json", "--dual"], FLAT7, monkeypatch, capsys
    )
    data = json.loads(out)
    assert len(data["cells"]) == 7 and len(data["dual_cells"]) == 7


def test_verify_pass(monkeypatch, capsys):
    rc, out, err = run(
        ["verify", "--suite", "socle-equality", "--count", "5", "--seed", "3"],
        None,
        monkeypatch,
        capsys,
    )
    assert rc == 0
    assert "5/5 pass" in out
    assert "elapsed" in err  # timing stays off stdout


def test_verify_json(monkeypatch, capsys):
    rc, out, _ = run(
        ["verify", "--suite", "radical", "--count", "3", "--seed", "1", "--json"],
        None,
        monkeypatch,
        capsys,
    )
    assert rc == 0
    data = json.loads(out)
    assert data["passed"] == 3 and data["failed"] == 0


def test_verify_unknown_suite_is_usage_error(monkeypatch, capsys):
    rc, _, err = run(["verify", "--suite", "nope"], None, monkeypatch, capsys)
    assert rc == 2
    assert "unknown suite" in err


def test_parse_error_exits_one(monkeypatch, capsys):
    rc, _, err = run(["basis"], "ring x,y; ideal 2*x", monkeypatch, capsys)
    assert rc == 1
    assert "error:" in err


def test_non_artinian_exits_one(monkeypatch, capsys):
    rc, _, err = run(["basis"], "ring x,y; ideal x^2", monkeypatch, capsys)
    assert rc == 1
    assert "pure power" in err


def test_unit_ideal_exits_one(monkeypatch, capsys):
    rc, _, err = run(["basis"], "ring x,y; ideal 1", monkeypatch, capsys)
    assert rc == 1
    assert "zero ring" in err


def test_internal_check_failure_exits_three(monkeypatch, capsys):
    def broken(module, gens):
        raise InternalCheckError("forced")

    monkeypatch.setattr("artquot.cli.classify", broken)
    rc, out, err = run(["classify"], FLAT7, monkeypatch, capsys)
    assert rc == 3
    assert out == ""
    assert err == "internal check failed: forced\n"


def test_missing_input_file_exits_one(capsys):
    rc = main(["basis", "--in", "/nonexistent/ideal.txt"])
    _, err = capsys.readouterr()
    assert rc == 1
    assert "error:" in err


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["diagram", "--format", "gif"])
    assert exc.value.code == 2


def test_verify_negative_count_is_usage_error(capsys):
    for bad in ("-3", "three"):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "radical", "--count", bad])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "--count" in err
    assert main(["verify", "--suite", "radical", "--count", "0"]) == 0
    assert "0/0 pass" in capsys.readouterr()[0]


@pytest.mark.parametrize(
    "text", ["ring x,y; ideal x^\u0663, y^2", "ring x,y; ideal x^\u00b3, y^2"]
)
def test_non_ascii_digits_exit_one(text, monkeypatch, capsys):
    rc, out, err = run(["basis"], text, monkeypatch, capsys)
    assert rc == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def _one_line_refusal(argv, text, monkeypatch, capsys) -> str:
    start = time.perf_counter()
    rc, out, err = run(argv, text, monkeypatch, capsys)
    assert time.perf_counter() - start < 1
    assert rc == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


@pytest.mark.parametrize(
    "text",
    # a 20-digit exponent, and a staircase ten times the dimension budget
    ["ring x; ideal x^99999999999999999999", "ring x,y; ideal x^1001, y^1000"],
)
def test_oversized_staircase_exits_one(text, monkeypatch, capsys):
    err = _one_line_refusal(["basis"], text, monkeypatch, capsys)
    assert "too large to enumerate" in err


def test_dimension_budget_is_exact(monkeypatch, capsys):
    # STAIR11 has dimension 11: accepted at a budget of 11, refused at 10
    monkeypatch.setattr(quotient, "MAX_DIM", 11)
    assert run(["basis"], STAIR11, monkeypatch, capsys)[0] == 0
    monkeypatch.setattr(quotient, "MAX_DIM", 10)
    err = _one_line_refusal(["basis"], STAIR11, monkeypatch, capsys)
    assert "more than 10 standard monomials" in err


def test_thin_staircase_is_walked_not_boxed(monkeypatch, capsys):
    # dim 3999 in a box of 4 * 10^6 cells, more than the old box cap allowed
    def no_membership(self, exps):
        raise AssertionError("the walk tested a cell for membership")

    monkeypatch.setattr(MonomialIdeal, "contains", no_membership)
    text = "ring x,y; ideal x^2000, y^2000, x*y"
    rc, out, _ = run(["basis"], text, monkeypatch, capsys)
    assert rc == 0 and "\ndim 3999\n" in out


@pytest.mark.parametrize("command", ["basis", "dual"])
def test_staircase_over_the_budget_exits_one(command, monkeypatch, capsys):
    err = _one_line_refusal([command], "ring x; ideal x^1000000", monkeypatch, capsys)
    assert "too large to enumerate" in err


def _wide_inputs(variables: int, generators: int) -> tuple[str, str]:
    """The text and JSON forms of a ring with `variables` variables whose
    ideal lists `generators` powers of the first variable and then every
    other variable."""
    names = [f"v{i}" for i in range(variables)]
    gens = [f"v0^{k}" for k in range(1, generators + 1)] + names[1:]
    text = f"ring {','.join(names)}; ideal {', '.join(gens)}"
    return text, json.dumps({"ring": names, "ideal": gens})


@pytest.mark.parametrize(
    "variables, generators, message",
    [(1200, 1, "more than 32 variables"), (2, 5000, "more than 256 generators")],
)
def test_input_over_the_count_budget_exits_one(
    variables, generators, message, monkeypatch, capsys
):
    for text in _wide_inputs(variables, generators):
        for command in ("basis", "dual"):
            err = _one_line_refusal([command], text, monkeypatch, capsys)
            assert message in err


def test_input_at_the_count_budget_is_accepted(monkeypatch, capsys):
    # 32 variables with 225 powers of v0 and the 31 other variables: 256
    # generators that minimalize to 32
    for text in _wide_inputs(32, 225):
        rc, out, _ = run(["basis"], text, monkeypatch, capsys)
        assert rc == 0 and "\ndim 1\n" in out


def test_parser_is_reused_without_carrying_options(monkeypatch, capsys):
    calls = (["classify", "--ideal", "x"], ["classify"])
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(run(argv, FLAT7, monkeypatch, capsys))
    assert fresh[0][1] != fresh[1][1]
    build_parser.cache_clear()
    reused = [run(argv, FLAT7, monkeypatch, capsys) for argv in calls]
    assert reused == fresh
    assert build_parser.cache_info().misses == 1
    assert build_parser.cache_info().hits == 1


def test_outputs_are_deterministic(monkeypatch, capsys):
    outs = []
    for _ in range(2):
        _, out, _ = run(["report", "--json"], STAIR11, monkeypatch, capsys)
        outs.append(out)
    assert outs[0] == outs[1]
    runs = []
    for _ in range(2):
        _, out, _ = run(
            ["verify", "--suite", "hs-duality", "--count", "4", "--seed", "9",
             "--json"],
            None,
            monkeypatch,
            capsys,
        )
        runs.append(out)
    assert runs[0] == runs[1]


def test_stdout_matches_benchmark_digests(monkeypatch, capsys):
    """Replay a fixed subset of the benchmark's recorded ops through main and
    compare stdout digests byte for byte.

    Rule: of the ops whose quotient has dim <= 12, every 8th key in sorted
    order.  Keys sort by command, so every command is covered.
    """
    recorded = json.loads(DIGESTS.read_text())["ops"]
    small = [
        key for key in sorted(recorded)
        if len(staircase(*parse_input(key.split(" <- ", 1)[1]))) <= 12
    ]
    chosen = small[::8]
    commands = {key.split(" <- ")[0] for key in chosen}
    assert {c.split()[0] for c in commands} == {
        "basis", "socle", "dual", "hilbert", "classify", "radical", "diagram",
        "report",
    }
    assert any(c.startswith("classify --ideal") for c in commands)
    for key in chosen:
        argv, text = key.split(" <- ", 1)
        rc, out, _ = run(argv.split(), text, monkeypatch, capsys)
        assert rc == 0, key
        assert hashlib.sha256(out.encode()).hexdigest() == recorded[key], key


def test_stdout_matches_golden_forms(monkeypatch, capsys):
    """Every command form of tests/golden_cli.json (svg, json and --dual
    diagrams, --json output, rational --ideal generators, radical --seed 3)
    on every input there, error inputs included: exit code and stdout."""
    golden = json.loads(GOLDEN.read_text())
    changed = []
    for argv, digests in zip(golden["forms"], golden["sha256"]):
        for text, want in zip(golden["inputs"], digests):
            rc, out, _ = run(list(argv), text, monkeypatch, capsys)
            if hashlib.sha256(f"{rc}\n{out}".encode()).hexdigest() != want:
                changed.append((" ".join(argv), text))
    assert changed == []


# functions that build a derived structure; each runs once per module at most
STRUCTURES = (
    ("quotient", "staircase"),
    ("quotient", "hilbert"),
    ("quotient", "positive_degree_span"),
    ("reduced", "outside_corners"),
    ("inverse", "inverse_system"),
)


def _count_structures(monkeypatch) -> Counter:
    """Count calls per (function, first argument), wherever the function
    is imported.  The first argument is the module, or the variable set of a
    staircase walk."""
    calls: Counter = Counter()
    kept = []  # holds every counted argument, so no id is reused

    def counted(name, original):
        def wrapper(*args):
            kept.append(args[0])
            calls[name, id(args[0])] += 1
            return original(*args)
        return wrapper

    for home, name in STRUCTURES:
        original = getattr(sys.modules[f"artquot.{home}"], name)
        wrapper = counted(name, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("artquot") and getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, wrapper)
    return calls


@pytest.mark.parametrize(
    "argv",
    [
        ["basis"], ["socle"], ["dual"], ["hilbert"], ["classify"], ["radical"],
        ["report"], ["diagram"], ["diagram", "--dual"],
        ["diagram", "--format", "svg", "--dual"],
        ["diagram", "--format", "json", "--dual"],
    ],
    ids=" ".join,
)
def test_each_command_builds_each_structure_once(argv, monkeypatch, capsys):
    calls = _count_structures(monkeypatch)
    rc, _, _ = run(argv, FLAT7, monkeypatch, capsys)
    assert rc == 0
    assert "staircase" in {name for name, _ in calls}  # the wrappers are live
    assert sorted(name for (name, _), n in calls.items() if n > 1) == []
