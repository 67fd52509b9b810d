"""Every `InternalCheckError` in src/artquot has a test that makes it fire.

`FIRED` names, for each message `tests/test_docs.py` collects, the test
that breaks one reading of the check and sees that message.  A message
that no test fires is listed in `ALLOWED` with its reason instead.  The
test fails on a message in neither, on a named test that does not exist,
and on an entry whose message is gone from src/.  The suite checks fire
here, each through `run_suite` with one piece of its case replaced.
"""

import ast
import dataclasses
import io
from pathlib import Path
from types import SimpleNamespace

import pytest

from artquot import radical, suites
from artquot.cli import main
from artquot.inverse import hilbert_duality_check, inverse_system
from artquot.linalg import Subspace
from artquot.quotient import QuotientModule
from artquot.reduced import outside_corners
from artquot.ring import InternalCheckError, parse_input
from artquot.suites import run_suite
from test_docs import _internal_check_messages

TESTS = Path(__file__).resolve().parent
FLAT7 = "ring x,y; ideal x^4, x^3*y, y^2"

SELF_READING = "reads M's shift slots on both sides; ROADMAP item 1"
ALLOWED = {
    "corner span and maximal-ideal annihilator disagree: dims … vs …": SELF_READING,
    "contraction image differs from the span of non-maximal duals": SELF_READING,
}

FIRED = {
    # inverse.py
    "dual staircase is not downward closed":
        "test_inverse.py::test_downward_closure_check_is_live",
    "dual staircase monomial … not annihilated by a generator":
        "test_inverse.py::test_generator_annihilation_check_is_live",
    "non-staircase dual monomial … annihilated by every generator":
        "test_inverse.py::test_non_staircase_survival_check_is_live",
    "Hilbert series of M and I-perp differ":
        "test_inverse.py::test_hilbert_duality_check_is_live",
    "Hilbert series of the reduced part and its dual differ":
        "test_live_checks.py::test_reduced_hilbert_check_is_live",
    "reduced witness fails to kill …":
        "test_inverse.py::test_truncated_dual_checks_are_live",
    "power witness fails to kill …":
        "test_inverse.py::test_truncated_dual_checks_are_live",
    "reduced witness wrongly kills …":
        "test_inverse.py::test_truncated_dual_checks_are_live",
    "variable witness wrongly kills …":
        "test_inverse.py::test_truncated_dual_checks_are_live",
    "trailing variable fails to annihilate …":
        "test_inverse.py::test_truncated_dual_checks_are_live",
    "a positive-degree monomial moved 1":
        "test_inverse.py::test_truncated_dual_checks_are_live",
    # radical.py
    "a variable failed to be nilpotent":
        "test_radical.py::test_nilpotency_check_is_live",
    "a unit-like polynomial had a vanishing power on a nonzero element":
        "test_radical.py::test_unit_check_is_live",
    "Jacobson radical differs from the envelope of zero":
        "test_live_checks.py::test_jacobson_check_is_live",
    "expected a monomial-spanned subspace":
        "test_radical.py::test_semiprime_needs_a_monomial_spanned_radical",
    "semiprime intersection differs from the envelope of zero":
        "test_radical.py::test_mask_checks_are_live",
    "submodule envelope differs from N + m*M":
        "test_radical.py::test_mask_checks_are_live",
    # reduced.py
    "coreduced criterion said yes but sampling found aN != a^2 N":
        "test_socle.py::test_coreduced_sampling_checks_are_live",
    "coreduced criterion said no but sampling found no violation":
        "test_socle.py::test_coreduced_sampling_checks_are_live",
    # suites.py
    "corner span has the wrong dimension":
        "test_live_checks.py::test_suite_checks_are_live",
    "oracle fixed set differs from the corner set":
        "test_live_checks.py::test_suite_checks_are_live",
    "inverse system does not round-trip to the ideal":
        "test_live_checks.py::test_suite_checks_are_live",
    "dual corners do not mirror the staircase corners":
        "test_live_checks.py::test_suite_checks_are_live",
    "the socle failed the coreducedness criterion":
        "test_live_checks.py::test_suite_checks_are_live",
    "duality items failed: …":
        "test_live_checks.py::test_suite_checks_are_live",
    "classification is not conjugation invariant":
        "test_live_checks.py::test_suite_checks_are_live",
    "double dual changed the action":
        "test_live_checks.py::test_suite_checks_are_live",
    "radical formula checks did not complete":
        "test_live_checks.py::test_suite_checks_are_live",
    "semiprime submodule is not unique":
        "test_live_checks.py::test_suite_checks_are_live",
    # torsion.py
    "M is not the direct sum of its torsion part and J^inf M":
        "test_torsion.py::test_split_check_fires_when_the_power_is_too_small",
    "semisimple module with proper torsion levels":
        "test_torsion.py::test_semisimple_collapse_check_is_live",
    "reduced module with a deeper torsion part":
        "test_torsion.py::test_reduced_collapse_check_is_live",
    "coreduced module with a deeper completion":
        "test_torsion.py::test_coreduced_collapse_check_is_live",
}


def _test_names(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}


def test_every_check_fires_in_a_test_or_is_allowed():
    messages = set(_internal_check_messages())
    assert set(FIRED).isdisjoint(ALLOWED)
    assert sorted(messages - set(FIRED) - set(ALLOWED)) == []
    assert sorted(set(FIRED) - messages) == []
    assert sorted(set(ALLOWED) - messages) == []
    missing = []
    for message, where in FIRED.items():
        file, name = where.split("::")
        if not (TESTS / file).is_file() or name not in _test_names(TESTS / file):
            missing.append(f"{message}: {where}")
    assert missing == []


def test_reduced_hilbert_check_is_live():
    # one corner of FLAT7 dropped: the reduced part reads t^3 against the
    # dual corners' 2t^3
    module = QuotientModule(*parse_input(FLAT7))
    corners = outside_corners(module)
    assert len(corners) == 2
    message = "Hilbert series of the reduced part and its dual differ"
    with pytest.raises(InternalCheckError, match=f"^{message}$"):
        hilbert_duality_check(module, inverse_system(module), corners[:1])


def test_jacobson_check_is_live(monkeypatch, capsys):
    # the whole module in place of the positive-degree span
    monkeypatch.setattr(
        radical, "positive_degree_span", lambda m: Subspace.units(m.dim, range(m.dim))
    )
    monkeypatch.setattr("sys.stdin", io.StringIO(FLAT7))
    assert main(["radical"]) == 3
    message = "Jacobson radical differs from the envelope of zero"
    assert capsys.readouterr() == ("", f"internal check failed: {message}\n")


def _replaced(name, **fields):
    """`suites.<name>` with these fields of its frozen report replaced."""
    real = getattr(suites, name)
    return lambda *args, **kwargs: dataclasses.replace(real(*args, **kwargs), **fields)


SUITE_CASES = [
    # (suite, {suites.<name>: stand-in}, message)
    ("socle-equality",
     {"largest_reduced_submodule": lambda m, corners: Subspace.units(m.dim, ())},
     "corner span has the wrong dimension"),
    ("socle-equality", {"reduced_membership_oracle": lambda *args: False},
     "oracle fixed set differs from the corner set"),
    ("hs-duality", {"perp_of_submodule": lambda *args: None},
     "inverse system does not round-trip to the ideal"),
    ("hs-duality",
     {"outside_corners": lambda m: (), "hilbert_duality_check": lambda *args: None},
     "dual corners do not mirror the staircase corners"),
    ("coreduced", {"is_coreduced_subspace": lambda *args: False},
     "the socle failed the coreducedness criterion"),
    ("ttf-duality",
     {"verify_ttf_duality": _replaced("verify_ttf_duality", items=("fail",) * 3)},
     "duality items failed: ('fail', 'fail', 'fail')"),
    ("ttf-duality", {"classify": lambda *args: None},
     "classification is not conjugation invariant"),
    ("ttf-duality", {"matlis_dual": lambda m: SimpleNamespace(action=())},
     "double dual changed the action"),
    ("radical",
     {"satisfies_radical_formula":
      _replaced("satisfies_radical_formula", enumeration_skipped=True)},
     "radical formula checks did not complete"),
    ("radical",
     {"satisfies_radical_formula":
      _replaced("satisfies_radical_formula", semiprime_unique=False)},
     "semiprime submodule is not unique"),
]


@pytest.mark.parametrize("suite, stand_ins, message", SUITE_CASES)
def test_suite_checks_are_live(suite, stand_ins, message, monkeypatch):
    assert run_suite(suite, 1, 0).ok
    for name, stand_in in stand_ins.items():
        monkeypatch.setattr(suites, name, stand_in)
    result = run_suite(suite, 1, 0)
    assert [f["error"] for f in result.failures] == [f"InternalCheckError: {message}"]
