"""Smoke runs of the scripts under scripts/, in process.

The scripts import the public API by name, so a renamed or removed name
shows up here rather than only when someone runs them.
"""

import importlib.util
import io
import sys
from pathlib import Path

from artquot import SUITE_NAMES

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_worked_examples_run(monkeypatch, capsys):
    # the script swaps sys.stdin to feed the CLI; monkeypatch restores it
    monkeypatch.setattr(sys, "stdin", io.StringIO(""))
    assert load("worked_examples").run() == 0
    out = capsys.readouterr().out
    assert out.count("== ") == 4
    assert "corners: x^3, x^2*y" in out


def test_run_verification_quick_pass(capsys):
    assert load("run_verification").run(["--scale", "0.1"]) == 0
    out = capsys.readouterr().out
    # one line per suite, then the truncated-dual line
    assert out.count(" ok (") == len(SUITE_NAMES) + 1
    assert "truncated-dual   36/36 ok (" in out
