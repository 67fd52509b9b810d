"""Every exported name has a caller.

A name in `artquot.__all__` earns its place by being used: read somewhere
in `src/artquot` outside its own definition and `__init__.py`, or in a
script under `scripts/`.  Imports do not count as uses, and neither does a
function calling itself.
"""

import ast
from pathlib import Path

import artquot

ROOT = Path(__file__).resolve().parent.parent
# names exempt from the check; an exemption lapses once its name is used
EXEMPT = set()


class _Uses(ast.NodeVisitor):
    """Names read in a module, outside the definition of the same name."""

    def __init__(self):
        self.used = set()
        self._inside = []

    def _definition(self, node):
        self._inside.append(node.name)
        self.generic_visit(node)
        self._inside.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _definition

    def _read(self, name):
        if name not in self._inside:
            self.used.add(name)

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self._read(node.id)

    def visit_Attribute(self, node):
        self._read(node.attr)
        self.generic_visit(node)


def _used_names() -> set:
    files = [
        p for p in sorted((ROOT / "src" / "artquot").glob("*.py"))
        if p.name != "__init__.py"
    ]
    files += sorted((ROOT / "scripts").glob("*.py"))
    uses = _Uses()
    for path in files:
        uses.visit(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    return uses.used


def test_every_export_has_a_caller():
    used = _used_names()
    assert sorted(set(artquot.__all__) - used - EXEMPT) == []
    # an exemption lapses once the name is gone or has a caller
    assert EXEMPT <= set(artquot.__all__)
    assert not EXEMPT & used
