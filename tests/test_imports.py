"""Every name a module in `src/artquot` imports is used in that module.

Read with `ast` alone: a name counts as used when it is loaded anywhere in
the module (an attribute's base included), when a string annotation names
it, or when the module lists it in `__all__`, as the package's re-exports
are.  `from __future__` imports bind no name.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "artquot"


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name the module's imports bind, with its line."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".", 1)[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs:
                yield arg.annotation
            yield from (a.annotation for a in (args.vararg, args.kwarg) if a)
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.Module) -> set[str]:
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for note in _annotations(tree):
        if isinstance(note, ast.Constant) and isinstance(note.value, str):
            parsed = ast.parse(note.value, mode="eval")
            used |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return used


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = _used(tree)
    return [
        f"line {line}: {name}"
        for name, line in sorted(_imported(tree).items(), key=lambda kv: kv[1])
        if name not in used
    ]


def test_no_module_imports_a_name_it_never_uses():
    unused = {
        path.name: found
        for path in sorted(SRC.glob("*.py"))
        if (found := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert unused == {}


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from itertools import chain, repeat as rep\n"
        "from typing import Sequence\n"
        "from .linalg import SlotMap\n"
        "__all__ = ['chain']\n"
        "def f(x: 'Sequence[int]') -> int:\n"
        "    return os.sep\n"
    )
    assert unused_imports(source) == ["line 3: rep", "line 5: SlotMap"]
