"""The README's claim table and examples match what the package does.

Each `InternalCheckError` raised in `src/artquot` is read with `ast`; its
message, with every interpolated value written as `…`, must appear in
backticks in the table, in full or up to its first `: ` (what follows is
data, such as the two dimensions that disagree).  Each example block that
starts with `$ echo '…' | artquot CMD` is run through `cli.main`, and the
rest of the block must be its stdout, byte for byte.
"""

import ast
import io
import re
import shlex
from pathlib import Path

from artquot.cli import main

ROOT = Path(__file__).resolve().parent.parent


def _templates(node) -> list[str]:
    """The message texts an expression can raise, `…` for each value."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    if isinstance(node, ast.JoinedStr):
        return ["".join(
            part.value if isinstance(part, ast.Constant) else "…"
            for part in node.values
        )]
    if isinstance(node, ast.IfExp):
        return _templates(node.body) + _templates(node.orelse)
    raise AssertionError(f"unreadable InternalCheckError message: {ast.dump(node)}")


def _internal_check_messages() -> dict[str, str]:
    found = {}
    for path in sorted((ROOT / "src" / "artquot").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Raise)
                and isinstance(node.exc, ast.Call)
                and isinstance(node.exc.func, ast.Name)
                and node.exc.func.id == "InternalCheckError"
            ):
                for message in _templates(node.exc.args[0]):
                    found[message] = f"{path.name}:{node.lineno}"
    return found


def _claim_table() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Where each claim is checked", 1)[1].split("\n## ", 1)[0]
    return "\n".join(line for line in section.splitlines() if line.startswith("|"))


def test_every_internal_check_is_documented():
    messages = _internal_check_messages()
    assert len(messages) > 30
    table = _claim_table()
    missing = [
        f"{where}: {message}"
        for message, where in messages.items()
        if f"`{message}`" not in table
        and f"`{message.split(': ', 1)[0]}`" not in table
    ]
    assert missing == []


def _examples() -> list[tuple[str, list[str], str]]:
    """(stdin, argv, expected stdout) of each README example block."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    # the fences alternate, so every other piece is a block's body
    blocks = re.split(r"^```.*\n", readme, flags=re.M)[1::2]
    found = []
    for block in blocks:
        command, _, expected = block.partition("\n")
        match = re.fullmatch(r"\$ echo '(.*)' \| artquot (.*)", command)
        if match:
            found.append((match[1] + "\n", shlex.split(match[2]), expected))
    return found


def test_readme_examples_print_what_they_show(monkeypatch, capsys):
    examples = _examples()
    assert examples
    for stdin, argv, expected in examples:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert (out, err) == (expected, ""), argv
