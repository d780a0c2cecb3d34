"""The one-owner rule for output directories: fileio.atomic_write creates
the directory of every file it writes, so no other module in src/qlorakit
makes a directory of its own."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qlorakit"


def directory_calls(path) -> list[int]:
    """The lines of path that call makedirs or mkdir, as a bare name or an attribute."""
    tree = ast.parse(path.read_text(), filename=str(path))
    names = ("makedirs", "mkdir")
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None)) in names]


def test_only_the_writer_makes_directories():
    assert directory_calls(PACKAGE / "fileio.py"), "the scan no longer sees atomic_write's call"
    others = {p.name: lines for p in sorted(PACKAGE.glob("*.py"))
              if p.name != "fileio.py" and (lines := directory_calls(p))}
    assert not others, f"directory creation outside fileio.atomic_write: {others}"
