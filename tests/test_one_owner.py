"""One-owner rules, checked on the source of src/qlorakit:

- fileio.atomic_write creates the directory of every file it writes, so
  no other module makes a directory of its own;
- fileio.json_value is the one JSON decoder, with its nesting cap, so no
  other module decodes JSON, and no module handles RecursionError."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qlorakit"
# the attribute or name each node kind carries
_NAMED = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}


def directory_calls(path) -> list[int]:
    """The lines of path that call makedirs or mkdir, as a bare name or an attribute."""
    tree = ast.parse(path.read_text(), filename=str(path))
    names = ("makedirs", "mkdir")
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None)) in names]


def name_uses(path, names) -> list[int]:
    """The lines of path that name one of names: a bare name, an attribute or an import."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [node.lineno for node in ast.walk(tree)
            if type(node) in _NAMED and getattr(node, _NAMED[type(node)]) in names]


def test_only_the_writer_makes_directories():
    assert directory_calls(PACKAGE / "fileio.py"), "the scan no longer sees atomic_write's call"
    others = {p.name: lines for p in sorted(PACKAGE.glob("*.py"))
              if p.name != "fileio.py" and (lines := directory_calls(p))}
    assert not others, f"directory creation outside fileio.atomic_write: {others}"


def test_only_fileio_decodes_json():
    decoders = ("loads", "raw_decode", "JSONDecoder")
    assert name_uses(PACKAGE / "fileio.py", decoders), "the scan no longer sees fileio's decoder"
    others = {p.name: lines for p in sorted(PACKAGE.glob("*.py"))
              if p.name != "fileio.py" and (lines := name_uses(p, decoders))}
    assert not others, f"JSON decoding outside fileio.json_value: {others}"


def test_no_module_handles_recursion_error():
    uses = {p.name: lines for p in sorted(PACKAGE.glob("*.py"))
            if (lines := name_uses(p, ("RecursionError",)))}
    assert not uses, f"RecursionError named in: {uses}"
