"""Atomic artifact writes and checked text reads.

Every artifact is written to a temp file in its target directory and then
moved over the target with os.replace, so a reader sees either the old
file or the complete new one. A writer that fails part-way leaves the
old file untouched and removes its temp file. (No fsync: this guards
against failed or interrupted writers, not against power loss.)

The readers turn any undecodable content (bytes that are not UTF-8,
invalid or too deeply nested JSON, a non-integer where an integer
belongs) into InputError, so a bad file never escapes untyped.
"""

from __future__ import annotations

import contextlib
import json
import os
import secrets

from .errors import InputError


@contextlib.contextmanager
def atomic_write(path, binary: bool = False):
    """Like open(path, "wb" if binary else "w") with UTF-8 text, but atomic."""
    head, tail = os.path.split(os.path.abspath(path))
    tmp = os.path.join(head, f".{tail}.{secrets.token_hex(6)}.tmp")
    fh = open(tmp, "xb") if binary else open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def read_lines(path) -> list[str]:
    """The lines of a UTF-8 text file (universal newlines, line ends kept)."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.readlines()
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def read_jsonl(path) -> list[dict]:
    """One JSON object per non-blank line."""
    rows = []
    for lineno, line in enumerate(read_lines(path), 1):
        line = line.strip()
        if not line:
            continue
        try:
            row = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise InputError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
        if not isinstance(row, dict):
            raise InputError(f"{path}:{lineno}: expected a JSON object")
        rows.append(row)
    return rows


def json_int(value, what: str) -> int:
    """A decoded integer field: an int or integral float within int64;
    bools, strings and anything else are rejected."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if (not isinstance(value, int) or isinstance(value, bool)
            or not -2**63 <= value < 2**63):
        raise InputError(f"{what} must be a 64-bit integer, got {value!r}")
    return value
