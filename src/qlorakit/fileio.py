"""Atomic artifact writes, checked text reads, and the JSONL row codec.

Every artifact is written to a temp file in its target directory, which
the writer creates if it is missing, and then moved over the target with
os.replace, so a reader sees either the old file or the complete new
one. A writer that fails part-way leaves the old file untouched and
removes its temp file. (No fsync: this guards against failed or
interrupted writers, not against power loss.)

The readers turn any undecodable content (bytes that are not UTF-8,
invalid JSON or JSON nested deeper than 256 levels, a non-integer where
an integer belongs) into InputError, so a bad file never escapes
untyped. json_value is the one JSON decoder of the package: the nesting
cap, not the depth of the caller's stack, decides deep input. A message
quotes at most 60 characters of a bad value (echo).

Every JSONL artifact holds one dataclass row per line, keys being the
dataclass's fields in field order: write_jsonl and read_dataclass_jsonl
are the one codec for all of them, at one decoder call per line read. A
row type lists its rules once (_rules: field, check over a column that
raises the first bad value's InputError), and its __post_init__ runs
them on one row (check_row). A file of str, int, bool and dict fields is
read column by column when every row has exactly the keys (in any order)
and the types write_jsonl writes, each int lies in int64, each dict is
sorted by key and the rules pass on each column's distinct values:
from_columns builds the instances with no __init__ call. Any other file
takes every check row by row, in field order, the only path that words a
message (a dict's row type words its faults).
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import operator
import os
import re
import secrets
from itertools import accumulate, groupby, repeat

from .errors import InputError


@contextlib.contextmanager
def atomic_write(path, binary: bool = False):
    """Like open(path, "wb" if binary else "w") with UTF-8 text, but atomic,
    and the target's directory is created first."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
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


def echo(value) -> str:
    """repr(value) for a message: its first ECHO_CHARS characters, then "..." if longer."""
    text = repr(value)
    return text[:ECHO_CHARS] + "..." if len(text) > ECHO_CHARS else text


def json_value(text: str, where, kind=dict, line=None):
    """The JSON value of type kind (dict or list) text holds; where, or
    where:line if a line number is given, names its source in the InputError.
    Text nested deeper than MAX_JSON_DEPTH never reaches the decoder, so no
    caller's stack depth changes an outcome."""
    if (len(text) > MAX_JSON_DEPTH  # a shorter text cannot nest deeper: skip the count
            and text.count("[") + text.count("{") > MAX_JSON_DEPTH  # bounds the depth
            and max(accumulate(_STEP[c] for c in re.findall(_NESTING, text)),
                    default=0) > MAX_JSON_DEPTH):
        raise InputError(f"{_at(where, line)}: invalid JSON: nested deeper than "
                         f"{MAX_JSON_DEPTH} levels")
    try:
        value, end = _decode(text, 0)
    except (ValueError, StopIteration):  # StopIteration: no JSON value starts the text
        end = None
    if end != len(text):  # json.loads allows whitespace around the value and words each fault
        try:
            value = json.loads(text)
        except ValueError as exc:
            raise InputError(f"{_at(where, line)}: invalid JSON: {exc}") from exc
    if type(value) is not kind:
        raise InputError(f"{_at(where, line)}: expected a JSON "
                         f"{'object' if kind is dict else 'array'}")
    return value


def _encoded(column) -> map:
    """json.dumps(value, ensure_ascii=False) of each value: a column of str or of
    int by json's own function for it (the encoder's set-up costs more than a
    value), any other by the encoder."""
    kinds = set(map(type, column))
    return map(_quote if kinds == {str} else repr if kinds == {int} else _encode, column)


def read_json(path) -> dict:
    """The one JSON object a UTF-8 file holds."""
    return json_value("".join(read_lines(path)), path)


def json_int(value, what: str) -> int:
    """A decoded integer field: an int or integral float within int64;
    bools, strings and anything else are rejected."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if (not isinstance(value, int) or isinstance(value, bool)
            or not -2**63 <= value < 2**63):
        raise InputError(f"{what} must be a 64-bit integer, got {echo(value)}")
    return value


# a field annotation (as written, or the class) -> the JSON type of its values
_JSON_TYPES = {"int": int, "str": str, "bool": bool, "list[int]": list, "Mapping[str, str]": dict}
_JSON_NAMES = {str: "string", bool: "boolean", list: "list"}
_decode = json.JSONDecoder().scan_once  # json.loads without its per-call checks
_encode = json.JSONEncoder(ensure_ascii=False).encode  # json.dumps without its set-up
_at = lambda where, line: where if line is None else f"{where}:{line}"  # for a message only
_quote = json.encoder.encode_basestring  # what that encoder writes a str with
_line = functools.cache(lambda cls: "{" + ", ".join(  # a row type's line, one %s a field
    _quote(f.name) + ": %s" for f in dataclasses.fields(cls)) + "}\n")
_kinds = functools.cache(lambda cls: {f.name: _JSON_TYPES.get(getattr(f.type, "__name__", f.type))
                                      for f in dataclasses.fields(cls)})  # field -> JSON type
ECHO_CHARS = 60  # a message quotes at most this much of a bad value, then "..."
MAX_JSON_DEPTH = 256  # deeper JSON is refused before decoding
# a JSON string, closed or not, or (as group 1) a bracket outside strings; compiled
# by re on first use, so importing the package does not pay for it
_NESTING = r'(?s)"[^"\\]*(?:\\.[^"\\]*)*"?|([][{}])'
_STEP = {"": 0, "[": 1, "{": 1, "]": -1, "}": -1}


@functools.cache
def _values(cls):  # a row type's instance -> the tuple of its field values, in field order
    names = list(_kinds(cls))
    return operator.attrgetter(*names) if len(names) > 1 else lambda row: (getattr(row, names[0]),)


def write_jsonl(path, rows, cls=None) -> None:
    """Per row, the line json.dumps(fields, ensure_ascii=False) writes. rows are dataclass
    instances with at least one field, or tuples of cls's field values in field order (no
    instance needed); each run of one type is encoded a column at a time into writelines."""
    with atomic_write(path) as fh:
        for kind, run in [(cls, rows)] if cls else groupby(rows, type):
            values = run if cls else map(_values(kind), run)  # tuples, one a row
            fh.writelines(map(_line(kind).__mod__, zip(*map(_encoded, zip(*values)))))


def read_dataclass_jsonl(path, cls, what: str) -> list:
    """cls instances from rows write_jsonl wrote. An unknown key, a missing
    required key, a value of the wrong JSON type for an int, str, bool or
    list[int] field, and anything cls itself rejects are InputErrors naming
    the file. Every line is decoded before any row is checked, so invalid
    JSON on any line wins over a bad row on an earlier one."""
    fields = dataclasses.fields(cls)
    required = {f.name for f in fields if f.default is dataclasses.MISSING
                and f.default_factory is dataclasses.MISSING}
    kinds = _kinds(cls)
    typed = [(name, kind) for name, kind in kinds.items() if kind not in (None, dict)]
    rows = [json_value(text, path, dict, lineno)
            for lineno, line in enumerate(read_lines(path), 1) if (text := line.strip())]
    if (out := from_columns(cls, rows)) is not None:
        return out
    out = []
    for row in rows:
        try:
            if not kinds.keys() >= row.keys() >= required:
                unknown = sorted(row.keys() - kinds.keys())
                if unknown:
                    raise InputError(f"unknown {what} key {echo(unknown[0])}")
                raise InputError(f"missing {what} key {min(required - row.keys())!r}")
            for name, kind in typed:
                if name not in row:
                    continue
                if kind is int:
                    row[name] = json_int(row[name], name)  # an integral float reads as int
                elif type(row[name]) is not kind:
                    raise InputError(f"{name} must be a JSON {_JSON_NAMES[kind]}")
                elif kind is list:
                    row[name] = [json_int(value, f"{name} item") for value in row[name]]
            out.append(cls(**row))
        except InputError as exc:
            raise InputError(f"{path}: {exc}") from exc
    return out


def check_row(row) -> None:
    """A row type's __post_init__: each of its _rules on a one-row column."""
    values = vars(row)
    for name, check in row._rules:
        check((values[name],), name)


def from_columns(cls, rows: list) -> list | None:
    """cls instances with no __init__ call, each holding one of rows (dicts of cls's
    fields) as its attributes, if rows pass the module docstring's column checks; else None."""
    kinds = _kinds(cls)
    if (rows and len(kinds) > 1 and {str, int, bool, dict}.issuperset(kinds.values())
            and set(map(len, rows)) == {len(kinds)}):
        with contextlib.suppress(KeyError, InputError):  # else None: a row-by-row build words it
            # field -> its values; a KeyError if a row holds another key in a field's place
            columns = dict(zip(kinds, zip(*map(operator.itemgetter(*kinds), rows))))
            if all(set(map(type, column)) == {kind}
                   and (kind is not int or -2**63 <= min(column) <= max(column) < 2**63)
                   and (kind is not dict or list(map(list, column)) == list(map(sorted, column)))
                   for kind, column in zip(kinds.values(), columns.values())):
                for name, check in getattr(cls, "_rules", ()):  # a rule judges each value
                    column = columns[name]  # alone, so a column's distinct values decide it
                    check(column if kinds[name] is dict else tuple(dict.fromkeys(column)), name)
                out = list(map(object.__new__, repeat(cls, len(rows))))
                any(map(object.__setattr__, out, repeat("__dict__"), rows))  # past a frozen guard
                return out
    return None
