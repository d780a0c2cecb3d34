"""Atomic artifact writes.

Every artifact is written to a temp file in its target directory and then
moved over the target with os.replace, so a reader sees either the old
file or the complete new one. A writer that fails part-way leaves the
old file untouched and removes its temp file. (No fsync: this guards
against failed or interrupted writers, not against power loss.)
"""

from __future__ import annotations

import contextlib
import os
import secrets


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
