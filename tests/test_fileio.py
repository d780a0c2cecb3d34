"""Atomic artifact writes: a writer that fails part-way leaves the old
file byte-identical and no temp file behind."""

import os

import pytest

from qlorakit.evalharness import Prediction
from qlorakit.fileio import atomic_write, write_jsonl


def test_complete_write_replaces_the_file(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old\n")
    with atomic_write(path) as fh:
        fh.write("new\n")
    assert path.read_text() == "new\n"
    with atomic_write(path, binary=True) as fh:
        fh.write(b"\x00\xff")
    assert path.read_bytes() == b"\x00\xff"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_failed_writer_leaves_old_file_and_no_temp(tmp_path):
    path = tmp_path / "preds.jsonl"
    write_jsonl(path, [Prediction("scn-1", 0, "yes")])
    old = path.read_bytes()
    # the second row cannot be serialized, after the first was written
    rows = [Prediction("scn-1", 0, "no"), Prediction("scn-1", 1, object())]
    with pytest.raises(TypeError):
        write_jsonl(path, rows)
    assert path.read_bytes() == old
    assert os.listdir(tmp_path) == ["preds.jsonl"]


def test_the_writer_creates_the_target_directory(tmp_path):
    path = tmp_path / "a" / "b" / "x.jsonl"
    write_jsonl(path, [Prediction("scn-1", 0, "yes")])
    assert path.read_text() == '{"scenario_id": "scn-1", "pair_index": 0, "raw_answer": "yes"}\n'
    assert os.listdir(tmp_path / "a") == ["b"] and os.listdir(path.parent) == ["x.jsonl"]


def test_failed_first_write_creates_nothing(tmp_path):
    path = tmp_path / "new.txt"
    with pytest.raises(RuntimeError):
        with atomic_write(path) as fh:
            fh.write("partial")
            raise RuntimeError("writer failed")
    assert os.listdir(tmp_path) == []
