"""Atomic artifact writes: a writer that fails part-way leaves the old
file byte-identical and no temp file behind. The JSONL codec: the writer
writes json.dumps's bytes, and the reader agrees with the per-line
reference reader on records and on every error message."""

import dataclasses
import enum
import importlib
import json
import os
import pkgutil

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import qlorakit
from conftest import reference_read_dataclass_jsonl
from qlorakit.cli import main
from qlorakit.errors import InputError
from qlorakit.evalharness import Prediction
from qlorakit.fileio import atomic_write, read_dataclass_jsonl, write_jsonl
from qlorakit.qagen import (QARecord, RejectRecord, ScenarioAnnotation, read_records_jsonl,
                            read_scenarios_jsonl)
from qlorakit.tasks import TokenExample


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


# ---- the JSONL codec ----

class IntFlag(enum.IntEnum):
    A = 7


class StrName(str, enum.Enum):
    B = "b\u00e9"


CODEC = settings(max_examples=150, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])

# valid text for the line-text checks, non-ASCII included, no surrogates and
# none of the line boundaries str.splitlines knows
TEXT = st.text(st.characters(blacklist_categories=("Cs",),
                             blacklist_characters="\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"),
               min_size=1, max_size=8).filter(str.strip)
ID = TEXT.filter(lambda s: s == s.strip())  # a scenario_id has no surrounding whitespace
ROW_TYPES = [  # one strategy per row type
    st.builds(QARecord, ID, TEXT, TEXT, TEXT, st.sampled_from(["scene", "risk"]),
              st.integers(1, 5)),
    st.builds(Prediction, TEXT, st.integers(-2**63, 2**63 - 1), TEXT),
    st.builds(RejectRecord, TEXT, st.integers(0, 9),
              st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)),
    st.builds(TokenExample, st.lists(st.integers(-2**70, 2**70), max_size=4),
              st.integers(-2**70, 2**70)),
    st.builds(ScenarioAnnotation, ID, TEXT, TEXT, st.booleans(), TEXT, TEXT,
              st.dictionaries(st.from_regex(r"x[a-z0-9_]{0,4}", fullmatch=True), TEXT,
                              max_size=3)),
]
ROWS = st.one_of(*ROW_TYPES)


@dataclasses.dataclass
class AnyValues:
    """A row type whose values need not be strings or ints."""
    first: object
    second: object


@dataclasses.dataclass
class OneValue:
    """A row type of one field."""
    only: object


# values the encoder writes: floats (nan and inf too), bools, None, a str or int
# subclass, nested lists and objects
ANY_VALUE = st.recursive(st.none() | st.booleans() | st.floats() | st.integers()
                         | st.text(st.characters(blacklist_categories=("Cs",)), max_size=4)
                         | st.sampled_from([IntFlag.A, StrName.B]),
                         lambda inner: st.lists(inner, max_size=3)
                         | st.dictionaries(st.text(max_size=3), inner, max_size=2), max_leaves=4)
ANY_ROWS = st.builds(AnyValues, ANY_VALUE, ANY_VALUE)
ONE_ROWS = st.builds(OneValue, ANY_VALUE)


def reference_bytes(rows) -> bytes:
    return b"".join((json.dumps({f.name: getattr(r, f.name) for f in dataclasses.fields(r)},
                                ensure_ascii=False) + "\n").encode("utf-8") for r in rows)


@CODEC
@given(rows=st.lists(ROWS | ANY_ROWS | ONE_ROWS, max_size=6))
def test_writer_writes_the_bytes_of_json_dumps(tmp_path, rows):
    path = tmp_path / "rows.jsonl"
    write_jsonl(path, rows)
    assert path.read_bytes() == reference_bytes(rows)


@CODEC
@given(data=st.data())
def test_writer_of_field_tuples_writes_the_bytes_of_their_rows(tmp_path, data):
    """Rows given as tuples of one type's fields write what the instances write."""
    rows = data.draw(st.one_of(*[st.lists(rows, min_size=1, max_size=6)
                                 for rows in ROW_TYPES + [ANY_ROWS, ONE_ROWS]]))
    path = tmp_path / "rows.jsonl"
    fields = [f.name for f in dataclasses.fields(rows[0])]
    write_jsonl(path, (tuple(getattr(row, name) for name in fields) for row in rows),
                type(rows[0]))
    assert path.read_bytes() == reference_bytes(rows)


def test_predict_writes_the_bytes_of_its_prediction_rows(tmp_path, monkeypatch):
    from qlorakit import tasks
    scenarios, data, run = tmp_path / "scenarios.jsonl", tmp_path / "data", tmp_path / "run"
    for argv in (["make-scenarios", "--n", "12", "--out", str(scenarios)],
                 ["gen-data", "--scenarios", str(scenarios), "--out", str(data)],
                 ["split", "--corpus", str(data / "corpus.jsonl"), "--out", str(data)],
                 ["train", "--data", str(data), "--out", str(run)]):
        assert main(argv) == 0, argv
    returned = []
    predict_answers = tasks.predict_answers
    monkeypatch.setattr(tasks, "predict_answers",
                        lambda *args: returned.append(predict_answers(*args)) or returned[-1])
    assert main(["predict", "--run", str(run), "--data", str(data),
                 "--out", str(tmp_path / "preds.jsonl"), "--split", "all"]) == 0
    [rows] = returned
    assert len(rows) == 60
    write_jsonl(tmp_path / "expected.jsonl", [Prediction(*row) for row in rows])
    assert (tmp_path / "preds.jsonl").read_bytes() == (tmp_path / "expected.jsonl").read_bytes()


def test_writer_of_no_rows_writes_an_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    write_jsonl(path, iter(()))
    assert path.read_bytes() == b""


def test_raising_row_generator_leaves_old_file_and_no_temp(tmp_path):
    path = tmp_path / "preds.jsonl"
    write_jsonl(path, [Prediction("scn-1", 0, "ja")])
    old = path.read_bytes()

    def rows():
        yield Prediction("scn-1", 0, "nein")
        raise RuntimeError("row source failed")

    with pytest.raises(RuntimeError):
        write_jsonl(path, rows())
    assert path.read_bytes() == old
    assert os.listdir(tmp_path) == ["preds.jsonl"]


VALID = {
    QARecord: {"scenario_id": "s-1", "image_ref": "img/1.jpg", "question": "Risk?",
               "answer": "ja", "category": "risk", "pair_index": 2},
    Prediction: {"scenario_id": "s-1", "pair_index": 2, "raw_answer": "ja"},
    ScenarioAnnotation: {"scenario_id": "s-1", "image_ref": "img/1.jpg", "caption": "Straße",
                         "risk_present": True, "suggested_action": "brake",
                         "road_type": "urban", "extra": {"agent": "cyclist"}},
    TokenExample: {"tokens": [3, 1, 4], "label": 1},
}
# pinned edge values (lone surrogates, integral floats, 2**63, blank text) or any JSON value
# and values of the right type that fail one of QARecord's column checks
VALUES = st.sampled_from([1.0, 2.5, 2**63, "", " ", "\ud800", "q\udc80?", "scene", "x\ny",
                          "\t", " s-1", "q\x85?", "q\u2028?", "q\t?", "weather", 0, 6]) | \
    st.recursive(st.none() | st.booleans() | st.integers(-2**70, 2**70) | st.floats()
                 | st.text(max_size=6),
                 lambda inner: st.lists(inner, max_size=3)
                 | st.dictionaries(st.text(max_size=4), inner, max_size=2),
                 max_leaves=5)


@st.composite
def rows_of(draw, cls):
    """A valid row of cls with a few keys dropped, added or given another value."""
    row = dict(VALID[cls])
    for _ in range(draw(st.integers(0, 2))):
        key = draw(st.sampled_from(sorted(row) + ["extra", "bogus"]))
        if draw(st.booleans()):
            row.pop(key, None)
        else:
            row[key] = draw(VALUES)
    return row


@st.composite
def files_of(draw, cls):
    """Lines of rows_of(cls), some padded or blank, and at most one line
    that is not one JSON object, at any position."""
    row = rows_of(cls).map(json.dumps)
    lines = draw(st.lists(st.one_of(
        row,
        row.map(lambda r: f" \t{r}\x0c "),  # strip() takes more than JSON whitespace
        st.sampled_from(["", " ", "\t", "\x0c"])), max_size=4))
    sep = st.sampled_from(["", " ", "\t", "\x0c", "  "])
    odd = draw(st.none() | st.one_of(
        row.map(lambda r: "\ufeff" + r),  # a byte-order mark is not whitespace
        st.tuples(row, sep, row).map("".join),  # {..} {..}
        st.tuples(row, sep, st.sampled_from(["garbage", "]", ",", "1", "\ud800"])).map("".join),
        st.tuples(row, st.integers(1, 60)).map(  # a value split across two lines
            lambda rk: rk[0][:rk[1]] + "\n" + rk[0][rk[1]:]),
        # nesting well inside or far beyond the recursion limit; near it, whether
        # a line decodes depends on how deep the stack of the caller already is
        st.tuples(st.sampled_from(["[", '{"a": ']), st.sampled_from([1, 40, 100_000])).map(
            lambda od: od[0] * od[1] + "1" + ("]" if od[0] == "[" else "}") * od[1]),
        VALUES.map(json.dumps),
        st.text(max_size=12)))
    if odd is not None:
        lines.insert(draw(st.integers(0, len(lines))), odd)
    return lines


@pytest.mark.parametrize("cls", list(VALID), ids=lambda cls: cls.__name__)
@CODEC
@given(data=st.data())
def test_reader_matches_the_per_line_reference(tmp_path, cls, data):
    lines = data.draw(files_of(cls))
    newline = data.draw(st.sampled_from(["\n", "\r\n"]))
    path = tmp_path / "rows.jsonl"
    path.write_bytes(newline.join(lines).encode("utf-8", "surrogatepass"))

    def outcome(read):
        try:
            return read(path, cls, "row")
        except InputError as exc:
            return f"InputError: {exc}"

    assert outcome(read_dataclass_jsonl) == outcome(reference_read_dataclass_jsonl)


def swap(row: dict, key: str, value) -> dict:
    return {k: value if k == key else v for k, v in row.items()}


def without(row: dict, key: str) -> dict:
    return {k: v for k, v in row.items() if k != key}


# rows a valid row's key order and value types alone do not vouch for, each
# next to rows that keep both and fail only a range, text or category check
FAST_PATH_EDGES = {
    "as-written": (QARecord, VALID[QARecord]),
    "keys-reordered": (QARecord, dict(reversed(VALID[QARecord].items()))),
    "extra-first": (ScenarioAnnotation,
                    {"extra": {"agent": "cyclist"}, **without(VALID[ScenarioAnnotation], "extra")}),
    "integral-float-pair-index": (QARecord, swap(VALID[QARecord], "pair_index", 3.0)),
    "bool-pair-index": (QARecord, swap(VALID[QARecord], "pair_index", True)),
    "bool-label": (TokenExample, swap(VALID[TokenExample], "label", False)),
    "float-token": (TokenExample, swap(VALID[TokenExample], "tokens", [3, 1.0, 4])),
    "extra-omitted": (ScenarioAnnotation, without(VALID[ScenarioAnnotation], "extra")),
    "extra-not-an-object": (ScenarioAnnotation,
                            swap(VALID[ScenarioAnnotation], "extra", ["agent"])),
    "unknown-key": (Prediction, {**VALID[Prediction], "bogus": 1}),
    "missing-key": (Prediction, without(VALID[Prediction], "raw_answer")),
    "bad-str-after-bad-int": (Prediction,
                              swap(swap(VALID[Prediction], "pair_index", "2"), "raw_answer", 7)),
    "int-out-of-range": (Prediction, swap(VALID[Prediction], "pair_index", 2**63)),
    "token-out-of-range": (TokenExample, swap(VALID[TokenExample], "tokens", [3, -2**63 - 1])),
    "token-not-an-int": (TokenExample, swap(VALID[TokenExample], "tokens", [3, "1"])),
    "pair-index-outside-1-5": (QARecord, swap(VALID[QARecord], "pair_index", 9)),
    "pair-index-0": (QARecord, swap(VALID[QARecord], "pair_index", 0)),
    "pair-index-6": (QARecord, swap(VALID[QARecord], "pair_index", 6)),
    "lone-surrogate": (QARecord, swap(VALID[QARecord], "question", "q\udc80?")),
    "line-separator": (QARecord, swap(VALID[QARecord], "question", "q\u2028?")),
    "next-line": (QARecord, swap(VALID[QARecord], "answer", "j\x85a")),
    "blank-text": (QARecord, swap(VALID[QARecord], "image_ref", "")),
    "tab-only-text": (QARecord, swap(VALID[QARecord], "answer", "\t")),
    "tab-in-text": (QARecord, swap(VALID[QARecord], "question", "Risk\tahead?")),
    "id-with-leading-space": (QARecord, swap(VALID[QARecord], "scenario_id", " s-1")),
    "unknown-category": (QARecord, swap(VALID[QARecord], "category", "weather")),
    # the second row's bad column comes first in field order; the first row's message wins
    "two-faults": (QARecord, swap(VALID[QARecord], "category", "weather"),
                   swap(VALID[QARecord], "question", "")),
}
# each of ScenarioAnnotation's rules, broken in a row that keeps the written keys and types
SCENARIO = VALID[ScenarioAnnotation]
FAST_PATH_EDGES.update({
    f"{fault}-{name}": (ScenarioAnnotation, swap(SCENARIO, name, text))
    for name in ("scenario_id", "image_ref", "caption", "suggested_action", "road_type")
    for fault, text in (("blank", " "), ("line-break", "a\u2028b"), ("lone-surrogate", "a\ud800"))})
FAST_PATH_EDGES.update({
    "scenario-id-with-trailing-space": (ScenarioAnnotation, swap(SCENARIO, "scenario_id", "s-1 ")),
    "risk-present-not-a-bool": (ScenarioAnnotation, swap(SCENARIO, "risk_present", 1)),
    "bad-extra-key": (ScenarioAnnotation, swap(SCENARIO, "extra", {"Agent": "cyclist"})),
    "extra-key-names-a-field": (ScenarioAnnotation, swap(SCENARIO, "extra", {"caption": "x"})),
    "extra-value-with-a-line-break": (ScenarioAnnotation,
                                      swap(SCENARIO, "extra", {"agent": "cyc\nlist"})),
    "extra-value-not-text": (ScenarioAnnotation, swap(SCENARIO, "extra", {"agent": 7})),
    "extra-unsorted": (ScenarioAnnotation,
                       swap(SCENARIO, "extra", {"weather": "rain", "agent": "cyclist"})),
    "extra-tab-in-value": (ScenarioAnnotation, swap(SCENARIO, "extra", {"agent": "cyc\tlist"})),
})


@pytest.mark.parametrize("case", list(FAST_PATH_EDGES))
def test_reader_matches_the_reference_on_and_off_the_fast_path(tmp_path, case):
    cls, *rows = FAST_PATH_EDGES[case]
    path = tmp_path / "rows.jsonl"
    path.write_bytes("".join(json.dumps(row) + "\n" for row in [VALID[cls], *rows]).encode())

    def outcome(read):
        try:
            return read(path, cls, "row")
        except InputError as exc:
            return f"InputError: {exc}"

    got = outcome(read_dataclass_jsonl)
    assert got == outcome(reference_read_dataclass_jsonl)
    assert isinstance(got, list) == (case in (
        "as-written", "keys-reordered", "extra-first", "integral-float-pair-index",
        "float-token", "extra-omitted", "tab-in-text", "extra-unsorted",
        "extra-tab-in-value")), got
    if case == "two-faults":
        assert got.endswith("category 'weather' not in ('scene', 'agent', 'suggested_action', "
                            "'risk')"), got


def test_a_corpus_as_written_is_read_without_post_init(tmp_path, monkeypatch):
    """The demo's corpus is read column by column, with no QARecord.__post_init__
    call; one row off that path sends every row of the file through it."""
    scenarios, data = tmp_path / "scenarios.jsonl", tmp_path / "data"
    assert main(["make-scenarios", "--n", "400", "--out", str(scenarios), "--seed", "0"]) == 0
    assert main(["gen-data", "--scenarios", str(scenarios), "--out", str(data),
                 "--seed", "0"]) == 0
    corpus = data / "corpus.jsonl"
    calls = []
    post_init = QARecord.__post_init__
    monkeypatch.setattr(QARecord, "__post_init__",
                        lambda record: calls.append(record) or post_init(record))
    records = read_records_jsonl(corpus)
    assert len(records) == 2000 and calls == []
    assert records == reference_read_dataclass_jsonl(corpus, QARecord, "record")
    assert {type(r) for r in records} == {QARecord}
    assert {type(r.pair_index) for r in records} == {int}
    calls.clear()  # the reference reader's own
    with open(corpus, "a", encoding="utf-8") as fh:  # a tab is accepted, though not printable
        fh.write(json.dumps(swap(VALID[QARecord], "question", "Risk\tahead?")) + "\n")
    again = read_records_jsonl(corpus)
    assert again[:-1] == records and again[-1].question == "Risk\tahead?" and calls == []
    with open(corpus, "a", encoding="utf-8") as fh:  # a row that fails a rule
        fh.write(json.dumps(swap(VALID[QARecord], "category", "weather")) + "\n")
    with pytest.raises(InputError, match="category 'weather' not in"):
        read_records_jsonl(corpus)
    assert len(calls) == 2002 and calls[:2001] == again


def test_scenarios_as_written_are_read_without_post_init(tmp_path, monkeypatch):
    """The demo's scenarios file is read column by column, with no
    ScenarioAnnotation.__post_init__ call; an unsorted extra sends every row
    through it, reads back sorted and writes the bytes a sorted one writes."""
    scenarios = tmp_path / "scenarios.jsonl"
    assert main(["make-scenarios", "--n", "400", "--out", str(scenarios), "--seed", "0"]) == 0
    written = scenarios.read_bytes()
    calls = []
    post_init = ScenarioAnnotation.__post_init__
    monkeypatch.setattr(ScenarioAnnotation, "__post_init__",
                        lambda row: calls.append(row) or post_init(row))
    rows = read_scenarios_jsonl(scenarios)
    assert len(rows) == 400 and calls == []
    assert rows == reference_read_dataclass_jsonl(scenarios, ScenarioAnnotation, "scenario")
    assert {type(row) for row in rows} == {ScenarioAnnotation}
    write_jsonl(tmp_path / "again.jsonl", rows)
    assert (tmp_path / "again.jsonl").read_bytes() == written
    calls.clear()  # the reference reader's own
    extra = {"weather": "rain", "agent": "cyclist"}
    with open(scenarios, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(swap(VALID[ScenarioAnnotation], "extra", extra)) + "\n")
    again = read_scenarios_jsonl(scenarios)
    assert again[:-1] == rows and calls == again
    assert list(again[-1].extra.items()) == sorted(extra.items())
    write_jsonl(tmp_path / "again.jsonl", again)
    sorted_row = swap(VALID[ScenarioAnnotation], "extra", dict(sorted(extra.items())))
    assert (tmp_path / "again.jsonl").read_bytes() == written + (
        json.dumps(sorted_row, ensure_ascii=False) + "\n").encode()



def test_the_scenarios_reader_judges_each_distinct_extra_map_once(tmp_path, monkeypatch):
    """Reading the demo's scenarios runs the extra rule once per distinct
    map, not once per row. A map holding a list cannot hash, so its file
    takes the row-by-row build, whose message is the per-line reference's."""
    scenarios = tmp_path / "scenarios.jsonl"
    assert main(["make-scenarios", "--n", "400", "--out", str(scenarios), "--seed", "0"]) == 0
    judged = []

    def spy(check):
        return lambda value, what: judged.append(dict(value)) or check(value, what)

    monkeypatch.setattr(ScenarioAnnotation, "_rules", tuple(
        (name, spy(check) if name == "extra" else check)
        for name, check in ScenarioAnnotation._rules))
    rows = read_scenarios_jsonl(scenarios)
    distinct = {tuple(row.extra.items()) for row in rows}
    assert len(rows) == 400 and 1 < len(distinct) < 400
    assert sorted(tuple(extra.items()) for extra in judged) == sorted(distinct)
    with open(scenarios, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(swap(VALID[ScenarioAnnotation], "extra", {"agent": ["a"]})) + "\n")
    messages = []
    for read in (read_scenarios_jsonl,
                 lambda path: reference_read_dataclass_jsonl(path, ScenarioAnnotation, "scenario")):
        with pytest.raises(InputError) as err:
            read(scenarios)
        messages.append(str(err.value))
    assert messages[0] == messages[1] and "extra[agent]" in messages[0], messages


# ---- the row rules outside a file ----

@pytest.mark.parametrize("value", [True, 2.0, "2", None], ids=repr)
def test_pair_index_must_be_an_int(value):
    with pytest.raises(InputError, match=r"^pair_index must be an integer, got "):
        QARecord("s-1", "img/1.jpg", "Risk?", "yes", "risk", value)


def test_a_non_str_extra_key_is_a_bad_key():
    with pytest.raises(InputError, match=r"^bad extra key 1$"):
        ScenarioAnnotation("s-1", "img/1.jpg", "A car.", True, "brake", "urban", extra={1: "x"})


def test_every_row_types_rules_name_its_own_fields_each_at_most_once():
    # check_row looks each name up among the row's fields: a misspelt one would reach
    # the user as a KeyError traceback, and a repeated one would run a rule twice
    modules = [importlib.import_module(f"qlorakit.{m.name}")
               for m in pkgutil.iter_modules(qlorakit.__path__)]
    row_types = {cls for module in modules for cls in vars(module).values()
                 if dataclasses.is_dataclass(cls) and "_rules" in vars(cls)}
    assert row_types >= {QARecord, ScenarioAnnotation}
    for cls in row_types:
        names = [name for name, _ in cls._rules]
        assert len(set(names)) == len(names), cls
        assert set(names) <= {f.name for f in dataclasses.fields(cls)}, cls
