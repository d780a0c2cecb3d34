"""README.md is the kit's contract, and this module is the one place its
statements are tested against the code. Each test parses one README table
and reads what it states from the code itself: module files, dataclass
fields, TRACE_HEADER, the dicts the code returns, the files a pipeline run
writes and the codes cli.main returns."""

import collections
import dataclasses
import errno
import json
import os
import re
import sys
from pathlib import Path

import pytest

from qlorakit import cli, errors, fileio, qagen, trainer
from qlorakit.config import RunConfig, load_config, model_spec_from, train_config_from
from qlorakit.model import init_adapters

TEXT = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
MODEL = "contract"


def table(marker: str) -> list[list[str]]:
    """The body rows, as stripped cells, of the first table after marker."""
    lines = TEXT[TEXT.index(marker):].splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("|"))
    rows = []
    for line in lines[start + 2:]:  # past the header and its rule
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip().strip("|").split("|")])
    return rows


def ticked(cell: str) -> list[str]:
    return re.findall(r"`([^`]+)`", cell)


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """One small corpus pipeline (one scenario rejected, so every record type
    is written) and one synthetic run, with each call of the JSONL codec
    recorded by the class it reads or writes."""
    tmp = tmp_path_factory.mktemp("contract")
    seen = {}
    read, write = fileio.read_dataclass_jsonl, fileio.write_jsonl

    def read_spy(path, cls, *args):
        seen[cls.__name__] = cls
        return read(path, cls, *args)

    def write_spy(path, rows, cls=None):  # rows are instances, or tuples of cls's fields
        rows = list(rows)
        seen.update((kind.__name__, kind) for kind in ([cls] if cls else map(type, rows)))
        return write(path, rows, cls)

    spies = {"read_dataclass_jsonl": (read, read_spy), "write_jsonl": (write, write_spy)}
    scenarios, data = tmp / "scenarios.jsonl", tmp / "data"
    with pytest.MonkeyPatch.context() as mp:
        for module in [m for name, m in sys.modules.items() if name.startswith("qlorakit.")]:
            for name, (original, spy) in spies.items():
                if getattr(module, name, None) is original:
                    mp.setattr(module, name, spy)
        assert cli.main(["make-scenarios", "--n", "12", "--out", str(scenarios)]) == 0
        first = json.loads(scenarios.read_text(encoding="utf-8").splitlines()[0])
        mp.setattr(qagen, "make_client", lambda spec, seed: qagen.MockLLMClient(
            seed, malformed_ids={first["scenario_id"]}))
        steps = [
            ["gen-data", "--scenarios", str(scenarios), "--out", str(data)],
            ["split", "--corpus", str(data / "corpus.jsonl"), "--out", str(data)],
            ["train", "--data", str(data), "--out", str(tmp / "corpus_run")],
            ["predict", "--run", str(tmp / "corpus_run"), "--data", str(data),
             "--out", str(tmp / "preds.jsonl")],
            ["eval", "--preds", str(tmp / "preds.jsonl"), "--gold", str(data / "corpus.jsonl"),
             "--labels", str(data / "labels"), "--out", str(tmp / "evals"),
             "--manifest", str(data / "test_ids.txt"), "--model-name", MODEL],
            ["make-synthetic", "--out", str(tmp / "task"), "--n-train", "64", "--n-test", "16"],
            ["train", "--data", str(tmp / "task"), "--out", str(tmp / "token_run")],
        ]
        for argv in steps:
            assert cli.main(argv) == 0, argv
    return tmp, seen


def test_layout_lists_every_module():
    listed = {name for row in table("| Module (`src/qlorakit/`)") for name in ticked(row[0])}
    modules = {p.name for p in Path(cli.__file__).parent.glob("*.py")} - {"__init__.py"}
    assert listed == modules


def test_jsonl_keys_are_the_fields_of_every_record_the_codec_handles(run):
    """One row per class read_dataclass_jsonl or write_jsonl is called with,
    and each row's keys are that dataclass's fields, in field order."""
    _, seen = run
    rows = {ticked(record)[0]: [key.strip() for key in ticked(keys)[0].split(",")]
            for _, record, keys in table("**JSONL artifacts**")}
    assert rows.keys() == seen.keys()
    for name, keys in rows.items():
        assert keys == [f.name for f in dataclasses.fields(seen[name])], name


def test_trace_csv_header_is_the_trainers(run):
    tmp, _ = run
    [documented] = re.findall(r"under the header\s+`([^`]+)`", TEXT)
    assert documented == trainer.TRACE_HEADER
    written = (tmp / "token_run" / "trace.csv").read_text(encoding="utf-8")
    assert written.splitlines()[0] == documented


def test_memory_keys_and_default_bytes_are_clis(run):
    """The memory table lists the keys cli._memory returns, in its order, and
    their values at the default configuration; summary.json carries them."""
    tmp, _ = run
    rows = table("| `memory` key |")
    cfg = load_config()
    spec = model_spec_from(cfg)
    adapters = init_adapters(spec, cfg.rank, cfg.alpha, 0)
    memory = cli._memory(spec, adapters, train_config_from(cfg), cfg.block_size)
    assert [ticked(key)[0] for key, _, _ in rows] == list(memory)
    assert {ticked(key)[0]: int(value.replace(",", "")) for key, _, value in rows} == memory
    summary = json.loads((tmp / "token_run" / "summary.json").read_text(encoding="utf-8"))
    assert summary["memory"] == memory


def test_generation_stats_keys_are_generate_datasets(run):
    tmp, _ = run
    keys = [ticked(key)[0] for key, _ in table("| `stats` key |")]
    scenarios = qagen.read_scenarios_jsonl(tmp / "scenarios.jsonl")[:2]
    assert keys == list(qagen.generate_dataset(scenarios, qagen.MockLLMClient()).stats)
    written = json.loads((tmp / "data" / "gen_summary.json").read_text(encoding="utf-8"))
    assert sorted(written["stats"]) == sorted(keys)


def test_eval_artifacts_are_the_files_eval_writes(run):
    tmp, _ = run
    files = {name.replace("<model>", MODEL)
             for row in table("**Eval artifacts**") for name in ticked(row[0])}
    assert files == set(os.listdir(tmp / "evals"))


def test_run_artifacts_are_the_files_train_writes(run):
    tmp, _ = run
    files = {name for row in table("**Run artifacts**") for name in ticked(row[0])}
    assert files == set(os.listdir(tmp / "corpus_run")) == set(os.listdir(tmp / "token_run"))


def test_split_artifacts_are_the_files_split_writes(run, tmp_path):
    tmp, _ = run
    rows = table("**Split artifacts**")
    assert cli.main(["split", "--corpus", str(tmp / "data" / "corpus.jsonl"),
                     "--out", str(tmp_path)]) == 0
    assert {name for row in rows for name in ticked(row[0])} == set(os.listdir(tmp_path))
    [keys] = [ticked(row[1]) for row in rows if row[0] == "`split_summary.json`"]
    written = json.loads((tmp_path / "split_summary.json").read_text(encoding="utf-8"))
    assert sorted(keys) == sorted(written) and sorted(written["question_overlap"]) == sorted(
        qagen.CATEGORIES)


def test_summary_keys_are_trains(run):
    """Each key the summary.json row names is in both runs' summary.json."""
    tmp, _ = run
    [row] = [row for row in table("**Run artifacts**") if row[0] == "`summary.json`"]
    keys = set(ticked(row[1]))
    assert {"memory", "label_conflicts", "accuracy_ceiling"} <= keys
    for name in ("corpus_run", "token_run"):
        summary = json.loads((tmp / name / "summary.json").read_text(encoding="utf-8"))
        assert keys <= summary.keys(), name
        assert 0 <= summary["label_conflicts"] <= summary["examples"]
        assert summary["examples"] - summary["label_conflicts"] <= summary["accuracy_ceiling"]
        assert summary["accuracy_ceiling"] <= summary["examples"]


# an instance of every error type a subcommand may raise
RAISED = [*(cls("raised") for cls in errors.QlorakitError.__subclasses__()),
          OSError(errno.ENOENT, "No such file or directory", "raised")]


def test_exit_code_table_is_what_main_returns(tmp_path, capsys, monkeypatch):
    """Each row's kinds are exactly those main returns its code for: a usage
    error, every error type a subcommand raises, and success."""
    documented = {int(code): set(ticked(kinds)) for code, _, kinds in table("## Exit codes")}
    observed: dict[int, set] = {}

    def record(code: int) -> None:
        err = capsys.readouterr().err
        kinds = observed.setdefault(code, set())
        if code == 0:
            assert err == ""
        elif err.startswith("usage:"):
            kinds.add("usage")
        else:
            assert err.count("\n") == 1, err
            kinds.add(re.match(r"error: (\w+): ", err)[1])

    record(cli.main(["make-scenarios", "--n", "1", "--out", str(tmp_path / "s.jsonl")]))
    record(cli.main(["train"]))  # no --data or --out
    for exc in RAISED:
        def handler(args, exc=exc):
            raise exc
        monkeypatch.setattr(cli, "cmd_report", handler)
        record(cli.main(["report", "--in", str(tmp_path)]))
    assert observed == documented


def test_defaults_match_documented_values():
    """README's Configuration table holds one row per RunConfig field, each
    with the field's default: a backticked cell is a string, any other cell
    a JSON value of the field's type."""
    section = TEXT.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    rows = [(m.group(1), m.group(2).strip())
            for m in re.finditer(r"^\| `(\w+)` \|([^|]*)\|", section, re.M)]
    keys = [key for key, _ in rows]
    fields = [f.name for f in dataclasses.fields(RunConfig)]
    assert sorted(keys) == sorted(fields)
    defaults = RunConfig()
    for key, cell in rows:
        value = cell.strip("`") if cell.startswith("`") else json.loads(cell)
        expected = getattr(defaults, key)
        assert (value, type(value)) == (expected, type(expected)), key


def test_demo_overlap_and_label_conflicts_are_readmes(tmp_path):
    """The demo split's question overlap as split_summary.json counts it, and
    the training examples whose token ids carry more than one label as train's
    summary counts them, as README states both beside the report."""
    text = " ".join(TEXT.split())
    number = lambda cell: int(cell.replace(",", ""))
    overlap = re.search(r"([\d,]+) of the ([\d,]+) test records ask a question whose exact "
                        r"text also appears in the train split \(([^)]*)\)", text)
    conflict = re.search(r"default `vocab_size` (\d+) .*?([\d,]+) of the ([\d,]+) training "
                         r"examples share their token ids with an example of another label, "
                         r"so at most ([\d,]+)", text)
    scenarios, data = tmp_path / "scenarios.jsonl", tmp_path / "data"
    for argv in (["make-scenarios", "--n", "400", "--seed", "0", "--out", str(scenarios)],
                 ["gen-data", "--scenarios", str(scenarios), "--out", str(data), "--seed", "0"],
                 ["split", "--corpus", str(data / "corpus.jsonl"), "--out", str(data),
                  "--seed", "0"]):
        assert cli.main(argv) == 0, argv
    written = json.loads((data / "split_summary.json").read_text(encoding="utf-8"))
    per_category = {c: number(n) for c, n in
                    (part.rsplit(" ", 1) for part in overlap.group(3).split(", "))}
    assert (number(overlap.group(1)), number(overlap.group(2)), per_category) == (
        sum(written["question_overlap"].values()), written["test_records"],
        written["question_overlap"])
    records = qagen.read_records_jsonl(data / "corpus.jsonl")
    split = {name: set(qagen.read_manifest(data / f"{name}_ids.txt")) for name in ("train", "test")}
    test = [r for r in records if r.scenario_id in split["test"]]
    asked = {r.question for r in records if r.scenario_id in split["train"]}
    repeats = collections.Counter(r.category for r in test if r.question in asked)
    assert written == {"test_records": len(test),
                       "question_overlap": {c: repeats[c] for c in qagen.CATEGORIES}}

    assert cli.main(["train", "--data", str(data), "--out", str(tmp_path / "run")]) == 0
    summary = json.loads((tmp_path / "run" / "summary.json").read_text(encoding="utf-8"))
    assert tuple(map(number, conflict.groups())) == (
        RunConfig().vocab_size, summary["label_conflicts"], summary["examples"],
        summary["accuracy_ceiling"])
