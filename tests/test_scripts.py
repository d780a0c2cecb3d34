"""Smoke tests for the example scripts: each runs end to end on a small
input in its own interpreter and exits 0."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
END_TO_END = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]


def run_script(name, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=120)


def test_train_synthetic_runs(tmp_path):
    proc = run_script("train_synthetic.py", "--n-train", "64", "--n-test", "32",
                      cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "[lora] steps 8" in proc.stdout
    assert "[qlora] steps 8" in proc.stdout


def test_run_pipeline_writes_the_report(tmp_path):
    out = tmp_path / "run"
    proc = run_script("run_pipeline.py", "--scenarios", "20", "--epochs", "1",
                      "--out", str(out), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    report = (out / "evals" / "report.txt").read_text()
    assert report and report in proc.stdout


def load_bench_compare():
    spec = importlib.util.spec_from_file_location("bench_compare",
                                                  ROOT / "scripts" / "bench_compare.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_compare_statistics():
    compare = load_bench_compare().compare
    parent = [100.0, 104.0, 98.0, 102.0, 101.0, 99.0, 103.0, 100.0, 97.0, 105.0]
    faster = [p * 1.2 for p in parent]
    faster[3] = parent[3]  # one tie counts for neither side
    out = compare(parent, faster, "higher", bound=0.25)
    assert (out["won"], out["lost"], out["tied"], out["pairs"]) == (9, 0, 1, 10)
    assert out["parent"] == {"median": 100.5, "q1": 99.25, "q3": 102.75}
    assert out["gain_rule_met"] and out["within_bound"]
    assert out["median_ratio"] > 1.19
    # "lower is better" flips the sides; a 30% slowdown breaks a 25% bound
    slower = compare(parent, [p * 1.3 for p in parent], "lower", bound=0.25)
    assert (slower["won"], slower["lost"]) == (0, 10)
    assert not slower["gain_rule_met"] and not slower["within_bound"]
    # 8 of 10 pairs won is short of the 9/10 rule, whatever the medians say
    mixed = [p * 1.5 for p in parent[:8]] + [p * 0.9 for p in parent[8:]]
    assert not compare(parent, mixed, "higher")["gain_rule_met"]
    # all pairs won, but medians closer than the parent's interquartile range
    close = compare(parent, [p + 0.5 for p in parent], "higher")
    assert close["won"] == 10 and not close["gain_rule_met"]
    single = compare([2.0], [1.0], "lower")
    assert single["parent"] == {"median": 2.0, "q1": 2.0, "q3": 2.0}
    assert single["won"] == 1 and single["gain_rule_met"]


def test_bench_compare_marks_a_verdict_the_runs_cannot_resolve():
    compare = load_bench_compare().compare
    tight = [100.0, 104.0, 98.0, 102.0, 101.0, 99.0, 103.0, 100.0, 97.0, 105.0]
    assert compare(tight, tight, "higher", bound=0.25)["resolved"]
    # fewer than 10 pairs resolve nothing, however clear they look
    assert not compare(tight[:9], [2 * t for t in tight[:9]], "higher", bound=0.25)["resolved"]
    assert not compare([2.0], [1.0], "lower")["resolved"]
    # the parent's quartiles 40% apart: wider than a 25% bound
    wide = [60.0, 140.0, 80.0, 120.0, 70.0, 130.0, 90.0, 110.0, 100.0, 100.0]
    assert not compare(wide, wide[::-1], "higher", bound=0.25)["resolved"]
    assert compare(wide, wide[::-1], "higher")["resolved"]  # no bound, nothing to resolve
    # unless every change run reads better than every parent run
    above = [w + 81 for w in wide]
    assert compare(wide, above, "higher", bound=0.25)["resolved"]
    assert not compare(wide, above, "lower", bound=0.25)["resolved"]
    above[0] = 139.0  # below the parent's best run
    assert not compare(wide, above, "higher", bound=0.25)["resolved"]


def test_bench_compare_names_the_unresolved_metrics_of_each_workload(tmp_path, monkeypatch,
                                                                     capsys):
    module = load_bench_compare()

    def fake_run(tree, workload, seed, seconds):
        return {"seed": seed, "exit_code": 0, "env": {}, "correct": True, "attempted": 1,
                "failed": 0, "metrics": {name: 1.0 for name in END_TO_END},
                "raw": {name: 1.0 for name in module.TIMINGS}}

    monkeypatch.setattr(module, "export_parent", lambda rev, dest: "0" * 40)
    monkeypatch.setattr(module, "run_once", fake_run)
    assert module.main(["--label", "t", "--runs", "train-qlora:10", "train-lora:2",
                        "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    report = json.loads((tmp_path / "BENCH_t.json").read_text())
    verdicts = out[out.index(f"wrote {tmp_path / 'BENCH_t.json'}") - 1]
    assert verdicts == "train-lora unresolved: " + " ".join(END_TO_END)
    assert not any(line.startswith("train-qlora unresolved") for line in out)
    for workload, resolved in (("train-qlora", True), ("train-lora", False)):
        entry = report["workloads"][workload]
        assert {m["resolved"] for m in entry["metrics"].values()} == {resolved}
        assert {m["resolved"] for m in entry["raw_metrics"].values()} == {resolved}


def test_bench_compare_reads_no_commit_outside_a_git_checkout(tmp_path, monkeypatch):
    module = load_bench_compare()
    monkeypatch.setattr(module, "ROOT", tmp_path)
    assert module.git_head() is None


def test_bench_compare_counts_src_lines_per_tree(tmp_path):
    src_lines = load_bench_compare().src_lines
    for name, files in {"parent": {"a.py": "x = 1\ny = 2\n", "b.py": "z = 3\n"},
                        "change": {"a.py": "x = 1\n", "notes.txt": "not\ncounted\n"}}.items():
        package = tmp_path / name / "src" / "qlorakit"
        package.mkdir(parents=True)
        for file, text in files.items():
            (package / file).write_text(text)
    (tmp_path / "change" / "src" / "other.py").write_text("outside the package\n")
    assert src_lines(tmp_path / "parent") == 3
    assert src_lines(tmp_path / "change") == 1
    assert src_lines(ROOT) == sum(p.read_text().count("\n")
                                  for p in (ROOT / "src" / "qlorakit").glob("*.py"))


@pytest.mark.parametrize("args", [
    ["--out", "{tmp}/BENCH_x.json", "--runs", "train-lora:2"],
    ["--out-dir", "{tmp}/missing", "--runs", "train-lora:2"],
    ["--runs", "train-lora:2", "train-lorax:2"],
    ["--runs", "train-lora:0"],
    ["--runs", "corpus-pipeline:-1"],
    ["--runs", "train-qlora:x"],
], ids=["out-abbrev-to-a-file", "missing-out-dir", "unknown-workload", "zero-pairs",
        "negative-pairs", "non-integer-pairs"])
def test_bench_compare_checks_its_arguments_before_any_run(tmp_path, monkeypatch, capsys,
                                                           args):
    module = load_bench_compare()

    def never(*_args, **_kwargs):
        raise AssertionError("a benchmark step ran before the arguments were checked")

    monkeypatch.setattr(module, "export_parent", never)
    monkeypatch.setattr(module, "run_once", never)
    argv = ["--label", "x"] + [a.format(tmp=tmp_path) for a in args]
    if "--out" not in args and "--out-dir" not in args:
        argv += ["--out-dir", str(tmp_path)]
    with pytest.raises(SystemExit) as exit_info:
        module.main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("bench_compare: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_bench_compare_prints_one_summary_line_per_workload_and_metric(tmp_path, monkeypatch,
                                                                      capsys):
    module = load_bench_compare()

    def fake_run(tree, workload, seed, seconds):
        base = 100.0 + seed % 7
        faster = 1.25 if tree == module.ROOT and workload == "train-qlora" else 1.0
        metrics = {"train_examples_per_s": base * faster, "peak_rss_mb": 44.0}
        return {"seed": seed, "exit_code": 0, "env": {}, "correct": True, "attempted": 1,
                "failed": 0, "metrics": {name: metrics.get(name, 1.0) for name in END_TO_END},
                "raw": {name: 0.5 * metrics.get(name, 1.0) for name in module.TIMINGS}}

    monkeypatch.setattr(module, "export_parent", lambda rev, dest: "0" * 40)
    monkeypatch.setattr(module, "run_once", fake_run)
    assert module.main(["--label", "t", "--runs", "train-qlora:10", "train-lora:2",
                        "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    report = json.loads((tmp_path / "BENCH_t.json").read_text())
    summary = out[out.index(f"wrote {tmp_path / 'BENCH_t.json'}") + 1:]
    assert [line.split(":")[0] for line in summary] == [
        f"{workload} {name}" for workload in ("train-qlora", "train-lora")
        for name in END_TO_END] + ["src_lines"]
    # the exported parent tree is empty here, so it counts no lines
    assert summary[-1] == f"src_lines: parent 0 -> change {module.src_lines(module.ROOT)}"
    m = report["workloads"]["train-qlora"]["metrics"]["train_examples_per_s"]
    assert m["won"] == 10 and m["gain_rule_met"]
    raw = report["workloads"]["train-qlora"]["raw_metrics"]["train_examples_per_s"]
    assert raw["won"] == 10 and raw["parent"]["median"] == m["parent"]["median"] / 2
    assert summary[END_TO_END.index("train_examples_per_s")] == (
        f"train-qlora train_examples_per_s: parent {m['parent']['median']:.6g} "
        f"change {m['change']['median']:.6g} x1.250 won 10/10 within_bound True "
        f"gain_rule_met True | raw parent {raw['parent']['median']:.6g} "
        f"change {raw['change']['median']:.6g} x1.250")
    assert summary[len(END_TO_END) + END_TO_END.index("peak_rss_mb")] == (
        "train-lora peak_rss_mb: parent 44 change 44 x1.000 won 0/2 "
        "within_bound True gain_rule_met False")


def test_bench_compare_runs_without_bytecode_and_keeps_the_raw_rates(tmp_path, monkeypatch):
    module = load_bench_compare()
    seen = {}
    raw = {"import_s": [0.1], "setup_s": 0.01, "wall_s": 0.5,
           "train_examples_per_s": 4000.0, "infer_examples_per_s": 20000.0}
    result = {"correct": True, "attempted": 3, "failed": 0,
              "metrics": {name: {"value": 1.0, "unit": ""} for name in END_TO_END}}

    def fake_subprocess_run(argv, cwd, env, **_kwargs):
        cache = Path(env["PYTHONPYCACHEPREFIX"])
        seen.update(env=env, cache=cache, empty=cache.is_dir() and not any(cache.iterdir()))
        stdout = (f"env {json.dumps({'python': '3'})}\nrun {json.dumps({'raw': raw})}\n"
                  f"{json.dumps(result)}\n")
        return subprocess.CompletedProcess(argv, 0, stdout=stdout, stderr="")

    monkeypatch.setattr(module.subprocess, "run", fake_subprocess_run)
    run = module.run_once(tmp_path, "corpus-pipeline", 7, 1.0)
    assert seen["env"]["PYTHONDONTWRITEBYTECODE"] == "1" and seen["empty"]
    assert not seen["cache"].exists()  # one new directory per run, removed after it
    assert run["raw"] == {name: raw[name] for name in module.TIMINGS}
    assert run["metrics"] == {name: 1.0 for name in END_TO_END} and run["env"] == {"python": "3"}
