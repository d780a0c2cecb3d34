"""Smoke tests for the example scripts: each runs end to end on a small
input in its own interpreter and exits 0."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


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
