"""Fast self-test of the benchmark at a tiny size (under a minute).

    python3 perfbench/selftest.py

Checks that BENCHMARK.json is well formed, that every workload prints
exactly the metric names and units BENCHMARK.json declares, that traced
runs reproduce the untraced loss trace and predictions (run.py fails the
run otherwise), that the quant call counts are zero exactly where no
quantized path runs, that the memory counts repeat across seeds, and that
the benchmark refuses to run without the sources.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BARE = ROOT / ".perfbench" / "selftest-bare"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
QUANT_CALLS = ("quant.dequantize_4bit.calls", "quant.quantize_8bit.calls",
               "quant.dequantize_8bit.calls")
# which quant paths run where: (4-bit base, 8-bit optimizer state)
QUANT_PATHS = {"train-lora": (False, False), "train-qlora": (True, True),
               "corpus-pipeline": (False, True)}
MEMORY = ("model.base_dense_bytes", "model.base_q4_bytes", "lora.adapter_bytes",
          "optim.state_bytes", "optim.state_bytes_8bit", "optim.state_bytes_32bit")

failures = []


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    if cwd == ROOT:
        cmd += ["--scale", "tiny"]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return proc, result


def check_spec(spec: dict) -> None:
    check(set(spec) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}, "BENCHMARK.json has exactly the contract keys")
    names = [w["name"] for w in spec["workloads"]] + \
        [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    check(all(NAME.match(n) for n in names) and len(set(names)) == len(names),
          "names are well formed and unique")
    check(all(UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
              for m in spec["end_to_end"] + spec["per_layer"]), "units and directions are valid")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    check(all(0 < b <= 0.25 for b in bounds.values()), "every bound is in (0, 0.25]")
    check(bounds.get("setup_s") == max(bounds.values()), "setup_s has the largest bound")
    check(all(len(w["why"]) <= 200 for w in spec["workloads"]), "every why fits 200 characters")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}

    memory = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, e2e), (1, layers)):
            proc, result = run(workload, 1, trace)
            tag = f"{workload} --trace {trace}"
            check(proc.returncode == 0 and result is not None and result["correct"]
                  and result["failed"] == 0, f"{tag}: exits 0 with correct outputs")
            if result is None:
                print(proc.stdout[-2000:] + proc.stderr[-2000:])
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == declared, f"{tag}: metric names and units match BENCHMARK.json")
            if trace == 0:
                check(all(v["value"] != 0 for v in result["metrics"].values()),
                      f"{tag}: no end-to-end metric reads 0")
                continue
            values = {k: v["value"] for k, v in result["metrics"].items()}
            q4, q8 = QUANT_PATHS[workload]
            check((values[QUANT_CALLS[0]] > 0) == q4
                  and all((values[k] > 0) == q8 for k in QUANT_CALLS[1:]),
                  f"{tag}: quant call counts are zero exactly where no quantized path runs")
            memory.append({k: values[k] for k in MEMORY})

    _proc, again = run("train-lora", 2, 1)
    check(bool(memory) and again is not None
          and {k: again["metrics"][k]["value"] for k in MEMORY} == memory[0],
          "memory byte counts repeat exactly on another seed")

    shutil.rmtree(BARE, ignore_errors=True)
    BARE.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", BARE)
    shutil.copytree(HERE, BARE / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc, result = run("train-lora", 0, 0, cwd=BARE)
    check(proc.returncode != 0 and result is None,
          "without the sources the benchmark exits non-zero and prints no result")
    shutil.rmtree(BARE, ignore_errors=True)

    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
