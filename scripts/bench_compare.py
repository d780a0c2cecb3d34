"""Run the benchmark on a parent commit and on the working tree, in
alternating pairs, and write the comparison to BENCH_<label>.json.

    python3 scripts/bench_compare.py --label pr10 --parent HEAD \
        --runs train-lora:10 train-qlora:5 corpus-pipeline:5 --seconds 40

Each side runs the unmodified `perfbench/run.py` of its own tree with
`--trace 0`, one process at a time. The parent is exported with
`git archive` into a temporary directory, so the repository's git state
is untouched. Every run has PYTHONDONTWRITEBYTECODE=1 and
PYTHONPYCACHEPREFIX set to a new empty directory, so neither tree's
`__pycache__` is read or written: both sides compile their sources on
every fresh import, as a new checkout does.

Pair i of the k-th workload listed runs seed `--seed-base + 100 k + i` on
both sides; even pairs run the parent first, odd pairs the change first.
The file holds the working tree's commit (`change`; null outside a git
checkout), the environment, the line count of `src/qlorakit/*.py` in
each tree (`src_lines`), every run's metrics, and per metric each side's
median and quartiles, the pairs the change won, lost and tied, and
whether the gain rule holds: at least 9 of 10 pairs won and medians
apart by more than the parent's interquartile range. A metric is
`resolved` only when at least 10 pairs ran and, if it has a bound, the
parent's interquartile range is within that bound of its median or every
change run reads better than every parent run; otherwise its bound
verdict cannot tell "unchanged" from noise. Before writing the file the
script prints one line per workload that has unresolved end-to-end
metrics, naming them. After writing it, it prints one summary line per
workload and end-to-end metric: both medians, their ratio, pairs won,
and the bound and gain verdicts; a last line gives both trees'
`src_lines`.

perfbench normalizes each timing metric by its speed probe, and a phase
with fewer than 10 probe samples by the whole iteration. So every run
also keeps the unnormalized medians of perfbench's `raw` block, the file
compares them per workload (`raw_metrics`), and the summary lines of the
four timing metrics end with the raw medians and their ratio as a
cross-check.

The arguments are checked before the first run: `--out-dir` must be an
existing directory, each workload must be named in BENCHMARK.json and
PAIRS (default 10) must be a positive integer; otherwise the script exits
2 with one line.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9  # share of pairs the change must win for a gain
MIN_PAIRS = 10  # fewer pairs leave every verdict unresolved
TIMINGS = ("setup_s", "wall_s", "train_examples_per_s", "infer_examples_per_s")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), inclusive method; one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def compare(parent: list[float], change: list[float], better: str,
            bound: float | None = None) -> dict:
    """Statistics of one metric over paired runs (parent[i] with change[i]).

    `better` is "higher" or "lower"; ties count for neither side. `bound`
    is the relative worsening of the median the benchmark allows, and a
    parent spread wider than it leaves the metric unresolved.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same non-zero number of parent and change runs")
    if better not in ("higher", "lower"):
        raise ValueError(f"better must be 'higher' or 'lower', got {better!r}")
    sign = 1.0 if better == "higher" else -1.0
    won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    lost = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    p1, pmed, p3 = quartiles(parent)
    c1, cmed, c3 = quartiles(change)
    gain = sign * (cmed - pmed)
    out = {
        "better": better,
        "parent": {"median": pmed, "q1": p1, "q3": p3},
        "change": {"median": cmed, "q1": c1, "q3": c3},
        "pairs": len(parent), "won": won, "lost": lost, "tied": len(parent) - won - lost,
        "median_ratio": cmed / pmed if pmed else None,
        "gain_rule_met": won >= WIN_SHARE * len(parent) and gain > p3 - p1,
        "resolved": len(parent) >= MIN_PAIRS and (
            bound is None or p3 - p1 <= bound * abs(pmed)
            or min(sign * c for c in change) > max(sign * p for p in parent)),
    }
    if bound is not None:
        out["bound"] = bound
        out["within_bound"] = -gain <= bound * abs(pmed)
    return out


def src_lines(tree: Path) -> int:
    """Newlines in the tree's src/qlorakit/*.py, as `cat ... | wc -l` counts them."""
    return sum(path.read_bytes().count(b"\n")
               for path in (tree / "src" / "qlorakit").glob("*.py"))


def export_parent(rev: str, dest: Path) -> str:
    sha = subprocess.run(["git", "rev-parse", rev], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout.strip()
    archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"git archive {sha} failed")
    return sha


def git_head() -> str | None:
    """The commit ROOT's working tree is on, or None outside a git checkout."""
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    with tempfile.TemporaryDirectory(prefix="bench-pycache-") as cache:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=tree, capture_output=True, text=True,
            env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPYCACHEPREFIX": cache})
    lines = proc.stdout.splitlines()
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), None)
    try:
        result = json.loads(lines[-1])
        raw = next(json.loads(line[4:]) for line in lines if line.startswith("run "))["raw"]
    except (IndexError, StopIteration, KeyError, json.JSONDecodeError):
        raise SystemExit(f"{tree}: {workload} seed {seed} printed no result:\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return {"seed": seed, "exit_code": proc.returncode, "env": env,
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "raw": {k: raw[k] for k in TIMINGS}}


def summary_lines(report: dict) -> list[str]:
    """One line per workload and end-to-end metric of a report, then the
    src_lines of both trees."""
    def medians(m):
        ratio = "-" if m["median_ratio"] is None else f"x{m['median_ratio']:.3f}"
        return f"parent {m['parent']['median']:.6g} change {m['change']['median']:.6g} {ratio}"

    lines = []
    for workload, entry in report["workloads"].items():
        for name, m in entry["metrics"].items():
            line = (f"{workload} {name}: {medians(m)} won {m['won']}/{m['pairs']} "
                    f"within_bound {m.get('within_bound')} gain_rule_met {m['gain_rule_met']}")
            if name in entry["raw_metrics"]:
                line += f" | raw {medians(entry['raw_metrics'][name])}"
            lines.append(line)
    lines.append(f"src_lines: parent {report['src_lines']['parent']} "
                 f"-> change {report['src_lines']['change']}")
    return lines


def unresolved_lines(report: dict) -> list[str]:
    """One line per workload of a report naming its unresolved end-to-end metrics."""
    lines = []
    for workload, entry in report["workloads"].items():
        names = [name for name, m in entry["metrics"].items() if not m["resolved"]]
        if names:
            lines.append(f"{workload} unresolved: {' '.join(names)}")
    return lines


def parse_plan(runs: list[str], workloads: set[str], out_dir: str) -> list[tuple[str, int]]:
    """(workload, pairs) per WORKLOAD:PAIRS item; ValueError names the first bad argument."""
    if not Path(out_dir).is_dir():
        raise ValueError(f"--out-dir {out_dir} is not an existing directory")
    plan = []
    for item in runs:
        workload, _, pairs = item.partition(":")
        pairs = pairs or "10"
        if workload not in workloads:
            raise ValueError(f"unknown workload {workload!r} in {item!r}; "
                             f"BENCHMARK.json names {', '.join(sorted(workloads))}")
        if not pairs.isdecimal() or int(pairs) < 1:
            raise ValueError(f"PAIRS in {item!r} must be a positive integer")
        plan.append((workload, int(pairs)))
    return plan


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    ap.add_argument("--parent", default="HEAD", help="git revision to compare against")
    ap.add_argument("--runs", nargs="+", required=True, metavar="WORKLOAD:PAIRS")
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--seed-base", type=int, default=1000)
    ap.add_argument("--out-dir", default=str(ROOT))
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    try:
        plan = parse_plan(args.runs, {w["name"] for w in spec["workloads"]}, args.out_dir)
    except ValueError as exc:
        ap.exit(2, f"bench_compare: {exc}\n")

    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent_tree = Path(tmp) / "tree"
        parent_tree.mkdir()
        parent_sha = export_parent(args.parent, parent_tree)
        sides = {"parent": parent_tree, "change": ROOT}
        head = git_head()
        report = {"label": args.label, "parent": parent_sha,
                  "change": f"working tree on {head}" if head else None,
                  "seconds": args.seconds, "workloads": {},
                  "src_lines": {"parent": src_lines(parent_tree), "change": src_lines(ROOT)}}
        for w_index, (workload, pairs) in enumerate(plan):
            runs = {"parent": [], "change": []}
            for i in range(pairs):
                seed = args.seed_base + 100 * w_index + i
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    run = run_once(sides[side], workload, seed, args.seconds)
                    runs[side].append(run)
                    print(f"{workload} pair {i + 1}/{pairs} seed {seed} {side}: "
                          f"train {run['metrics'].get('train_examples_per_s', 0):.0f}/s "
                          f"correct {run['correct']}", flush=True)
            report.setdefault("env", runs["change"][0]["env"])
            for run in runs["parent"] + runs["change"]:
                del run["env"]
            report["workloads"][workload] = {
                "pairs": pairs,
                "correct": {s: sum(r["correct"] for r in runs[s]) for s in runs},
                "metrics": {
                    name: compare([r["metrics"][name] for r in runs["parent"]],
                                  [r["metrics"][name] for r in runs["change"]],
                                  m["better"], m.get("bound"))
                    for name, m in metrics.items()},
                "raw_metrics": {
                    name: compare([r["raw"][name] for r in runs["parent"]],
                                  [r["raw"][name] for r in runs["change"]],
                                  metrics[name]["better"])
                    for name in TIMINGS},
                "runs": runs,
            }
    for line in unresolved_lines(report):
        print(line)
    out = Path(args.out_dir) / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
    print("\n".join(summary_lines(report)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
