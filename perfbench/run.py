"""qlorakit benchmark.

    python3 perfbench/run.py --workload train-lora --seed 0 --seconds 40 --trace 0

Runs one workload in this single process against the sources in
`src/qlorakit`, checks its outputs, and prints every metric with its
unit. The last stdout line is one JSON object: {"correct", "attempted",
"failed", "metrics"}. `--trace 0` reports the end-to-end metrics from
untraced iterations, with times scaled to a nominal machine speed by the
speed probe in speed.py; `--trace 1` runs an untraced and then a traced
iteration on the same inputs, checks they agree bit for bit, and
reports the per-layer metrics. Spans, results and working files go under
`.perfbench/` at the repository root. See README.md.
"""

import os

# Pinned before numpy loads: the package claims single-threaded runs, and
# the bundled OpenBLAS would otherwise start one thread per core.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _key in BLAS_ENV:
    os.environ[_key] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
HARD_CAP_S = 120.0  # stop starting iterations so a slow machine still exits in time
IMPORTS = 6  # fresh imports of qlorakit; set-up counts the median of all but the first

E2E = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("train_examples_per_s", "1/s"),
    ("infer_examples_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("final_loss_ratio", "ratio"),
    ("test_accuracy", "fraction"),
    ("success_rate", "fraction"),
]

STAGES = ("make-scenarios", "gen-data", "split", "train", "predict", "eval", "report")
PER_LAYER = [
    "model.loss_and_grads.calls", "model.loss_and_grads.examples",
    "model.loss_and_grads.self_s",
    "model.forward.calls", "model.forward.self_s",
    "model.base_fingerprint.calls", "model.base_fingerprint.s",
    "model.quantize_base.s", "model.base_dense_bytes", "model.base_q4_bytes",
    "quant.dequantize_4bit.calls", "quant.dequantize_4bit.s",
    "quant.dequantize_4bit.bytes_out",
    "quant.quantize_8bit.calls", "quant.quantize_8bit.s",
    "quant.dequantize_8bit.calls", "quant.dequantize_8bit.s",
    "optim.adamw_step.calls", "optim.adamw_step.self_s",
    "optim.state_bytes", "optim.state_bytes_8bit", "optim.state_bytes_32bit",
    "trainer.train.self_s", "trainer.evaluate_accuracy.self_s",
    "matrix.softmax.calls", "matrix.softmax.s",
    "lora.save_adapters.s", "lora.load_adapters.s", "lora.adapter_bytes",
    "qagen.complete.calls", "qagen.complete.s",
    "qagen.parse_qa_response.calls", "qagen.parse_qa_response.s",
    "qagen.generate_dataset.self_s", "qagen.accept_ratio",
    "qagen.read_records_jsonl.calls", "qagen.read_records_jsonl.s",
    "tasks.tokenize.calls", "tasks.tokenize.s",
    "tasks.corpus_to_examples.self_s", "tasks.predict_answers.self_s",
    "evalharness.normalize_answer.calls", "evalharness.normalize_answer.s",
    "evalharness.build_confusion.s", "evalharness.compute_metrics.s",
    "evalharness.read_predictions_jsonl.s",
    *[f"cli.{stage}.{part}" for stage in STAGES for part in ("s", "self_s")],
]


def layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last in ("calls", "examples"):
        return "count"
    if last in ("s", "self_s"):
        return "s"
    if "bytes" in last:
        return "B"
    return "ratio"


# ---- environment ----

def _blas_threads(np):
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    import ctypes

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_head(root: Path):
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None  # not a git checkout


def environment(np, args, gen_data_concurrency: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "git_head": _git_head(ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "load": {
            "processes": 1,
            "blas_threads_env": {k: os.environ.get(k) for k in BLAS_ENV},
            "blas_threads": _blas_threads(np),
            "gen_data_max_concurrency": gen_data_concurrency,
        },
    }


# ---- runs ----

def import_qlorakit() -> tuple[float, float]:
    """Import qlorakit afresh (dropping any earlier import); returns its
    (start, end) perf_counter times."""
    for name in [m for m in sys.modules if m == "qlorakit" or m.startswith("qlorakit.")]:
        del sys.modules[name]
    start = time.perf_counter()
    importlib.import_module("qlorakit.cli")  # imports every module the workloads use
    return start, time.perf_counter()


def timings(o, seconds) -> dict:
    """setup_s, wall_s and both throughputs of one iteration; seconds(name)
    gives a phase's duration."""
    return {
        "setup_s": seconds("setup"),
        "wall_s": sum(seconds(name) for name in o.wall_phases),
        "train_examples_per_s": o.train_examples / seconds(o.train_phase),
        "infer_examples_per_s": o.infer_examples / seconds(o.infer_phase),
    }


def timed_run(wl, seconds: float, import_spans: list):
    """Untraced iterations until the time is spent, and at least one per
    input draw, with the speed probe sampling throughout."""
    from speed import SpeedProbe
    from workloads import DATASETS

    outcomes, failures = [], []
    attempted = 0
    probe = SpeedProbe()
    probe.start()
    try:
        start = time.perf_counter()
        i = 0
        while True:
            gc.collect()
            t = time.perf_counter()
            o = wl.run_iteration(i)
            last = time.perf_counter() - t
            attempted += o.attempted
            failures += o.failures
            if o.failures:
                break
            if i >= DATASETS:
                attempted += 1
                if o.digest != outcomes[i % DATASETS].digest:
                    failures.append(f"determinism: iteration {i} differs from "
                                    f"iteration {i % DATASETS} on the same inputs")
                    break
            outcomes.append(o)
            i += 1
            elapsed = time.perf_counter() - start
            if elapsed > HARD_CAP_S or (i >= DATASETS and elapsed + last > seconds):
                break
    finally:
        probe.stop()

    def raw(o):
        return timings(o, lambda name: o.phases[name][1] - o.phases[name][0])

    def normalized(o):
        return timings(o, lambda name: probe.seconds(o.phases[name], o.phases["iteration"]))

    samples = {"raw": [raw(o) for o in outcomes], "normalized": [normalized(o) for o in outcomes]}
    # the imports ran before the probe started, so these use the run's mean speed;
    # the first also loads the standard-library modules qlorakit needs
    import_norm = statistics.median(probe.seconds(span) for span in import_spans[1:])

    def med(kind, key):
        return statistics.median(x[key] for x in samples[kind]) if outcomes else 0.0

    first = outcomes[:DATASETS]
    metrics = {
        "setup_s": import_norm + med("normalized", "setup_s"),
        "wall_s": med("normalized", "wall_s"),
        "train_examples_per_s": med("normalized", "train_examples_per_s"),
        "infer_examples_per_s": med("normalized", "infer_examples_per_s"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "final_loss_ratio": statistics.fmean(o.loss_ratio for o in first) if first else 0.0,
        "test_accuracy": statistics.fmean(o.accuracy for o in first) if first else 0.0,
        "success_rate": (attempted - len(failures)) / max(attempted, 1),
    }
    keys = ("setup_s", "wall_s", "train_examples_per_s", "infer_examples_per_s")
    notes = {"iterations": len(outcomes), "speed_probe": probe.summary(),
             "raw": {"import_s": [end - start for start, end in import_spans],
                     **{key: med("raw", key) for key in keys}},
             "samples": {kind: {key: [x[key] for x in rows] for key in keys}
                         for kind, rows in samples.items()}}
    correct = not failures and len(first) == DATASETS
    return correct, attempted, failures, metrics, notes


def traced_run(wl, spans_path: Path):
    """An untraced iteration, then a traced one on identical inputs."""
    from tracing import Tracer

    ref = wl.run_iteration(0, keep=True)
    attempted, failures = ref.attempted, list(ref.failures)
    if failures:
        return False, attempted, failures, {name: 0 for name in PER_LAYER}, {}
    ref_identity, ref_memory = wl.identity(ref), wl.memory(ref)

    tracer = Tracer()
    tracer.install()
    try:
        tracer.run_id = 1
        gc.collect()
        traced = wl.run_iteration(0, keep=True)
        tracer.enabled = False  # the checks below pass through the wrappers unrecorded
        attempted += traced.attempted
        failures += traced.failures
        if not traced.failures:
            attempted += 2
            if wl.identity(traced) != ref_identity:
                failures.append("identity: traced loss trace or predictions differ "
                                "from the untraced run")
            if wl.memory(traced) != ref_memory:
                failures.append("memory: byte counts differ between two runs")
    finally:
        tracer.uninstall()
    tracer.write(spans_path)

    agg = tracer.aggregate()
    counts = tracer.counts
    values = dict(ref_memory)
    values["model.loss_and_grads.examples"] = counts["model.loss_and_grads.examples"]
    values["quant.dequantize_4bit.bytes_out"] = counts["quant.dequantize_4bit.bytes_out"]
    attempts = counts["qagen.attempts"]
    values["qagen.accept_ratio"] = counts["qagen.accepted"] / attempts if attempts else 0.0
    metrics = {}
    for name in PER_LAYER:
        if name in values:
            metrics[name] = values[name]
        else:
            span, _, part = name.rpartition(".")
            metrics[name] = agg[span][part] if span in agg else 0
    notes = {"spans": len(tracer.spans), "spans_file": str(spans_path.relative_to(ROOT)),
             "unbound": tracer.unbound}
    return not failures, attempted, failures, metrics, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("train-lora", "train-qlora", "corpus-pipeline"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny is for the self-test only")
    args = ap.parse_args(argv)

    if not (SRC / "qlorakit" / "__init__.py").is_file():
        print(f"perfbench: qlorakit sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(1, str(SRC))
    import numpy as np

    import_spans = [import_qlorakit() for _ in range(IMPORTS)]
    import qlorakit.cli  # noqa: F401  (the last fresh import, which the workloads use)
    if not Path(qlorakit.cli.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported qlorakit from {qlorakit.cli.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    wl = workloads.make(args.workload, workloads.SCALES[args.scale], args.seed,
                        OUT_DIR / f"work-{tag}-p{os.getpid()}")
    env = environment(np, args, workloads.GEN_DATA_CONCURRENCY)
    try:
        if args.trace:
            correct, attempted, failures, metrics, notes = traced_run(
                wl, OUT_DIR / f"spans-{args.workload}-s{args.seed}.jsonl")
            units = {name: layer_unit(name) for name in PER_LAYER}
        else:
            correct, attempted, failures, metrics, notes = timed_run(
                wl, args.seconds, import_spans)
            units = dict(E2E)
    finally:
        wl.close()
    env["threads_at_exit"] = threading.active_count()

    print("env " + json.dumps(env, sort_keys=True))
    print("run " + json.dumps(notes, sort_keys=True))
    for failure in failures:
        print("FAILED " + failure)
    for name, unit in units.items():
        print(f"{args.workload:<16} {name:<40} {metrics[name]!r} {unit}")
    result = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    (OUT_DIR / f"result-{tag}.json").write_text(
        json.dumps({"env": env, "run": notes, "failures": failures, **result},
                   indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
