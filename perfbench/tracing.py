"""In-memory span tracer that wraps qlorakit's public functions from outside.

Each wrapped call records one span: (id, parent id, name, start, end,
run id). Spans stay in a list until the run ends and are written out
then. A span's self time is its duration minus the part of its interval
that its child spans cover (the union, so overlapping children from the
gen-data thread pool are counted once).

The wrappers are installed at the names the *calling* modules bind,
because `from .x import f` copies the reference: patching
`qlorakit.model.forward` would miss `qlorakit.trainer.forward`.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict

# span name -> ("module:attribute" or "module:Class.method") bindings to wrap
BINDINGS = {
    "model.loss_and_grads": ["qlorakit.trainer:loss_and_grads"],
    "model.forward": ["qlorakit.trainer:forward", "qlorakit.tasks:forward"],
    "model.base_fingerprint": ["qlorakit.trainer:base_fingerprint"],
    "model.quantize_base": ["qlorakit.model:quantize_base", "qlorakit.cli:quantize_base"],
    # model._dense_weights imports this from qlorakit.quant on every call
    "quant.dequantize_4bit": ["qlorakit.quant:dequantize_4bit"],
    "quant.quantize_8bit": ["qlorakit.optim:quantize_8bit"],
    "quant.dequantize_8bit": ["qlorakit.optim:dequantize_8bit"],
    "optim.adamw_step": ["qlorakit.trainer:adamw_step"],
    "trainer.train": ["qlorakit.trainer:train", "qlorakit.cli:train"],
    "trainer.evaluate_accuracy": ["qlorakit.trainer:evaluate_accuracy",
                                  "qlorakit.cli:evaluate_accuracy"],
    "matrix.softmax": ["qlorakit.model:softmax"],
    "lora.save_adapters": ["qlorakit.cli:save_adapters"],
    "lora.load_adapters": ["qlorakit.cli:load_adapters"],
    "qagen.complete": ["qlorakit.qagen:MockLLMClient.complete"],
    "qagen.parse_qa_response": ["qlorakit.qagen:parse_qa_response"],
    "qagen.generate_dataset": ["qlorakit.qagen:generate_dataset"],
    "qagen.read_records_jsonl": ["qlorakit.qagen:read_records_jsonl"],
    "tasks.tokenize": ["qlorakit.tasks:tokenize"],
    "tasks.corpus_to_examples": ["qlorakit.tasks:corpus_to_examples"],
    "tasks.predict_answers": ["qlorakit.tasks:predict_answers"],
    "evalharness.normalize_answer": ["qlorakit.evalharness:normalize_answer",
                                     "qlorakit.tasks:normalize_answer"],
    "evalharness.build_confusion": ["qlorakit.evalharness:build_confusion"],
    "evalharness.compute_metrics": ["qlorakit.evalharness:compute_metrics"],
    "evalharness.read_predictions_jsonl": ["qlorakit.evalharness:read_predictions_jsonl"],
    "cli.make-scenarios": ["qlorakit.cli:cmd_make_scenarios"],
    "cli.gen-data": ["qlorakit.cli:cmd_gen_data"],
    "cli.split": ["qlorakit.cli:cmd_split"],
    "cli.train": ["qlorakit.cli:cmd_train"],
    "cli.predict": ["qlorakit.cli:cmd_predict"],
    "cli.eval": ["qlorakit.cli:cmd_eval"],
    "cli.report": ["qlorakit.cli:cmd_report"],
}


def _count_examples(args, kwargs, result):
    batch = kwargs["batch"] if "batch" in kwargs else args[2]
    return {"model.loss_and_grads.examples": len(batch)}


def _count_bytes_out(args, kwargs, result):
    return {"quant.dequantize_4bit.bytes_out": result.nbytes}


def _count_generation(args, kwargs, result):
    return {"qagen.accepted": result.stats["accepted"],
            "qagen.attempts": result.stats["attempts"]}


# counters taken from a call's arguments or result, where the work happens
COUNTERS = {
    "model.loss_and_grads": _count_examples,
    "quant.dequantize_4bit": _count_bytes_out,
    "qagen.generate_dataset": _count_generation,
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.run_id = 0
        self.enabled = True
        self.unbound: list[str] = []
        self._ids = itertools.count(1)
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._restore: list[tuple] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._stack()
            # a pool thread's outermost span belongs to the main thread's
            # open span (generate_dataset fans out to its workers)
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else 0
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((sid, parent, name, start, end, self.run_id))
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    self.counts[key] += value
            return result

        return traced

    def install(self) -> None:
        for name, targets in BINDINGS.items():
            for target in targets:
                module_name, _, attr_path = target.partition(":")
                owner = importlib.import_module(module_name)
                *outer, attr = attr_path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = owner.__dict__.get(attr) if isinstance(owner, type) \
                    else getattr(owner, attr, None)
                if original is None:
                    # a refactor moved this binding; its metrics read 0
                    self.unbound.append(target)
                    continue
                setattr(owner, attr, self.wrap(name, original))
                self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, and self seconds."""
        children = defaultdict(list)
        for sid, parent, _name, start, end, _run in self.spans:
            if parent:
                children[parent].append((start, end))
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for sid, _parent, name, start, end, _run in self.spans:
            covered = 0.0
            reach = start
            for c_start, c_end in sorted(children.get(sid, ())):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            agg = out[name]
            agg["calls"] += 1
            agg["s"] += end - start
            agg["self_s"] += (end - start) - covered
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, run in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end, "run": run}) + "\n")
