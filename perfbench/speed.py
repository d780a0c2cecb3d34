"""Host-speed probe: times a fixed reference kernel while a workload runs,
so that phase times can be reported at a nominal machine speed.

On a shared host the same code runs up to 1.7x slower for stretches of
tenths of a second to seconds, and the share of slow time changes from
one run to the next. Timed alone, a 40-second run's median then swings
by more than the benchmark's bounds. The probe samples the machine's
speed with code the benchmark owns and no program change can touch: every
INTERVAL_S of wall time a SIGALRM handler runs a small numpy transformer
training step (the same mix of small matmuls, einsums, softmax and Python
overhead that qlorakit runs) twice and records how long the second run
took; the first refills the caches, so that the sample does not depend
on how much of them the workload's own data evicted. A
phase that took T seconds while the reference calls took a mean of R
seconds is reported as T * REF_S / R, its time on a machine where one
reference call takes REF_S. Contention slows both by about the same
factor, so it cancels; a change to the program moves T and not R.

The handler runs in the main thread between bytecodes, so it changes no
arithmetic of the workload. It adds two reference calls per interval
(2 to 4% of the run) to every phase alike. It samples nothing while other
threads are alive (the gen-data thread pool), because there the
reference call would also time waits for the GIL.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import threading
import time

import numpy as np

# nominal seconds of one reference call: about its uncontended time on the
# 2-vCPU x86 VM the bounds were set on
REF_S = 6.0e-4
INTERVAL_S = 0.05
MIN_SAMPLES = 10  # fewer samples than this in a phase: use the enclosing span's
WARMUP_CALLS = 50

_D, _HEADS, _FF, _VOCAB, _SEQ, _LAYERS, _RANK = 32, 4, 64, 64, 16, 2, 16
_ADAPTED = ("q", "v")


class Reference:
    """One training example's forward and backward pass through a fixed
    two-layer, four-head transformer with rank-16 adapters on q and v.

    It is the benchmark's own code, written in the same style as the
    toy model (einsum attention, a per-layer tape, adapter gradients), so
    that contention slows it about as much as it slows the workload.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.embed = rng.standard_normal((_VOCAB, _D))
        shapes = dict(q=(_D, _D), k=(_D, _D), v=(_D, _D), o=(_D, _D),
                      up=(_D, _FF), down=(_FF, _D))
        self.layers = [{k: rng.standard_normal(s) * 0.1 for k, s in shapes.items()}
                       for _ in range(_LAYERS)]
        self.adapters = [{k: (rng.standard_normal((_D, _RANK)) * 0.1,
                              rng.standard_normal((_RANK, _D)) * 0.1) for k in _ADAPTED}
                         for _ in range(_LAYERS)]
        self.head = rng.standard_normal((_D, 4))
        self.tokens = rng.integers(0, _VOCAB, _SEQ)

    @staticmethod
    def _softmax(z):
        e = np.exp(z - z.max(axis=-1, keepdims=True))
        return e / e.sum(axis=-1, keepdims=True)

    def __call__(self) -> float:
        t, dh = _SEQ, _D // _HEADS
        x = self.embed[self.tokens]
        tape = []
        for w, ad in zip(self.layers, self.adapters):
            x_in, proj = x, {}
            for k in ("q", "k", "v"):
                y = x @ w[k]
                if k in ad:
                    b, a = ad[k]
                    y = y + (x @ b) @ a
                proj[k] = y.reshape(t, _HEADS, dh)
            attn = self._softmax(np.einsum("thd,shd->hts", proj["q"], proj["k"]) * dh ** -0.5)
            ctx = np.einsum("hts,shd->thd", attn, proj["v"]).reshape(t, _D)
            mid = x + ctx @ w["o"]
            up = mid @ w["up"]
            x = mid + np.maximum(up, 0.0) @ w["down"]
            tape.append((x_in, proj, attn, up))
        probs = self._softmax(x.mean(axis=0) @ self.head)
        dx = np.tile((probs - np.eye(4)[0]) @ self.head.T / t, (t, 1))
        grads = []
        for w, ad, (x_in, proj, attn, up) in zip(
                reversed(self.layers), reversed(self.adapters), reversed(tape)):
            dmid = dx + ((dx @ w["down"].T) * (up > 0.0)) @ w["up"].T
            dctx = (dmid @ w["o"].T).reshape(t, _HEADS, dh)
            dattn = np.einsum("thd,shd->hts", dctx, proj["v"])
            dscores = attn * (dattn - np.sum(dattn * attn, axis=-1, keepdims=True))
            d = {"q": np.einsum("hts,shd->thd", dscores, proj["k"]).reshape(t, _D),
                 "k": np.einsum("hts,thd->shd", dscores, proj["q"]).reshape(t, _D),
                 "v": np.einsum("hts,thd->shd", attn, dctx).reshape(t, _D)}
            dx = dmid
            for k, dy in d.items():
                dx = dx + dy @ w[k].T
                if k in ad:
                    b, a = ad[k]
                    grads.append((x_in @ b).T @ dy)
                    grads.append(x_in.T @ (dy @ a.T))
        return float(sum(g[0, 0] for g in grads))


class SpeedProbe:
    """Samples the reference kernel's time every INTERVAL_S of wall time."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.reference = Reference()
        self.starts: list[float] = []  # sample start times, increasing
        self.costs: list[float] = []  # seconds each sample's call took
        self._previous = None

    def _on_alarm(self, _signum, _frame) -> None:
        if threading.active_count() > 1:
            return
        self.reference()  # untimed: refills the caches the workload evicted
        t = time.perf_counter()
        self.reference()
        self.starts.append(t)
        self.costs.append(time.perf_counter() - t)

    def start(self) -> None:
        for _ in range(WARMUP_CALLS):
            self.reference()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def _mean_cost(self, start: float, end: float) -> tuple[float, int]:
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        n = hi - lo
        return (sum(self.costs[lo:hi]) / n if n else 0.0), n

    def seconds(self, span: tuple[float, float], *enclosing: tuple[float, float]) -> float:
        """The span's duration at reference speed.

        The speed comes from the samples inside the span, or, if it holds
        fewer than MIN_SAMPLES, from the first enclosing span that holds
        enough, and last from every sample of the run.
        """
        for start, end in (span, *enclosing):
            mean, n = self._mean_cost(start, end)
            if n >= MIN_SAMPLES:
                return (span[1] - span[0]) * REF_S / mean
        mean, n = self._mean_cost(float("-inf"), float("inf"))
        return (span[1] - span[0]) * REF_S / mean if n else span[1] - span[0]

    def summary(self) -> dict:
        out = {"samples": len(self.costs), "interval_s": self.interval, "ref_s": REF_S}
        if len(self.costs) >= 2:
            deciles = statistics.quantiles(self.costs, n=10)
            out["cost_s"] = {"p10": deciles[0], "p50": deciles[4], "p90": deciles[8],
                             "mean": statistics.fmean(self.costs)}
        return out
