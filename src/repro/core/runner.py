"""Single-trial execution and error metrics (Section V-A).

``run_trial`` feeds one stream through one sampler, recording the estimate at
the same checkpoints the ground-truth trajectory was recorded at, and the
kernel wall-time (stream processing only — stream generation and ground
truth are excluded, as in the paper's running-time measurements).

Metrics (Section V-A):
* ARE  = |X̂ - X| / X at the end of the stream;
* MARE = mean over checkpoints (with X_t > 0) of |X̂_t - X_t| / X_t.
"""
from __future__ import annotations

import time
from typing import Protocol

import numpy as np

from ..exact.incremental import checkpoints

__all__ = ["Sampler", "run_trial", "are", "mare"]


class Sampler(Protocol):
    estimate: float

    def process(self, op: int, u: int, v: int) -> None: ...


def run_trial(
    stream: np.ndarray, sampler: Sampler, ckpt_every: int
) -> dict:
    """Run ``sampler`` over ``stream``; returns estimates at checkpoints,
    the final estimate, and elapsed kernel seconds."""
    n = len(stream)
    idx = checkpoints(n, ckpt_every)
    ops = stream["op"].tolist()
    us = stream["u"].tolist()
    vs = stream["v"].tolist()
    est = []
    process = sampler.process
    start = 0
    t0 = time.perf_counter()
    # One plain Python loop per checkpoint slice (the last checkpoint is the
    # final event), reading the estimate after each.
    for stop in idx.tolist():
        for op, u, v in zip(ops[start:stop], us[start:stop], vs[start:stop]):
            process(op, u, v)
        est.append(sampler.estimate)
        start = stop
    elapsed = time.perf_counter() - t0
    est = np.array(est, dtype=np.float64)
    return {"ckpt_idx": idx, "est": est, "final": float(est[-1]), "time_s": elapsed}


def are(est_final: float, truth_final: float) -> float:
    """Absolute Relative Error (%) at stream end."""
    if truth_final == 0:
        return 0.0 if est_final == 0 else float("inf")
    return abs(est_final - truth_final) / abs(truth_final) * 100.0


def mare(est: np.ndarray, truth: np.ndarray, floor: float = 0.0) -> float:
    """Mean Absolute Relative Error (%) over checkpoints with truth > floor.

    The paper uses truth > 0; at reduced scale a massive-deletion event can
    push the true count to single digits, where relative error is
    meaningless noise, so the harness passes a small absolute floor
    (documented in DESIGN.md substitutions)."""
    mask = truth > max(floor, 0.0)
    if not mask.any():
        return 0.0
    return float(np.mean(np.abs(est[mask] - truth[mask]) / truth[mask]) * 100.0)
