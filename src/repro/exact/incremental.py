"""Exact ground-truth subgraph counts over a fully dynamic stream.

``ExactCounter`` maintains the full graph and the exact count ``|J^(t)|`` of
a pattern by per-event local deltas (the same local enumeration the samplers
use, applied to the *complete* adjacency — this is the evaluation oracle, it
is not subject to the paper's memory constraint).

``truth_trajectory`` runs one pass over a stream and returns the exact count
at every checkpoint — computed once per (stream, pattern) and shared by all
Monte-Carlo trials in the harness.
"""
from __future__ import annotations

import numpy as np

from ..core.patterns import adj_add, adj_remove, count_instances, edge_key

__all__ = ["ExactCounter", "truth_trajectory", "checkpoints"]


class ExactCounter:
    def __init__(self, pattern: str) -> None:
        self.pattern = pattern
        self.adj: dict[int, set[int]] = {}
        self.count = 0
        self.n_edges = 0

    def process(self, op: int, u: int, v: int) -> None:
        if op > 0:
            self.insert(u, v)
        else:
            self.delete(u, v)

    def insert(self, u: int, v: int) -> None:
        key = edge_key(u, v)
        a, b = key
        if b in self.adj.get(a, ()):  # infeasible duplicate; defensive
            return
        self.count += count_instances(self.pattern, self.adj, a, b)
        adj_add(self.adj, key)
        self.n_edges += 1

    def delete(self, u: int, v: int) -> None:
        key = edge_key(u, v)
        a, b = key
        if b not in self.adj.get(a, ()):  # infeasible; defensive
            return
        adj_remove(self.adj, key)
        self.count -= count_instances(self.pattern, self.adj, a, b)
        self.n_edges -= 1


def checkpoints(n_events: int, ckpt_every: int) -> np.ndarray:
    """1-based event indices at which trajectories are recorded (always
    includes the final event)."""
    idx = np.arange(ckpt_every, n_events + 1, ckpt_every, dtype=np.int64)
    if len(idx) == 0 or idx[-1] != n_events:
        idx = np.append(idx, n_events)
    return idx


def truth_trajectory(
    stream: np.ndarray, pattern: str, ckpt_every: int
) -> tuple[np.ndarray, np.ndarray]:
    """(checkpoint indices, exact counts at those indices) for ``stream``."""
    n = len(stream)
    idx = checkpoints(n, ckpt_every)
    counter = ExactCounter(pattern)
    ops = stream["op"].tolist()
    us = stream["u"].tolist()
    vs = stream["v"].tolist()
    out = np.empty(len(idx), dtype=np.float64)
    j = 0
    for i in range(n):
        counter.process(ops[i], us[i], vs[i])
        if j < len(idx) and i + 1 == idx[j]:
            out[j] = counter.count
            j += 1
    return idx, out
