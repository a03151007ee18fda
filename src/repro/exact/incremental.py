"""Exact ground-truth subgraph counts over a fully dynamic stream.

``ExactCounter`` maintains the full graph and the exact count ``|J^(t)|`` of
a pattern (its ``estimate``, as for a sampler) by per-event local deltas
(the same local enumeration the samplers use, applied to the *complete*
adjacency — this is the evaluation oracle, it is not subject to the paper's
memory constraint).

``truth_trajectory`` runs an ``ExactCounter`` through ``runner.run_trial``,
the loop every sampler runs through, and returns the exact count at every
checkpoint — computed once per (stream, pattern) and shared by all
Monte-Carlo trials in the harness.
"""
from __future__ import annotations

import numpy as np

from ..core.patterns import adj_add, adj_remove, count_instances, edge_key
from ..core.runner import checkpoints, run_trial

__all__ = ["ExactCounter", "truth_trajectory", "checkpoints"]


class ExactCounter:
    def __init__(self, pattern: str) -> None:
        self.pattern = pattern
        self.adj: dict[int, set[int]] = {}
        self.estimate = 0
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
        self.estimate += count_instances(self.pattern, self.adj, a, b)
        adj_add(self.adj, key)
        self.n_edges += 1

    def delete(self, u: int, v: int) -> None:
        key = edge_key(u, v)
        a, b = key
        if b not in self.adj.get(a, ()):  # infeasible; defensive
            return
        adj_remove(self.adj, key)
        self.estimate -= count_instances(self.pattern, self.adj, a, b)
        self.n_edges -= 1


def truth_trajectory(
    stream: np.ndarray, pattern: str, ckpt_every: int
) -> tuple[np.ndarray, np.ndarray]:
    """(checkpoint indices, exact counts at those indices) for ``stream``."""
    res = run_trial(stream, ExactCounter(pattern), ckpt_every)
    return res["ckpt_idx"], res["est"]
