"""WSD — Weighted Sampling with Deletions (Algorithms 1–2, Section III-C).

A fixed-size, weight-sensitive, one-pass sampler for fully dynamic graph
streams, with the unbiased subgraph-count estimator of Theorem 4. The two
thresholds:

* ``tau_p`` — admission threshold: an insertion is sampled only if its rank
  exceeds ``tau_p`` (held while the reservoir is non-full, refreshed to the
  reservoir's minimum rank when full);
* ``tau_q`` — probability threshold: at any time,
  ``P[e ∈ R] = P[r(e) > tau_q] = min(1, w(e)/tau_q)`` (Lemma 1); the
  estimator divides by this inclusion probability.

The estimator (Algorithm 2) is updated *before* the reservoir for every
event: on insertion of ``e`` it adds, and on deletion subtracts,
``Σ_J Π_{e'∈J\\e} 1 / P[r(e') > tau_q]`` over pattern instances ``J`` formed
by ``e`` with currently sampled edges.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .patterns import edge_key, instances
from .ranks import contribution, rank
from .reservoir import Reservoir
from .weights import WeightContext

__all__ = ["WSD"]


class WSD:
    """WSD sampler + estimator. ``weight_fn`` distinguishes WSD-H / WSD-L."""

    name = "WSD"

    def __init__(
        self,
        M: int,
        pattern: str,
        weight_fn: Callable[[WeightContext], float],
        seed: int = 0,
    ) -> None:
        self.M = M
        self.pattern = pattern
        self.weight_fn = weight_fn
        self.rng = np.random.default_rng(seed)
        self.res = Reservoir(M)
        self.tau_p = 0.0
        self.tau_q = 0.0
        self.estimate = 0.0
        self.t = 0

    # -- event processing --------------------------------------------------
    def process(self, op: int, u: int, v: int) -> None:
        self.t += 1
        if op > 0:
            self._insert(u, v)
        else:
            self._delete(u, v)

    def _insert(self, u: int, v: int) -> None:
        inst = self.begin_insert(u, v)
        if inst is None:
            return
        w = self.weight_fn(
            WeightContext(u, v, self.t, self.pattern, inst, self.res)
        )
        self.finish_insert(u, v, inst, w)

    def begin_insert(self, u: int, v: int) -> list | None:
        """Phase 1 of an insertion (estimator update, Algorithm 2 lines 4–7):
        returns the pattern instances formed by ``(u, v)`` with sampled
        edges, or None for an infeasible duplicate. Split out so the RL
        environment can observe the state and choose the weight before
        ``finish_insert`` commits the sampling decision."""
        key = edge_key(u, v)
        if key in self.res:  # infeasible event; defensive no-op
            return None
        inst = instances(self.pattern, self.res.adj, u, v)
        if inst:
            self.estimate += contribution(inst, self.res.records, self.tau_q)
        return inst

    def finish_insert(self, u: int, v: int, inst: list, w: float) -> None:
        """Phase 2 of an insertion (Algorithm 1 ``insert``) with weight ``w``."""
        key = edge_key(u, v)
        res = self.res
        r = rank(w, self.rng)
        if not res.full:  # Case 1: tau_p, tau_q held
            if r > self.tau_p:  # Case 1.1
                res.add(key, w, r, self.t)
            # Case 1.2: discard
        else:  # Case 2: refresh tau_p to the reservoir's minimum rank
            _, mrec = res.min_entry()
            self.tau_p = mrec.rank
            if r > self.tau_p:  # Case 2.1: replace the minimum
                res.pop_min()
                res.add(key, w, r, self.t)
                self.tau_q = self.tau_p
            elif r > self.tau_q:  # Case 2.2
                self.tau_q = r
            # Case 2.3: discard

    def _delete(self, u: int, v: int) -> None:
        key = edge_key(u, v)
        res = self.res
        if key in res:  # Case 3: drop outright (the fix over GPS-A)
            res.remove(key)
        inst = instances(self.pattern, res.adj, u, v)
        if inst:
            self.estimate -= contribution(inst, res.records, self.tau_q)
