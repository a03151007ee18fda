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

WSD is the only weighted sampler: GPS and GPS-A (``core.gps``) are WSD with
their own deletion rule, so ``_insert`` is the one insertion path.

Ranks are ``w / (1.0 - u)`` with ``u`` replayed from ``self.rng``'s raw
blocks by ``draws.Draws``: the same doubles, in the same order, as
successive scalar ``random()`` calls. WSD draws nothing else from
``self.rng``, so every rank is bit-identical to ``ranks.rank(w, self.rng)``,
without a scalar generator call per insertion.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from ..draws import Draws
from .ranks import contribution
from .reservoir import Reservoir
from .weights import WeightContext, new_context

__all__ = ["WSD"]


class WSD:
    """WSD sampler + estimator. ``weight_fn`` distinguishes WSD-H / WSD-L."""

    def __init__(
        self,
        M: int,
        pattern: str,
        weight_fn: Callable[[WeightContext], float],
        seed: int = 0,
    ) -> None:
        self.pattern = pattern
        self.weight_fn = weight_fn
        self.rng = np.random.default_rng(seed)
        self._random = Draws(self.rng).random
        self.res = Reservoir(M)
        self.estimate = 0.0
        self.t = 0
        self.tau_p = 0.0
        self.tau_q = 0.0

    # -- event processing --------------------------------------------------
    def process(self, op: int, u: int, v: int) -> None:
        self.t += 1
        if op > 0:
            self._insert(u, v)
        else:
            self._delete(u, v)

    def _rank(self, w: float) -> float:
        """``ranks.rank(w, self.rng)``, with ``u`` from the replayed block."""
        if w <= 0:
            raise ValueError(f"edge weight must be positive, got {w}")
        return w / (1.0 - self._random())

    def _insert(self, u: int, v: int) -> None:
        res = self.res
        key = (u, v) if u < v else (v, u)
        if key in res.records:
            if not res.records[key].tagged:
                return  # infeasible event; defensive no-op
            res.remove(key)  # a re-arrival replaces its GPS-A zombie
        # Estimator update (Algorithm 2 lines 4–7), then the sampling
        # decision (Algorithm 1 ``insert``) with the weight W(e, R).
        inst = res.instances(self.pattern, u, v)
        if inst:
            self.estimate += contribution(inst, self.tau_q)
        w = self.weight_fn(
            new_context(WeightContext, (u, v, self.t, self.pattern, inst, res))
        )
        r = self._rank(w)
        if len(res.records) < res.capacity:  # Case 1: tau_p, tau_q held
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
        key = (u, v) if u < v else (v, u)
        res = self.res
        if key in res.records:  # Case 3: drop outright (the fix over GPS-A)
            res.remove(key)
        inst = res.instances(self.pattern, u, v)
        if inst:
            self.estimate -= contribution(inst, self.tau_q)
