"""GPS (insertion-only weighted sampling, Section III-A) and GPS-A (the
paper's straw-man fully-dynamic adaptation, Section III-B).

GPS maintains the top-M edges by rank; the estimation threshold
``z_star = r_{M+1}`` is the largest rank ever discarded, so
``P[e ∈ R] = min(1, w(e)/z_star)`` (Eq. 1). GPS rejects deletion events —
Example 1 of the paper shows it is *incorrect* on fully dynamic streams.

GPS-A handles a deletion by attaching a "DEL" tag: the edge stops forming
subgraphs and is excluded from the estimator, but keeps occupying reservoir
capacity until evicted by rank — the space-waste drawback WSD removes.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .patterns import edge_key, instances
from .ranks import contribution, rank
from .reservoir import Reservoir
from .weights import WeightContext

__all__ = ["GPS", "GPSA"]


class GPS:
    name = "GPS"
    supports_deletion = False

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
        self.z_star = 0.0  # r_{M+1}: largest discarded rank
        self.estimate = 0.0
        self.t = 0

    def process(self, op: int, u: int, v: int) -> None:
        self.t += 1
        if op > 0:
            self._insert(u, v)
        else:
            self._delete(u, v)

    def _insert(self, u: int, v: int) -> None:
        key = edge_key(u, v)
        res = self.res
        if key in res:
            return
        inst = instances(self.pattern, res.adj, u, v)
        if inst:
            self.estimate += contribution(inst, res.records, self.z_star)
        w = self.weight_fn(WeightContext(u, v, self.t, self.pattern, inst, res))
        r = rank(w, self.rng)
        if not res.full:
            res.add(key, w, r, self.t)
        else:
            _, mrec = res.min_entry()
            if r > mrec.rank:
                res.pop_min()
                res.add(key, w, r, self.t)
                self.z_star = max(self.z_star, mrec.rank)
            else:
                self.z_star = max(self.z_star, r)

    def _delete(self, u: int, v: int) -> None:
        raise NotImplementedError(
            "GPS is insertion-only (Example 1 shows it is biased under deletions)"
        )


class GPSA(GPS):
    name = "GPS-A"
    supports_deletion = True

    def _delete(self, u: int, v: int) -> None:
        key = edge_key(u, v)
        res = self.res
        rec = res.records.get(key)
        if rec is not None and not rec.tagged:
            res.tag(key)  # leaves the zombie occupying capacity
        inst = instances(self.pattern, res.adj, u, v)
        if inst:
            self.estimate -= contribution(inst, res.records, self.z_star)
