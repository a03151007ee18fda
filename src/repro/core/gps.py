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

from .ranks import contribution
from .weighted import WeightedSampler
from .weights import WeightContext, new_context

__all__ = ["GPS", "GPSA"]


class GPS(WeightedSampler):
    name = "GPS"

    def __init__(self, M, pattern, weight_fn, seed=0) -> None:
        super().__init__(M, pattern, weight_fn, seed)
        self.z_star = 0.0  # r_{M+1}: largest discarded rank

    def _insert(self, u: int, v: int) -> None:
        key = (u, v) if u < v else (v, u)
        res = self.res
        if key in res.records:
            return
        inst = res.instances(self.pattern, u, v)
        if inst:
            self.estimate += contribution(inst, self.z_star)
        w = self.weight_fn(new_context(WeightContext, (u, v, self.t, self.pattern, inst, res)))
        r = self._rank(w)
        if len(res.records) < res.capacity:
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

    def _delete(self, u: int, v: int) -> None:
        key = (u, v) if u < v else (v, u)
        res = self.res
        rec = res.records.get(key)
        if rec is not None and not rec.tagged:
            res.tag(key)  # leaves the zombie occupying capacity
        inst = res.instances(self.pattern, u, v)
        if inst:
            self.estimate -= contribution(inst, self.z_star)
