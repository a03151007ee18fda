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

from .ranks import contribution
from .weighted import WeightedSampler
from .weights import WeightContext, new_context

__all__ = ["WSD"]


class WSD(WeightedSampler):
    """WSD sampler + estimator. ``weight_fn`` distinguishes WSD-H / WSD-L."""

    def __init__(self, M, pattern, weight_fn, seed=0) -> None:
        super().__init__(M, pattern, weight_fn, seed)
        self.tau_p = 0.0
        self.tau_q = 0.0

    # -- event processing --------------------------------------------------
    def _insert(self, u: int, v: int) -> None:
        res = self.res
        key = (u, v) if u < v else (v, u)
        if key in res.records:
            return  # infeasible event; defensive no-op
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
