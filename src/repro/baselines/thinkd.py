"""ThinkD [Shin et al., ECML-PKDD'18] — "Think before you discard": for every
arriving event the estimate is updated from the instances the event forms
with the sampled graph *before* the sampling decision, weighted by the
inverse inclusion probability of the other |H|-1 edges (the ThinkD.fast
closed form). Sample maintenance is random pairing, as in Triest, but the
count-then-sample order yields a lower-variance estimator — the middle ground
the paper's comparison relies on.
"""
from __future__ import annotations

from ..core.patterns import PATTERN_EDGES, adj_add, adj_remove, count_instances
from .random_pairing import RandomPairing

__all__ = ["ThinkD"]


class ThinkD:
    def __init__(self, M: int, pattern: str, seed: int = 0) -> None:
        self.pattern = pattern
        self.h = PATTERN_EDGES[pattern]
        self.rp = RandomPairing(M, seed)
        self.adj: dict[int, set[int]] = {}
        self.estimate = 0.0

    def process(self, op: int, u: int, v: int) -> None:
        key = (u, v) if u < v else (v, u)
        adj = self.adj
        rp = self.rp
        if op > 0:
            # Update the estimate first (the "think" step), with the
            # inclusion probability observed before this event's bookkeeping.
            c = count_instances(self.pattern, adj, u, v)
            if c:
                self.estimate += c / rp.inclusion_prob(self.h - 1)
            decision, evicted = rp.on_insert(key)
            if decision == "replace":
                adj_remove(adj, evicted)
            if decision != "skip":
                adj_add(adj, key)
        else:
            if key in rp:
                adj_remove(adj, key)
            c = count_instances(self.pattern, adj, u, v)
            if c:
                self.estimate -= c / rp.inclusion_prob(self.h - 1)
            rp.on_delete(key)
