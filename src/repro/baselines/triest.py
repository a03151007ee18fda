"""Triest-FD [De Stefani et al., TKDD'17] — uniform reservoir via random
pairing, counting pattern instances that lie *wholly inside the sample* and
rescaling by the inverse inclusion probability of |H| edges at query time.

This "count inside the sample" design is what gives Triest the highest
variance among the baselines (the arriving edge's instances only contribute
if the edge itself gets sampled), which is the property the paper's
comparison exercises.
"""
from __future__ import annotations

from ..core.patterns import PATTERN_EDGES, adj_add, adj_remove, count_instances
from .random_pairing import RandomPairing

__all__ = ["Triest"]


class Triest:
    def __init__(self, M: int, pattern: str, seed: int = 0) -> None:
        self.pattern = pattern
        self.h = PATTERN_EDGES[pattern]
        self.rp = RandomPairing(M, seed)
        self.adj: dict[int, set[int]] = {}
        self.sample_count = 0.0  # instances wholly inside the sample graph

    def process(self, op: int, u: int, v: int) -> None:
        """On every sample membership change, ``sample_count`` moves by the
        instances the edge forms with the *other* sampled edges (counted
        while the adjacency does not hold it)."""
        key = (u, v) if u < v else (v, u)
        adj = self.adj
        if op > 0:
            decision, evicted = self.rp.on_insert(key)
            if decision == "skip":
                return
            if decision == "replace":
                adj_remove(adj, evicted)
                self.sample_count -= count_instances(self.pattern, adj, *evicted)
            self.sample_count += count_instances(self.pattern, adj, u, v)
            adj_add(adj, key)
        elif self.rp.on_delete(key):
            adj_remove(adj, key)
            self.sample_count -= count_instances(self.pattern, adj, u, v)

    @property
    def estimate(self) -> float:
        return self.sample_count / self.rp.inclusion_prob(self.h)
