"""WRS — Waiting-Room Sampling [Shin ICDM'17; Lee, Shin & Faloutsos,
VLDBJ'20] — exploits temporal locality: the storage budget M is split into a
FIFO *waiting room* (ratio ``wr_ratio``, storing the most recent edges
unconditionally) and a uniform *reservoir* fed, via random pairing, by the
edges that age out of the waiting room.

Estimator (count-then-sample, as ThinkD): per instance formed by an arriving
event, multiply 1/p over the other |H|-1 stored edges where p = 1 for
waiting-room edges and the random-pairing inclusion probability for reservoir
edges (jointly, Π min(1,(Rc-i)/(N_r-i)) over the reservoir edges of the
instance). Because recent edges have p = 1, patterns closed by temporally
close edges are estimated with low variance — the advantage the paper's WRS
rows show over Triest/ThinkD.
"""
from __future__ import annotations

from collections import OrderedDict

from ..core.patterns import PATTERN_EDGES, edge_key, instances
from .random_pairing import RandomPairing

__all__ = ["WRS"]


class WRS:
    name = "WRS"
    supports_deletion = True

    def __init__(
        self, M: int, pattern: str, seed: int = 0, wr_ratio: float = 0.1
    ) -> None:
        if not (0.0 < wr_ratio < 1.0):
            raise ValueError("wr_ratio must be in (0, 1)")
        self.pattern = pattern
        self.h = PATTERN_EDGES[pattern]
        self.wr_cap = max(1, int(M * wr_ratio))
        self.rp = RandomPairing(max(1, M - self.wr_cap), seed)
        self.waiting: OrderedDict[tuple[int, int], int] = OrderedDict()
        self.adj: dict[int, set[int]] = {}  # stored = waiting room ∪ reservoir
        self.estimate = 0.0
        self.t = 0

    def _adj_add(self, key: tuple[int, int]) -> None:
        u, v = key
        self.adj.setdefault(u, set()).add(v)
        self.adj.setdefault(v, set()).add(u)

    def _adj_remove(self, key: tuple[int, int]) -> None:
        u, v = key
        for a, b in ((u, v), (v, u)):
            s = self.adj.get(a)
            if s is not None:
                s.discard(b)
                if not s:
                    del self.adj[a]

    def _instance_weight_sum(self, u: int, v: int) -> float:
        """Σ over instances of 1/P[other stored edges stored], where waiting
        room edges are stored with probability 1.

        The random-pairing probability depends only on how many of an
        instance's other edges sit in the reservoir, so ``inv[j]`` — the
        inverse probability for ``j`` reservoir edges, its product formed in
        the order ``i = 0..j-1`` — is built once per event and looked up per
        instance."""
        inst = instances(self.pattern, self.adj, u, v)
        if not inst:
            return 0.0
        rc = self.rp.capacity
        n = self.rp.population
        inv = []
        p = 1.0
        for i in range(self.h):
            inv.append(1.0 / max(p, 1e-300))
            if n - i > 0:
                p *= min(1.0, (rc - i) / (n - i))
        waiting = self.waiting
        total = 0.0
        for other_edges in inst:
            j = 0
            for k in other_edges:
                if k not in waiting:
                    j += 1
            total += inv[j]
        return total

    def process(self, op: int, u: int, v: int) -> None:
        self.t += 1
        key = edge_key(u, v)
        if op > 0:
            self.estimate += self._instance_weight_sum(u, v)
            # admit to the waiting room; the displaced oldest edge enters the
            # reservoir's random-pairing population.
            self.waiting[key] = self.t
            self._adj_add(key)
            if len(self.waiting) > self.wr_cap:
                old, _ = self.waiting.popitem(last=False)
                decision, evicted = self.rp.on_insert(old)
                if decision == "replace":
                    self._adj_remove(evicted)
                if decision == "skip":
                    self._adj_remove(old)
        else:
            in_wait = key in self.waiting
            in_res = key in self.rp
            if in_wait or in_res:
                self._adj_remove(key)
            if in_wait:
                # never reached the reservoir population: no RP bookkeeping
                del self.waiting[key]
            self.estimate -= self._instance_weight_sum(u, v)
            if not in_wait:
                self.rp.on_delete(key)
