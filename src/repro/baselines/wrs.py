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

from ..core.patterns import PATTERN_EDGES, adj_add, adj_remove, instances
from .random_pairing import RandomPairing

__all__ = ["WRS"]


class WRS:
    name = "WRS"

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

    def process(self, op: int, u: int, v: int) -> None:
        self.t += 1
        key = (u, v) if u < v else (v, u)
        adj = self.adj
        waiting = self.waiting
        rp = self.rp
        if op < 0:
            in_wait = key in waiting
            if in_wait or key in rp:
                adj_remove(adj, key)
            if in_wait:
                # never reached the reservoir population: no RP bookkeeping
                del waiting[key]
        # Estimate: Σ over instances of 1/P[other stored edges stored], where
        # waiting-room edges are stored with probability 1 and ``j`` reservoir
        # edges with the random-pairing ``rp.inclusion_prob(j)``. A wedge has
        # one other edge, so each instance adds 1.0 or ``1 / P[1 stored]``, in
        # one pass over the two neighbour sets with no instance list. Other
        # patterns look up ``inv[j]``, built once per event.
        total = None
        if self.pattern == "wedge":
            nu = adj.get(u, ())
            nv = adj.get(v, ())
            if len(nu) + len(nv) > (v in nu) + (u in nv):
                inv1 = 1.0 / rp.inclusion_prob(1)
                total = 0.0
                for w in nu:
                    if w != v:
                        total += 1.0 if ((u, w) if u < w else (w, u)) in waiting else inv1
                for w in nv:
                    if w != u:
                        total += 1.0 if ((v, w) if v < w else (w, v)) in waiting else inv1
        else:
            inst = instances(self.pattern, adj, u, v)
            if inst:
                inv = [1.0 / p for p in map(rp.inclusion_prob, range(self.h))]
                total = 0.0
                for other_edges in inst:
                    j = 0
                    for k in other_edges:
                        if k not in waiting:
                            j += 1
                    total += inv[j]
        if total is not None:
            if op > 0:
                self.estimate += total
            else:
                self.estimate -= total
        if op > 0:
            # admit to the waiting room; the displaced oldest edge enters the
            # reservoir's random-pairing population.
            waiting[key] = self.t
            adj_add(adj, key)
            if len(waiting) > self.wr_cap:
                old, _ = waiting.popitem(last=False)
                decision, evicted = rp.on_insert(old)
                if decision == "replace":
                    adj_remove(adj, evicted)
                elif decision == "skip":
                    adj_remove(adj, old)
        elif not in_wait:
            rp.on_delete(key)
