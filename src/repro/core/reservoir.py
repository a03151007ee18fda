"""Rank-keyed reservoir: a min-priority queue over sampled edges with an
adjacency index for pattern enumeration.

Backing structures:

* ``records``: edge key -> ``EdgeRecord`` (weight, rank, arrival time, uid);
* ``adj``: vertex -> set of sampled neighbors (enumeration index);
* a lazy-deletion binary heap keyed by rank (stale entries are recognised by
  a per-insertion ``uid`` and skipped on pop), giving O(log M) insert/evict
  and O(1) membership/removal — the paper's min-priority queue of Theorem 5.

``instances`` hands the weighted samplers the pattern instances an event
forms with sampled edges as the sampled edges' records, so the estimator and
the weight function read ``.weight`` and ``.t`` without a second lookup.

GPS-A's "DEL"-tagged zombies are supported natively: ``tag`` removes the edge
from the adjacency index (it no longer forms subgraphs) while the record keeps
occupying reservoir capacity until evicted by rank or removed (``adj_remove``
of a zombie, already out of the index, changes no set).
"""
from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush

from .patterns import adj_add, adj_remove, instances as key_instances

__all__ = ["EdgeRecord", "Reservoir"]


@dataclass(slots=True)
class EdgeRecord:
    weight: float
    rank: float
    t: int  # arrival time (1-based event index)
    uid: int
    tagged: bool = False  # GPS-A "DEL" tag


class Reservoir:
    """Fixed-capacity rank-keyed edge sample."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.records: dict[tuple[int, int], EdgeRecord] = {}
        self.adj: dict[int, set[int]] = {}
        self._heap: list[tuple[float, int, tuple[int, int]]] = []
        self._uid = 0

    def __len__(self) -> int:
        return len(self.records)

    def __contains__(self, key: tuple[int, int]) -> bool:
        return key in self.records

    @property
    def full(self) -> bool:
        return len(self.records) >= self.capacity

    def add(self, key: tuple[int, int], weight: float, rnk: float, t: int) -> None:
        if key in self.records:
            raise KeyError(f"edge {key} already sampled")
        if len(self.records) >= self.capacity:
            raise OverflowError("reservoir full")
        self._uid += 1
        rec = EdgeRecord(weight, rnk, t, self._uid)
        self.records[key] = rec
        heappush(self._heap, (rnk, rec.uid, key))
        adj_add(self.adj, key)

    def remove(self, key: tuple[int, int]) -> EdgeRecord:
        """Remove an edge outright (WSD Case 3, or the GPS-A zombie of a
        re-inserted edge). Heap entry removed lazily."""
        rec = self.records.pop(key)
        adj_remove(self.adj, key)
        return rec

    def tag(self, key: tuple[int, int]) -> None:
        """GPS-A deletion: mark as DEL and stop it forming subgraphs, but keep
        it occupying capacity (and evictable by rank)."""
        self.records[key].tagged = True
        adj_remove(self.adj, key)

    def min_entry(self) -> tuple[tuple[int, int], EdgeRecord]:
        """(key, record) of the minimum-rank sampled edge. O(log M) amortised."""
        while self._heap:
            rnk, uid, key = self._heap[0]
            rec = self.records.get(key)
            if rec is not None and rec.uid == uid:
                return key, rec
            heappop(self._heap)  # stale
        raise IndexError("reservoir empty")

    def pop_min(self) -> tuple[tuple[int, int], EdgeRecord]:
        key, rec = self.min_entry()
        heappop(self._heap)
        del self.records[key]
        adj_remove(self.adj, key)
        return key, rec

    def instances(self, pattern: str, u: int, v: int) -> list:
        """``patterns.instances(pattern, self.adj, u, v)``, in the same order,
        with each other edge given as its record: a wedge instance is the
        other edge's ``EdgeRecord`` itself (one ``records`` lookup, no key
        tuple kept), a triangle or 4-clique instance the tuple of records its
        key tuple maps to."""
        recs = self.records
        if pattern == "wedge":
            # Plain loops, not comprehensions: under CPython 3.11 a
            # comprehension is a nested function, which turns ``recs``, ``u``
            # and ``v`` into closure cells and costs a call per comprehension.
            out = []
            append = out.append
            for w in self.adj.get(u, ()):
                if w != v:
                    append(recs[(u, w) if u < w else (w, u)])
            for w in self.adj.get(v, ()):
                if w != u:
                    append(recs[(v, w) if v < w else (w, v)])
            return out
        keys = key_instances(pattern, self.adj, u, v)
        if not keys:  # most triangle events: no comprehension call
            return keys
        get = recs.__getitem__  # the comprehension's only free name
        return [tuple(map(get, other)) for other in keys]

    def degree(self, v: int) -> int:
        return len(self.adj.get(v, ()))
