"""Subgraph pattern definitions and local instance enumeration.

A pattern instance containing a focal edge ``(u, v)`` is enumerated against an
adjacency structure ``adj: dict[int, set[int]]`` that must NOT contain the
focal edge itself (samplers insert the edge after enumeration and remove it
before enumeration on deletion — matching Algorithm 2's
``J ⊆ (R ∪ e_t), e_t ∈ J``).

``instances`` returns, per instance, the tuple of the *other* ``|H| - 1`` edge
keys (canonical ``(min, max)`` vertex pairs); the weighted samplers take the
same instances as sampled-edge records from ``Reservoir.instances``.
Supported patterns and their edge counts |H| (Section V-A): wedge (2),
triangle (3), 4-clique (6).

``adj_add`` / ``adj_remove`` are the one way every sampler and the exact
counter edit such an adjacency. Set iteration order — and with it the order
estimators sum instance terms in — depends on the exact sequence of set
operations, so all of them go through these two.
"""
from __future__ import annotations

PATTERN_EDGES = {"wedge": 2, "triangle": 3, "4clique": 6}

__all__ = [
    "PATTERN_EDGES", "edge_key", "adj_add", "adj_remove", "instances", "count_instances",
]


def edge_key(u: int, v: int) -> tuple[int, int]:
    """Canonical undirected edge key."""
    return (u, v) if u < v else (v, u)


def adj_add(adj: dict[int, set[int]], key: tuple[int, int]) -> None:
    """Add undirected edge ``key = (u, v)``: ``v`` to ``adj[u]``, then ``u``
    to ``adj[v]``."""
    u, v = key
    s = adj.get(u)
    if s is None:
        adj[u] = {v}
    else:
        s.add(v)
    s = adj.get(v)
    if s is None:
        adj[v] = {u}
    else:
        s.add(u)


def adj_remove(adj: dict[int, set[int]], key: tuple[int, int]) -> None:
    """Remove undirected edge ``key = (u, v)`` (absent halves are ignored),
    ``u``'s side first; a vertex left without neighbours is dropped."""
    u, v = key
    s = adj.get(u)
    if s is not None:
        s.discard(v)
        if not s:
            del adj[u]
    s = adj.get(v)
    if s is not None:
        s.discard(u)
        if not s:
            del adj[v]


def instances(
    pattern: str, adj: dict[int, set[int]], u: int, v: int
) -> list[tuple[tuple[int, int], ...]]:
    """The other-edge key tuples of every ``pattern`` instance formed by edge
    ``(u, v)`` together with edges of the graph described by ``adj``, in the
    iteration order of ``adj``'s neighbour sets (estimators sum over them in
    this order). Wedge and triangle keys inline ``edge_key``: this runs once
    per stream event. Triangles and 4-cliques need a common neighbour of
    ``u`` and ``v``; most events have none and return at once."""
    nu = adj.get(u, _EMPTY)
    nv = adj.get(v, _EMPTY)
    if pattern == "wedge":
        out = [((u, w) if u < w else (w, u),) for w in nu if w != v]
        out += [((v, w) if v < w else (w, v),) for w in nv if w != u]
        return out
    if pattern == "triangle":
        if nu.isdisjoint(nv):
            return []
        if len(nu) > len(nv):
            nu, nv = nv, nu
        return [
            ((u, w) if u < w else (w, u), (v, w) if v < w else (w, v))
            for w in nu
            if w in nv
        ]
    if pattern == "4clique":
        if nu.isdisjoint(nv):
            return []
        common = sorted(w for w in (nu if len(nu) <= len(nv) else nv) if w in nv and w in nu)
        out = []
        for i in range(len(common)):
            wi = common[i]
            awi = adj.get(wi, _EMPTY)
            for j in range(i + 1, len(common)):
                wj = common[j]
                if wj in awi:
                    out.append((
                        edge_key(u, wi),
                        edge_key(v, wi),
                        edge_key(u, wj),
                        edge_key(v, wj),
                        edge_key(wi, wj),
                    ))
        return out
    raise ValueError(f"unknown pattern {pattern!r}")


def count_instances(pattern: str, adj: dict[int, set[int]], u: int, v: int) -> int:
    """Number of ``pattern`` instances formed by edge ``(u, v)`` — the exact
    per-event count delta, specialised for speed (no key materialisation).
    Counts are integers, so iterating a set intersection instead of ``nu`` in
    order gives exactly the same number."""
    nu = adj.get(u, _EMPTY)
    nv = adj.get(v, _EMPTY)
    if pattern == "wedge":
        return len(nu) - (1 if v in nu else 0) + len(nv) - (1 if u in nv else 0)
    if pattern == "triangle":
        return len(nu & nv)
    if pattern == "4clique":
        if nu.isdisjoint(nv):
            return 0
        common = list(nu & nv)
        c = 0
        for i in range(len(common)):
            awi = adj.get(common[i], _EMPTY)
            for j in range(i + 1, len(common)):
                if common[j] in awi:
                    c += 1
        return c
    raise ValueError(f"unknown pattern {pattern!r}")


_EMPTY: frozenset[int] = frozenset()
