"""Fully dynamic edge-event stream constructors (Section V-A of the paper).

A stream is a structured numpy record array with fields ``op`` (+1 insert /
-1 delete), ``u``, ``v``. Feasibility (Definition 1) is guaranteed by
construction: an edge is only deleted while present and only inserted while
absent.

Two deletion scenarios from the paper:

* **massive deletion** [Triest]: edges are inserted in order; after each
  insertion, with probability ``alpha`` a massive-deletion event occurs in
  which every edge currently in the graph is deleted independently with
  probability ``beta_m`` (each deletion is its own stream event).
* **light deletion** [WRS]: each edge has probability ``beta_l`` of being
  deleted, the deletion placed at a uniformly random later position.

Orderings (Section V-B(3)): natural (generator arrival order), UAR (uniform
random permutation), RBFS (random-start BFS order).
"""
from __future__ import annotations

from collections import deque

import numpy as np

from ..draws import Draws

STREAM_DTYPE = np.dtype([("op", np.int8), ("u", np.int64), ("v", np.int64)])

__all__ = [
    "STREAM_DTYPE",
    "make_stream",
    "massive_deletion_stream",
    "light_deletion_stream",
    "insertion_only_stream",
    "reorder_edges",
]


def _events(ops: list[int], us: list[int], vs: list[int]) -> np.ndarray:
    out = np.empty(len(ops), dtype=STREAM_DTYPE)
    out["op"] = ops
    out["u"] = us
    out["v"] = vs
    return out


def insertion_only_stream(edges: np.ndarray) -> np.ndarray:
    """All edges inserted in the given order; no deletions."""
    n = len(edges)
    out = np.empty(n, dtype=STREAM_DTYPE)
    out["op"] = 1
    out["u"] = edges[:, 0]
    out["v"] = edges[:, 1]
    return out


def massive_deletion_stream(
    edges: np.ndarray,
    *,
    alpha: float,
    beta_m: float,
    seed: int = 0,
    last_del_frac: float = 0.55,
) -> np.ndarray:
    """Insert each edge in order; after each insertion, with prob ``alpha``
    delete each currently-present edge independently with prob ``beta_m``.

    ``last_del_frac`` restricts massive-deletion events to the first fraction
    of insertions. At the paper's scale the expected run of insertions after
    the last deletion event is 1/alpha = 3M edges, so the final graph (on
    which ARE is measured) is always substantial; at our reduced scale an
    unlucky deletion at the stream end would zero out the final count and
    make relative error meaningless, so we enforce the rebuild window
    explicitly (see DESIGN.md substitutions)."""
    draws = Draws(np.random.default_rng(seed))
    ops: list[int] = []
    us: list[int] = []
    vs: list[int] = []
    if not len(edges):
        return _events(ops, us, vs)
    del_until = last_del_frac * len(edges)
    src_u, src_v = edges[:, 0].tolist(), edges[:, 1].tolist()
    # Each ordered pair is keyed by one int, not a tuple, and mapped to the
    # index of its insertion: the loop allocates no container per edge, so
    # the garbage collector has nothing to count.
    lo = int(edges.min())
    stride = int(edges.max()) - lo + 1
    alive: dict[int, int] = {}  # insertion-ordered
    for i, (u, v) in enumerate(zip(src_u, src_v)):
        key = (u - lo) * stride + (v - lo)
        if key in alive:
            continue
        alive[key] = i
        ops.append(1)
        us.append(u)
        vs.append(v)
        if i < del_until and draws.random() < alpha and alive:
            keys, idx = list(alive), list(alive.values())
            kill = np.nonzero(draws.doubles(len(keys)) < beta_m)[0]
            for ki in kill.tolist():
                del alive[keys[ki]]
                j = idx[ki]
                ops.append(-1)
                us.append(src_u[j])
                vs.append(src_v[j])
    return _events(ops, us, vs)


def light_deletion_stream(
    edges: np.ndarray, *, beta_l: float, seed: int = 0
) -> np.ndarray:
    """Insert edges in order; each edge independently has prob ``beta_l`` of a
    deletion event at a uniformly random later position in the stream.

    Built by assigning every insertion its natural index and every deletion a
    uniform position in ``[insert_index, n_insertions)``, then stably sorting
    events by position (deletions after insertions at equal position).
    """
    rng = np.random.default_rng(seed)
    n = len(edges)
    dels = np.nonzero(rng.random(n) < beta_l)[0]
    # One vector call draws what a scalar uniform(i, n) per deletion does.
    del_pos = rng.uniform(dels.astype(np.float64), float(n))
    # Insertions come first, then deletions in edge order, so a stable sort
    # by position alone puts an insertion before a deletion at an equal
    # position and keeps tied deletions in edge order.
    pos = np.concatenate([np.arange(n, dtype=np.float64), del_pos])
    order = np.argsort(pos, kind="stable")
    src = np.concatenate([np.arange(n), dels])[order]
    out = np.empty(len(order), dtype=STREAM_DTYPE)
    out["op"] = np.where(order < n, 1, -1)
    out["u"] = edges[src, 0]
    out["v"] = edges[src, 1]
    return out


def reorder_edges(edges: np.ndarray, ordering: str, *, seed: int = 0) -> np.ndarray:
    """Return ``edges`` in ``natural`` / ``uar`` / ``rbfs`` arrival order."""
    if ordering == "natural":
        return edges
    rng = np.random.default_rng(seed)
    if ordering == "uar":
        return edges[rng.permutation(len(edges))]
    if ordering == "rbfs":
        adj: dict[int, list[tuple[int, int]]] = {}
        for i, (u, v) in enumerate(edges.tolist()):
            adj.setdefault(u, []).append((v, i))
            adj.setdefault(v, []).append((u, i))
        visited_e = [False] * len(edges)
        order: list[int] = []
        verts = list(adj.keys())
        seen_v: set[int] = set()
        first_unseen = 0  # every vertex before it is seen; seen_v only grows
        while len(order) < len(edges):
            start = verts[int(rng.integers(0, len(verts)))]
            if start in seen_v:
                while first_unseen < len(verts) and verts[first_unseen] in seen_v:
                    first_unseen += 1
                if first_unseen == len(verts):
                    break
                start = verts[first_unseen]
            queue = deque([start])
            seen_v.add(start)
            while queue:
                x = queue.popleft()
                for y, ei in adj[x]:
                    if not visited_e[ei]:
                        visited_e[ei] = True
                        order.append(ei)
                    if y not in seen_v:
                        seen_v.add(y)
                        queue.append(y)
        return edges[np.asarray(order, dtype=np.int64)]
    raise ValueError(f"unknown ordering {ordering!r}")


def make_stream(
    edges: np.ndarray,
    scenario: str,
    *,
    alpha: float = 1e-4,
    beta_m: float = 0.8,
    beta_l: float = 0.2,
    ordering: str = "natural",
    seed: int = 0,
    last_del_frac: float = 0.55,
) -> np.ndarray:
    """One-stop stream constructor used by the harness and WSD-L training."""
    edges = reorder_edges(edges, ordering, seed=seed)
    if scenario == "insertion-only":
        return insertion_only_stream(edges)
    if scenario == "massive":
        return massive_deletion_stream(
            edges, alpha=alpha, beta_m=beta_m, seed=seed, last_del_frac=last_del_frac
        )
    if scenario == "light":
        return light_deletion_stream(edges, beta_l=beta_l, seed=seed)
    raise ValueError(f"unknown scenario {scenario!r}")
