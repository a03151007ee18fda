"""Synthetic graph generators — proxies for the paper's real datasets.

The paper (Table I) evaluates on four categories of real graphs (citation,
community, social, web) plus Forest-Fire synthetic graphs. The container has
no network access, so each category is substituted by a generative model that
reproduces the structural properties the sampling algorithms are sensitive to
(degree skew, clustering / triangle density, temporal locality of edge
arrivals). Train/test pairs within a category share the generator family with
different seeds and sizes, mirroring the paper's same-category pairing.

Every generator returns the edge list in *natural arrival order* (the order in
which the model grew the graph), as an ``(m, 2)`` int64 numpy array of
undirected, deduplicated, self-loop-free edges with ``u < v`` canonicalised at
the pair level but arrival order preserved.
"""
from __future__ import annotations

from itertools import chain

import numpy as np

from ..draws import Draws

__all__ = [
    "forest_fire",
    "citation_graph",
    "community_graph",
    "social_graph",
    "web_graph",
    "DATASETS",
    "generate",
]


def interleave(edges: np.ndarray, frac: float, *, seed: int = 0) -> np.ndarray:
    """Partially shuffle arrival order through a random buffer of size
    ``frac * len(edges)``.

    Growth models emit all of a vertex's edges in one burst, which is far
    more temporally concentrated than real edge streams (many vertices are
    active concurrently; several SNAP datasets carry no timestamps at all, so
    prior work streams them in effectively arbitrary order). The buffer
    shuffle interleaves the bursts while preserving coarse arrival locality:
    frac→0 keeps the growth order, frac→1 approaches a uniform shuffle.
    """
    if frac <= 0.0 or len(edges) < 2:
        return edges
    rng = np.random.default_rng(seed)
    n = len(edges)
    b = max(1, int(n * min(frac, 1.0)))
    # Edge i >= b arrives at a full buffer of b + 1 slots (itself last), and
    # the slot drawn leaves. Every draw is over [0, b + 1), so one vector call
    # gives the same values as n - b scalar calls.
    picks = rng.integers(0, b + 1, size=n - b).tolist()
    buf = list(range(b))
    order: list[int] = []
    for i, j in zip(range(b, n), picks):
        if j == b:
            order.append(i)
        else:
            order.append(buf[j])
            buf[j] = i
    rng.shuffle(buf)
    order.extend(buf)
    return edges[np.asarray(order, dtype=np.int64)]


def _finalize(edges: list[tuple[int, int]]) -> np.ndarray:
    """Canonicalise (u<v), drop self-loops and duplicates, keep arrival order."""
    e = np.fromiter(chain.from_iterable(edges), dtype=np.int64, count=2 * len(edges))
    e = e.reshape(-1, 2)
    lo, hi = e.min(axis=1), e.max(axis=1)
    keep = lo != hi
    lo, hi = lo[keep], hi[keep]
    if not len(lo):
        raise ValueError("generator produced no edges")
    # Each pair's first occurrence (``np.unique`` sorts stably for
    # ``return_index``), put back in arrival order.
    _, first = np.unique(lo * (int(hi.max()) + 1) + hi, return_index=True)
    first.sort()
    return np.stack([lo[first], hi[first]], axis=1)


def forest_fire(n: int, p: float = 0.4, *, seed: int = 0, max_out: int = 40) -> np.ndarray:
    """Forest Fire model [Leskovec et al. 2007], the paper's synthetic G(n, p).

    Vertices arrive one at a time; each picks a random ambassador and "burns"
    outward: from each burned vertex, a Geometric(1-p)-distributed number of
    not-yet-burned neighbors catch fire. The new vertex links to every burned
    vertex. ``p`` controls density (the paper uses p=0.5 at n=2M; at our scale
    a slightly lower default keeps average degree comparable). ``max_out``
    caps burning fan-out so densification stays bounded at small n.
    """
    rng = np.random.default_rng(seed)
    adj: list[list[int]] = [[] for _ in range(n)]
    edges: list[tuple[int, int]] = []
    for v in range(1, n):
        amb = int(rng.integers(0, v))
        burned = {amb}
        frontier = [amb]
        while frontier:
            nxt: list[int] = []
            for w in frontier:
                # Geometric(1-p) with mean p/(1-p): number of links to burn.
                k = min(int(rng.geometric(max(1e-9, 1.0 - p))) - 1, max_out)
                if k <= 0:
                    continue
                cand = [x for x in adj[w] if x not in burned]
                if not cand:
                    continue
                pick = rng.permutation(len(cand))[:k]
                for i in pick:
                    burned.add(cand[i])
                    nxt.append(cand[i])
            frontier = nxt
            if len(burned) > 8 * max_out:  # bound the fire at small scale
                break
        for w in burned:
            edges.append((v, w))
            adj[v].append(w)
            adj[w].append(v)
    return _finalize(edges)


def citation_graph(n: int, m_out: int = 12, *, seed: int = 0, aging: float = 0.004) -> np.ndarray:
    """Citation-network proxy (cit-HepTH / cit-patent stand-in).

    Preferential attachment with recency bias: each new paper cites ``m_out``
    earlier papers chosen ∝ (degree + 1) · exp(-aging · age). Produces the
    heavy tail + temporal locality typical of citation graphs.
    """
    rng = np.random.default_rng(seed)
    deg = np.zeros(n)
    edges: list[tuple[int, int]] = []
    start = max(2, m_out)
    for v in range(1, start):
        edges.append((v, int(rng.integers(0, v))))
        deg[v] += 1
        deg[edges[-1][1]] += 1
    for v in range(start, n):
        ages = v - np.arange(v)
        w = (deg[:v] + 1.0) * np.exp(-aging * ages)
        w /= w.sum()
        k = min(m_out, v)
        targets = rng.choice(v, size=k, replace=False, p=w)
        for t in targets:
            edges.append((v, int(t)))
            deg[v] += 1
            deg[t] += 1
    return _finalize(edges)


def community_graph(
    n_comm: int, comm_size: int, *, p_in: float = 0.30, p_out_deg: float = 1.5, seed: int = 0
) -> np.ndarray:
    """Community-network proxy (com-DBLP / com-youtube stand-in).

    Power-law-sized planted communities arriving one at a time: dense
    Erdős–Rényi(p_in) inside each community, plus ~``p_out_deg`` random links
    per vertex to earlier communities. High clustering, modular structure.
    """
    rng = np.random.default_rng(seed)
    sizes = np.maximum(3, (comm_size * (1.0 + rng.pareto(2.5, n_comm)) / 2).astype(int))
    edges: list[tuple[int, int]] = []
    base = 0
    for c in range(n_comm):
        s = int(sizes[c])
        members = np.arange(base, base + s)
        # internal ER(p_in) block
        for i in range(s):
            links = np.nonzero(rng.random(i) < p_in)[0]
            for j in links:
                edges.append((int(members[i]), int(members[j])))
        # external links to earlier vertices
        if base > 0:
            n_ext = rng.poisson(p_out_deg, s)
            for i in range(s):
                for t in rng.integers(0, base, n_ext[i]):
                    edges.append((int(members[i]), int(t)))
        base += s
    return _finalize(edges)


# A preferential-attachment vertex found by the integer search is kept only
# when its uniform lies farther than this from both ends of the vertex's
# interval; see ``_attach``.
_PA_MARGIN = 1e-9


def _attach(weights: np.ndarray, prefix: np.ndarray, u: float) -> int:
    """``Generator.choice(v, p=weights / weights.sum())`` for the uniform
    ``u`` that ``choice`` draws, with ``prefix = weights.cumsum()`` (int64).

    ``choice`` returns ``cdf.searchsorted(u, side="right")`` on the float
    cdf that ``_attach_float`` builds. Its entries are the exact fractions
    ``prefix[j] / S`` (``S = prefix[-1]``) up to rounding: the integer
    weights sum exactly, and the divisions, the running sum and the final
    renormalisation add at most about (2v + 3)·2⁻⁵³, under 1e-12 for
    v ≤ 4,200 (soc-TW at scale 1.0) and under ``_PA_MARGIN`` = 1e-9 up to
    about four million vertices. So when ``u`` lies more than the margin
    above ``prefix[j - 1] / S`` and below ``prefix[j] / S``, it lies
    strictly between ``cdf[j - 1]`` and ``cdf[j]`` and the float search
    returns the same ``j``. Otherwise, including an index misplaced by the
    rounding of ``u * S``, the float search itself decides.
    """
    total = int(prefix[-1])
    # On integer entries, searching u * S finds what searching its floor does.
    j = int(prefix.searchsorted(int(u * total), side="right"))
    if j < len(prefix):
        lo = int(prefix[j - 1]) if j else 0
        if u - lo / total > _PA_MARGIN and int(prefix[j]) / total - u > _PA_MARGIN:
            return j
    return _attach_float(weights, u)


def _attach_float(weights: np.ndarray, u: float) -> int:
    """What ``Generator.choice`` computes, on the same float operations."""
    w = weights.astype(np.float64)
    cdf = (w / w.sum()).cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(u, side="right"))


def social_graph(n: int, m_out: int = 10, *, seed: int = 0, closure: float = 0.6) -> np.ndarray:
    """Social-network proxy (soc-Texas84 / soc-twitter stand-in).

    Barabási–Albert with triadic closure: each new user connects to ``m_out``
    others — with probability ``closure`` a friend-of-a-friend (closing a
    triangle), otherwise by preferential attachment. Produces celebrity hubs
    and high clustering — the regime where weighted sampling pays off most.
    """
    draws = Draws(np.random.default_rng(seed))
    w = np.ones(n, dtype=np.int64)  # degree + 1, the preferential-attachment weight
    adj: list[list[int]] = [[] for _ in range(n)]
    edges: list[tuple[int, int]] = []
    prefix: np.ndarray | None = None  # of w[:v]; stale after any link

    def link(a: int, b: int) -> None:
        nonlocal prefix
        edges.append((a, b))
        w[a] += 1
        w[b] += 1
        adj[a].append(b)
        adj[b].append(a)
        prefix = None

    start = max(2, m_out)
    for v in range(1, start):
        link(v, draws.integers(v))
    for v in range(start, n):
        prefix = None
        chosen: set[int] = set()
        for _ in range(min(m_out, v)):
            t = -1
            if chosen and draws.random() < closure:
                # Generator.choice(list(chosen)), then of adj[base_v].
                lst = list(chosen)
                base_v = lst[draws.integers(len(lst))]
                if adj[base_v]:
                    t = adj[base_v][draws.integers(len(adj[base_v]))]
            if t < 0 or t == v or t in chosen:
                if prefix is None:
                    prefix = w[:v].cumsum()
                t = _attach(w[:v], prefix, draws.random())
            if t != v and t not in chosen:
                chosen.add(t)
                link(v, t)
    return _finalize(edges)


def web_graph(n: int, m_out: int = 8, *, seed: int = 0, copy_p: float = 0.55) -> np.ndarray:
    """Web-graph proxy (web-Stanford / web-google stand-in).

    Copying model: each new page picks a random prototype page and copies each
    of its links with probability ``copy_p``, filling the remainder of its
    ``m_out`` links uniformly at random. Produces dense co-citation clusters.
    """
    draws = Draws(np.random.default_rng(seed))
    out_links: list[list[int]] = [[] for _ in range(n)]
    edges: list[tuple[int, int]] = []
    start = max(2, m_out)
    for v in range(1, start):
        t = draws.integers(v)
        edges.append((v, t))
        out_links[v].append(t)
    for v in range(start, n):
        proto = draws.integers(v)
        chosen: set[int] = set()
        for t in out_links[proto]:
            if len(chosen) >= m_out:
                break
            if t != v and draws.random() < copy_p:
                chosen.add(t)
        while len(chosen) < min(m_out, v):
            chosen.add(draws.integers(v))
        chosen.discard(v)
        for t in chosen:
            edges.append((v, t))
            out_links[v].append(t)
    return _finalize(edges)


# name -> (callable kwargs) registry mirroring Table I. "scale" multiplies the
# baseline sizes so tests can run the same datasets tiny.
DATASETS: dict[str, dict] = {
    # test graphs (Table I right column proxies). ``mix`` is the interleave
    # buffer fraction: how much a category's real stream mixes concurrent
    # activity (community datasets carry no timestamps → near-random order).
    "cit-PT": dict(kind="citation", n=3400, m_out=12, seed=11, mix=0.5),
    "com-YT": dict(kind="community", n_comm=450, comm_size=18, seed=12, mix=0.9),
    "soc-TW": dict(kind="social", n=4200, m_out=14, seed=13, mix=0.5),
    "web-GL": dict(kind="web", n=4200, m_out=9, seed=14, mix=0.7),
    "synthetic": dict(kind="ff", n=2600, p=0.50, seed=15, mix=0.4),
    # training graphs (Table I left column proxies) — same family, smaller
    "cit-HE": dict(kind="citation", n=1400, m_out=12, seed=21, mix=0.5),
    "com-DB": dict(kind="community", n_comm=180, comm_size=18, seed=22, mix=0.9),
    "soc-TX": dict(kind="social", n=1700, m_out=14, seed=23, mix=0.5),
    "web-SF": dict(kind="web", n=1700, m_out=9, seed=24, mix=0.7),
    "synthetic-train": dict(kind="ff", n=1100, p=0.52, seed=25, mix=0.4),
}

TRAIN_OF = {
    "cit-PT": "cit-HE",
    "com-YT": "com-DB",
    "soc-TW": "soc-TX",
    "web-GL": "web-SF",
    "synthetic": "synthetic-train",
}


def generate(name: str, *, scale: float = 1.0, seed_offset: int = 0) -> np.ndarray:
    """Generate a named dataset's edge list at ``scale`` (1.0 = bench size)."""
    if name not in DATASETS:
        raise KeyError(f"unknown dataset {name!r}; known: {sorted(DATASETS)}")
    cfg = dict(DATASETS[name])
    kind = cfg.pop("kind")
    seed = cfg.pop("seed") + seed_offset
    mix = cfg.pop("mix")
    if kind == "ff":
        edges = forest_fire(max(30, int(cfg["n"] * scale)), cfg["p"], seed=seed)
    elif kind == "citation":
        edges = citation_graph(max(30, int(cfg["n"] * scale)), cfg["m_out"], seed=seed)
    elif kind == "community":
        edges = community_graph(
            max(4, int(cfg["n_comm"] * scale)), cfg["comm_size"], seed=seed
        )
    elif kind == "social":
        edges = social_graph(max(30, int(cfg["n"] * scale)), cfg["m_out"], seed=seed)
    elif kind == "web":
        edges = web_graph(max(30, int(cfg["n"] * scale)), cfg["m_out"], seed=seed)
    else:
        raise AssertionError(kind)
    return interleave(edges, mix, seed=seed + 1000)
