"""Pattern enumeration tests — cross-checked against brute force."""
from itertools import combinations

import numpy as np
import pytest

from repro.core.gps import GPSA
from repro.core.patterns import PATTERN_EDGES, count_instances, edge_key, instances
from repro.core.reservoir import Reservoir
from repro.core.weights import uniform_weight

PATTERNS = sorted(PATTERN_EDGES)


def _random_adj(n, p, rng):
    adj = {}
    edges = set()
    for i, j in combinations(range(n), 2):
        if rng.random() < p:
            adj.setdefault(i, set()).add(j)
            adj.setdefault(j, set()).add(i)
            edges.add((i, j))
    return adj, edges


def _brute_instances(pattern, edges, u, v):
    """All instances of ``pattern`` containing focal edge (u, v), as sets of
    other edges, by brute-force subgraph enumeration."""
    e = edge_key(u, v)
    out = []
    if pattern == "wedge":
        for x, y in edges:
            if (x, y) != e and len({x, y} & {u, v}) == 1:
                out.append(frozenset([(x, y)]))
    elif pattern == "triangle":
        verts = {x for ed in edges for x in ed}
        for w in verts:
            if w in (u, v):
                continue
            e1, e2 = edge_key(u, w), edge_key(v, w)
            if e1 in edges and e2 in edges:
                out.append(frozenset([e1, e2]))
    elif pattern == "4clique":
        verts = {x for ed in edges for x in ed}
        for w1, w2 in combinations(sorted(verts - {u, v}), 2):
            need = [
                edge_key(u, w1), edge_key(v, w1), edge_key(u, w2),
                edge_key(v, w2), edge_key(w1, w2),
            ]
            if all(x in edges for x in need):
                out.append(frozenset(need))
    return out


@pytest.mark.parametrize("pattern", PATTERNS)
@pytest.mark.parametrize("seed", range(6))
def test_instances_match_bruteforce(pattern, seed):
    rng = np.random.default_rng(seed)
    adj, edges = _random_adj(10, 0.45, rng)
    if not edges:
        pytest.skip("empty graph draw")
    # focal edge NOT in the graph (as at insertion time)
    candidates = [e for e in combinations(range(10), 2) if e not in edges]
    u, v = candidates[int(rng.integers(0, len(candidates)))]
    got = sorted(tuple(sorted(t)) for t in instances(pattern, adj, u, v))
    want = sorted(tuple(sorted(t)) for t in _brute_instances(pattern, edges, u, v))
    assert got == want


@pytest.mark.parametrize("pattern", PATTERNS)
@pytest.mark.parametrize("seed", range(6))
def test_count_matches_enumeration(pattern, seed):
    rng = np.random.default_rng(100 + seed)
    adj, edges = _random_adj(9, 0.5, rng)
    candidates = [e for e in combinations(range(9), 2) if e not in edges]
    u, v = candidates[int(rng.integers(0, len(candidates)))]
    assert count_instances(pattern, adj, u, v) == len(list(instances(pattern, adj, u, v)))


@pytest.mark.parametrize("pattern", PATTERNS)
def test_instances_empty_graph(pattern):
    assert list(instances(pattern, {}, 0, 1)) == []
    assert count_instances(pattern, {}, 0, 1) == 0


def test_wedge_simple():
    # path a-b, focal edge (b,c): one wedge
    adj = {0: {1}, 1: {0}}
    assert count_instances("wedge", adj, 1, 2) == 1
    assert list(instances("wedge", adj, 1, 2)) == [((0, 1),)]


def test_triangle_simple():
    adj = {0: {2}, 1: {2}, 2: {0, 1}}
    got = list(instances("triangle", adj, 0, 1))
    assert got == [((0, 2), (1, 2))]


def test_4clique_simple():
    # K4 minus focal edge (0,1)
    adj = {}
    for a, b in [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    got = list(instances("4clique", adj, 0, 1))
    assert len(got) == 1 and len(got[0]) == 5


def test_edge_key_canonical():
    assert edge_key(5, 2) == (2, 5)
    assert edge_key(2, 5) == (2, 5)


def test_unknown_pattern_raises():
    with pytest.raises(ValueError):
        list(instances("pentagon", {}, 0, 1))
    with pytest.raises(ValueError):
        count_instances("pentagon", {}, 0, 1)


def test_pattern_edge_counts():
    assert PATTERN_EDGES == {"wedge": 2, "triangle": 3, "4clique": 6}


@pytest.mark.parametrize("pattern", PATTERNS)
@pytest.mark.parametrize("density", [0.1, 0.3, 0.6])
def test_count_matches_enumeration_every_focal_pair(pattern, density):
    """``count_instances`` (set intersections, early exits on disjoint
    neighbourhoods) equals the length of ``instances`` for every non-edge of
    random adjacencies, sparse ones included."""
    rng = np.random.default_rng(int(density * 100))
    for _ in range(4):
        adj, edges = _random_adj(12, density, rng)
        for u, v in combinations(range(12), 2):
            if (u, v) in edges:
                continue
            for a, b in ((u, v), (v, u)):
                assert count_instances(pattern, adj, a, b) == len(instances(pattern, adj, a, b))


def _check_record_instances(res, pattern, n):
    """For every focal pair on ``n`` vertices, both orientations,
    ``res.instances`` is ``patterns.instances``' key tuples mapped through
    ``res.records``, in the same order: a wedge instance the other edge's
    record itself, any other a tuple of records. Returns how many instances
    were compared."""
    seen = 0
    for u, v in combinations(range(n), 2):
        for a, b in ((u, v), (v, u)):
            keys = instances(pattern, res.adj, a, b)
            got = res.instances(pattern, a, b)
            assert len(got) == len(keys)
            for inst, other in zip(got, keys):
                recs = (inst,) if pattern == "wedge" else inst
                assert isinstance(recs, tuple) and len(recs) == len(other)
                for rec, k in zip(recs, other):
                    assert rec is res.records[k] and not rec.tagged
            seen += len(keys)
    return seen


@pytest.mark.parametrize("pattern", PATTERNS)
@pytest.mark.parametrize("density", [0.1, 0.3, 0.6])
def test_record_instances_map_key_instances_every_focal_pair(pattern, density):
    rng = np.random.default_rng(int(density * 100) + 1)
    seen = 0
    for _ in range(4):
        _, edges = _random_adj(12, density, rng)
        edges = sorted(edges)
        res = Reservoir(100)
        for t, i in enumerate(rng.permutation(len(edges)).tolist(), start=1):
            res.add(edges[i], float(t), float(t), t)
        seen += _check_record_instances(res, pattern, 12)
    if pattern != "4clique" or density > 0.1:
        assert seen


@pytest.mark.parametrize("pattern", PATTERNS)
def test_record_instances_skip_gpsa_zombies(pattern):
    """In a GPS-A reservoir, DEL-tagged zombies keep their records but leave
    the adjacency, so no instance carries one."""
    rng = np.random.default_rng(5)
    pairs = list(combinations(range(9), 2))
    s = GPSA(40, pattern, uniform_weight, seed=3)
    for i in rng.permutation(len(pairs)).tolist():
        s.process(1, *pairs[i])
    for i in rng.choice(len(pairs), 8, replace=False).tolist():
        s.process(-1, *pairs[i])
    assert any(rec.tagged for rec in s.res.records.values())
    assert _check_record_instances(s.res, pattern, 9)
