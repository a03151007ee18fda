"""Exact incremental counter tests — against brute force and recomputation."""
from itertools import combinations

import numpy as np
import pytest

from repro.core.patterns import PATTERN_EDGES
from repro.exact.incremental import ExactCounter, checkpoints, truth_trajectory
from repro.graphs.generators import generate
from repro.graphs.streams import make_stream

PATTERNS = sorted(PATTERN_EDGES)


def _brute_count(edges, pattern):
    edges = set(edges)
    verts = sorted({x for e in edges for x in e})
    c = 0
    if pattern == "wedge":
        deg = {}
        for a, b in edges:
            deg[a] = deg.get(a, 0) + 1
            deg[b] = deg.get(b, 0) + 1
        return sum(d * (d - 1) // 2 for d in deg.values())
    if pattern == "triangle":
        for t in combinations(verts, 3):
            if all(tuple(sorted(p)) in edges for p in combinations(t, 2)):
                c += 1
        return c
    if pattern == "4clique":
        for q in combinations(verts, 4):
            if all(tuple(sorted(p)) in edges for p in combinations(q, 2)):
                c += 1
        return c
    raise AssertionError


@pytest.mark.parametrize("pattern", PATTERNS)
@pytest.mark.parametrize("seed", range(5))
def test_incremental_matches_bruteforce_inserts(pattern, seed):
    rng = np.random.default_rng(seed)
    counter = ExactCounter(pattern)
    edges = set()
    for _ in range(40):
        u, v = int(rng.integers(0, 10)), int(rng.integers(0, 10))
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in edges:
            continue
        edges.add(key)
        counter.insert(u, v)
    assert counter.estimate == _brute_count(edges, pattern)


@pytest.mark.parametrize("pattern", PATTERNS)
@pytest.mark.parametrize("seed", range(5))
def test_incremental_matches_bruteforce_dynamic(pattern, seed):
    rng = np.random.default_rng(50 + seed)
    counter = ExactCounter(pattern)
    edges = set()
    for _ in range(120):
        if edges and rng.random() < 0.4:
            key = list(edges)[int(rng.integers(0, len(edges)))]
            edges.remove(key)
            counter.delete(*key)
        else:
            u, v = int(rng.integers(0, 9)), int(rng.integers(0, 9))
            if u == v:
                continue
            key = (min(u, v), max(u, v))
            if key in edges:
                continue
            edges.add(key)
            counter.insert(u, v)
    assert counter.estimate == _brute_count(edges, pattern)
    assert counter.n_edges == len(edges)


@pytest.mark.parametrize("pattern", PATTERNS)
def test_delete_then_reinsert_restores_count(pattern):
    counter = ExactCounter(pattern)
    base = [(0, 1), (1, 2), (0, 2), (2, 3), (0, 3), (1, 3)]
    for e in base:
        counter.insert(*e)
    before = counter.estimate
    counter.delete(1, 2)
    counter.insert(1, 2)
    assert counter.estimate == before


def test_defensive_duplicate_and_missing():
    counter = ExactCounter("triangle")
    counter.insert(0, 1)
    counter.insert(0, 1)  # dup: no-op
    assert counter.n_edges == 1
    counter.delete(5, 6)  # absent: no-op
    assert counter.n_edges == 1


def test_checkpoints_include_final():
    idx = checkpoints(10, 3)
    assert idx.tolist() == [3, 6, 9, 10]
    assert checkpoints(9, 3).tolist() == [3, 6, 9]
    assert checkpoints(2, 100).tolist() == [2]


@pytest.mark.parametrize("pattern", ["wedge", "triangle"])
def test_truth_trajectory_monotone_insertion_only(pattern):
    edges = generate("cit-HE", scale=0.05)
    stream = make_stream(edges, "insertion-only")
    idx, truth = truth_trajectory(stream, pattern, 50)
    assert (np.diff(truth) >= 0).all()
    assert idx[-1] == len(stream)


def test_truth_trajectory_final_matches_counter():
    edges = generate("cit-HE", scale=0.05)
    stream = make_stream(edges, "light", beta_l=0.2, seed=1)
    _, truth = truth_trajectory(stream, "triangle", 37)
    counter = ExactCounter("triangle")
    for op, u, v in zip(stream["op"].tolist(), stream["u"].tolist(), stream["v"].tolist()):
        counter.process(op, u, v)
    assert truth[-1] == counter.estimate


def test_truth_trajectory_massive_drops():
    edges = generate("cit-PT", scale=0.1)
    stream = make_stream(edges, "massive", alpha=3e-3, beta_m=0.8, seed=2)
    _, truth = truth_trajectory(stream, "triangle", max(1, len(stream) // 60))
    # a massive deletion must visibly reduce the count somewhere
    assert (np.diff(truth) < 0).any()
