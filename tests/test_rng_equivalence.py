"""The generator facts the stream-construction and sampling hot paths rest
on.

``social_graph`` and ``interleave`` replace numpy convenience calls with
cheaper ones that must consume the generator identically; the first tests
draw from two generators with the same seed, one per form, and check both
the values and the generator state afterwards, so a later draw cannot drift.
``draws.Draws`` replays scalar draws from raw PCG64 blocks; its tests check
every value against a same-seed ``Generator`` making the same calls. The
last tests check ``social_graph``'s integer preferential-attachment search
against its float fallback.
"""
from __future__ import annotations

import json

import numpy as np
import pytest

from repro.draws import Draws
from repro.graphs import generators
from tests.test_stream_golden import GOLDEN, GRAPHS, _digest, _graph_id

SEEDS = range(6)
# Bounds on both sides of the 32-bit draw path, including 2**31 and beyond.
BOUNDS = [
    1, 2, 3, 7, 1000, 2**31 - 1, 2**31, 2**31 + 1,
    2**32 - 1, 2**32, 2**32 + 1, 2**40 + 3, 2**62,
]


def _pair(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    return np.random.default_rng(seed), np.random.default_rng(seed)


def _same_state(a: np.random.Generator, b: np.random.Generator) -> bool:
    return a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("seed", SEEDS)
def test_cdf_searchsorted_equals_weighted_choice(seed):
    """``Generator.choice(len(w), p=w / w.sum())`` is a searchsorted of one
    uniform into the normalised cumulative sum of ``p``."""
    data = np.random.default_rng(100 + seed)
    a, b = _pair(seed)
    for _ in range(200):
        n = int(data.integers(1, 3000))
        w = data.integers(1, int(data.choice([2, 10, 1000, 2**20])), size=n).astype(float)
        cdf = (w / w.sum()).cumsum()
        cdf /= cdf[-1]
        for _ in range(int(data.integers(1, 4))):  # the cdf is reused
            got = int(cdf.searchsorted(a.random(), side="right"))
            assert got == int(b.choice(n, p=w / w.sum()))
    assert _same_state(a, b)


@pytest.mark.parametrize("seed", SEEDS)
def test_integer_index_equals_list_choice(seed):
    """Indexing a list with ``integers(0, len)`` is ``Generator.choice`` of it."""
    data = np.random.default_rng(200 + seed)
    a, b = _pair(seed)
    for _ in range(500):
        lst = data.integers(0, 2**40, size=int(data.integers(1, 40))).tolist()
        assert lst[int(a.integers(0, len(lst)))] == int(b.choice(lst))
    for k in BOUNDS:  # populations too large for a list: choice(k)
        assert int(a.integers(0, k)) == int(b.choice(k))
    assert _same_state(a, b)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("k", BOUNDS)
def test_vector_integers_equal_scalar_calls(seed, k):
    """One ``integers(0, k, size=n)`` call gives the values of n scalar calls."""
    n = int(np.random.default_rng(300 + seed).integers(0, 400))
    a, b = _pair(seed)
    assert a.integers(0, k, size=n).tolist() == [int(b.integers(0, k)) for _ in range(n)]
    assert _same_state(a, b)
    # The generator continues identically with a different kind of draw.
    assert a.random() == b.random()


# Bounds of the replayed 32-bit path: 3 * 2**30 rejects a quarter of draws.
BOUNDS_32 = [1, 2, 3, 7, 1000, 3 * 2**30, 2**31 - 1, 2**31, 2**31 + 1, 2**32 - 1, 2**32]


@pytest.mark.parametrize("seed", range(8))
def test_replay_mixed_sequence_equals_generator(seed):
    """Interleaved ``random()``, ``integers(0, n)``, ``uniform`` and
    ``random(k)`` runs, across many block refills and half-buffered
    32-bit draws."""
    data = np.random.default_rng(400 + seed)
    a, d = np.random.default_rng(seed), Draws(np.random.default_rng(seed))
    for op in data.integers(0, 4, size=6000).tolist():
        if op == 0:
            assert d.random() == a.random()
        elif op == 1:
            n = BOUNDS_32[int(data.integers(0, len(BOUNDS_32)))]
            assert d.integers(n) == int(a.integers(0, n))
        elif op == 2:
            lo = float(data.integers(0, 5000))
            hi = lo + float(data.integers(1, 5000))
            assert lo + (hi - lo) * d.random() == a.uniform(lo, hi)
        else:
            k = int(data.integers(0, 1200))  # some runs cross a refill
            assert d.doubles(k).tolist() == a.random(k).tolist()


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("n", BOUNDS_32)
def test_replay_bound_equals_generator(seed, n):
    """One bound at a time, with an odd ``random()`` between some draws so
    the buffered high half is kept across it."""
    a, d = np.random.default_rng(seed), Draws(np.random.default_rng(seed))
    for i in range(1500):
        assert d.integers(n) == int(a.integers(0, n))
        if i % 3 == 0:
            assert d.random() == a.random()


def test_replay_rejects_bounds_outside_32_bits():
    d = Draws(np.random.default_rng(0))
    for n in (2**32 + 1, 2**40, 0, -3):
        with pytest.raises(ValueError):
            d.integers(n)


def _count_calls(monkeypatch, name: str) -> list[int]:
    calls = [0]
    fn = getattr(generators, name)

    def counted(*args):
        calls[0] += 1
        return fn(*args)

    monkeypatch.setattr(generators, name, counted)
    return calls


def _social(graphs):
    return [g for g in graphs if generators.DATASETS[g[0]]["kind"] == "social"]


def test_forced_float_fallback_gives_every_digest(monkeypatch):
    """With a margin no uniform clears, every preferential-attachment draw
    takes the float ``choice`` path, and every graph keeps its digest."""
    golden = json.loads(GOLDEN.read_text())["graphs"]
    monkeypatch.setattr(generators, "_PA_MARGIN", 1.0)
    draws = _count_calls(monkeypatch, "_attach")
    floats = _count_calls(monkeypatch, "_attach_float")
    for graph in GRAPHS:
        got = generators.generate(graph[0], scale=graph[1], seed_offset=graph[2])
        assert _digest(got) == golden[_graph_id(*graph)]
    assert draws[0] > 0 and floats[0] == draws[0]


def test_integer_search_is_the_usual_path(monkeypatch):
    draws = _count_calls(monkeypatch, "_attach")
    floats = _count_calls(monkeypatch, "_attach_float")
    for name, scale, offset in _social(GRAPHS):
        generators.generate(name, scale=scale, seed_offset=offset)
    assert draws[0] > 10_000
    assert floats[0] <= draws[0] // 1000
