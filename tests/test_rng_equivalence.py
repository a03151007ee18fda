"""The three generator facts the stream-construction hot paths rest on.

``social_graph`` and ``interleave`` replace numpy convenience calls with
cheaper ones that must consume the generator identically. Each test draws
from two generators with the same seed, one per form, and checks both the
values and the generator state afterwards, so a later draw cannot drift.
"""
from __future__ import annotations

import numpy as np
import pytest

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
