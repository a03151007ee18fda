"""Exactness with a reservoir that holds every edge (ROADMAP item 3).

With ``M > |stream|`` no sampler ever discards an edge, every inclusion
probability is 1, and each estimator reduces to the exact per-event count
delta. Every checkpoint estimate must then equal the exact trajectory — not
approximately: the deltas are sums of 1.0, which are exact in floating point.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest

from repro.core.patterns import PATTERN_EDGES
from repro.core.runner import run_trial
from repro.exact.incremental import truth_trajectory
from repro.graphs.generators import generate
from repro.graphs.streams import make_stream
from repro.harness.factory import ALGOS_DYNAMIC, make_sampler

CKPT_EVERY = 50


@lru_cache(maxsize=None)
def _stream(scenario: str) -> np.ndarray:
    edges = generate("soc-TX", scale=0.06)
    return make_stream(edges, scenario, alpha=3e-3, beta_m=0.5, beta_l=0.2, seed=5)


def _policy(pattern: str) -> dict:
    d = PATTERN_EDGES[pattern] + 3
    return {"W": np.linspace(-1.0, 9.0, d)[None, :], "b": np.array([0.25])}


@pytest.mark.parametrize("scenario", ["massive", "light"])
@pytest.mark.parametrize("pattern", ["wedge", "triangle", "4clique"])
@pytest.mark.parametrize("algo", ALGOS_DYNAMIC)
def test_every_checkpoint_exact_with_full_reservoir(algo, pattern, scenario):
    stream = _stream(scenario)
    assert (stream["op"] < 0).any()
    idx, truth = truth_trajectory(stream, pattern, CKPT_EVERY)
    sampler = make_sampler(algo, len(stream) + 1, pattern, 3, policy=_policy(pattern))
    r = run_trial(stream, sampler, CKPT_EVERY)
    assert (r["ckpt_idx"] == idx).all()
    assert r["est"].tolist() == truth.tolist()
