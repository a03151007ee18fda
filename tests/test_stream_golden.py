"""Golden digests of the stream-construction layer, byte for byte.

Graph generation and stream construction sit under every table cell and
every WSD-L training run, and their hot paths are tuned for speed. A
speed-up there must not move a single edge or event, so this test pins the
SHA-256 digest of:

* every ``DATASETS`` graph at four scales, plus the validation graph that
  ``train_policy`` builds (soc-TX with ``seed_offset=7``);
* ``make_stream`` output for every scenario × ordering on one social and one
  citation graph at BENCH scale.

The digests live in ``golden/stream_digests.json``. To re-record them (only
after a change that is *meant* to move graphs or streams), run::

    PYTHONPATH=src python tests/test_stream_golden.py
"""
from __future__ import annotations

import hashlib
import json
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from repro.graphs.generators import DATASETS, generate
from repro.graphs.streams import make_stream
from repro.harness.config import BENCH

GOLDEN = Path(__file__).parent / "golden" / "stream_digests.json"
SCALES = [0.08, 0.15, 0.25, 0.4]
GRAPHS = [(name, scale, 0) for name in sorted(DATASETS) for scale in SCALES] + [
    ("soc-TX", scale, 7) for scale in SCALES
]
STREAM_DATASETS = ["soc-TW", "cit-PT"]
SCENARIOS = ["massive", "light", "insertion-only"]
ORDERINGS = ["natural", "uar", "rbfs"]
STREAMS = [
    (name, scenario, ordering)
    for name in STREAM_DATASETS
    for scenario in SCENARIOS
    for ordering in ORDERINGS
]


def _digest(a: np.ndarray) -> str:
    h = hashlib.sha256(f"{a.dtype.str}{a.dtype.names}{a.shape}".encode())
    h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


@lru_cache(maxsize=None)
def _graph(name: str, scale: float, seed_offset: int) -> np.ndarray:
    return generate(name, scale=scale, seed_offset=seed_offset)


def _graph_id(name: str, scale: float, seed_offset: int) -> str:
    return f"{name}/{scale}/{seed_offset}"


def _stream(name: str, scenario: str, ordering: str) -> np.ndarray:
    return make_stream(
        _graph(name, BENCH.scale, 0), scenario, alpha=BENCH.alpha,
        beta_m=BENCH.beta_m, beta_l=BENCH.beta_l, ordering=ordering,
        seed=BENCH.stream_seed,
    )


def _stream_id(name: str, scenario: str, ordering: str) -> str:
    return f"{name}/{scenario}/{ordering}"


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("graph", GRAPHS, ids=lambda g: _graph_id(*g))
def test_graph_matches_golden(golden, graph):
    assert _digest(_graph(*graph)) == golden["graphs"][_graph_id(*graph)]


@pytest.mark.parametrize("stream", STREAMS, ids=lambda s: _stream_id(*s))
def test_stream_matches_golden(golden, stream):
    assert _digest(_stream(*stream)) == golden["streams"][_stream_id(*stream)]


def _record() -> None:
    out = {
        "graphs": {_graph_id(*g): _digest(_graph(*g)) for g in GRAPHS},
        "streams": {_stream_id(*s): _digest(_stream(*s)) for s in STREAMS},
    }
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(out, indent=1) + "\n")
    print(
        f"wrote {len(out['graphs'])} graph and {len(out['streams'])} stream "
        f"digests to {GOLDEN}",
        file=sys.stderr,
    )


if __name__ == "__main__":
    _record()
