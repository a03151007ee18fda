"""The weighted-sampler core: ranks drawn from replayed raw blocks must
be bit-identical to scalar ``ranks.rank(w, default_rng(seed))`` draws, across
block refills, for WSD and GPS/GPS-A. WSD-L training runs plain WSD, so its
ranks are covered by the WSD cases."""
import numpy as np
import pytest

from repro import draws
from repro.core.gps import GPS, GPSA
from repro.core.ranks import rank
from repro.core.weights import heuristic_weight
from repro.core.wsd import WSD
from repro.graphs.generators import generate
from repro.graphs.streams import make_stream

SEED = 7


class ScalarWSD(WSD):
    def _rank(self, w):
        return rank(w, self.rng)


class ScalarGPS(GPS):
    def _rank(self, w):
        return rank(w, self.rng)


class ScalarGPSA(GPSA):
    def _rank(self, w):
        return rank(w, self.rng)


def _stream(scenario: str) -> np.ndarray:
    stream = make_stream(generate("soc-TW", scale=0.08), scenario, beta_l=0.2, seed=3)
    # Every insertion draws one rank: more than two refills must happen.
    assert int((stream["op"] > 0).sum()) > 2 * draws.BLOCK + 1
    return stream


def _run(sampler, stream):
    for op, u, v in zip(stream["op"].tolist(), stream["u"].tolist(), stream["v"].tolist()):
        sampler.process(op, u, v)
    return sampler


def _state(sampler) -> tuple:
    recs = sampler.res.records
    return (
        sampler.estimate,
        getattr(sampler, "tau_q", None),
        getattr(sampler, "z_star", None),
        sorted((k, r.weight, r.rank, r.t, r.tagged) for k, r in recs.items()),
    )


@pytest.mark.parametrize("cls", [WSD, GPS])
def test_every_rank_matches_scalar_draws(cls):
    """With room for every edge, each insertion's rank is kept in its
    record: in arrival order they are the scalar draws, one per insertion."""
    stream = _stream("insertion-only")
    s = _run(cls(len(stream) + 1, "triangle", heuristic_weight, SEED), stream)
    recs = sorted(s.res.records.values(), key=lambda r: r.t)
    assert len(recs) == len(stream)
    rng = np.random.default_rng(SEED)
    assert [r.rank for r in recs] == [rank(r.weight, rng) for r in recs]


@pytest.mark.parametrize(
    "block_cls, scalar_cls, scenario",
    [
        (WSD, ScalarWSD, "light"),
        (WSD, ScalarWSD, "massive"),
        (GPS, ScalarGPS, "insertion-only"),
        (GPSA, ScalarGPSA, "light"),
    ],
)
def test_full_run_matches_scalar_draws(block_cls, scalar_cls, scenario):
    """A small reservoir, so ranks decide admissions and thresholds."""
    stream = _stream(scenario)
    got = _run(block_cls(60, "triangle", heuristic_weight, SEED), stream)
    want = _run(scalar_cls(60, "triangle", heuristic_weight, SEED), stream)
    assert _state(got) == _state(want)
