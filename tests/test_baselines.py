"""Baseline sampler tests: Triest, ThinkD, WRS."""
import numpy as np
import pytest

from repro.baselines.random_pairing import ThinkD, Triest
from repro.baselines.wrs import WRS
from repro.exact.incremental import truth_trajectory
from repro.graphs.generators import generate
from repro.graphs.streams import make_stream


def _run(sampler, stream):
    for op, u, v in zip(stream["op"].tolist(), stream["u"].tolist(), stream["v"].tolist()):
        sampler.process(op, u, v)
    return sampler


@pytest.fixture(scope="module")
def streams():
    edges = generate("soc-TX", scale=0.1)
    out = {
        "insertion-only": make_stream(edges, "insertion-only"),
        "light": make_stream(edges, "light", beta_l=0.2, seed=1),
        "massive": make_stream(edges, "massive", alpha=3e-3, beta_m=0.5, seed=2),
    }
    assert (out["light"]["op"] < 0).any() and (out["massive"]["op"] < 0).any()
    return out


@pytest.fixture(scope="module")
def truths(streams):
    return {
        k: truth_trajectory(s, "triangle", 10**9)[1][-1] for k, s in streams.items()
    }


ALGOS = [Triest, ThinkD, WRS]


@pytest.mark.parametrize("algo", ALGOS)
@pytest.mark.parametrize("scenario", ["insertion-only", "light", "massive"])
def test_sample_bounded(algo, scenario, streams):
    s = _run(algo(80, "triangle", 0), streams[scenario])
    if algo is WRS:
        assert len(s.waiting) + len(s.rp) <= 80
    else:
        assert len(s.rp) <= 80


@pytest.mark.parametrize("algo", ALGOS)
@pytest.mark.parametrize("scenario", ["insertion-only", "light"])
def test_near_unbiased(algo, scenario, streams, truths):
    T = truths[scenario]
    ests = [_run(algo(150, "triangle", s), streams[scenario]).estimate for s in range(100)]
    rel = (np.mean(ests) - T) / T
    sem = np.std(ests) / np.sqrt(len(ests)) / T
    assert abs(rel) < max(0.08, 4 * sem), f"{algo.__name__} bias {rel:.3f}"


@pytest.mark.parametrize("algo", ALGOS)
def test_deterministic_per_seed(algo, streams):
    a = _run(algo(100, "triangle", 5), streams["light"]).estimate
    b = _run(algo(100, "triangle", 5), streams["light"]).estimate
    assert a == b


@pytest.mark.parametrize("scenario", ["light", "massive"])
@pytest.mark.parametrize("pattern", ["wedge", "triangle"])
def test_triest_and_thinkd_share_one_sample(pattern, scenario):
    """The two estimator rules run on one random-pairing sample: with the
    same seed, Triest and ThinkD hold the same sampled keys, in order, and
    the same adjacency, in iteration order, after every event."""
    edges = generate("soc-TX", scale=0.06)
    stream = make_stream(edges, scenario, alpha=3e-3, beta_m=0.5, beta_l=0.2, seed=5)
    assert (stream["op"] < 0).any()
    tr, td = Triest(60, pattern, 7), ThinkD(60, pattern, 7)
    for op, u, v in zip(stream["op"].tolist(), stream["u"].tolist(), stream["v"].tolist()):
        tr.process(op, u, v)
        td.process(op, u, v)
        assert tr.rp._keys == td.rp._keys
        assert [(k, list(n)) for k, n in tr.adj.items()] == [
            (k, list(n)) for k, n in td.adj.items()
        ]


def test_triest_higher_variance_than_thinkd(streams, truths):
    """The structural property the paper's comparison rests on: counting
    only inside the sample (Triest) has higher variance than
    count-then-sample (ThinkD)."""
    T = truths["light"]
    tr = np.array([_run(Triest(100, "triangle", s), streams["light"]).estimate for s in range(60)])
    td = np.array([_run(ThinkD(100, "triangle", s), streams["light"]).estimate for s in range(60)])
    assert tr.std() > td.std()


def test_wrs_waiting_room_fifo():
    s = WRS(10, "triangle", 0, wr_ratio=0.5)
    for i in range(5):
        s.process(1, i, i + 100)
    assert list(s.waiting) == [(i, i + 100) for i in range(5)]
    s.process(1, 5, 105)  # overflows wr_cap=5: oldest leaves to the reservoir
    assert (0, 100) not in s.waiting
    assert len(s.waiting) == 5


def test_wrs_recent_edges_probability_one():
    """Edges in the waiting room contribute with weight exactly 1."""
    s = WRS(100, "triangle", 0, wr_ratio=0.9)
    s.process(1, 0, 1)
    s.process(1, 1, 2)
    s.process(1, 0, 2)  # closes a triangle with both others in the waiting room
    assert s.estimate == pytest.approx(1.0)


def test_wrs_delete_from_waiting_room():
    s = WRS(10, "triangle", 0, wr_ratio=0.5)
    for i in range(4):
        s.process(1, i, i + 100)
    s.process(-1, 2, 102)
    assert (2, 102) not in s.waiting
    assert s.rp.d1 == 0 and s.rp.d2 == 0, "waiting-room deletions bypass RP"


def test_wrs_ratio_validation():
    with pytest.raises(ValueError):
        WRS(10, "triangle", 0, wr_ratio=1.5)


def test_thinkd_counts_before_sampling():
    """An arriving edge's instances count even if the edge is not sampled."""
    s = ThinkD(2, "triangle", 0)
    s.process(1, 0, 1)
    s.process(1, 1, 2)
    before = s.estimate
    s.process(1, 0, 2)  # completes a triangle; both others sampled (M=2 full)
    assert s.estimate > before


def test_triest_counts_only_inside_sample():
    """With M=3 and 4 edges, the closing edge of the triangle only counts if
    it (and both other triangle edges) are in the sample — some runs yield 0,
    but the rescaled mean stays near the true count of 1."""
    ests = []
    for seed in range(400):
        s = Triest(3, "triangle", seed)
        s.process(1, 5, 6)  # filler edge so the sample is contended
        s.process(1, 0, 1)
        s.process(1, 1, 2)
        s.process(1, 0, 2)
        ests.append(s.estimate)
    assert any(e == 0 for e in ests)
    assert abs(np.mean(ests) - 1.0) < 0.5


@pytest.mark.parametrize("algo", ALGOS)
def test_wedge_pattern_supported(algo, streams):
    _, truth = truth_trajectory(streams["light"], "wedge", 10**9)
    ests = [_run(algo(150, "wedge", s), streams["light"]).estimate for s in range(30)]
    assert abs(np.mean(ests) - truth) / truth < 0.2
