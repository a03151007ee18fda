"""GPS / GPS-A tests: top-M sampling, threshold maintenance, DEL-tag
semantics and the capacity-waste drawback (Section III-A/B)."""
import numpy as np
import pytest

from repro.core.gps import GPS, GPSA
from repro.core.weights import heuristic_weight, uniform_weight
from repro.exact.incremental import truth_trajectory
from repro.graphs.generators import generate
from repro.graphs.streams import make_stream


def _run(sampler, stream):
    for op, u, v in zip(stream["op"].tolist(), stream["u"].tolist(), stream["v"].tolist()):
        sampler.process(op, u, v)
    return sampler


@pytest.fixture(scope="module")
def ins_stream():
    edges = generate("soc-TX", scale=0.07)
    return make_stream(edges, "insertion-only")


@pytest.fixture(scope="module")
def dyn_stream():
    edges = generate("soc-TX", scale=0.07)
    return make_stream(edges, "light", beta_l=0.25, seed=1)


def test_gps_keeps_top_M_ranks(ins_stream):
    s = GPS(50, "triangle", uniform_weight, 0)
    _run(s, ins_stream)
    assert len(s.res) == 50
    min_kept = min(rec.rank for rec in s.res.records.values())
    assert min_kept >= s.z_star, "reservoir holds the top-M ranks"


def test_gps_z_star_monotone(ins_stream):
    s = GPS(50, "triangle", uniform_weight, 0)
    last = 0.0
    for op, u, v in zip(
        ins_stream["op"].tolist(), ins_stream["u"].tolist(), ins_stream["v"].tolist()
    ):
        s.process(op, u, v)
        assert s.z_star >= last
        last = s.z_star


def test_gps_rejects_deletions(dyn_stream):
    s = GPS(50, "triangle", uniform_weight, 0)
    with pytest.raises(NotImplementedError):
        _run(s, dyn_stream)


def test_gps_near_unbiased_insertion_only(ins_stream):
    _, truth = truth_trajectory(ins_stream, "triangle", 10**9)
    ests = [
        _run(GPS(150, "triangle", uniform_weight, s), ins_stream).estimate
        for s in range(100)
    ]
    rel = (np.mean(ests) - truth[-1]) / truth[-1]
    assert abs(rel) < 0.08


def test_gpsa_handles_deletions(dyn_stream):
    s = _run(GPSA(60, "triangle", heuristic_weight, 0), dyn_stream)
    assert len(s.res) <= 60


def test_gpsa_tags_zombies(dyn_stream):
    """Deleted sampled edges stay in the reservoir (capacity waste) but are
    excluded from adjacency (and thus from the estimator)."""
    s = GPSA(60, "triangle", uniform_weight, 0)
    alive = set()
    for op, u, v in zip(
        dyn_stream["op"].tolist(), dyn_stream["u"].tolist(), dyn_stream["v"].tolist()
    ):
        key = (u, v) if u < v else (v, u)
        s.process(op, u, v)
        alive.add(key) if op > 0 else alive.discard(key)
    tagged = {k for k, rec in s.res.records.items() if rec.tagged}
    untagged = {k for k, rec in s.res.records.items() if not rec.tagged}
    assert tagged, "expected some DEL-tagged zombies in a deletion stream"
    assert tagged.isdisjoint(alive), "tagged edges must be deleted ones"
    assert untagged <= alive
    for u, v in tagged:
        assert v not in s.res.adj.get(u, set())


def test_gpsa_effective_sample_shrinks(dyn_stream):
    """The paper's GPS-A drawback: untagged (useful) sample < capacity."""
    s = _run(GPSA(60, "triangle", uniform_weight, 0), dyn_stream)
    useful = sum(1 for rec in s.res.records.values() if not rec.tagged)
    assert useful < 60


def test_gpsa_near_unbiased_light(dyn_stream):
    _, truth = truth_trajectory(dyn_stream, "triangle", 10**9)
    ests = [
        _run(GPSA(150, "triangle", uniform_weight, s), dyn_stream).estimate
        for s in range(100)
    ]
    rel = (np.mean(ests) - truth[-1]) / truth[-1]
    assert abs(rel) < 0.15


def test_gps_gpsa_identical_on_insertion_only(ins_stream):
    a = _run(GPS(80, "triangle", heuristic_weight, 3), ins_stream)
    b = _run(GPSA(80, "triangle", heuristic_weight, 3), ins_stream)
    assert a.estimate == b.estimate
    assert set(a.res.records) == set(b.res.records)


def test_gps_exact_with_full_memory(ins_stream):
    _, truth = truth_trajectory(ins_stream, "triangle", 10**9)
    s = _run(GPS(len(ins_stream) + 1, "triangle", uniform_weight, 0), ins_stream)
    assert s.estimate == truth[-1]
