"""GPS / GPS-A tests: top-M sampling, threshold maintenance, DEL-tag
semantics and the capacity-waste drawback (Section III-A/B)."""
import numpy as np
import pytest

from repro.core.gps import GPS, GPSA
from repro.core.weights import heuristic_weight, uniform_weight
from repro.core.wsd import WSD
from repro.exact.incremental import truth_trajectory
from repro.graphs.generators import generate
from repro.graphs.streams import make_stream
from repro.harness.config import BENCH


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
    assert min_kept >= s.tau_q, "reservoir holds the top-M ranks"


def test_gps_tau_q_monotone(ins_stream):
    s = GPS(50, "triangle", uniform_weight, 0)
    last = 0.0
    for op, u, v in zip(
        ins_stream["op"].tolist(), ins_stream["u"].tolist(), ins_stream["v"].tolist()
    ):
        s.process(op, u, v)
        assert s.tau_q >= last
        last = s.tau_q


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


def _recording(cls):
    """``cls`` that keeps every rank ``_rank`` draws."""

    class Recording(cls):
        def __init__(self, *args):
            super().__init__(*args)
            self.drawn = []

        def _rank(self, w):
            r = super()._rank(w)
            self.drawn.append(r)
            return r

    return Recording


def _largest_discarded(s) -> float:
    held = {rec.rank for rec in s.res.records.values()}
    return max((r for r in s.drawn if r not in held), default=0.0)


@pytest.fixture(scope="module")
def tx_streams():
    """soc-TX at scale 0.1 with the table configs' deletion parameters. With
    stream seed 0 the massive stream deletes (one burst of 427 deletions
    after insertion 856); at this scale many seeds' massive streams do not."""
    edges = generate("soc-TX", scale=0.1)
    kw = dict(alpha=BENCH.alpha, beta_m=BENCH.beta_m, beta_l=BENCH.beta_l, seed=0)
    streams = {sc: make_stream(edges, sc, **kw) for sc in ("insertion-only", "light", "massive")}
    assert (streams["massive"]["op"] < 0).any()
    return streams


@pytest.mark.parametrize("pattern", ["wedge", "triangle"])
@pytest.mark.parametrize(
    "cls, scenario", [(GPS, "insertion-only"), (GPSA, "light"), (GPSA, "massive")]
)
def test_tau_q_is_largest_discarded_rank(tx_streams, cls, scenario, pattern):
    """GPS never removes an edge and GPS-A only tags one, so WSD's insertion
    path keeps ``tau_q`` at GPS's z*, the largest rank discarded so far,
    after every event; Cases 2.1, 2.2 and 2.3 all fire on this stream."""
    stream = tx_streams[scenario]
    s = _recording(cls)(60, pattern, heuristic_weight, 0)
    cases = {"2.1": 0, "2.2": 0, "2.3": 0}
    for op, u, v in zip(stream["op"].tolist(), stream["u"].tolist(), stream["v"].tolist()):
        key = (u, v) if u < v else (v, u)
        full, fresh, tau_q = s.res.full, key not in s.res.records, s.tau_q
        s.process(op, u, v)
        if op > 0 and full and fresh:
            case = "2.1" if key in s.res.records else "2.2" if s.tau_q != tau_q else "2.3"
            cases[case] += 1
        assert s.tau_q == _largest_discarded(s), f"event {s.t}"
    assert all(cases.values()), cases


def test_wsd_tau_q_is_not_largest_discarded_rank(tx_streams):
    """The identity above is not vacuous: WSD's Case 3 removals and Case 1.2
    rejects discard ranks that ``tau_q`` does not track."""
    stream = tx_streams["massive"]
    s = _recording(WSD)(60, "triangle", heuristic_weight, 0)
    for op, u, v in zip(stream["op"].tolist(), stream["u"].tolist(), stream["v"].tolist()):
        s.process(op, u, v)
        if s.tau_q != _largest_discarded(s):
            return
    pytest.fail("WSD's tau_q tracked every discarded rank")
