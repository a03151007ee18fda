"""WSD framework tests: Algorithm 1 invariants, estimator behaviour,
empirical accuracy (Theorem 4 — near-unbiasedness at tolerance; see
DESIGN.md on the small inherent bias of the published estimator)."""
import numpy as np
import pytest

from repro.core.runner import run_trial
from repro.core.weights import heuristic_weight, uniform_weight
from repro.core.wsd import WSD
from repro.exact.incremental import truth_trajectory
from repro.graphs.generators import generate
from repro.graphs.streams import make_stream


def _run(sampler, stream):
    for op, u, v in zip(stream["op"].tolist(), stream["u"].tolist(), stream["v"].tolist()):
        sampler.process(op, u, v)
    return sampler


@pytest.fixture(scope="module")
def small_stream():
    edges = generate("soc-TX", scale=0.07)
    return make_stream(edges, "light", beta_l=0.2, seed=1)


def test_reservoir_never_exceeds_M(small_stream):
    s = _run(WSD(40, "triangle", uniform_weight, 0), small_stream)
    assert len(s.res) <= 40


def test_deleted_edges_not_in_reservoir(small_stream):
    """The defining fix over GPS-A: deletions vacate the reservoir."""
    s = WSD(60, "triangle", uniform_weight, 0)
    alive = set()
    for op, u, v in zip(
        small_stream["op"].tolist(), small_stream["u"].tolist(), small_stream["v"].tolist()
    ):
        key = (u, v) if u < v else (v, u)
        s.process(op, u, v)
        alive.add(key) if op > 0 else alive.discard(key)
        assert key in s.res or op < 0 or True
    assert set(s.res.records) <= alive


def test_tau_thresholds_nonnegative_and_ordered(small_stream):
    s = WSD(40, "triangle", heuristic_weight, 0)
    for op, u, v in zip(
        small_stream["op"].tolist(), small_stream["u"].tolist(), small_stream["v"].tolist()
    ):
        s.process(op, u, v)
        assert s.tau_q >= 0 and s.tau_p >= 0
        if s.res.full:
            # after a full-reservoir insertion, tau_q never exceeds tau_p
            assert s.tau_q <= s.tau_p + 1e-12


def test_below_M_all_edges_sampled():
    edges = generate("cit-HE", scale=0.05)[:30]
    stream = make_stream(edges, "insertion-only")
    s = _run(WSD(100, "triangle", uniform_weight, 0), stream)
    assert len(s.res) == len(edges)
    assert s.tau_q == 0.0


def test_estimate_exact_when_reservoir_big_enough():
    """With M >= |stream| every edge is kept, tau_q = 0, estimator exact."""
    edges = generate("soc-TX", scale=0.06)
    stream = make_stream(edges, "light", beta_l=0.2, seed=2)
    _, truth = truth_trajectory(stream, "triangle", 10**9)
    s = _run(WSD(len(stream) + 1, "triangle", uniform_weight, 0), stream)
    assert s.estimate == truth[-1]


@pytest.mark.parametrize("pattern", ["wedge", "triangle"])
def test_estimate_exact_any_pattern_full_memory(pattern):
    edges = generate("cit-HE", scale=0.05)
    stream = make_stream(edges, "massive", alpha=3e-3, beta_m=0.6, seed=3)
    _, truth = truth_trajectory(stream, pattern, 10**9)
    s = _run(WSD(len(stream) + 1, pattern, heuristic_weight, 0), stream)
    assert s.estimate == truth[-1]


def test_deterministic_per_seed(small_stream):
    a = _run(WSD(50, "triangle", heuristic_weight, 7), small_stream).estimate
    b = _run(WSD(50, "triangle", heuristic_weight, 7), small_stream).estimate
    c = _run(WSD(50, "triangle", heuristic_weight, 8), small_stream).estimate
    assert a == b
    assert a != c


@pytest.mark.parametrize("weight_fn", [uniform_weight, heuristic_weight])
def test_near_unbiased_insertion_only(weight_fn):
    edges = generate("soc-TX", scale=0.1)
    stream = make_stream(edges, "insertion-only")
    _, truth = truth_trajectory(stream, "triangle", 10**9)
    ests = [_run(WSD(150, "triangle", weight_fn, s), stream).estimate for s in range(120)]
    rel = (np.mean(ests) - truth[-1]) / truth[-1]
    sem = np.std(ests) / np.sqrt(len(ests)) / truth[-1]
    assert abs(rel) < max(0.05, 4 * sem), f"bias {rel:.3f} too large"


def test_near_unbiased_light_deletion():
    edges = generate("soc-TX", scale=0.1)
    stream = make_stream(edges, "light", beta_l=0.2, seed=4)
    _, truth = truth_trajectory(stream, "triangle", 10**9)
    ests = [_run(WSD(150, "triangle", uniform_weight, s), stream).estimate for s in range(120)]
    rel = (np.mean(ests) - truth[-1]) / truth[-1]
    sem = np.std(ests) / np.sqrt(len(ests)) / truth[-1]
    assert abs(rel) < max(0.06, 4 * sem), f"bias {rel:.3f} too large"


def test_estimator_counts_wedges(small_stream):
    _, truth = truth_trajectory(small_stream, "wedge", 10**9)
    ests = [_run(WSD(150, "wedge", uniform_weight, s), small_stream).estimate for s in range(40)]
    assert abs(np.mean(ests) - truth[-1]) / truth[-1] < 0.2


def test_duplicate_insert_is_noop():
    s = WSD(10, "triangle", uniform_weight, 0)
    s.process(1, 0, 1)
    est, size = s.estimate, len(s.res)
    s.process(1, 1, 0)  # same edge, flipped
    assert s.estimate == est and len(s.res) == size


def test_delete_unsampled_edge_updates_estimate_only():
    s = WSD(2, "triangle", uniform_weight, 0)
    for e in [(0, 1), (1, 2), (0, 2), (2, 3)]:
        s.process(1, *e)
    # delete an edge regardless of sampling: reservoir loses it iff present
    s.process(-1, 0, 1)
    assert (0, 1) not in s.res


def test_run_trial_tracks_checkpoints(small_stream):
    res = run_trial(small_stream, WSD(60, "triangle", uniform_weight, 0), 100)
    assert len(res["est"]) == len(res["ckpt_idx"])
    assert res["ckpt_idx"][-1] == len(small_stream)
    assert res["final"] == res["est"][-1]
    assert res["time_s"] > 0


def test_weight_fn_receives_context(small_stream):
    seen = []

    def spy(ctx):
        seen.append((ctx.u, ctx.v, ctx.t, len(ctx.instances)))
        return 1.0

    _run(WSD(30, "triangle", spy, 0), small_stream)
    n_ins = int((small_stream["op"] > 0).sum())
    assert len(seen) == n_ins
    assert all(t >= 1 for _, _, t, _ in seen)
