"""Stream constructor tests: feasibility (Definition 1), scenario shape."""
import math

import numpy as np
import pytest

from repro.graphs.generators import generate
from repro.graphs.streams import (
    LAST_DEL_FRAC,
    STREAM_DTYPE,
    insertion_only_stream,
    light_deletion_stream,
    make_stream,
    massive_deletion_stream,
)

DATASETS = ["cit-PT", "com-YT", "soc-TW", "web-GL", "synthetic"]
SCENARIOS = ["insertion-only", "massive", "light"]


def _check_feasible(stream):
    """Definition 1: never insert a present edge, never delete an absent one."""
    alive = set()
    for op, u, v in zip(stream["op"].tolist(), stream["u"].tolist(), stream["v"].tolist()):
        key = (u, v) if u < v else (v, u)
        if op > 0:
            assert key not in alive, f"re-insert of live edge {key}"
            alive.add(key)
        else:
            assert key in alive, f"delete of absent edge {key}"
            alive.remove(key)
    return alive


@pytest.mark.parametrize("name", DATASETS)
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_streams_feasible(name, scenario):
    edges = generate(name, scale=0.05)
    stream = make_stream(edges, scenario, alpha=2e-3, beta_m=0.5, beta_l=0.2, seed=1)
    _check_feasible(stream)


@pytest.mark.parametrize("name", DATASETS)
def test_insertion_only_is_edges(name):
    edges = generate(name, scale=0.05)
    stream = insertion_only_stream(edges)
    assert stream.dtype == STREAM_DTYPE
    assert (stream["op"] == 1).all()
    assert len(stream) == len(edges)


def test_massive_deletion_has_bulk_events():
    edges = generate("cit-PT", scale=0.15)
    stream = massive_deletion_stream(edges, alpha=2e-3, beta_m=0.8, seed=2)
    dels = int((stream["op"] < 0).sum())
    assert dels > 0
    # deletions arrive in contiguous bulk runs (massive events)
    ops = stream["op"]
    runs = np.diff(np.flatnonzero(np.diff(np.r_[1, ops, 1] < 0)))
    assert runs.max() > 10, "expected at least one bulk deletion run"


def test_massive_deletion_respects_last_del_frac():
    edges = generate("cit-PT", scale=0.15)
    stream = massive_deletion_stream(edges, alpha=5e-3, beta_m=0.8, seed=2)
    ins_positions = np.flatnonzero(stream["op"] > 0)
    del_positions = np.flatnonzero(stream["op"] < 0)
    # Every edge is inserted once, so the i-th insertion event is edge i.
    assert len(ins_positions) == len(edges)
    assert len(del_positions) > 0
    # A deletion event may follow the insertion of edge i only while
    # i < LAST_DEL_FRAC * m: all deletions precede edge ceil(LAST_DEL_FRAC * m).
    cutoff = math.ceil(LAST_DEL_FRAC * len(edges))
    assert del_positions.max() < ins_positions[cutoff]


def test_massive_deletion_beta_zero_is_insertion_only():
    edges = generate("cit-HE", scale=0.05)
    stream = massive_deletion_stream(edges, alpha=0.5, beta_m=0.0, seed=3)
    assert (stream["op"] == 1).all()


def test_light_deletion_fraction():
    edges = generate("cit-PT", scale=0.2)
    stream = light_deletion_stream(edges, beta_l=0.2, seed=4)
    n_del = int((stream["op"] < 0).sum())
    frac = n_del / len(edges)
    assert 0.15 < frac < 0.25, f"expected ~20% deletions, got {frac:.2%}"


def test_light_deletion_beta_zero():
    edges = generate("cit-HE", scale=0.05)
    stream = light_deletion_stream(edges, beta_l=0.0, seed=4)
    assert (stream["op"] == 1).all()


def test_light_deletion_interleaves():
    """Deletions appear throughout the stream, not only at the end."""
    edges = generate("cit-PT", scale=0.2)
    stream = light_deletion_stream(edges, beta_l=0.3, seed=5)
    del_pos = np.flatnonzero(stream["op"] < 0)
    assert del_pos.min() < len(stream) // 2


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_make_stream_deterministic(scenario):
    edges = generate("soc-TX", scale=0.05)
    a = make_stream(edges, scenario, seed=6)
    b = make_stream(edges, scenario, seed=6)
    assert np.array_equal(a, b)


def test_make_stream_unknown_scenario():
    edges = generate("soc-TX", scale=0.05)
    with pytest.raises(ValueError):
        make_stream(edges, "bogus")


@pytest.mark.parametrize("name", DATASETS)
def test_final_graph_size_light(name):
    edges = generate(name, scale=0.05)
    stream = make_stream(edges, "light", beta_l=0.2, seed=9)
    alive = _check_feasible(stream)
    assert len(alive) == len(edges) - int((stream["op"] < 0).sum())
