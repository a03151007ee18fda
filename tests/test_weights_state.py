"""Weight functions and MDP state construction (Eqs. 19–22)."""
import numpy as np
import pytest

from repro.core.patterns import PATTERN_EDGES
from repro.core.reservoir import Reservoir
from repro.core.weights import (
    WeightContext,
    build_state,
    heuristic_weight,
    make_learned_weight,
    new_context,
    uniform_weight,
)
from repro.rl.policy import actor_weight


def _reservoir_with(edges_with_t):
    r = Reservoir(100)
    for (u, v), t in edges_with_t:
        r.add((min(u, v), max(u, v)), 1.0, float(10 + t), t)
    return r


def _ctx(pattern, inst, res, u=0, v=1, t=10):
    """A context whose instances are the sampled records of the other-edge
    key tuples ``inst``, in ``Reservoir.instances``' form: a wedge instance
    is its one record, any other a tuple of records."""
    recs = res.records
    if pattern == "wedge":
        inst = [recs[k] for (k,) in inst]
    else:
        inst = [tuple(recs[k] for k in other) for other in inst]
    return WeightContext(u, v, t, pattern, inst, res)


def test_new_context_equals_keyword_constructor():
    """The hot paths' ``new_context`` builds what the constructor builds."""
    res = _reservoir_with([((0, 2), 1), ((1, 2), 2)])
    inst = [res.records[(0, 2)]]
    fields = (0, 1, 3, "wedge", inst, res)
    got = new_context(WeightContext, fields)
    want = WeightContext(u=0, v=1, t=3, pattern="wedge", instances=inst, reservoir=res)
    assert type(got) is WeightContext
    assert got == want
    assert got._asdict() == want._asdict()
    assert got.instances is inst and got.reservoir is res


def test_uniform_weight():
    res = Reservoir(10)
    assert uniform_weight(_ctx("triangle", [], res)) == 1.0


def test_heuristic_weight_formula():
    res = _reservoir_with([((0, 2), 1), ((1, 2), 2), ((0, 3), 3), ((1, 3), 4)])
    inst = [(((0, 2)), ((1, 2))), (((0, 3)), ((1, 3)))]
    assert heuristic_weight(_ctx("triangle", inst, res)) == 9.0 * 2 + 1


def test_heuristic_weight_no_instances():
    assert heuristic_weight(_ctx("triangle", [], Reservoir(5))) == 1.0


@pytest.mark.parametrize("pattern", sorted(PATTERN_EDGES))
def test_state_dimension(pattern):
    for variant in ("max", "avg"):
        s = build_state(_ctx(pattern, [], Reservoir(5)), variant)
        assert isinstance(s, np.ndarray)
        assert s.dtype == np.float64
        assert s.shape == (PATTERN_EDGES[pattern] + 3,)


@pytest.mark.parametrize("variant", ["max", "avg"])
def test_state_type_with_instances(variant):
    res = _reservoir_with([((0, 2), 2), ((1, 2), 4), ((0, 3), 6), ((1, 3), 8)])
    inst = [((0, 2), (1, 2)), ((0, 3), (1, 3))]
    s = build_state(_ctx("triangle", inst, res, t=10), variant)
    assert isinstance(s, np.ndarray)
    assert s.dtype == np.float64
    assert s.shape == (PATTERN_EDGES["triangle"] + 3,)


def test_state_topological_part():
    res = _reservoir_with([((0, 2), 1), ((1, 2), 2), ((0, 3), 3)])
    inst = [((0, 2), (1, 2))]
    s = build_state(_ctx("triangle", inst, res, u=0, v=1, t=10), "max")
    assert s[0] == 1  # |H_k|
    assert s[1] == res.degree(0) == 2
    assert s[2] == res.degree(1) == 1


def test_state_temporal_max():
    """v_j = max over instances of the j-th smallest arrival index (Eq. 20),
    normalised by t; the focal edge is always the last index so v_|H|/t = 1."""
    res = _reservoir_with([((0, 2), 2), ((1, 2), 4), ((0, 3), 6), ((1, 3), 8)])
    inst = [((0, 2), (1, 2)), ((0, 3), (1, 3))]
    s = build_state(_ctx("triangle", inst, res, t=10), "max")
    assert s.tolist() == [2, 2, 2, max(2, 6) / 10, max(4, 8) / 10, 1.0]


def test_state_temporal_avg():
    res = _reservoir_with([((0, 2), 2), ((1, 2), 4), ((0, 3), 6), ((1, 3), 8)])
    inst = [((0, 2), (1, 2)), ((0, 3), (1, 3))]
    s = build_state(_ctx("triangle", inst, res, t=10), "avg")
    assert s.tolist() == [2, 2, 2, (2 + 6) / 2 / 10, (4 + 8) / 2 / 10, 1.0]


def test_state_no_instances_zero_temporal():
    s = build_state(_ctx("triangle", [], Reservoir(5)), "max")
    assert s.tolist() == [0.0] * 6


def test_state_wedge_positions():
    res = _reservoir_with([((0, 2), 5)])
    inst = [((0, 2),)]
    s = build_state(_ctx("wedge", inst, res, t=20), "max")
    assert s.tolist() == [1, 1, 0, 5 / 20, 1.0]


def test_state_wedge_avg():
    """Wedge instances have one other edge each: position 1 averages their
    arrival times, position 2 is the focal edge."""
    res = _reservoir_with([((0, 2), 3), ((0, 3), 4), ((1, 4), 9)])
    inst = [((0, 2),), ((0, 3),), ((1, 4),)]
    s = build_state(_ctx("wedge", inst, res, u=0, v=1, t=30), "avg")
    assert s.tolist() == [3, 2, 1, (3 + 4 + 9) / 3 / 30, 1.0]


def _four_clique_reservoir():
    """Two 4-cliques on the focal edge (0, 1): {0, 1, 2, 3} and {0, 1, 2, 4}."""
    return _reservoir_with([
        ((0, 2), 1), ((1, 2), 2), ((0, 3), 3), ((1, 3), 4), ((2, 3), 5),
        ((0, 4), 6), ((1, 4), 7), ((2, 4), 8),
    ])


_FOUR_CLIQUE_INST = [
    ((0, 2), (1, 2), (0, 3), (1, 3), (2, 3)),  # arrival times 1 2 3 4 5
    ((0, 2), (1, 2), (0, 4), (1, 4), (2, 4)),  # arrival times 1 2 6 7 8
]


def test_state_4clique_max():
    s = build_state(_ctx("4clique", _FOUR_CLIQUE_INST, _four_clique_reservoir(), t=16), "max")
    assert s.tolist() == [2, 3, 3, 1 / 16, 2 / 16, 6 / 16, 7 / 16, 8 / 16, 1.0]


def test_state_4clique_avg():
    s = build_state(_ctx("4clique", _FOUR_CLIQUE_INST, _four_clique_reservoir(), t=16), "avg")
    assert s.tolist() == [
        2, 3, 3,
        (1 + 1) / 2 / 16, (2 + 2) / 2 / 16, (3 + 6) / 2 / 16,
        (4 + 7) / 2 / 16, (5 + 8) / 2 / 16, 1.0,
    ]


def test_state_avg_unsorted_arrivals():
    """Positions are ranks of arrival time within an instance, not the
    instance's key order: the keys here arrive in reverse."""
    res = _reservoir_with([((0, 2), 7), ((1, 2), 3), ((0, 3), 5), ((1, 3), 1)])
    inst = [((0, 2), (1, 2)), ((0, 3), (1, 3))]
    s = build_state(_ctx("triangle", inst, res, t=10), "avg")
    assert s.tolist() == [2, 2, 2, (3 + 1) / 2 / 10, (7 + 5) / 2 / 10, 1.0]


def test_make_learned_weight_calls_actor():
    got = {}

    def actor(state):
        got["state"] = state
        return 3.5

    fn = make_learned_weight(actor, "max")
    res = Reservoir(5)
    w = fn(_ctx("triangle", [], res))
    assert w == 3.5
    assert got["state"].shape == (6,)


@pytest.mark.parametrize("variant", ["max", "avg"])
def test_learned_weight_memo_matches_actor_bits(variant):
    """Instance-free insertions reuse the actor's output per degree pair:
    same float bits as ``actor(build_state(ctx))``, one actor call per
    (|N(u)|, |N(v)|); states with instances always call the actor."""
    params = {"W": np.array([[9.0, 0.37, -0.21, 1.3, 0.7, 0.11]]), "b": np.array([0.05])}
    calls = []

    def actor(state):
        calls.append(state.tolist())
        return actor_weight(params, state)

    fn = make_learned_weight(actor, variant)
    res = _reservoir_with([((0, 1), 1), ((0, 2), 2), ((1, 2), 3), ((2, 3), 4), ((3, 4), 5)])
    pairs = [(0, 4), (5, 6), (1, 3), (4, 5), (0, 4), (1, 3), (5, 6), (6, 4), (4, 6)]
    for t, (u, v) in enumerate(pairs * 3, start=10):
        ctx = _ctx("triangle", [], res, t=t, u=u, v=v)
        assert fn(ctx).hex() == float(actor_weight(params, build_state(ctx, variant))).hex()
    degree_pairs = {(res.degree(u), res.degree(v)) for u, v in pairs}
    assert len(calls) == len(degree_pairs)
    assert sorted(c[1:3] for c in calls) == sorted(list(p) for p in degree_pairs)

    inst = [((1, 2), (0, 2))]
    ctx = _ctx("triangle", inst, res, t=40)
    n = len(calls)
    for _ in range(2):
        assert fn(ctx).hex() == float(actor_weight(params, build_state(ctx, variant))).hex()
    assert len(calls) == n + 2
