"""Training episodes of the weight MDP (Eqs. 19–26) and learned-policy
tests."""
import numpy as np
import pytest

from repro.core.patterns import PATTERN_EDGES
from repro.core.weights import build_state, heuristic_weight
from repro.core.wsd import WSD
from repro.exact.incremental import ExactCounter
from repro.graphs.generators import generate
from repro.graphs.streams import make_stream
from repro.rl.ddpg import DDPG
from repro.rl.policy import LearnedPolicy, actor_weight, heuristic_init_params
from repro.rl.train import TrainConfig, _Exploration, get_or_train_policy, train_policy


@pytest.fixture(scope="module")
def stream():
    edges = generate("soc-TX", scale=0.06)
    return make_stream(edges, "light", beta_l=0.2, seed=1)


def _episode(stream, pattern: str, seed: int, **cfg):
    """One exploration episode of a warm-started agent on ``stream`` with a
    50-edge reservoir; by default the batch exceeds the episode, so no
    gradient update runs and the episode sees the whole stream."""
    cfg = TrainConfig(**{"iters": 1, "batch": len(stream) + 1, "replay": len(stream), **cfg})
    agent = DDPG(
        PATTERN_EDGES[pattern] + 3, actor_init=heuristic_init_params(pattern),
        replay_capacity=cfg.replay, batch=cfg.batch,
    )
    run = _Exploration(agent, cfg)
    events = (stream["op"].tolist(), stream["u"].tolist(), stream["v"].tolist())
    ret = run.episode(events, pattern, 50, "max", seed)
    return ret, run, agent.replay


def _replay(stream, pattern: str, seed: int, actions: list[float]):
    """Plain WSD over ``stream`` with ``actions`` as its weights, in order;
    returns the sampler and the states its weight function saw."""
    states = []
    it = iter(actions)

    def weight(ctx):
        states.append(build_state(ctx))
        return next(it)

    smp = WSD(50, pattern, weight, seed)
    for op, u, v in zip(stream["op"].tolist(), stream["u"].tolist(), stream["v"].tolist()):
        smp.process(op, u, v)
    return smp, states


def test_env_state_shape(stream):
    """The episode's transitions hold the states WSD's weight function sees
    when plain WSD replays the episode's actions: ``|H| + 3`` wide, each
    transition's next state the following decision's state."""
    for pattern in ("wedge", "triangle"):
        _, run, rb = _episode(stream, pattern, seed=0)
        n = run.steps
        _, states = _replay(stream, pattern, 0, rb.a[:n].tolist())
        assert len(states) == n
        assert rb.s.shape[1] == PATTERN_EDGES[pattern] + 3
        np.testing.assert_array_equal(rb.s[:n], np.array(states))
        np.testing.assert_array_equal(rb.s2[:n - 1], rb.s[1:n])


def test_env_steps_through_all_insertions(stream):
    """Exactly one transition per feasible insertion; only the last is
    terminal."""
    _, run, rb = _episode(stream, "triangle", seed=0)
    n = int((stream["op"] > 0).sum())
    assert run.steps == rb.n == n
    assert rb.done[:n].tolist() == [False] * (n - 1) + [True]


def test_env_rewards_telescope(stream):
    """With no early stop the episode return is ``−ε(t_N)``, the relative
    error at stream end (Eq. 26; ``ε(t_1) = 0`` because both estimate and
    truth start at 0)."""
    ret, run, rb = _episode(stream, "triangle", seed=3)
    smp, _ = _replay(stream, "triangle", 3, rb.a[:run.steps].tolist())
    exact = ExactCounter("triangle")
    for op, u, v in zip(stream["op"].tolist(), stream["u"].tolist(), stream["v"].tolist()):
        exact.process(op, u, v)
    eps = abs(smp.estimate - exact.count) / max(1.0, exact.count)
    assert eps > 0
    assert ret == pytest.approx(-eps, abs=1e-9)
    assert ret == pytest.approx(rb.r[:run.steps].sum(), abs=1e-9)


def test_episode_stops_at_iters(stream):
    """An episode ends as soon as the agent has made ``iters`` updates."""
    _, run, rb = _episode(stream, "triangle", seed=0, iters=5, batch=8, update_every=2)
    assert run.agent.updates == 5
    assert run.steps == 8 + 2 * 4  # first update at a full batch, then every 2
    assert not rb.done[:run.steps].any()


def test_policy_heuristic_init_equals_wsdh(stream):
    """Warm-started WSD-L is *exactly* WSD-H."""
    pol = LearnedPolicy(heuristic_init_params("triangle"), "triangle")
    a = WSD(60, "triangle", pol.as_weight_fn(), seed=2)
    b = WSD(60, "triangle", heuristic_weight, seed=2)
    for op, u, v in zip(stream["op"].tolist(), stream["u"].tolist(), stream["v"].tolist()):
        a.process(op, u, v)
        b.process(op, u, v)
    assert a.estimate == pytest.approx(b.estimate)


def test_policy_save_load_roundtrip(tmp_path):
    pol = LearnedPolicy(heuristic_init_params("wedge"), "wedge", variant="avg")
    p = tmp_path / "pol.npz"
    pol.save(p)
    back = LearnedPolicy.load(p)
    assert back.pattern == "wedge" and back.variant == "avg"
    np.testing.assert_array_equal(back.params["W"], pol.params["W"])


def test_policy_shape_validation():
    with pytest.raises(ValueError):
        LearnedPolicy({"W": np.zeros((1, 4)), "b": np.zeros(1)}, "triangle")


def test_policy_output_positive():
    pol = LearnedPolicy({"W": -np.ones((1, 6)), "b": np.zeros(1)}, "triangle")
    assert pol(np.ones(6)) == 1.0  # ReLU clamps, +1 keeps weights positive


TINY = TrainConfig(iters=30, n_streams=1, scale=0.05, M=40, batch=16, update_every=2)


def test_train_policy_runs_and_returns_info():
    pol, info = train_policy("soc-TX", "light", "triangle", TINY)
    assert info["updates"] == 30
    assert info["train_time_s"] > 0
    assert pol.params["W"].shape == (1, 6)
    phases = [info["graphs_s"], info["ddpg_s"], info["validate_s"]]
    assert all(t >= 0 for t in phases)
    # The phases tile the run, so their sum may exceed it only by rounding.
    assert sum(phases) <= info["train_time_s"] + 1e-9


def test_train_policy_wedge_dimensions():
    pol, _ = train_policy("cit-HE", "light", "wedge", TINY)
    assert pol.params["W"].shape == (1, 5)


def test_get_or_train_policy_caches(tmp_path):
    p1, i1 = get_or_train_policy(tmp_path, "soc-TX", "light", "triangle", TINY)
    assert not i1["cached"]
    p2, i2 = get_or_train_policy(tmp_path, "soc-TX", "light", "triangle", TINY)
    assert i2["cached"]
    np.testing.assert_array_equal(p1.params["W"], p2.params["W"])
    assert i2["train_time_s"] is not None


@pytest.mark.parametrize("d", [5, 6, 9])
def test_actor_weight_bits_match_matmul_reference(d):
    """``actor_weight`` takes the 1-D dot ``W[0].dot(s)`` and adds the bias
    as a Python float. It must equal the (1, d) matmul form
    ``max(float((W @ s)[0] + b[0]), 0.0) + 1.0`` as ``float.hex`` on every
    state: states of width 5, 6 and 9 (wedge, triangle, 4-clique) built as
    ``build_state`` builds them, integer head features up to 5,000, weights
    scaled 1e-2 to 1e2 with mixed signs."""
    rng = np.random.default_rng(100 + d)
    n_params, per = 1000, 100
    heads = rng.integers(0, 5001, size=(n_params * per, 3)).tolist()
    temporal = rng.random((n_params * per, d - 3)).tolist()
    mismatches = 0
    for i in range(n_params):
        W = rng.standard_normal((1, d)) * 10.0 ** rng.uniform(-2, 2, (1, d))
        b = rng.standard_normal(1) * 10.0 ** rng.uniform(-2, 2)
        params = {"W": W, "b": b}
        for j in range(i * per, (i + 1) * per):
            s = np.array(heads[j] + temporal[j], dtype=np.float64)
            want = max(float((W @ s)[0] + b[0]), 0.0) + 1.0
            mismatches += actor_weight(params, s).hex() != want.hex()
    assert mismatches == 0
