"""MDP environment (Eqs. 19–26) and learned-policy tests."""
import numpy as np
import pytest

from repro.core.weights import heuristic_weight
from repro.core.wsd import WSD
from repro.graphs.generators import generate
from repro.graphs.streams import make_stream
from repro.rl.env import WSDEnv
from repro.rl.policy import LearnedPolicy, actor_weight, heuristic_init_params
from repro.rl.train import TrainConfig, get_or_train_policy, train_policy


@pytest.fixture(scope="module")
def stream():
    edges = generate("soc-TX", scale=0.06)
    return make_stream(edges, "light", beta_l=0.2, seed=1)


def test_env_state_shape(stream):
    env = WSDEnv(stream, "triangle", 50, seed=0)
    s = env.reset()
    assert s is not None and s.shape == (6,)
    assert env.state_dim == 6


def test_env_steps_through_all_insertions(stream):
    env = WSDEnv(stream, "triangle", 50, seed=0)
    s = env.reset()
    n = 0
    while s is not None:
        s, r, done = env.step(1.0)
        n += 1
    assert done
    assert n == int((stream["op"] > 0).sum())


def test_env_rewards_telescope(stream):
    """Σ r_k = ε(t_1) − ε(t_N) = −ε(t_N) with relative error (Eq. 26
    adapted; ε(t_1) = 0 because both estimate and truth start at 0)."""
    env = WSDEnv(stream, "triangle", 50, seed=3)
    s = env.reset()
    total = 0.0
    first_eps = env._rel_error()
    while s is not None:
        s, r, done = env.step(2.0)
        total += r
    final_eps = env._rel_error()
    assert total == pytest.approx(first_eps - final_eps, abs=1e-9)


def test_env_step_without_reset_raises(stream):
    env = WSDEnv(stream, "triangle", 50)
    with pytest.raises(RuntimeError):
        env.step(1.0)


def test_env_matches_plain_wsd_with_constant_weight(stream):
    """Driving WSD through the env with weight w must equal running WSD with
    a constant weight function — same estimates, same reservoir."""
    env = WSDEnv(stream, "triangle", 60, seed=7)
    s = env.reset()
    while s is not None:
        s, _, _ = env.step(4.0)
    ref = WSD(60, "triangle", lambda ctx: 4.0, seed=7)
    for op, u, v in zip(stream["op"].tolist(), stream["u"].tolist(), stream["v"].tolist()):
        ref.process(op, u, v)
    assert env.sampler.estimate == pytest.approx(ref.estimate)
    assert set(env.sampler.res.records) == set(ref.res.records)


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
