"""numpy NN tests: exact gradients (numerical check) and Adam behaviour."""
import numpy as np
import pytest

from repro.rl.nn import Adam, init_mlp, mlp_backward, mlp_forward, relu


def test_relu():
    np.testing.assert_array_equal(relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])


def test_init_mlp_shapes():
    p = init_mlp(5, 10, np.random.default_rng(0))
    assert p["W1"].shape == (10, 5) and p["W2"].shape == (1, 10)


def test_mlp_forward_shape():
    p = init_mlp(5, 10, np.random.default_rng(0))
    y, cache = mlp_forward(p, np.random.default_rng(1).random((7, 5)))
    assert y.shape == (7,)
    assert cache["h"].shape == (7, 10)


@pytest.mark.parametrize("seed", range(3))
def test_mlp_gradients_match_numerical(seed):
    rng = np.random.default_rng(seed)
    p = init_mlp(4, 6, rng)
    x = rng.random((5, 4))
    tgt = rng.random(5)

    def loss(params):
        y, _ = mlp_forward(params, x)
        return 0.5 * np.sum((y - tgt) ** 2)

    y, cache = mlp_forward(p, x)
    grads, dx = mlp_backward(p, cache, y - tgt)
    eps = 1e-6
    for k in p:
        flat = p[k].ravel()
        g_flat = grads[k].ravel()
        for i in range(min(flat.size, 8)):
            orig = flat[i]
            flat[i] = orig + eps
            up = loss(p)
            flat[i] = orig - eps
            dn = loss(p)
            flat[i] = orig
            num = (up - dn) / (2 * eps)
            assert num == pytest.approx(g_flat[i], rel=1e-4, abs=1e-6), f"{k}[{i}]"


def test_mlp_input_gradient_numerical():
    rng = np.random.default_rng(9)
    p = init_mlp(3, 5, rng)
    x = rng.random((2, 3))
    tgt = rng.random(2)
    y, cache = mlp_forward(p, x)
    _, dx = mlp_backward(p, cache, y - tgt)
    eps = 1e-6
    for i in range(2):
        for j in range(3):
            orig = x[i, j]
            x[i, j] = orig + eps
            up = 0.5 * np.sum((mlp_forward(p, x)[0] - tgt) ** 2)
            x[i, j] = orig - eps
            dn = 0.5 * np.sum((mlp_forward(p, x)[0] - tgt) ** 2)
            x[i, j] = orig
            assert (up - dn) / (2 * eps) == pytest.approx(dx[i, j], rel=1e-4, abs=1e-6)


def test_adam_minimises_quadratic():
    params = {"w": np.array([5.0, -3.0])}
    opt = Adam(params, lr=0.1)
    for _ in range(500):
        opt.step({"w": 2 * params["w"]})  # d/dw ||w||^2
    assert np.abs(params["w"]).max() < 1e-3


def test_adam_state_tracks_params():
    params = {"a": np.zeros(3), "b": np.zeros((2, 2))}
    opt = Adam(params)
    opt.step({"a": np.ones(3), "b": np.ones((2, 2))})
    assert opt.t == 1
    assert opt.m["a"].shape == (3,)
    assert (params["a"] != 0).all()
