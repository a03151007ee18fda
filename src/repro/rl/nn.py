"""Minimal numpy neural-network layer stack with Adam — PyTorch is not
available offline, and the paper's networks are tiny (actor: one linear
layer + ReLU; critic: one 10-neuron hidden layer), so exact manual gradients
are both feasible and fast.

Parameters live in plain dicts of arrays, so policies pickle into the Spark
trial broadcast as plain data.
"""
from __future__ import annotations

import numpy as np

__all__ = ["Adam", "relu", "mlp_forward", "mlp_backward", "init_mlp"]


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


class Adam:
    """Adam optimiser over a dict of parameter arrays."""

    def __init__(self, params: dict[str, np.ndarray], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> None:
        self.params = params
        self.lr, self.b1, self.b2, self.eps = lr, beta1, beta2, eps
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def step(self, grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        for k, g in grads.items():
            self.m[k] = self.b1 * self.m[k] + (1 - self.b1) * g
            self.v[k] = self.b2 * self.v[k] + (1 - self.b2) * g * g
            mhat = self.m[k] / (1 - self.b1**self.t)
            vhat = self.v[k] / (1 - self.b2**self.t)
            self.params[k] -= self.lr * mhat / (np.sqrt(vhat) + self.eps)


def init_mlp(d_in: int, hidden: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Two-layer MLP (d_in -> hidden -> 1) with ReLU hidden activation —
    the paper's critic architecture (hidden = 10)."""
    s1, s2 = 1.0 / np.sqrt(d_in), 1.0 / np.sqrt(hidden)
    return {
        "W1": rng.uniform(-s1, s1, (hidden, d_in)),
        "b1": np.zeros(hidden),
        "W2": rng.uniform(-s2, s2, (1, hidden)),
        "b2": np.zeros(1),
    }


def mlp_forward(p: dict[str, np.ndarray], x: np.ndarray) -> tuple[np.ndarray, dict]:
    """Forward pass; returns (B,) outputs and the cache for backward."""
    z1 = x @ p["W1"].T + p["b1"]
    h = relu(z1)
    y = h @ p["W2"].T + p["b2"]
    return y[:, 0], {"x": x, "z1": z1, "h": h}


def mlp_backward(
    p: dict[str, np.ndarray], cache: dict, dy: np.ndarray
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Backward pass given dL/dy of shape (B,); returns (grads, dL/dx)."""
    dyc = dy[:, None]  # (B,1)
    gW2 = dyc.T @ cache["h"]
    gb2 = dyc.sum(axis=0)
    dh = dyc @ p["W2"]  # (B,H)
    dz1 = dh * (cache["z1"] > 0)
    gW1 = dz1.T @ cache["x"]
    gb1 = dz1.sum(axis=0)
    dx = dz1 @ p["W1"]
    return {"W1": gW1, "b1": gb1, "W2": gW2, "b2": gb2}, dx
