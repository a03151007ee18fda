"""DDPG [Lillicrap et al., ICLR'16] for the continuous-action weight MDP
(Section IV-B), in numpy.

Actor ``μ(s;θ) = ReLU(W s + b) + 1`` (Eq. 27). Critic ``Q(s,a;φ)``: one
10-neuron ReLU hidden layer (the paper's architecture); inputs are
conditioned with log1p on the count features and the action (stand-in for
the paper's batch normalisation — see DESIGN.md). Target networks with soft
updates, uniform replay memory, Adam on both nets; critic loss is the
Bellman residual (Eqs. 28–29), actor loss the negated expected return
(Eq. 30).
"""
from __future__ import annotations

import numpy as np

from .nn import Adam, init_mlp, mlp_backward, mlp_forward
from .policy import actor_weight

__all__ = ["ReplayBuffer", "DDPG"]


class ReplayBuffer:
    def __init__(self, capacity: int, state_dim: int, rng: np.random.Generator) -> None:
        self.capacity = capacity
        self.rng = rng
        self.s = np.zeros((capacity, state_dim))
        self.a = np.zeros(capacity)
        self.r = np.zeros(capacity)
        self.s2 = np.zeros((capacity, state_dim))
        self.done = np.zeros(capacity, dtype=bool)
        self.n = 0
        self.ptr = 0

    def push(self, s, a, r, s2, done) -> None:
        i = self.ptr
        self.s[i] = s
        self.a[i] = a
        self.r[i] = r
        self.s2[i] = s2 if s2 is not None else 0.0
        self.done[i] = done
        self.ptr = (i + 1) % self.capacity
        self.n = min(self.n + 1, self.capacity)

    def sample(self, batch: int):
        idx = self.rng.integers(0, self.n, batch)
        return self.s[idx], self.a[idx], self.r[idx], self.s2[idx], self.done[idx]


def _critic_features(s: np.ndarray, a: np.ndarray) -> np.ndarray:
    """[log1p(counts), temporal, log1p(a)] — fixed conditioning."""
    x = np.empty((s.shape[0], s.shape[1] + 1))
    x[:, :3] = np.log1p(s[:, :3])
    x[:, 3:-1] = s[:, 3:]
    x[:, -1] = np.log1p(a)
    return x


class DDPG:
    def __init__(
        self,
        state_dim: int,
        *,
        actor_init: dict[str, np.ndarray] | None = None,
        hidden: int = 10,
        gamma: float = 0.99,
        lr: float = 1e-3,
        tau: float = 0.01,
        replay_capacity: int = 10_000,
        batch: int = 128,
        seed: int = 0,
    ) -> None:
        self.rng = np.random.default_rng(seed)
        self.gamma, self.tau, self.batch = gamma, tau, batch
        if actor_init is None:
            s = 1.0 / np.sqrt(state_dim)
            actor_init = {
                "W": self.rng.uniform(-s, s, (1, state_dim)),
                "b": np.zeros(1),
            }
        self.actor = {k: np.array(v, dtype=np.float64) for k, v in actor_init.items()}
        self.critic = init_mlp(state_dim + 1, hidden, self.rng)
        self.actor_t = {k: v.copy() for k, v in self.actor.items()}
        self.critic_t = {k: v.copy() for k, v in self.critic.items()}
        self.opt_a = Adam(self.actor, lr=lr)
        self.opt_c = Adam(self.critic, lr=lr)
        self.replay = ReplayBuffer(replay_capacity, state_dim, self.rng)
        self.updates = 0

    # -- policies ----------------------------------------------------------
    def act(self, s: np.ndarray, params: dict | None = None) -> float:
        return actor_weight(self.actor if params is None else params, s)

    def act_batch(self, s: np.ndarray, params: dict) -> tuple[np.ndarray, np.ndarray]:
        z = s @ params["W"].T + params["b"]  # (B,1)
        return np.maximum(z[:, 0], 0.0) + 1.0, z[:, 0]

    def explore(self, s: np.ndarray, sigma: float) -> float:
        return max(self.act(s) + sigma * self.rng.standard_normal(), 1e-3)

    def q(self, s: np.ndarray, a: np.ndarray, params: dict) -> np.ndarray:
        y, _ = mlp_forward(params, _critic_features(s, a))
        return y

    # -- learning ----------------------------------------------------------
    def update(self) -> dict[str, float]:
        """One gradient update of critic and actor + soft target updates."""
        s, a, r, s2, done = self.replay.sample(self.batch)
        # critic: y_i = r + γ Q'(s', μ'(s'))  (Eq. 29), MSE loss (Eq. 28)
        a2, _ = self.act_batch(s2, self.actor_t)
        q_next = self.q(s2, a2, self.critic_t)
        y = r + self.gamma * np.where(done, 0.0, q_next)
        x = _critic_features(s, a)
        q_pred, cache = mlp_forward(self.critic, x)
        dq = 2.0 * (q_pred - y) / len(y)
        grads_c, _ = mlp_backward(self.critic, cache, dq)
        self.opt_c.step(grads_c)
        critic_loss = float(np.mean((q_pred - y) ** 2))

        # actor: maximise mean Q(s, μ(s))  (Eq. 30)
        a_mu, z = self.act_batch(s, self.actor)
        x_mu = _critic_features(s, a_mu)
        q_mu, cache_mu = mlp_forward(self.critic, x_mu)
        _, dx = mlp_backward(self.critic, cache_mu, -np.ones_like(q_mu) / len(q_mu))
        # chain through log1p(a) and the actor ReLU
        da = dx[:, -1] / (1.0 + a_mu)
        dz = da * (z > 0)
        gW = (dz[:, None] * s).sum(axis=0, keepdims=True)
        gb = np.array([dz.sum()])
        self.opt_a.step({"W": gW, "b": gb})

        # soft target updates: θ' ← τθ + (1−τ)θ'
        for tgt, src in ((self.actor_t, self.actor), (self.critic_t, self.critic)):
            for k in src:
                tgt[k] = self.tau * src[k] + (1 - self.tau) * tgt[k]
        self.updates += 1
        return {"critic_loss": critic_loss, "q_mean": float(q_mu.mean())}
