"""Learned weight policy (the WSD-L actor) — Section IV-B.

The actor is ``a = ReLU(W s + b) + 1`` (Eq. 27, with the paper's "+1 to
avoid zero weights"). ``variant`` selects the temporal state aggregation of
Eq. (20): ``"max"`` (WSD-L) or ``"avg"`` (the Table XIII ablation).

A policy is plain data (its actor parameters, pattern and variant), so the
Spark trial fan-out broadcasts the ``LearnedPolicy`` itself.
"""
from __future__ import annotations

from functools import partial

import numpy as np

from ..core.patterns import PATTERN_EDGES
from ..core.weights import make_learned_weight

__all__ = ["LearnedPolicy", "actor_weight", "heuristic_init_params"]


def actor_weight(params: dict[str, np.ndarray], state: np.ndarray) -> float:
    """The actor of Eq. 27, ``ReLU(W s + b) + 1``, for one state."""
    return _actor(params["W"][0], float(params["b"][0]), state)


def _actor(w: np.ndarray, b: float, state: np.ndarray) -> float:
    """``ReLU(w · s + b) + 1`` for the actor's single output row ``w``.

    ``w.dot(state)`` is the same numpy/BLAS dot product as the (1, d) matmul
    ``(W @ state)[0]``, without the matmul's array result (a Python sum may
    round differently, so the dot stays in numpy); adding the bias as a
    Python float is the same IEEE addition as adding ``b[0]`` in numpy.
    ``tests/test_env_policy.py`` pins these bits against ``W @ s``."""
    z = float(w.dot(state)) + b
    return max(z, 0.0) + 1.0


def heuristic_init_params(pattern: str) -> dict[str, np.ndarray]:
    """Actor parameters that reproduce the WSD-H heuristic exactly:
    W = [9, 0, …], b = 0 gives ReLU(9·|H_k|) + 1 = 9·|H(e)| + 1.

    Used to warm-start training so WSD-L starts as a refinement of WSD-H
    (see DESIGN.md substitutions — a stand-in for the paper's hours-long
    from-scratch training)."""
    d = PATTERN_EDGES[pattern] + 3
    W = np.zeros((1, d))
    W[0, 0] = 9.0
    return {"W": W, "b": np.zeros(1)}


class LearnedPolicy:
    def __init__(self, params: dict[str, np.ndarray], pattern: str, variant: str = "max") -> None:
        d = PATTERN_EDGES[pattern] + 3
        if params["W"].shape != (1, d):
            raise ValueError(f"actor W must be (1, {d}) for pattern {pattern!r}")
        self.params = {k: np.asarray(v, dtype=np.float64) for k, v in params.items()}
        self.pattern = pattern
        self.variant = variant

    def __call__(self, state: np.ndarray) -> float:
        return actor_weight(self.params, state)

    def as_weight_fn(self):
        """The WSD-L weight function, with the actor row and bias bound once
        (the parameters must not change while it is in use, as its memo
        already assumes)."""
        W, b = self.params["W"], self.params["b"]
        return make_learned_weight(partial(_actor, W[0], float(b[0])), self.variant)
