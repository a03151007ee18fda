"""The weighted-sampler core shared by WSD (``core.wsd``) and GPS/GPS-A
(``core.gps``): constructor, rank-keyed reservoir, event dispatch, and the
rank draw.

Ranks are ``w / (1.0 - u)`` with ``u`` replayed from ``self.rng``'s raw
blocks by ``draws.Draws``: the same doubles, in the same order, as
successive scalar ``random()`` calls. These samplers draw nothing else from
``self.rng``, so every rank is bit-identical to ``ranks.rank(w, self.rng)``,
without a scalar generator call per insertion.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from ..draws import Draws
from .reservoir import Reservoir
from .weights import WeightContext

__all__ = ["WeightedSampler"]


class WeightedSampler:
    """Base class: subclasses implement ``_insert`` and ``_delete``."""

    def __init__(
        self,
        M: int,
        pattern: str,
        weight_fn: Callable[[WeightContext], float],
        seed: int = 0,
    ) -> None:
        self.M = M
        self.pattern = pattern
        self.weight_fn = weight_fn
        self.rng = np.random.default_rng(seed)
        self._random = Draws(self.rng).random
        self.res = Reservoir(M)
        self.estimate = 0.0
        self.t = 0

    def process(self, op: int, u: int, v: int) -> None:
        self.t += 1
        if op > 0:
            self._insert(u, v)
        else:
            self._delete(u, v)

    def _rank(self, w: float) -> float:
        """``ranks.rank(w, self.rng)``, with ``u`` from the replayed block."""
        if w <= 0:
            raise ValueError(f"edge weight must be positive, got {w}")
        return w / (1.0 - self._random())
