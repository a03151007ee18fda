"""Random pairing [Gemulla et al., VLDB'06] — the uniform reservoir primitive
that Triest, ThinkD and WRS all build on for fully dynamic streams.

Each deletion is "paired with" a later insertion: a deletion of a sampled
item leaves a vacancy (``d1``), a deletion of an unsampled item a phantom
(``d2``); while ``d1 + d2 > 0`` an arriving insertion fills a vacancy with
probability ``d1 / (d1 + d2)`` and is otherwise dropped, after which the
counters shrink. With no uncompensated deletions, classic reservoir sampling
over the current population applies. The sample is uniform over the alive
population at all times.

This class tracks sample membership and counters only; callers own adjacency
and estimate bookkeeping (each baseline hooks membership changes
differently). Decisions are returned as ``("add"|"replace"|"skip", evicted)``.
"""
from __future__ import annotations

import numpy as np

from ..draws import Draws

__all__ = ["RandomPairing"]


class RandomPairing:
    def __init__(self, capacity: int, seed: int = 0) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._draws = Draws(np.random.default_rng(seed))
        self._keys: list[tuple[int, int]] = []
        self._pos: dict[tuple[int, int], int] = {}
        self.d1 = 0  # uncompensated deletions of sampled items
        self.d2 = 0  # uncompensated deletions of unsampled items
        self.n_alive = 0  # current population size

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key: tuple[int, int]) -> bool:
        return key in self._pos

    @property
    def population(self) -> int:
        """N = alive + uncompensated deletions — the population the inclusion
        probabilities are computed over (ThinkD.fast's closed form)."""
        return self.n_alive + self.d1 + self.d2

    def _add(self, key: tuple[int, int]) -> None:
        self._pos[key] = len(self._keys)
        self._keys.append(key)

    def _remove(self, key: tuple[int, int]) -> None:
        i = self._pos.pop(key)
        last = self._keys.pop()
        if i < len(self._keys):
            self._keys[i] = last
            self._pos[last] = i

    def on_insert(self, key: tuple[int, int]):
        """Process an insertion; returns (decision, evicted_key_or_None)."""
        self.n_alive += 1
        d = self.d1 + self.d2
        if d > 0:  # compensation phase
            if self._draws.random() * d < self.d1:
                self.d1 -= 1
                self._add(key)
                return "add", None
            self.d2 -= 1
            return "skip", None
        if len(self._keys) < self.capacity:
            self._add(key)
            return "add", None
        draws = self._draws
        if draws.random() * self.n_alive < self.capacity:
            evicted = self._keys[draws.integers(len(self._keys))]
            self._remove(evicted)
            self._add(key)
            return "replace", evicted
        return "skip", None

    def on_delete(self, key: tuple[int, int]) -> bool:
        """Process a deletion; returns True iff the item was sampled."""
        self.n_alive -= 1
        if key in self._pos:
            self._remove(key)
            self.d1 += 1
            return True
        self.d2 += 1
        return False

    def inclusion_prob(self, k: int) -> float:
        """P[k specific alive items all sampled] ≈ Π_{i<k} min(1,(M-i)/(N-i))."""
        n = self.population
        p = 1.0
        for i in range(k):
            if n - i > 0:
                p *= min(1.0, (self.capacity - i) / (n - i))
        return max(p, 1e-300)
