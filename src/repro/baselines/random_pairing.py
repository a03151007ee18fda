"""Random pairing [Gemulla et al., VLDB'06] — the uniform reservoir primitive
that Triest, ThinkD and WRS all build on for fully dynamic streams — and the
one sampler that Triest and ThinkD share.

Each deletion is "paired with" a later insertion: a deletion of a sampled
item leaves a vacancy (``d1``), a deletion of an unsampled item a phantom
(``d2``); while ``d1 + d2 > 0`` an arriving insertion fills a vacancy with
probability ``d1 / (d1 + d2)`` and is otherwise dropped, after which the
counters shrink. With no uncompensated deletions, classic reservoir sampling
over the current population applies. The sample is uniform over the alive
population at all times.

``RandomPairing`` tracks sample membership and counters only, and returns
its decisions as ``("add"|"replace"|"skip", evicted)``.
``RandomPairingSampler`` owns such a sample and the adjacency of its edges.
Triest-FD [De Stefani et al., TKDD'17] and ThinkD [Shin et al.,
ECML-PKDD'18] are two estimator rules on it, so for the same seed they hold
the same sample after every event. They differ only in when they count and
what they divide by:

* Triest counts the instances wholly inside the sample, on each membership
  change, and divides by P[|H| edges sampled] when the estimate is read. An
  arriving edge counts only if it is sampled: the highest variance of the
  baselines, which the paper's comparison exercises.
* ThinkD ("think before you discard") counts each event's instances with the
  sample *before* the sampling decision and divides by P[|H|-1 edges
  sampled] (the ThinkD.fast closed form): a lower-variance middle ground.
"""
from __future__ import annotations

import numpy as np

from ..core.patterns import PATTERN_EDGES, adj_add, adj_remove, count_instances
from ..draws import Draws

__all__ = ["RandomPairing", "RandomPairingSampler", "Triest", "ThinkD"]


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


class RandomPairingSampler:
    """A ``RandomPairing`` sample of capacity ``M`` and the adjacency of its
    edges, kept equal after every event. ``_member(u, v, sign)`` runs when
    edge ``(u, v)`` joins (``sign = 1``) or leaves (``-1``) the sample:
    before the adjacency gains it, after the adjacency loses it."""

    def __init__(self, M: int, pattern: str, seed: int = 0) -> None:
        self.pattern = pattern
        self.h = PATTERN_EDGES[pattern]
        self.rp = RandomPairing(M, seed)
        self.adj: dict[int, set[int]] = {}

    def process(self, op: int, u: int, v: int) -> None:
        key = (u, v) if u < v else (v, u)
        adj = self.adj
        if op > 0:
            decision, evicted = self.rp.on_insert(key)
            if decision == "skip":
                return
            if decision == "replace":
                adj_remove(adj, evicted)
                self._member(*evicted, -1)
            self._member(u, v, 1)
            adj_add(adj, key)
        elif self.rp.on_delete(key):
            adj_remove(adj, key)
            self._member(u, v, -1)

    def _member(self, u: int, v: int, sign: int) -> None:
        pass


class Triest(RandomPairingSampler):
    def __init__(self, M: int, pattern: str, seed: int = 0) -> None:
        super().__init__(M, pattern, seed)
        self.sample_count = 0.0  # instances wholly inside the sample graph

    def _member(self, u: int, v: int, sign: int) -> None:
        # Integer-valued: every sum is exact, whatever its order.
        self.sample_count += sign * count_instances(self.pattern, self.adj, u, v)

    @property
    def estimate(self) -> float:
        return self.sample_count / self.rp.inclusion_prob(self.h)


class ThinkD(RandomPairingSampler):
    def __init__(self, M: int, pattern: str, seed: int = 0) -> None:
        super().__init__(M, pattern, seed)
        self.estimate = 0.0

    def process(self, op: int, u: int, v: int) -> None:
        # The "think" step, before this event's sampling decision. A count
        # does not depend on whether the adjacency holds ``(u, v)`` itself,
        # so a sampled edge's deletion counts before the edge leaves it.
        c = count_instances(self.pattern, self.adj, u, v)
        if c:
            d = c / self.rp.inclusion_prob(self.h - 1)
            self.estimate += d if op > 0 else -d
        RandomPairingSampler.process(self, op, u, v)
