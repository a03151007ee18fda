"""MDP environment for learning the WSD weight function (Section IV-A).

One episode = one pass of WSD over a training stream. Decision points are
the insertion events: the environment exposes the state
``s_k = [|H_k|, |N(u)|, |N(v)|, v_1/t, …, v_|H|/t]`` (Eqs. 19–22), the agent
returns the weight (action, Eq. 23), and the environment advances —
committing the insertion and processing any deletion events — to the next
insertion. The reward is ``r_k = ε(t_k) − ε(t_{k+1})`` (Eq. 25) with the
error ε measured against an exact counter running alongside; we use the
*relative* error for scale invariance across training streams (DESIGN.md
substitutions). Rewards telescope to ``−ε(t_N)`` within an episode (Eq. 26).
"""
from __future__ import annotations

import numpy as np

from ..core.weights import WeightContext, build_state, new_context
from ..core.wsd import WSD
from ..exact.incremental import ExactCounter

__all__ = ["WSDEnv"]


class WSDEnv:
    def __init__(
        self,
        stream: np.ndarray,
        pattern: str,
        M: int,
        *,
        seed: int = 0,
        variant: str = "max",
    ) -> None:
        self.stream = stream
        self.ops = stream["op"].tolist()
        self.us = stream["u"].tolist()
        self.vs = stream["v"].tolist()
        self.pattern = pattern
        self.M = M
        self.seed = seed
        self.variant = variant
        self._pending: tuple[int, int, list] | None = None
        self.state_dim = len(build_state(
            WeightContext(0, 1, 1, pattern, [], WSD(1, pattern, lambda c: 1.0).res),
            variant,
        ))

    # -- episode control ---------------------------------------------------
    def reset(self, seed: int | None = None) -> np.ndarray | None:
        """Start an episode; returns the first decision state (or None for an
        empty stream)."""
        self.sampler = WSD(self.M, self.pattern, None, seed=self.seed if seed is None else seed)
        self.exact = ExactCounter(self.pattern)
        self.i = 0
        self.prev_eps: float | None = None
        self._pending: tuple[int, int, list] | None = None
        return self._advance()

    def _rel_error(self) -> float:
        truth = self.exact.count
        return abs(self.sampler.estimate - truth) / max(1.0, truth)

    def _advance(self) -> np.ndarray | None:
        """Process events until the next insertion decision; stash it and
        return its state, or None at stream end."""
        while self.i < len(self.ops):
            op, u, v = self.ops[self.i], self.us[self.i], self.vs[self.i]
            if op < 0:
                self.sampler.process(-1, u, v)
                self.exact.delete(u, v)
                self.i += 1
                continue
            self.sampler.t += 1
            inst = self.sampler.begin_insert(u, v)
            self.exact.insert(u, v)
            if inst is None:  # duplicate; skip
                self.i += 1
                continue
            self._pending = (u, v, inst)
            ctx = new_context(
                WeightContext, (u, v, self.sampler.t, self.pattern, inst, self.sampler.res)
            )
            return build_state(ctx, self.variant)
        self._pending = None
        return None

    def step(self, action: float) -> tuple[np.ndarray | None, float, bool]:
        """Commit the pending insertion with weight ``action``; returns
        (next_state, reward, done)."""
        if self._pending is None:
            raise RuntimeError("no pending insertion; call reset() first")
        u, v, inst = self._pending
        eps_k = self._rel_error()  # ε(t_k): error at the decision time
        self.sampler.finish_insert(u, v, inst, max(float(action), 1e-6))
        self.i += 1
        nxt = self._advance()
        eps_next = self._rel_error()
        reward = eps_k - eps_next
        done = nxt is None
        return nxt, reward, done
