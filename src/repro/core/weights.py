"""Weight functions W(e, R) for the WSD/GPS frameworks (Sections III–IV).

Three families, matching the paper's experiments:

* ``uniform_weight`` — every edge weight 1 (degenerates weighted sampling to
  uniform; used in tests to validate the framework against ground truth).
* ``heuristic_weight`` — the GPS heuristic ``W(e, R) = 9·|H(e)| + 1`` where
  ``|H(e)|`` is the number of pattern instances completed by ``e`` with
  sampled edges (WSD-H).
* ``make_learned_weight`` — wraps a trained actor (WSD-L); the MDP state of
  Eqs. (19)–(22) is assembled here by ``build_state``.

A weight function receives a ``WeightContext`` and returns a positive float.
"""
from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .reservoir import EdgeRecord, Reservoir
from .patterns import PATTERN_EDGES

__all__ = [
    "WeightContext",
    "new_context",
    "uniform_weight",
    "heuristic_weight",
    "build_state",
    "make_learned_weight",
]


class WeightContext(NamedTuple):
    """What a weight function sees of an insertion of ``(u, v)`` at time
    ``t``. ``instances`` is ``Reservoir.instances``' list: per instance the
    other edges' records, the record itself for a wedge and a tuple of
    records for a triangle or 4-clique."""

    u: int
    v: int
    t: int  # current (1-based) event time t_k
    pattern: str
    instances: list[EdgeRecord] | list[tuple[EdgeRecord, ...]]
    reservoir: Reservoir


# ``new_context(WeightContext, (u, v, t, pattern, instances, reservoir))``
# builds the tuple ``WeightContext(...)`` builds, without the NamedTuple's
# generated Python-level ``__new__``: the per-insertion call sites use it.
new_context = tuple.__new__


def uniform_weight(ctx: WeightContext) -> float:
    return 1.0


def heuristic_weight(ctx: WeightContext) -> float:
    """W(e, R) = 9·|H(e)| + 1 [Ahmed et al., adopted by the paper for WSD-H]."""
    return 9.0 * len(ctx.instances) + 1.0


def build_state(ctx: WeightContext, variant: str = "max") -> np.ndarray:
    """MDP state ``s_k = [s_k^g, s_k^v] ∈ R^{|H|+3}`` (Eqs. 19–22).

    Topological part: ``[|H_k|, |N(u)|, |N(v)|]`` over the sampled graph.
    Temporal part: per edge-position ``j`` of the pattern, the max (Eq. 20) or
    mean (Table XIII ablation, ``variant='avg'``) over instances of the j-th
    smallest arrival index — normalised by the current time ``t_k`` so the
    feature is scale-free across streams (the paper handles scale with batch
    normalisation; see DESIGN.md substitutions).
    """
    inst = ctx.instances
    adj = ctx.reservoir.adj  # degrees read as ``Reservoir.degree`` does
    state = [len(inst), len(adj.get(ctx.u, ())), len(adj.get(ctx.v, ()))]
    if not inst:
        return np.array(state + [0.0] * PATTERN_EDGES[ctx.pattern], dtype=np.float64)
    # Plain Python, not numpy: this runs once per insertion over a few values,
    # where numpy's per-call overhead dominates. Arrival times are ints, so
    # column maxima and sums are exact and the divisions are the same IEEE
    # operations as an element-wise float64 reduction.
    t = max(1, ctx.t)
    if ctx.pattern == "wedge":  # one other edge per instance: one column
        ts = [rec.t for rec in inst]
        state.append(sum(ts) / len(inst) / t if variant == "avg" else max(ts) / t)
    else:
        cols = zip(*[sorted([rec.t for rec in other]) for other in inst])
        if variant == "avg":
            n = len(inst)
            state += [sum(c) / n / t for c in cols]
        else:
            state += [max(c) / t for c in cols]
    state.append(ctx.t / t)  # e itself is always the latest edge of J
    return np.array(state, dtype=np.float64)


def make_learned_weight(
    actor: Callable[[np.ndarray], float], variant: str = "max"
) -> Callable[[WeightContext], float]:
    """WSD-L weight function: state -> actor -> positive weight.

    Most insertions complete no instance. Their state is
    ``[0, |N(u)|, |N(v)|, 0, …, 0]`` for either ``variant``, a function of
    the two degrees alone, so the function memoises the actor's output per
    (pattern, |N(u)|, |N(v)|) for the weight function's lifetime; the actor
    is a deterministic function of the state, so a memoised weight has the
    same bits as a fresh call. States with instances always go through
    ``build_state`` and the actor."""
    memo: dict[tuple[str, int, int], float] = {}

    def fn(ctx: WeightContext) -> float:
        if ctx.instances:
            return float(actor(build_state(ctx, variant)))
        res = ctx.reservoir
        key = (ctx.pattern, res.degree(ctx.u), res.degree(ctx.v))
        w = memo.get(key)
        if w is None:
            w = memo[key] = float(actor(build_state(ctx, variant)))
        return w

    return fn
