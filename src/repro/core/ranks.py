"""Rank function and inclusion probabilities (Section III).

The paper instantiates the rank function as ``r = f(w) = w / u`` with
``u ~ Uniform(0, 1]`` [GPS / priority sampling], for which

    P[r > tau] = min(1, w / tau)     (tau > 0; 1 when tau == 0).

``contribution`` is the Horvitz–Thompson term WSD's Algorithm 2 adds or
subtracts per event; GPS and GPS-A are WSD with their own deletion rule and
use it the same way.
"""
from __future__ import annotations

import numpy as np

__all__ = ["rank", "inclusion_prob", "contribution"]


def rank(w: float, rng: np.random.Generator) -> float:
    """Probabilistic rank ``w / u`` of an edge with weight ``w > 0``."""
    if w <= 0:
        raise ValueError(f"edge weight must be positive, got {w}")
    u = 1.0 - rng.random()  # uniform in (0, 1]
    return w / u


def inclusion_prob(w: float, tau: float) -> float:
    """P[rank(w) > tau] = min(1, w / tau); 1 when the threshold is still 0."""
    if tau <= 0.0:
        return 1.0
    return min(1.0, w / tau)


def contribution(instances: list, tau: float) -> float:
    """Σ_J Π_{e'∈J\\e} 1/P[r(e') > tau] over the pattern instances ``J``
    formed by an event, as ``Reservoir.instances`` returns them: each wedge
    instance is the other edge's record, each triangle or 4-clique instance
    a tuple of records (all with ``.weight``).

    ``inclusion_prob`` is inlined (the per-event hot path): ``w / tau if
    w < tau else 1.0`` is the same IEEE value as ``min(1.0, w / tau)``, and
    the products and the sum run in the same order, so the result is
    bit-identical to composing ``inclusion_prob``. A wedge's product has one
    factor ``x``, and ``1.0 * x`` is exactly ``x``, so its term is
    ``1.0 / x``. With ``tau <= 0`` every probability is 1 and each instance
    adds exactly 1.0.
    """
    if tau <= 0.0 or not instances:
        return float(len(instances))
    total = 0.0
    if not isinstance(instances[0], tuple):  # wedges: one record each
        for rec in instances:
            w = rec.weight
            total += 1.0 / (w / tau if w < tau else 1.0)
        return total
    for recs in instances:
        p = 1.0
        for rec in recs:
            w = rec.weight
            p *= w / tau if w < tau else 1.0
        total += 1.0 / p
    return total
