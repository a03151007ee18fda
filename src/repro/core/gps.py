"""GPS (insertion-only weighted sampling, Section III-A) and GPS-A (the
paper's straw-man fully-dynamic adaptation, Section III-B), as WSD with
their own deletion rule.

GPS keeps the top-M edges by rank and estimates with the threshold
``z* = r_{M+1}``, the largest rank discarded so far, so
``P[e ∈ R] = min(1, w(e)/z*)`` (Eq. 1). GPS rejects deletion events —
Example 1 of the paper shows it is *incorrect* on fully dynamic streams.

GPS-A handles a deletion by attaching a "DEL" tag: the edge stops forming
subgraphs and is excluded from the estimator, but keeps occupying reservoir
capacity until evicted by rank — the space-waste drawback WSD removes.

Both run WSD's insertion path (Algorithm 1) unchanged, where a re-inserted
edge replaces its GPS-A zombie. On a stream without re-insertions its
``tau_q`` is GPS's z* after every event. GPS never removes an edge and GPS-A
only tags one, so an edge leaves the reservoir only by ``pop_min`` and the
reservoir's minimum rank never falls. Hence:

* Case 1 admits every edge: ``tau_p`` stays 0 until the reservoir first
  fills, and it never empties again;
* Case 2.1 sets ``tau_q`` to the rank it pops, which is at least every rank
  discarded before;
* Case 2.2 raises ``tau_q`` to a rejected rank above it;
* Case 2.3 leaves ``tau_q`` alone (the rejected rank is at most ``tau_q``).
"""
from __future__ import annotations

from .ranks import contribution
from .wsd import WSD

__all__ = ["GPS", "GPSA"]


class GPS(WSD):
    def _delete(self, u: int, v: int) -> None:
        raise NotImplementedError(
            "GPS is insertion-only (Example 1 shows it is biased under deletions)"
        )


class GPSA(WSD):
    def _delete(self, u: int, v: int) -> None:
        key = (u, v) if u < v else (v, u)
        res = self.res
        if key in res.records:  # tag, not remove: the zombie keeps its slot
            res.tag(key)
        inst = res.instances(self.pattern, u, v)
        if inst:
            self.estimate -= contribution(inst, self.tau_q)
