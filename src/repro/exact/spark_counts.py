"""Exact pattern counts as DuckDB oracle SQL.

``WEDGE_SQL`` / ``TRIANGLE_SQL`` / ``FOURCLIQUE_SQL`` count wedges, triangles
and 4-cliques over a table ``edges(a, b)`` with ``a < b``; ``alive_edges``
builds that edge set from a fully dynamic stream. Tests check the
incremental counter's final count against these queries, and the perfbench
end-to-end check runs them over each stream's final graph. The module keeps
its name because perfbench imports from this path.
"""
from __future__ import annotations

import numpy as np

__all__ = ["alive_edges", "WEDGE_SQL", "TRIANGLE_SQL", "FOURCLIQUE_SQL"]

WEDGE_SQL = """
WITH deg AS (
  SELECT v, count(*) AS d FROM (
    SELECT a AS v FROM edges UNION ALL SELECT b AS v FROM edges
  ) GROUP BY v
)
SELECT CAST(sum(d * (d - 1) / 2) AS BIGINT) AS cnt FROM deg
"""

TRIANGLE_SQL = """
SELECT count(*) AS cnt
FROM edges e1 JOIN edges e2 ON e2.a = e1.b
              JOIN edges e3 ON e3.a = e1.a AND e3.b = e2.b
"""

FOURCLIQUE_SQL = """
SELECT count(*) AS cnt
FROM edges e1 JOIN edges e2 ON e2.a = e1.b
              JOIN edges e3 ON e3.a = e1.a AND e3.b = e2.b
              JOIN edges e4 ON e4.a = e2.b
              JOIN edges e5 ON e5.a = e1.b AND e5.b = e4.b
              JOIN edges e6 ON e6.a = e1.a AND e6.b = e4.b
"""


def alive_edges(stream: np.ndarray) -> np.ndarray:
    """Edges present at the end of a fully dynamic stream."""
    alive: dict[tuple[int, int], None] = {}
    for op, u, v in zip(
        stream["op"].tolist(), stream["u"].tolist(), stream["v"].tolist()
    ):
        key = (u, v) if u < v else (v, u)
        if op > 0:
            alive[key] = None
        else:
            alive.pop(key, None)
    if not alive:
        return np.empty((0, 2), dtype=np.int64)
    return np.asarray(list(alive.keys()), dtype=np.int64)
