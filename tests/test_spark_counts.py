"""Incremental ground truth vs the DuckDB oracle SQL, with no Spark session."""
import duckdb
import numpy as np
import pandas as pd
import pytest

from repro.exact.incremental import truth_trajectory
from repro.exact.spark_counts import (
    FOURCLIQUE_SQL,
    TRIANGLE_SQL,
    WEDGE_SQL,
    alive_edges,
)
from repro.graphs.generators import generate
from repro.graphs.streams import make_stream

PATTERN_SQL = {"wedge": WEDGE_SQL, "triangle": TRIANGLE_SQL, "4clique": FOURCLIQUE_SQL}


@pytest.fixture(scope="module")
def stream():
    edges = generate("soc-TX", scale=0.06)
    return make_stream(edges, "light", beta_l=0.2, seed=1)


def _duckdb_count(sql: str, edges: np.ndarray) -> int:
    """``sql`` over the canonical (a < b) edge table built from ``edges``."""
    con = duckdb.connect()
    try:
        con.register("edges", pd.DataFrame({
            "a": np.minimum(edges[:, 0], edges[:, 1]),
            "b": np.maximum(edges[:, 0], edges[:, 1]),
        }))
        return int(con.execute(sql).fetchone()[0])
    finally:
        con.close()


@pytest.mark.parametrize("pattern", ["wedge", "triangle", "4clique"])
def test_truth_matches_duckdb_oracle(stream, pattern):
    _, truth = truth_trajectory(stream, pattern, 10**9)
    assert int(truth[-1]) == _duckdb_count(PATTERN_SQL[pattern], alive_edges(stream))


def test_alive_edges_tracks_deletions(stream):
    alive = alive_edges(stream)
    n_ins = int((stream["op"] > 0).sum())
    n_del = int((stream["op"] < 0).sum())
    assert len(alive) == n_ins - n_del
    assert (alive[:, 0] < alive[:, 1]).all()


def test_alive_edges_empty():
    s = np.zeros(2, dtype=[("op", np.int8), ("u", np.int64), ("v", np.int64)])
    s["op"] = [1, -1]
    s["u"] = [0, 0]
    s["v"] = [1, 1]
    assert len(alive_edges(s)) == 0


def test_triangle_count_known_graph():
    # K4 has 4 triangles, 1 four-clique, 12 wedges
    k4 = np.array([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert _duckdb_count(TRIANGLE_SQL, k4) == 4
    assert _duckdb_count(FOURCLIQUE_SQL, k4) == 1
    assert _duckdb_count(WEDGE_SQL, k4) == 12
