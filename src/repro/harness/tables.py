"""The paper's Tables I–XIII: a registry mapping each table id to its cells
(or, for Tables I/IV/XI, its driver call), title and pivots, one driver for
every Monte-Carlo table, and the command that regenerates them::

    python -m repro.harness.tables table03 table09   # or: all
    python -m repro.harness.tables all --scale 0.4 --n-runs 100

A Monte-Carlo table is a list of cells, each one (deletion scenario, test
graph, pattern) with its columns; ``table_cells`` runs every column's trials
on every cell and returns a tidy pandas DataFrame whose rows are the paper's
table cells (ARE/MARE in %, time in seconds per trial). The command writes
every table's tidy frame and paper-layout pivots to ``results/`` and then
rebuilds EXPERIMENTS.md from ``results/``. Both paths are rooted at the
source checkout, so the package must be installed editable (``pip install
-e .``); the command exits with an error otherwise.

Policies for WSD-L are trained in the run that uses them, once per
(training graph, scenario, pattern, variant), on the Table I *training*
graph of each dataset's category under the same deletion scenario and
pattern as the experiment — exactly the paper's protocol.
"""
from __future__ import annotations

import argparse
import sys
import time
from collections.abc import Callable, Hashable, Sequence
from dataclasses import dataclass, field
from pathlib import Path

import pandas as pd
from pyspark.sql import SparkSession

from ..exact.incremental import truth_trajectory
from ..graphs.generators import DATASETS, TRAIN_OF, generate
from ..graphs.streams import make_stream
from ..rl.train import TrainConfig, get_or_train_policy
from .config import BENCH, BENCH_TRAIN, ExpConfig
from .experiments import build_experiments
from .factory import ALGOS_DYNAMIC, ALGOS_INSERTION
from .reporting import pivot_metric, save_table
from .trials import trial_frame

__all__ = [
    "TEST_GRAPHS",
    "TRAIN_GRAPHS",
    "TABLES",
    "Table",
    "dataset_stats",
    "main_cells",
    "transfer_cells",
    "ablation_cells",
    "table_cells",
    "table_training",
    "run_tables",
]

ROOT = Path(__file__).resolve().parents[3]
RESULTS_DIR = ROOT / "results"

TEST_GRAPHS = list(TRAIN_OF)
TRAIN_GRAPHS = list(TRAIN_OF.values())
# the paper's 4-clique tables omit soc-TW (too expensive); we follow suit
TEST_GRAPHS_4CLIQUE = ["cit-PT", "com-YT", "web-GL", "synthetic"]
# the test graphs of the transferability and ablation tables
TEST_GRAPHS_REAL = ("cit-PT", "com-YT", "soc-TW", "web-GL")

# One column of a Monte-Carlo table: (label, algorithm, policy), where the
# policy is None or the WSD-L policy's (training graph, variant), and a
# training graph of None is the test graph's own (``TRAIN_OF``).
Column = tuple[str, str, tuple[str | None, str] | None]
# One cell row of a Monte-Carlo table: (scenario, test graph, pattern, columns).
Cell = tuple[str, str, str, list[Column]]


def dataset_stats(cfg: ExpConfig) -> pd.DataFrame:
    """Our analogue of Table I: |V|, |E| of every train/test proxy."""
    rows = []
    for name in TEST_GRAPHS + TRAIN_GRAPHS:
        edges = generate(name, scale=cfg.scale)
        n_v = len(set(edges[:, 0].tolist()) | set(edges[:, 1].tolist()))
        rows.append(
            {
                "graph": name,
                "role": "test" if name in TEST_GRAPHS else "train",
                "category": DATASETS[name]["kind"],
                "V": n_v,
                "E": len(edges),
            }
        )
    return pd.DataFrame(rows)


def main_cells(
    pattern: str,
    scenario: str,
    datasets: Sequence[str] | None = None,
    algos: Sequence[str] = ALGOS_DYNAMIC,
) -> list[Cell]:
    """Tables II/III/VII (massive), VIII/IX/X (light) and VI (insertion-only):
    every algorithm on every dataset."""
    if datasets is None:
        datasets = TEST_GRAPHS_4CLIQUE if pattern == "4clique" else TEST_GRAPHS
    columns = [(a, a, (None, "max") if a == "WSD-L" else None) for a in algos]
    return [(scenario, ds, pattern, columns) for ds in datasets]


def transfer_cells(
    scenario: str,
    test_graphs: Sequence[str] = TEST_GRAPHS_REAL,
    train_graphs: Sequence[str] = TRAIN_GRAPHS,
) -> list[Cell]:
    """Tables V/XII: counting triangles with the policy trained on category
    A's training graph applied to category B's test graph, plus the WSD-H
    reference column."""
    columns = [(tg, "WSD-L", (tg, "max")) for tg in train_graphs]
    columns.append(("WSD-H", "WSD-H", None))
    return [(scenario, ds, "triangle", columns) for ds in test_graphs]


def ablation_cells(
    scenarios: Sequence[str] = ("massive", "light"),
    test_graphs: Sequence[str] = TEST_GRAPHS_REAL,
) -> list[Cell]:
    """Table XIII: WSD-L(Max) vs WSD-L(Avg) vs WSD-H on triangles."""
    columns = [
        ("WSD-L (Max)", "WSD-L", (None, "max")),
        ("WSD-L (Avg)", "WSD-L", (None, "avg")),
        ("WSD-H", "WSD-H", None),
    ]
    return [(sc, ds, "triangle", columns) for sc in scenarios for ds in test_graphs]


def table_cells(
    spark: SparkSession,
    cells: list[Cell],
    cfg: ExpConfig,
    *,
    scope: Hashable,
    train_cfg: TrainConfig,
) -> pd.DataFrame:
    """ARE, MARE and per-trial runtime of every column on every cell, one
    row per (cell, column), with the cell's final truth, M and stream
    length. WSD-L policies come from ``get_or_train_policy`` in ``scope``,
    so each is trained once however many cells and tables use it."""
    out = []
    for scenario, ds, pattern, columns in cells:
        spec = []
        for label, algo, pol in columns:
            if pol is not None:
                tg, variant = pol
                pol, _ = get_or_train_policy(
                    scope, tg or TRAIN_OF[ds], scenario, pattern, train_cfg, variant
                )
            spec.append((label, algo, pol))
        edges = generate(ds, scale=cfg.scale)
        stream = make_stream(
            edges,
            scenario,
            alpha=cfg.alpha,
            beta_m=cfg.beta_m,
            beta_l=cfg.beta_l,
            seed=cfg.stream_seed,
        )
        M = cfg.reservoir_size(len(edges))
        ck = cfg.ckpt_every(len(stream))
        _, truth = truth_trajectory(stream, pattern, ck)
        agg = trial_frame(
            spark, stream, pattern, M, spec,
            n_runs=cfg.n_runs, ckpt_every=ck, mare_floor=cfg.mare_floor,
            wr_ratio=cfg.wr_ratio, truth=truth,
        )
        agg.insert(0, "scenario", scenario)
        agg.insert(1, "graph", ds)
        out.append(agg.assign(truth=truth[-1], M=M, events=len(stream)))
    return pd.concat(out, ignore_index=True)


def table_training(
    scenario: str,
    *,
    scope: Hashable,
    train_cfg: TrainConfig,
    train_graphs: Sequence[str] = tuple(TRAIN_OF[g] for g in TEST_GRAPHS_REAL),
    patterns: Sequence[str] = ("triangle", "wedge"),
) -> pd.DataFrame:
    """Tables IV/XI: training wall-time per (training graph, pattern), with
    the number of worker processes that validated its candidates, as
    measured when this process trained the policy in ``scope``."""
    rows = []
    for g in train_graphs:
        for pat in patterns:
            _, info = get_or_train_policy(scope, g, scenario, pat, train_cfg)
            rows.append(
                {
                    "graph": g,
                    "pattern": pat,
                    "train_time_s": info["train_time_s"],
                    "workers": info["workers"],
                }
            )
    return pd.DataFrame(rows)


# ---------------------------------------------------------------------------
# The registry of paper tables
# ---------------------------------------------------------------------------

# The driver call of a table without trials: (config, policy scope,
# training config) -> tidy frame.
Run = Callable[[ExpConfig, Hashable, TrainConfig], pd.DataFrame]


def _spark() -> SparkSession:
    return SparkSession.builder.appName("repro-tables").getOrCreate()


@dataclass(frozen=True)
class Table:
    """One paper table: its Monte-Carlo cells (or, for a table without
    trials, its driver call), title (the results' and EXPERIMENTS.md's
    heading) and paper-layout pivots."""

    title: str
    cells: list[Cell] = field(default_factory=list)
    driver: Run | None = None
    metrics: tuple[str, ...] = ("are", "mare", "time_s")  # one pivot each
    index: str | list[str] = "graph"  # the pivots' row index
    cfg: dict = field(default_factory=dict)  # ExpConfig overrides

    def run(self, cfg: ExpConfig, scope: Hashable, train_cfg: TrainConfig) -> pd.DataFrame:
        """The table's tidy frame, its policies trained in ``scope``."""
        if self.driver is not None:
            return self.driver(cfg, scope, train_cfg)
        return table_cells(_spark(), self.cells, cfg, scope=scope, train_cfg=train_cfg)

    def artifacts(self, tid: str) -> list[str]:
        """Names of the files (without suffix) this table writes."""
        return [f"{tid}_tidy"] + [f"{tid}_{m}" for m in self.metrics]


def _training(scenario: str) -> Run:
    return lambda cfg, scope, train_cfg: table_training(
        scenario, scope=scope, train_cfg=train_cfg
    )


# At our scale a 5 % sample sees almost no 4-cliques (DESIGN.md §4).
_4CLIQUE = {"m_ratio": 0.15, "mare_floor": 10.0}

TABLES: dict[str, Table] = {
    "table01": Table(
        "Table I: dataset statistics (proxy graphs)",
        driver=lambda cfg, scope, train_cfg: dataset_stats(cfg),
        metrics=(),
    ),
    "table02": Table("Table II: counting wedges, massive deletion", main_cells("wedge", "massive")),
    "table03": Table(
        "Table III: counting triangles, massive deletion", main_cells("triangle", "massive")
    ),
    "table04": Table(
        "Table IV: training time (massive deletion)", driver=_training("massive"), metrics=()
    ),
    "table05": Table(
        "Table V: transferability (massive deletion)", transfer_cells("massive"), metrics=("are",)
    ),
    "table06": Table(
        "Table VI: insertion-only scenario, triangles on cit-PT",
        main_cells("triangle", "insertion-only", datasets=["cit-PT"], algos=ALGOS_INSERTION),
    ),
    "table07": Table(
        "Table VII: counting 4-cliques, massive deletion",
        main_cells("4clique", "massive"),
        cfg=_4CLIQUE,
    ),
    "table08": Table("Table VIII: counting wedges, light deletion", main_cells("wedge", "light")),
    "table09": Table(
        "Table IX: counting triangles, light deletion", main_cells("triangle", "light")
    ),
    "table10": Table(
        "Table X: counting 4-cliques, light deletion", main_cells("4clique", "light"), cfg=_4CLIQUE
    ),
    "table11": Table(
        "Table XI: training time (light deletion)", driver=_training("light"), metrics=()
    ),
    "table12": Table(
        "Table XII: transferability (light deletion)", transfer_cells("light"), metrics=("are",)
    ),
    "table13": Table(
        "Table XIII: ablation on temporal state (Max vs Avg)",
        ablation_cells(),
        metrics=("are",),
        index=["scenario", "graph"],
    ),
}


def run_tables(ids: list[str], cfg: ExpConfig, *, results_dir: Path = RESULTS_DIR) -> None:
    """Run each table and write its tidy frame and pivots to ``results_dir``,
    printing one line per table with its wall seconds. The tables share
    their WSD-L policies: each is trained once, by the first table that
    needs it."""
    for tid in ids:
        table = TABLES[tid]
        t0 = time.perf_counter()
        df = table.run(cfg.with_(**table.cfg), results_dir, BENCH_TRAIN)
        tidy, *pivots = table.artifacts(tid)
        save_table(df, tidy, results_dir, title=f"{table.title} (tidy)")
        for metric, name in zip(table.metrics, pivots):
            save_table(
                pivot_metric(df, metric, index=table.index),
                name,
                results_dir,
                title=f"{table.title} — {metric}",
            )
        print(f"[{tid}] {time.perf_counter() - t0:8.1f} s  {table.title}", flush=True)


def parse_args(argv: list[str] | None = None) -> tuple[list[str], ExpConfig]:
    ap = argparse.ArgumentParser(
        prog="python -m repro.harness.tables",
        description="Regenerate paper tables into results/ and rebuild EXPERIMENTS.md.",
    )
    ap.add_argument("ids", nargs="+", choices=[*TABLES, "all"], metavar="ID",
                    help=f"table ids ({', '.join(TABLES)}) or 'all'")
    ap.add_argument("--scale", type=float, default=BENCH.scale)
    ap.add_argument("--n-runs", type=int, default=BENCH.n_runs)
    args = ap.parse_args(argv)
    ids = list(TABLES) if "all" in args.ids else args.ids
    return ids, BENCH.with_(scale=args.scale, n_runs=args.n_runs)


def main(argv: list[str] | None = None) -> None:
    ids, cfg = parse_args(argv)
    if not (ROOT / "pyproject.toml").is_file():
        sys.exit(f"{ROOT} is not a source checkout; install the package with pip install -e .")
    run_tables(ids, cfg)
    text = build_experiments(TABLES, RESULTS_DIR)
    (ROOT / "EXPERIMENTS.md").write_text(text)
    print(f"wrote EXPERIMENTS.md ({len(text)} bytes)")


if __name__ == "__main__":
    main()
