"""The paper's Tables I–XIII: one experiment driver per family of Section V,
a registry mapping each table id to its driver call, title and pivots, and
the command that regenerates them::

    python -m repro.harness.tables table03 table09   # or: all
    python -m repro.harness.tables all --scale 0.4 --n-runs 100

Each driver returns a tidy pandas DataFrame whose rows correspond to the
paper's table cells (ARE/MARE in %, time in seconds per trial). The command
writes every table's tidy frame and paper-layout pivots to ``results/`` and
then rebuilds EXPERIMENTS.md from ``results/``. Both paths are rooted at the
source checkout, so the package must be installed editable (``pip install
-e .``); the command exits with an error otherwise.

Policies for WSD-L are trained (or loaded from cache) on the Table I
*training* graph of each dataset's category, under the same deletion
scenario and pattern as the experiment — exactly the paper's protocol.
"""
from __future__ import annotations

import argparse
import sys
import time
from collections.abc import Callable
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
    "table_main",
    "table_transfer",
    "table_training",
    "table_ablation",
    "run_tables",
]

ROOT = Path(__file__).resolve().parents[3]
RESULTS_DIR = ROOT / "results"
POLICY_DIR = RESULTS_DIR / "policies"

TEST_GRAPHS = ["cit-PT", "com-YT", "soc-TW", "web-GL", "synthetic"]
TRAIN_GRAPHS = ["cit-HE", "com-DB", "soc-TX", "web-SF", "synthetic-train"]
# the paper's 4-clique tables omit soc-TW (too expensive); we follow suit
TEST_GRAPHS_4CLIQUE = ["cit-PT", "com-YT", "web-GL", "synthetic"]


def _policy_dict(policy) -> dict:
    return {
        "W": policy.params["W"],
        "b": policy.params["b"],
        "pattern": policy.pattern,
        "variant": policy.variant,
    }


def _cell(
    spark, ds: str, scenario: str, pattern: str, cfg: ExpConfig, spec
) -> tuple[pd.DataFrame, dict]:
    """The ``spec`` algorithms' trials on one test graph: the aggregated rows
    with a leading ``graph`` column, and the cell's final truth, M and
    stream length."""
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
    agg.insert(0, "graph", ds)
    return agg, {"truth": truth[-1], "M": M, "events": len(stream)}


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


def table_main(
    spark: SparkSession,
    pattern: str,
    scenario: str,
    cfg: ExpConfig,
    *,
    policy_dir: str | Path,
    datasets: list[str] | None = None,
    train_cfg: TrainConfig | None = None,
    algos: list[str] | None = None,
) -> pd.DataFrame:
    """Tables II/III/VII (massive), VIII/IX/X (light) and VI (insertion-only):
    ARE, MARE and per-trial runtime of every algorithm on every dataset."""
    if datasets is None:
        datasets = TEST_GRAPHS_4CLIQUE if pattern == "4clique" else TEST_GRAPHS
    algos = algos or ALGOS_DYNAMIC
    out = []
    for ds in datasets:
        spec = []
        for name in algos:
            pol = None
            if name == "WSD-L":
                policy, _ = get_or_train_policy(
                    policy_dir, TRAIN_OF[ds], scenario, pattern, train_cfg
                )
                pol = _policy_dict(policy)
            spec.append((name, name, pol))
        agg, extra = _cell(spark, ds, scenario, pattern, cfg, spec)
        out.append(agg.assign(**extra))
    return pd.concat(out, ignore_index=True)


def table_transfer(
    spark: SparkSession,
    scenario: str,
    cfg: ExpConfig,
    *,
    policy_dir: str | Path,
    train_cfg: TrainConfig | None = None,
    test_graphs: list[str] | None = None,
    train_graphs: list[str] | None = None,
) -> pd.DataFrame:
    """Tables V/XII: ARE of counting triangles when the policy trained on
    category A's training graph is applied to category B's test graph,
    plus the WSD-H reference column."""
    policies = {}
    for tg in train_graphs or TRAIN_GRAPHS:
        policy, _ = get_or_train_policy(policy_dir, tg, scenario, "triangle", train_cfg)
        policies[tg] = _policy_dict(policy)
    spec = [(tg, "WSD-L", pol) for tg, pol in policies.items()]
    spec.append(("WSD-H", "WSD-H", None))
    out = [
        _cell(spark, ds, scenario, "triangle", cfg, spec)[0]
        for ds in test_graphs or ["cit-PT", "com-YT", "soc-TW", "web-GL"]
    ]
    return pd.concat(out, ignore_index=True)


def table_training(
    scenario: str,
    *,
    policy_dir: str | Path,
    train_cfg: TrainConfig | None = None,
    train_graphs: list[str] | None = None,
    patterns: list[str] | None = None,
) -> pd.DataFrame:
    """Tables IV/XI: training wall-time per (training graph, pattern), with
    the number of worker processes that validated its candidates."""
    rows = []
    for g in train_graphs or ["cit-HE", "com-DB", "soc-TX", "web-SF"]:
        for pat in patterns or ["triangle", "wedge"]:
            _, info = get_or_train_policy(policy_dir, g, scenario, pat, train_cfg)
            rows.append(
                {
                    "graph": g,
                    "pattern": pat,
                    "train_time_s": info.get("train_time_s"),
                    "workers": info.get("workers"),
                    "cached": info.get("cached", False),
                }
            )
    return pd.DataFrame(rows)


def table_ablation(
    spark: SparkSession,
    cfg: ExpConfig,
    *,
    policy_dir: str | Path,
    train_cfg: TrainConfig | None = None,
    scenarios: list[str] | None = None,
    test_graphs: list[str] | None = None,
) -> pd.DataFrame:
    """Table XIII: WSD-L(Max) vs WSD-L(Avg) vs WSD-H on triangles, both
    scenarios."""
    out = []
    for scenario in scenarios or ["massive", "light"]:
        for ds in test_graphs or ["cit-PT", "com-YT", "soc-TW", "web-GL"]:
            spec = []
            for variant, label in (("max", "WSD-L (Max)"), ("avg", "WSD-L (Avg)")):
                policy, _ = get_or_train_policy(
                    policy_dir, TRAIN_OF[ds], scenario, "triangle", train_cfg, variant
                )
                spec.append((label, "WSD-L", _policy_dict(policy)))
            spec.append(("WSD-H", "WSD-H", None))
            agg, _ = _cell(spark, ds, scenario, "triangle", cfg, spec)
            agg.insert(0, "scenario", scenario)
            out.append(agg)
    return pd.concat(out, ignore_index=True)


# ---------------------------------------------------------------------------
# The registry of paper tables
# ---------------------------------------------------------------------------

# A table's driver call: (config, policy dir, training config) -> tidy frame.
Run = Callable[[ExpConfig, Path, TrainConfig], pd.DataFrame]


@dataclass(frozen=True)
class Table:
    """One paper table: its driver call, title (the results' and
    EXPERIMENTS.md's heading) and paper-layout pivots."""

    title: str
    run: Run
    metrics: tuple[str, ...] = ("are", "mare", "time_s")  # one pivot each
    index: str | list[str] = "graph"  # the pivots' row index
    cfg: dict = field(default_factory=dict)  # ExpConfig overrides

    def artifacts(self, tid: str) -> list[str]:
        """Names of the files (without suffix) this table writes."""
        return [f"{tid}_tidy"] + [f"{tid}_{m}" for m in self.metrics]


def _spark() -> SparkSession:
    return SparkSession.builder.appName("repro-tables").getOrCreate()


def _main(pattern: str, scenario: str, **kw) -> Run:
    return lambda cfg, policy_dir, train_cfg: table_main(
        _spark(), pattern, scenario, cfg, policy_dir=policy_dir, train_cfg=train_cfg, **kw
    )


def _transfer(scenario: str) -> Run:
    return lambda cfg, policy_dir, train_cfg: table_transfer(
        _spark(), scenario, cfg, policy_dir=policy_dir, train_cfg=train_cfg
    )


def _training(scenario: str) -> Run:
    return lambda cfg, policy_dir, train_cfg: table_training(
        scenario, policy_dir=policy_dir, train_cfg=train_cfg
    )


# At our scale a 5 % sample sees almost no 4-cliques (DESIGN.md §4).
_4CLIQUE = {"m_ratio": 0.15, "mare_floor": 10.0}

TABLES: dict[str, Table] = {
    "table01": Table(
        "Table I: dataset statistics (proxy graphs)",
        lambda cfg, policy_dir, train_cfg: dataset_stats(cfg),
        metrics=(),
    ),
    "table02": Table("Table II: counting wedges, massive deletion", _main("wedge", "massive")),
    "table03": Table(
        "Table III: counting triangles, massive deletion", _main("triangle", "massive")
    ),
    "table04": Table(
        "Table IV: training time (massive deletion)", _training("massive"), metrics=()
    ),
    "table05": Table(
        "Table V: transferability (massive deletion)", _transfer("massive"), metrics=("are",)
    ),
    "table06": Table(
        "Table VI: insertion-only scenario, triangles on cit-PT",
        _main("triangle", "insertion-only", datasets=["cit-PT"], algos=ALGOS_INSERTION),
    ),
    "table07": Table(
        "Table VII: counting 4-cliques, massive deletion",
        _main("4clique", "massive"),
        cfg=_4CLIQUE,
    ),
    "table08": Table("Table VIII: counting wedges, light deletion", _main("wedge", "light")),
    "table09": Table("Table IX: counting triangles, light deletion", _main("triangle", "light")),
    "table10": Table(
        "Table X: counting 4-cliques, light deletion", _main("4clique", "light"), cfg=_4CLIQUE
    ),
    "table11": Table("Table XI: training time (light deletion)", _training("light"), metrics=()),
    "table12": Table(
        "Table XII: transferability (light deletion)", _transfer("light"), metrics=("are",)
    ),
    "table13": Table(
        "Table XIII: ablation on temporal state (Max vs Avg)",
        lambda cfg, policy_dir, train_cfg: table_ablation(
            _spark(), cfg, policy_dir=policy_dir, train_cfg=train_cfg
        ),
        metrics=("are",),
        index=["scenario", "graph"],
    ),
}


def run_tables(
    ids: list[str],
    cfg: ExpConfig,
    *,
    results_dir: Path = RESULTS_DIR,
    policy_dir: Path = POLICY_DIR,
) -> None:
    """Run each table and write its tidy frame and pivots to ``results_dir``,
    printing one line per table with its wall seconds."""
    for tid in ids:
        table = TABLES[tid]
        t0 = time.perf_counter()
        df = table.run(cfg.with_(**table.cfg), policy_dir, BENCH_TRAIN)
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
