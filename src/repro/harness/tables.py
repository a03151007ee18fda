"""Per-table experiment drivers — one function per experiment family of
Section V. Each returns a tidy pandas DataFrame whose rows correspond to the
paper's table cells (ARE/MARE in %, time in seconds per trial).

Policies for WSD-L are trained (or loaded from cache) on the Table I
*training* graph of each dataset's category, under the same deletion
scenario and pattern as the experiment — exactly the paper's protocol.
"""
from __future__ import annotations

from pathlib import Path

import pandas as pd
from pyspark.sql import SparkSession

from ..exact.incremental import truth_trajectory
from ..graphs.generators import DATASETS, TRAIN_OF, generate
from ..graphs.streams import make_stream
from ..rl.train import TrainConfig, get_or_train_policy
from .config import ExpConfig
from .factory import ALGOS_DYNAMIC, ALGOS_INSERTION
from .trials import trial_frame

__all__ = [
    "TEST_GRAPHS",
    "TRAIN_GRAPHS",
    "dataset_stats",
    "table_main",
    "table_insertion_only",
    "table_transfer",
    "table_training",
    "table_ablation",
]

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


def _dataset_stream(name: str, scenario: str, cfg: ExpConfig):
    edges = generate(name, scale=cfg.scale)
    stream = make_stream(
        edges,
        scenario,
        alpha=cfg.alpha,
        beta_m=cfg.beta_m,
        beta_l=cfg.beta_l,
        seed=cfg.stream_seed,
    )
    return edges, stream


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
    datasets: list[str] | None = None,
    policy_dir: str | Path = "results/policies",
    train_cfg: TrainConfig | None = None,
    algos: list[str] | None = None,
) -> pd.DataFrame:
    """Tables II/III/VII (massive) and VIII/IX/X (light): ARE, MARE and
    per-trial runtime of every algorithm on every dataset."""
    if datasets is None:
        datasets = TEST_GRAPHS_4CLIQUE if pattern == "4clique" else TEST_GRAPHS
    algos = algos or ALGOS_DYNAMIC
    out = []
    for ds in datasets:
        edges, stream = _dataset_stream(ds, scenario, cfg)
        M = cfg.reservoir_size(len(edges))
        ck = cfg.ckpt_every(len(stream))
        _, truth = truth_trajectory(stream, pattern, ck)
        spec = []
        for name in algos:
            pol = None
            if name == "WSD-L":
                policy, _ = get_or_train_policy(
                    policy_dir, TRAIN_OF[ds], scenario, pattern, train_cfg
                )
                pol = _policy_dict(policy)
            spec.append((name, name, pol))
        agg = trial_frame(
            spark, stream, pattern, M, spec,
            n_runs=cfg.n_runs, ckpt_every=ck, mare_floor=cfg.mare_floor,
            wr_ratio=cfg.wr_ratio, truth=truth,
        )
        agg.insert(0, "graph", ds)
        agg["truth"] = truth[-1]
        agg["M"] = M
        agg["events"] = len(stream)
        out.append(agg)
    return pd.concat(out, ignore_index=True)


def table_insertion_only(
    spark: SparkSession,
    cfg: ExpConfig,
    *,
    policy_dir: str | Path = "results/policies",
    train_cfg: TrainConfig | None = None,
    dataset: str = "cit-PT",
    pattern: str = "triangle",
) -> pd.DataFrame:
    """Table VI: triangles on cit-PT, insertion-only (WSD-H ≡ GPS-A ≡ GPS)."""
    return table_main(
        spark, pattern, "insertion-only", cfg,
        datasets=[dataset], policy_dir=policy_dir, train_cfg=train_cfg,
        algos=ALGOS_INSERTION,
    )


def table_transfer(
    spark: SparkSession,
    scenario: str,
    cfg: ExpConfig,
    *,
    policy_dir: str | Path = "results/policies",
    train_cfg: TrainConfig | None = None,
    pattern: str = "triangle",
    test_graphs: list[str] | None = None,
    train_graphs: list[str] | None = None,
) -> pd.DataFrame:
    """Tables V/XII: ARE of counting triangles when the policy trained on
    category A's training graph is applied to category B's test graph,
    plus the WSD-H reference column."""
    test_graphs = test_graphs or ["cit-PT", "com-YT", "soc-TW", "web-GL"]
    train_graphs = train_graphs or TRAIN_GRAPHS
    policies = {}
    for tg in train_graphs:
        policy, _ = get_or_train_policy(policy_dir, tg, scenario, pattern, train_cfg)
        policies[tg] = _policy_dict(policy)
    out = []
    for ds in test_graphs:
        edges, stream = _dataset_stream(ds, scenario, cfg)
        M = cfg.reservoir_size(len(edges))
        ck = cfg.ckpt_every(len(stream))
        _, truth = truth_trajectory(stream, pattern, ck)
        spec = [(tg, "WSD-L", pol) for tg, pol in policies.items()]
        spec.append(("WSD-H", "WSD-H", None))
        agg = trial_frame(
            spark, stream, pattern, M, spec,
            n_runs=cfg.n_runs, ckpt_every=ck, mare_floor=cfg.mare_floor,
            wr_ratio=cfg.wr_ratio, truth=truth,
        )
        agg.insert(0, "graph", ds)
        out.append(agg)
    return pd.concat(out, ignore_index=True)


def table_training(
    scenario: str,
    *,
    policy_dir: str | Path = "results/policies",
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
    policy_dir: str | Path = "results/policies",
    train_cfg: TrainConfig | None = None,
    pattern: str = "triangle",
    scenarios: list[str] | None = None,
    test_graphs: list[str] | None = None,
) -> pd.DataFrame:
    """Table XIII: WSD-L(Max) vs WSD-L(Avg) vs WSD-H, both scenarios."""
    out = []
    for scenario in scenarios or ["massive", "light"]:
        for ds in test_graphs or ["cit-PT", "com-YT", "soc-TW", "web-GL"]:
            edges, stream = _dataset_stream(ds, scenario, cfg)
            M = cfg.reservoir_size(len(edges))
            ck = cfg.ckpt_every(len(stream))
            _, truth = truth_trajectory(stream, pattern, ck)
            spec = []
            for variant, label in (("max", "WSD-L (Max)"), ("avg", "WSD-L (Avg)")):
                policy, _ = get_or_train_policy(
                    policy_dir, TRAIN_OF[ds], scenario, pattern, train_cfg, variant
                )
                spec.append((label, "WSD-L", _policy_dict(policy)))
            spec.append(("WSD-H", "WSD-H", None))
            agg = trial_frame(
                spark, stream, pattern, M, spec,
                n_runs=cfg.n_runs, ckpt_every=ck, mare_floor=cfg.mare_floor,
                wr_ratio=cfg.wr_ratio, truth=truth,
            )
            agg.insert(0, "graph", ds)
            agg.insert(0, "scenario", scenario)
            out.append(agg)
    return pd.concat(out, ignore_index=True)
