"""Table-driver integration tests at tiny scale (``python -m
repro.harness.tables`` runs the same code at bench scale)."""
import os

import pandas as pd
import pytest

from repro.graphs.generators import generate
from repro.graphs.streams import make_stream
from repro.harness.config import TEST, ExpConfig
from repro.harness.reporting import format_markdown, pivot_metric, save_table
from repro.harness.tables import (
    TABLES,
    dataset_stats,
    table_ablation,
    table_main,
    table_training,
    table_transfer,
)
from repro.rl.train import TrainConfig

CFG = TEST.with_(scale=0.05, n_runs=2, n_ckpt=6)
TRAIN = TrainConfig(iters=20, n_streams=1, scale=0.04, M=40, batch=16, update_every=2)


def test_dataset_stats_table():
    df = dataset_stats(CFG)
    assert len(df) == 10
    assert set(df["role"]) == {"test", "train"}
    assert (df["E"] > 0).all() and (df["V"] > 0).all()


def test_table_main_shape(spark, tmp_path):
    df = table_main(
        spark, "triangle", "light", CFG,
        datasets=["cit-PT", "com-YT"], policy_dir=tmp_path, train_cfg=TRAIN,
    )
    assert set(df["graph"]) == {"cit-PT", "com-YT"}
    assert set(df["label"]) == {"WSD-L", "WSD-H", "GPS-A", "Triest", "ThinkD", "WRS"}
    assert len(df) == 12
    for col in ["are", "mare", "time_s", "concurrency", "truth", "M", "events"]:
        assert col in df.columns
    assert df["are"].notna().all()


def test_table_main_massive(spark, tmp_path):
    cfg = CFG.with_(alpha=1e-3)
    stream = make_stream(
        generate("soc-TW", scale=cfg.scale), "massive", alpha=cfg.alpha,
        beta_m=cfg.beta_m, seed=cfg.stream_seed,
    )
    assert (stream["op"] < 0).any()
    df = table_main(
        spark, "wedge", "massive", cfg,
        datasets=["soc-TW"], policy_dir=tmp_path, train_cfg=TRAIN,
        algos=["WSD-H", "Triest"],
    )
    assert len(df) == 2


def test_table_main_4clique_excludes_soctw(spark, tmp_path):
    df = table_main(
        spark, "4clique", "light", CFG.with_(n_runs=1),
        policy_dir=tmp_path, train_cfg=TRAIN, algos=["WSD-H"],
    )
    assert "soc-TW" not in set(df["graph"])
    assert set(df["graph"]) == {"cit-PT", "com-YT", "web-GL", "synthetic"}


def test_table_insertion_only(spark, tmp_path):
    df = TABLES["table06"].run(CFG, tmp_path, TRAIN)
    assert set(df["label"]) == {"WSD-L", "GPS", "Triest", "ThinkD", "WRS"}
    assert set(df["graph"]) == {"cit-PT"}


def test_table_transfer(spark, tmp_path):
    df = table_transfer(
        spark, "light", CFG, policy_dir=tmp_path, train_cfg=TRAIN,
        test_graphs=["cit-PT", "web-GL"], train_graphs=["cit-HE", "web-SF"],
    )
    assert set(df["graph"]) == {"cit-PT", "web-GL"}
    assert set(df["label"]) == {"cit-HE", "web-SF", "WSD-H"}


def test_table_training(tmp_path):
    df = table_training(
        "light", policy_dir=tmp_path, train_cfg=TRAIN,
        train_graphs=["cit-HE"], patterns=["triangle", "wedge"],
    )
    assert len(df) == 2
    assert (df["train_time_s"] > 0).all()
    assert df["workers"].between(1, len(os.sched_getaffinity(0))).all()
    assert not df["cached"].any()
    again = table_training(
        "light", policy_dir=tmp_path, train_cfg=TRAIN,
        train_graphs=["cit-HE"], patterns=["triangle", "wedge"],
    )
    assert again["cached"].all()
    # The cached rows report the pool size recorded beside the policy.
    assert again["workers"].tolist() == df["workers"].tolist()


def test_table_ablation(spark, tmp_path):
    df = table_ablation(
        spark, CFG, policy_dir=tmp_path, train_cfg=TRAIN,
        scenarios=["light"], test_graphs=["cit-PT"],
    )
    assert set(df["label"]) == {"WSD-L (Max)", "WSD-L (Avg)", "WSD-H"}
    assert set(df["scenario"]) == {"light"}


def test_reporting_roundtrip(tmp_path):
    df = pd.DataFrame({"graph": ["a", "b"], "are": [1.234567, 2.0]})
    path = save_table(df, "t_test", tmp_path, title="Demo")
    text = path.read_text()
    assert "Demo" in text and "1.235" in text
    assert (tmp_path / "t_test.json").exists()


def test_pivot_metric():
    df = pd.DataFrame(
        {"graph": ["a", "a", "b", "b"], "label": ["x", "y", "x", "y"], "are": [1, 2, 3, 4.0]}
    )
    wide = pivot_metric(df, "are")
    assert list(wide.columns) == ["graph", "x", "y"]
    assert wide.loc[wide["graph"] == "b", "y"].iloc[0] == 4


def test_format_markdown_basic():
    md = format_markdown(pd.DataFrame({"x": [1.5], "s": ["q"]}))
    assert md.splitlines()[0] == "| x | s |"


def test_expconfig_helpers():
    cfg = ExpConfig(m_ratio=0.1, n_ckpt=10)
    assert cfg.reservoir_size(1000) == 100
    assert cfg.reservoir_size(10) == 30  # floor
    assert cfg.ckpt_every(95) == 9
    assert cfg.with_(n_runs=5).n_runs == 5
