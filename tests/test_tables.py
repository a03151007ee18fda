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
    ablation_cells,
    dataset_stats,
    main_cells,
    table_cells,
    table_training,
    transfer_cells,
)
from repro.rl import train
from repro.rl.policy import LearnedPolicy, heuristic_init_params
from repro.rl.train import TrainConfig

CFG = TEST.with_(scale=0.05, n_runs=2, n_ckpt=6)
TRAIN = TrainConfig(iters=20, n_streams=1, scale=0.04, M=40, batch=16, update_every=2)
COLUMNS = [
    "scenario", "graph", "label", "are", "mare", "time_s", "concurrency", "n_runs",
    "truth", "M", "events",
]


def test_dataset_stats_table():
    df = dataset_stats(CFG)
    assert len(df) == 10
    assert set(df["role"]) == {"test", "train"}
    assert (df["E"] > 0).all() and (df["V"] > 0).all()


def test_table_main_shape(spark, tmp_path):
    df = table_cells(
        spark, main_cells("triangle", "light", datasets=["cit-PT", "com-YT"]), CFG,
        scope=tmp_path, train_cfg=TRAIN,
    )
    assert set(df["graph"]) == {"cit-PT", "com-YT"}
    assert set(df["label"]) == {"WSD-L", "WSD-H", "GPS-A", "Triest", "ThinkD", "WRS"}
    assert len(df) == 12
    assert list(df.columns) == COLUMNS
    assert df["are"].notna().all()


def test_table_main_massive(spark, tmp_path):
    cfg = CFG.with_(alpha=1e-3)
    stream = make_stream(
        generate("soc-TW", scale=cfg.scale), "massive", alpha=cfg.alpha,
        beta_m=cfg.beta_m, seed=cfg.stream_seed,
    )
    assert (stream["op"] < 0).any()
    df = table_cells(
        spark, main_cells("wedge", "massive", datasets=["soc-TW"], algos=["WSD-H", "Triest"]),
        cfg, scope=tmp_path, train_cfg=TRAIN,
    )
    assert len(df) == 2


def test_table_main_4clique_excludes_soctw(spark, tmp_path):
    df = table_cells(
        spark, main_cells("4clique", "light", algos=["WSD-H"]), CFG.with_(n_runs=1),
        scope=tmp_path, train_cfg=TRAIN,
    )
    assert "soc-TW" not in set(df["graph"])
    assert set(df["graph"]) == {"cit-PT", "com-YT", "web-GL", "synthetic"}


def test_table_insertion_only(spark, tmp_path):
    df = TABLES["table06"].run(CFG, tmp_path, TRAIN)
    assert set(df["label"]) == {"WSD-L", "GPS", "Triest", "ThinkD", "WRS"}
    assert set(df["graph"]) == {"cit-PT"}


def test_table_transfer(spark, tmp_path):
    df = table_cells(
        spark,
        transfer_cells("light", test_graphs=["cit-PT", "web-GL"], train_graphs=["cit-HE", "web-SF"]),
        CFG, scope=tmp_path, train_cfg=TRAIN,
    )
    assert set(df["graph"]) == {"cit-PT", "web-GL"}
    assert set(df["label"]) == {"cit-HE", "web-SF", "WSD-H"}
    assert list(df.columns) == COLUMNS


def test_table_training(tmp_path):
    df = table_training(
        "light", scope=tmp_path, train_cfg=TRAIN,
        train_graphs=["cit-HE"], patterns=["triangle", "wedge"],
    )
    assert len(df) == 2
    assert (df["train_time_s"] > 0).all()
    assert df["workers"].between(1, len(os.sched_getaffinity(0))).all()
    assert "cached" not in df.columns
    # A second call in the scope reports the training this process measured.
    again = table_training(
        "light", scope=tmp_path, train_cfg=TRAIN,
        train_graphs=["cit-HE"], patterns=["triangle", "wedge"],
    )
    pd.testing.assert_frame_equal(again, df)


def test_table_ablation(spark, tmp_path):
    df = table_cells(
        spark, ablation_cells(scenarios=["light"], test_graphs=["cit-PT"]), CFG,
        scope=tmp_path, train_cfg=TRAIN,
    )
    assert set(df["label"]) == {"WSD-L (Max)", "WSD-L (Avg)", "WSD-H"}
    assert set(df["scenario"]) == {"light"}
    assert list(df.columns) == COLUMNS


def test_tables_in_one_scope_train_each_policy_once(spark, tmp_path, monkeypatch):
    """Table V's cit-HE column and Table XIII's WSD-L (Max) on cit-PT are the
    same policy: a run of both in one scope trains it once."""
    calls = []

    def fake_train(dataset, scenario, pattern, cfg, variant):
        calls.append((dataset, scenario, pattern, variant))
        policy = LearnedPolicy(heuristic_init_params(pattern), pattern, variant)
        return policy, {"train_time_s": 0.0, "workers": 1}

    monkeypatch.setattr(train, "train_policy", fake_train)
    for cells in (
        transfer_cells("light", test_graphs=["cit-PT"], train_graphs=["cit-HE", "web-SF"]),
        ablation_cells(scenarios=["light"], test_graphs=["cit-PT"]),
    ):
        table_cells(spark, cells, CFG.with_(n_runs=1), scope=tmp_path, train_cfg=TRAIN)
    assert sorted(calls) == [
        ("cit-HE", "light", "triangle", "avg"),
        ("cit-HE", "light", "triangle", "max"),
        ("web-SF", "light", "triangle", "max"),
    ]


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
