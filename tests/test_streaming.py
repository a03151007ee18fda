"""Structured Streaming ingestion tests — streaming must be bit-identical to
the batch kernel."""
import json
import os

import numpy as np
import pytest
from pyspark.errors import StreamingQueryException

from repro.baselines.thinkd import ThinkD
from repro.core.runner import run_trial
from repro.core.weights import heuristic_weight
from repro.core.wsd import WSD
from repro.graphs.generators import generate
from repro.graphs.streams import make_stream
from repro.streaming import windowed
from repro.streaming.windowed import run_streaming_estimate, write_event_files


@pytest.fixture(scope="module")
def stream():
    edges = generate("cit-HE", scale=0.06)
    return make_stream(edges, "light", beta_l=0.2, seed=2)


def test_write_event_files_partition(tmp_path, stream):
    paths = write_event_files(stream, tmp_path, window_size=100)
    assert len(paths) == int(np.ceil(len(stream) / 100))
    total = 0
    last_seq = -1
    for p in paths:
        with open(p) as f:
            for line in f:
                rec = json.loads(line)
                assert rec["seq"] == last_seq + 1
                last_seq = rec["seq"]
                total += 1
    assert total == len(stream)


def test_mtimes_strictly_increase(tmp_path, stream):
    paths = write_event_files(stream, tmp_path, window_size=200)
    mtimes = [p.stat().st_mtime for p in paths]
    assert all(b > a for a, b in zip(mtimes, mtimes[1:]))


def test_streaming_identical_to_batch_wsd(spark, tmp_path, stream):
    ck = max(1, len(stream) // 6)
    batch = run_trial(stream, WSD(50, "triangle", heuristic_weight, seed=9), ck)
    s = WSD(50, "triangle", heuristic_weight, seed=9)
    df = run_streaming_estimate(spark, stream, s, window_size=ck, work_dir=tmp_path)
    assert df["estimate"].iloc[-1] == pytest.approx(batch["final"], abs=1e-12)
    # per-window estimates line up with the batch checkpoints
    for w in range(min(len(df), len(batch["est"]))):
        if df["last_seq"].iloc[w] + 1 == batch["ckpt_idx"][w]:
            assert df["estimate"].iloc[w] == pytest.approx(batch["est"][w], abs=1e-12)


def test_streaming_identical_to_batch_baseline(spark, tmp_path, stream):
    batch = ThinkD(50, "triangle", 4)
    for op, u, v in zip(stream["op"].tolist(), stream["u"].tolist(), stream["v"].tolist()):
        batch.process(op, u, v)
    s = ThinkD(50, "triangle", 4)
    df = run_streaming_estimate(
        spark, stream, s, window_size=max(1, len(stream) // 4), work_dir=tmp_path
    )
    assert df["estimate"].iloc[-1] == pytest.approx(batch.estimate, abs=1e-12)


def test_streaming_window_rows(spark, tmp_path, stream):
    s = WSD(40, "triangle", heuristic_weight, seed=1)
    w = max(1, len(stream) // 5)
    df = run_streaming_estimate(spark, stream, s, window_size=w, work_dir=tmp_path)
    assert len(df) == int(np.ceil(len(stream) / w))
    assert df["n_events"].sum() == len(stream)
    assert (df["window"].diff().dropna() > 0).all()
    assert df["last_seq"].iloc[-1] == len(stream) - 1


def _run_with_edit(spark, tmp_path, stream, monkeypatch, window: int, edit) -> None:
    """Run the streaming estimate after ``edit`` rewrote the lines of window
    file ``window`` (200 events per window)."""
    def write(*args, **kwargs):
        paths = write_event_files(*args, **kwargs)
        p = paths[window]
        mtime = p.stat().st_mtime
        p.write_text("".join(edit(p.read_text().splitlines(keepends=True))))
        os.utime(p, (mtime, mtime))
        return paths

    monkeypatch.setattr(windowed, "write_event_files", write)
    s = WSD(40, "triangle", heuristic_weight, seed=1)
    run_streaming_estimate(spark, stream, s, window_size=200, work_dir=tmp_path)


def test_streaming_rejects_missing_event(spark, tmp_path, stream, monkeypatch):
    """A window file with one line removed breaks the run of ``seq`` inside
    the micro-batch, not at its start."""
    with pytest.raises(StreamingQueryException, match="window 0: expected seq 100, got 101"):
        _run_with_edit(
            spark, tmp_path, stream, monkeypatch, 0, lambda lines: lines[:100] + lines[101:]
        )


def test_streaming_rejects_malformed_event(spark, tmp_path, stream, monkeypatch):
    """A malformed JSON line reads back as a row of nulls."""
    with pytest.raises(StreamingQueryException, match=r"window 1: 1 event\(s\) with a null .*expected seq 200"):
        _run_with_edit(
            spark, tmp_path, stream, monkeypatch, 1,
            lambda lines: lines[:50] + ['{"seq": 250, "op": \n'] + lines[51:],
        )
