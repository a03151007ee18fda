"""Structured Streaming ingestion of the fully dynamic edge stream.

The paper's algorithm is a stateful single-pass operator; Structured
Streaming is the natural Spark host for it. Edge events are written as
ordered micro-batch files (one file = one tumbling window of ``window_size``
events), read back with a file-source ``readStream`` processing one file per
trigger, and each micro-batch is fed — in event order — into the stateful
WSD/baseline sampler held by the driver via ``foreachBatch``. A micro-batch
costs one Spark job, its ``toPandas()`` collect; it is sorted by ``seq``,
checked in Python (well-formed events, feasible against the edges the
earlier micro-batches left alive), then fed through ``runner.run_trial``,
the loop the batch kernel runs. One output row per window: (window,
n_events, last_seq, estimate).

A test asserts the streaming path is *bit-identical* to the batch kernel for
the same seed: the operator sees the same events in the same order, so the
reservoir evolution matches exactly.
"""
from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession
from pyspark.sql.types import LongType, StructField, StructType

from ..core.runner import run_trial

__all__ = ["write_event_files", "run_streaming_estimate"]

_EVENT_SCHEMA = StructType(
    [
        StructField("seq", LongType(), False),
        StructField("op", LongType(), False),
        StructField("u", LongType(), False),
        StructField("v", LongType(), False),
    ]
)


def write_event_files(stream: np.ndarray, out_dir: str | Path, window_size: int) -> list[Path]:
    """Split a stream into tumbling windows of ``window_size`` events and
    write each as one JSON-lines file with increasing names and mtimes (the
    file-streaming source orders its input by modification time)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    n = len(stream)
    base = time.time() - n  # strictly increasing mtimes, all in the past
    for w, start in enumerate(range(0, n, window_size)):
        chunk = stream[start : start + window_size]
        path = out / f"window-{w:06d}.json"
        with open(path, "w") as f:
            for i in range(len(chunk)):
                f.write(
                    json.dumps(
                        {
                            "seq": int(start + i),
                            "op": int(chunk["op"][i]),
                            "u": int(chunk["u"][i]),
                            "v": int(chunk["v"][i]),
                        }
                    )
                    + "\n"
                )
        os.utime(path, (base + w, base + w))
        paths.append(path)
    return paths


def _check_batch(
    pdf: pd.DataFrame, window: int, first: int, alive: set[tuple[int, int]]
) -> None:
    """Raise unless the micro-batch ``pdf``, sorted by ``seq``, holds events
    ``first, first + 1, …`` with every field set, ``op`` ±1 and ``u != v``,
    that are feasible (Definition 1) given ``alive``, the edges the earlier
    micro-batches left in the graph: no insertion of an alive edge and no
    deletion of an absent one. ``alive`` is advanced past the batch.
    A malformed JSON line reads back as a row of nulls; a missing or
    repeated line breaks the run of ``seq``."""
    nulls = int(pdf[["seq", "op", "u", "v"]].isna().any(axis=1).sum())
    if nulls:
        raise RuntimeError(
            f"window {window}: {nulls} event(s) with a null seq/op/u/v field "
            f"(malformed line?); expected seq {first} onwards"
        )
    seq = pdf["seq"].to_numpy()
    bad = np.flatnonzero(seq != np.arange(first, first + len(seq)))
    if len(bad):
        i = int(bad[0])
        raise RuntimeError(
            f"window {window}: expected seq {first + i}, got {int(seq[i])}"
        )
    op, u, v = (pdf[c].to_numpy() for c in ("op", "u", "v"))
    for what, bad in (("op not +1/-1", (op != 1) & (op != -1)), ("self-loop", u == v)):
        if bad.any():
            raise RuntimeError(f"window {window}: {what} at seq {int(seq[bad][0])}")
    for i, o, a, b in zip(seq.tolist(), op.tolist(), u.tolist(), v.tolist()):
        key = (a, b) if a < b else (b, a)
        if (key in alive) == (o > 0):
            what = "insertion of alive" if o > 0 else "deletion of absent"
            raise RuntimeError(f"window {window}: {what} edge ({a}, {b}) at seq {i}")
        alive ^= {key}  # a feasible event toggles its edge


def run_streaming_estimate(
    spark: SparkSession,
    stream: np.ndarray,
    sampler,
    *,
    window_size: int = 1000,
    work_dir: str | Path | None = None,
) -> pd.DataFrame:
    """Drive ``sampler`` through ``stream`` via Structured Streaming.

    Returns one row per tumbling window: (window, n_events, last_seq,
    estimate). ``sampler`` is any object with ``process(op, u, v)`` and
    ``estimate`` — the WSD kernel or a baseline.
    """
    tmp = Path(work_dir) if work_dir else Path(tempfile.mkdtemp(prefix="repro-stream-"))
    in_dir = tmp / "events"
    ckpt_dir = tmp / "ckpt"
    write_event_files(stream, in_dir, window_size)

    results: list[dict] = []
    alive: set[tuple[int, int]] = set()  # the graph's edges after the last batch

    def feed(batch_df, batch_id: int) -> None:
        pdf = batch_df.toPandas().sort_values("seq", ignore_index=True)
        if pdf.empty:
            return
        _check_batch(pdf, batch_id, results[-1]["last_seq"] + 1 if results else 0, alive)
        results.append(
            {
                "window": int(batch_id),
                "n_events": len(pdf),
                "last_seq": int(pdf["seq"].iloc[-1]),
                "estimate": run_trial(pdf, sampler, len(pdf))["final"],
            }
        )

    reader = (
        spark.readStream.schema(_EVENT_SCHEMA)
        .option("maxFilesPerTrigger", 1)
        .json(str(in_dir))
    )
    query = (
        reader.writeStream.foreachBatch(feed)
        .option("checkpointLocation", str(ckpt_dir))
        .trigger(availableNow=True)
        .start()
    )
    query.awaitTermination()
    return pd.DataFrame(results)
