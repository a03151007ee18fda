"""Spark Monte-Carlo trial fan-out.

The paper reports the mean of 100 independent sampling repetitions per
setting; repetitions are embarrassingly parallel, so the harness runs them as
one shuffle-free ``mapInPandas`` stage over ``spark.range(n_tasks)``, with
``n_tasks = min(#trials, defaultParallelism)``: one task per core. The
(label, run) trials are dealt to the tasks label-major and round-robin, so
every task gets the same mix of algorithms (±1 trial); each task reads the
broadcast stream and ground truth once and runs its share one sequential
kernel at a time. Every trial is seeded by ``seed0 + run`` alone, so its
metrics do not depend on which task ran it. Metric aggregation is Spark SQL
(and is cross-checked against the DuckDB oracle in tests).
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from ..core.runner import are, mare, run_trial
from ..exact.incremental import truth_trajectory
from .factory import make_sampler

__all__ = ["run_trials", "aggregate", "trial_frame"]

_RESULT_SCHEMA = (
    "label string, run int, are double, mare double, time_s double, "
    "concurrency int, final double"
)


def run_trials(
    spark: SparkSession,
    stream,
    pattern: str,
    M: int,
    algos: list[tuple[str, str, dict | None]],
    *,
    n_runs: int,
    ckpt_every: int,
    mare_floor: float = 0.0,
    wr_ratio: float = 0.1,
    seed0: int = 0,
    truth=None,
) -> DataFrame:
    """Run ``n_runs`` repetitions of each (label, algo, policy) over
    ``stream``; returns a Spark DataFrame of per-trial metrics.

    ``algos`` entries are (display label, factory name, policy dict or
    None). Ground truth is computed once on the driver (or passed in) and
    broadcast with the stream. Each row's ``concurrency`` is the number of
    fan-out tasks, which run at once, so ``time_s`` states its conditions.
    """
    if truth is None:
        _, truth = truth_trajectory(stream, pattern, ckpt_every)
    sc = spark.sparkContext
    b = sc.broadcast(
        {
            "stream": stream,
            "truth": truth,
            "pattern": pattern,
            "M": M,
            "ckpt_every": ckpt_every,
            "mare_floor": mare_floor,
            "wr_ratio": wr_ratio,
            "policies": {label: pol for label, _, pol in algos},
            "names": {label: name for label, name, _ in algos},
        }
    )

    trials = [(label, r) for label, _, _ in algos for r in range(n_runs)]
    n_tasks = min(len(trials), sc.defaultParallelism)

    def run_chunk(batches):
        cfg = b.value
        truth = cfg["truth"]
        for pdf in batches:
            rows = []
            for c in pdf["id"]:
                for label, run in trials[c::n_tasks]:
                    sampler = make_sampler(
                        cfg["names"][label],
                        cfg["M"],
                        cfg["pattern"],
                        seed0 + run,
                        policy=cfg["policies"][label],
                        wr_ratio=cfg["wr_ratio"],
                    )
                    res = run_trial(cfg["stream"], sampler, cfg["ckpt_every"])
                    rows.append(
                        {
                            "label": label,
                            "run": run,
                            "are": are(res["final"], float(truth[-1])),
                            "mare": mare(res["est"], truth, cfg["mare_floor"]),
                            "time_s": res["time_s"],
                            "concurrency": n_tasks,
                            "final": res["final"],
                        }
                    )
            yield pd.DataFrame(rows)

    # a range source has no shuffle, so AQE cannot coalesce the tasks
    return spark.range(n_tasks, numPartitions=n_tasks).mapInPandas(run_chunk, _RESULT_SCHEMA)


def aggregate(results: DataFrame) -> pd.DataFrame:
    """Mean metrics per algorithm label (the numbers the paper tabulates),
    with the concurrency their ``time_s`` was measured under."""
    out = (
        results.groupBy("label")
        .agg(
            F.mean("are").alias("are"),
            F.mean("mare").alias("mare"),
            F.mean("time_s").alias("time_s"),
            F.max("concurrency").alias("concurrency"),
            F.count("run").alias("n_runs"),
        )
        .toPandas()
    )
    return out.sort_values("label").reset_index(drop=True)


def trial_frame(
    spark: SparkSession,
    stream,
    pattern: str,
    M: int,
    algos: list[tuple[str, str, dict | None]],
    **kw,
) -> pd.DataFrame:
    """run_trials + aggregate in one call."""
    return aggregate(run_trials(spark, stream, pattern, M, algos, **kw))
