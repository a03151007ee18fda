#!/usr/bin/env python
"""spark-submit demo: WSD over a fully dynamic edge stream ingested through
Structured Streaming (file-source windows + stateful foreachBatch sampler),
printing per-window estimate vs exact count."""
import argparse

import numpy as np
from pyspark.sql import SparkSession

from repro.core.weights import heuristic_weight
from repro.core.wsd import WSD
from repro.exact.incremental import truth_trajectory
from repro.graphs.generators import generate
from repro.graphs.streams import make_stream
from repro.harness.config import BENCH
from repro.streaming.windowed import run_streaming_estimate


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--scale", type=float, default=BENCH.scale)
    ap.add_argument("--m-ratio", type=float, default=BENCH.m_ratio)
    ap.add_argument("--dataset", default="cit-PT")
    ap.add_argument("--pattern", default="triangle")
    ap.add_argument("--windows", type=int, default=20)
    args = ap.parse_args()
    cfg = BENCH.with_(scale=args.scale, m_ratio=args.m_ratio)
    spark = SparkSession.builder.appName("streaming-demo").getOrCreate()

    edges = generate(args.dataset, scale=cfg.scale)
    stream = make_stream(edges, "light", beta_l=cfg.beta_l, seed=cfg.stream_seed)
    window = max(1, len(stream) // args.windows)
    idx, truth = truth_trajectory(stream, args.pattern, window)

    sampler = WSD(cfg.reservoir_size(len(edges)), args.pattern, heuristic_weight, seed=0)
    df = run_streaming_estimate(spark, stream, sampler, window_size=window)
    df["truth"] = [truth[min(np.searchsorted(idx, s + 1), len(truth) - 1)] for s in df["last_seq"]]
    df["rel_err_%"] = (df["estimate"] - df["truth"]).abs() / df["truth"].clip(lower=1) * 100
    print(df.to_string(index=False))


if __name__ == "__main__":
    main()
