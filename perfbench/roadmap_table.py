#!/usr/bin/env python3
"""Per-event kernel cost of the six samplers on soc-TW, massive deletion.

The reproducible source of the hand-measured µs/event table (wedges and
triangles) in ROADMAP.md: soc-TW at BENCH scale 0.4, the BENCH stream seed
(31,266 events, M = 1,153), each sampler run in process with
``core.runner.run_trial`` over ``--runs`` trial seeds, median reported.

    python3 perfbench/roadmap_table.py [--runs 3]

Prints a markdown table, then one JSON line.
"""
from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from repro.core.runner import run_trial  # noqa: E402
from repro.graphs.generators import TRAIN_OF, generate  # noqa: E402
from repro.graphs.streams import make_stream  # noqa: E402
from repro.harness.config import BENCH  # noqa: E402
from repro.harness.factory import ALGOS_DYNAMIC, make_sampler  # noqa: E402
from repro.rl.train import get_or_train_policy  # noqa: E402

from spans import reference_loop_ms  # noqa: E402
from workloads import DATASET, TRAIN, policy_hash  # noqa: E402

PATTERNS = ("wedge", "triangle")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=3)
    args = ap.parse_args(argv)
    cfg = BENCH
    edges = generate(DATASET, scale=cfg.scale)
    stream = make_stream(
        edges, "massive", alpha=cfg.alpha, beta_m=cfg.beta_m, seed=cfg.stream_seed
    )
    M = cfg.reservoir_size(len(edges))
    work = HERE / "out" / "work" / "roadmap-table"
    table: dict[str, dict[str, float]] = {a: {} for a in ALGOS_DYNAMIC}
    hashes = {}
    host_ms = [reference_loop_ms()]
    try:
        for pattern in PATTERNS:
            shutil.rmtree(work, ignore_errors=True)
            policy, _ = get_or_train_policy(
                work, TRAIN_OF[DATASET], "massive", pattern, TRAIN["bench"]
            )
            hashes[pattern] = policy_hash(policy)
            pol = {
                "W": policy.params["W"], "b": policy.params["b"],
                "pattern": pattern, "variant": policy.variant,
            }
            for a in ALGOS_DYNAMIC:
                us = []
                for r in range(args.runs):
                    s = make_sampler(a, M, pattern, r, policy=pol, wr_ratio=cfg.wr_ratio)
                    us.append(run_trial(stream, s, len(stream))["time_s"] / len(stream) * 1e6)
                table[a][pattern] = sorted(us)[len(us) // 2]
                host_ms.append(reference_loop_ms())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"soc-TW scale {cfg.scale}, massive deletion: {len(stream)} events, M = {M}")
    print("| Algorithm | Wedge (µs/event) | Triangle (µs/event) |")
    print("|---|---|---|")
    for a in ALGOS_DYNAMIC:
        print(f"| {a} | {table[a]['wedge']:.1f} | {table[a]['triangle']:.1f} |")
    print(json.dumps({
        "events": len(stream), "M": M, "runs": args.runs, "policy_hash": hashes,
        "date": time.strftime("%Y-%m-%d"), "us_per_event": table,
        "host_ref_loop_ms": sorted(host_ms)[len(host_ms) // 2],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
