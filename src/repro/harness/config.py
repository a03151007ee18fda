"""Experiment configuration — the reduced-scale analogue of the paper's
default parameters (Section V-A), shared by tests, perfbench and the
paper-table command (``harness/tables.py``).

Paper defaults: M = 200,000 (1.2–6.7% of |E|), α = 3,000,000⁻¹, β_m = 0.8,
β_l = 0.2, 100 sampling repetitions. Scaled defaults keep the sampling
*ratio* (M ≈ 5% |E|) and the deletion regime; the deletion parameters are
``make_stream``'s defaults, with their reasons beside them in
``graphs/streams.py`` (DESIGN.md §4).
"""
from __future__ import annotations

from dataclasses import dataclass, replace

from ..graphs.streams import ALPHA, BETA_L, BETA_M
from ..rl.train import TrainConfig

__all__ = ["ExpConfig", "BENCH", "BENCH_TRAIN", "TEST"]


@dataclass(frozen=True)
class ExpConfig:
    scale: float = 0.4          # dataset scale factor (1.0 = full proxy size)
    m_ratio: float = 0.05       # reservoir budget as a fraction of |E|
    n_runs: int = 12            # sampling repetitions (paper: 100)
    alpha: float = ALPHA        # massive-deletion event probability
    beta_m: float = BETA_M      # per-edge massive-deletion probability
    beta_l: float = BETA_L      # light-deletion probability (paper value)
    n_ckpt: int = 40            # MARE checkpoints per stream
    mare_floor: float = 30.0    # min truth for a checkpoint to count
    stream_seed: int = 3        # stream construction seed (shared by trials)
    wr_ratio: float = 0.1       # WRS waiting-room fraction

    def with_(self, **kw) -> "ExpConfig":
        return replace(self, **kw)

    def reservoir_size(self, n_edges: int) -> int:
        return max(30, int(self.m_ratio * n_edges))

    def ckpt_every(self, n_events: int) -> int:
        return max(1, n_events // self.n_ckpt)


BENCH = ExpConfig()
TEST = ExpConfig(scale=0.08, n_runs=3, n_ckpt=10)
# WSD-L training for the paper tables (paper: 1000 iterations on 10 streams)
BENCH_TRAIN = TrainConfig(iters=1000, n_streams=3, scale=0.25, restarts=2)
