"""Golden trajectories: every sampler's checkpoint estimates, bit for bit.

The kernels' hot paths are tuned for speed, and a speed-up must not change a
single result. This test pins every checkpoint estimate (as ``float.hex``) of
the six ``ALGOS_DYNAMIC`` samplers plus WSD-L with ``variant="avg"`` — both
WSD-L variants with a fixed, untrained actor — and WSD-U on one small stream
per (pattern, deletion scenario), and of GPS on the insertion-only stream
(Table VI), each with a reservoir smaller than the stream and one larger than
it. It also pins one tiny ``train_policy`` run, which goes through the RL
environment's state construction.

The values live in ``golden/kernel_trajectories.json``. To re-record them
(only after a change that is *meant* to move estimates), run::

    PYTHONPATH=src python tests/test_kernel_golden.py
"""
from __future__ import annotations

import json
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from repro.core.patterns import PATTERN_EDGES
from repro.core.runner import run_trial
from repro.graphs.generators import generate
from repro.graphs.streams import make_stream
from repro.harness.config import TEST
from repro.harness.factory import ALGOS_DYNAMIC, make_sampler
from repro.rl.train import TrainConfig, train_policy

GOLDEN = Path(__file__).parent / "golden" / "kernel_trajectories.json"
DATASET = "soc-TW"
PATTERNS = ["wedge", "triangle", "4clique"]
SCENARIOS = ["massive", "light"]
SMALL_M = 60
SEED = 11
N_CKPT = 12
LABELS = [*ALGOS_DYNAMIC, "WSD-L(avg)", "WSD-U"]
# No warm start, so the pinned actor is a trained one; its parameters depend
# on every replayed state bit for bit.
TRAIN = dict(
    dataset="soc-TX", scenario="light", pattern="wedge",
    cfg=TrainConfig(
        iters=30, n_streams=1, scale=0.05, M=20, batch=16, replay=256,
        update_every=1, warm_start=False,
    ),
)


def _actor(pattern: str, variant: str) -> dict:
    """A fixed actor with non-zero weight on every state feature, so the
    topological and the temporal part of the state both move the weight."""
    d = PATTERN_EDGES[pattern] + 3
    W = np.random.default_rng(d).uniform(-1.0, 3.0, (1, d))
    W[0, 0] = 9.0
    return {"W": W, "b": np.array([0.5]), "pattern": pattern, "variant": variant}


@lru_cache(maxsize=None)
def _stream(scenario: str) -> np.ndarray:
    edges = generate(DATASET, scale=TEST.scale)
    return make_stream(
        edges, scenario, alpha=TEST.alpha, beta_m=TEST.beta_m,
        beta_l=TEST.beta_l, seed=TEST.stream_seed,
    )


def _cell_id(label: str, pattern: str, scenario: str, m: str) -> str:
    return f"{label}/{pattern}/{scenario}/{m}"


def _trajectory(label: str, pattern: str, scenario: str, m: str) -> list[str]:
    stream = _stream(scenario)
    M = SMALL_M if m == "small" else len(stream) + 1
    name, variant = ("WSD-L", "avg") if label == "WSD-L(avg)" else (label, "max")
    policy = _actor(pattern, variant) if name == "WSD-L" else None
    sampler = make_sampler(name, M, pattern, SEED, policy=policy)
    est = run_trial(stream, sampler, max(1, len(stream) // N_CKPT))["est"]
    return [float(x).hex() for x in est]


def _train_run() -> dict[str, list[str]]:
    policy, info = train_policy(**TRAIN)
    return {
        "W": [float(x).hex() for x in policy.params["W"].ravel()],
        "b": [float(x).hex() for x in policy.params["b"].ravel()],
        "val_scores": [float(x).hex() for x in info["val_scores"]],
        "episode_returns": [float(x).hex() for x in info["episode_returns"]],
    }


CELLS = [
    (label, pattern, scenario, m)
    for pattern in PATTERNS
    for scenario in SCENARIOS
    for m in ("small", "full")
    for label in LABELS
] + [
    ("GPS", pattern, "insertion-only", m)
    for pattern in PATTERNS
    for m in ("small", "full")
]


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("cell", CELLS, ids=lambda c: _cell_id(*c))
def test_checkpoint_estimates_match_golden(golden, cell):
    assert _trajectory(*cell) == golden["trajectories"][_cell_id(*cell)]


def test_train_policy_matches_golden(golden):
    assert _train_run() == golden["train_policy"]


def _record() -> None:
    out = {
        "trajectories": {_cell_id(*c): _trajectory(*c) for c in CELLS},
        "train_policy": _train_run(),
    }
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {len(out['trajectories'])} trajectories to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    _record()
