"""Golden trajectories: every sampler's checkpoint estimates, bit for bit.

The kernels' hot paths are tuned for speed, and a speed-up must not change a
single result. This test pins every checkpoint estimate (as ``float.hex``) of
the six ``ALGOS_DYNAMIC`` samplers plus WSD-L with ``variant="avg"`` — both
WSD-L variants with a fixed, untrained actor — and WSD-U on one small stream
per (pattern, deletion scenario), and of GPS on the insertion-only stream
(Table VI), each with a reservoir smaller than the stream and one larger than
it. It also pins two tiny ``train_policy`` runs, whose episodes build every
state through WSD's weight function and whose candidates go through the
validation pool, and checks that they do not depend on how many workers that
pool has.

The values live in ``golden/kernel_trajectories.json``. To re-record them
(only after a change that is *meant* to move estimates), run::

    PYTHONPATH=src python tests/test_kernel_golden.py
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

import repro
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
# The table configs' candidate pool: a warm start and two restarts give 7
# candidates, so 28 validation jobs, more than there are cores.
TRAIN_TABLE = dict(
    TRAIN,
    cfg=TrainConfig(
        iters=30, n_streams=1, scale=0.05, M=20, batch=16, replay=256,
        update_every=1, warm_start=True, restarts=2,
    ),
)
TRAIN_RUNS = {"train_policy": TRAIN, "train_policy_table": TRAIN_TABLE}


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


def _train_run(run: dict) -> tuple[dict, int]:
    """The pinned values of one training run, and its validation workers."""
    policy, info = train_policy(**run)
    return {
        "W": [float(x).hex() for x in policy.params["W"].ravel()],
        "b": [float(x).hex() for x in policy.params["b"].ravel()],
        "val_scores": [float(x).hex() for x in info["val_scores"]],
        "episode_returns": [float(x).hex() for x in info["episode_returns"]],
        "selected": info["selected"],
    }, info["workers"]


def _pinned(got: dict, want: dict) -> dict:
    """``got`` restricted to the keys a golden entry pins."""
    return {k: got[k] for k in want}


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
    got, _ = _train_run(TRAIN)
    assert _pinned(got, golden["train_policy"]) == golden["train_policy"]


def test_table_train_policy_matches_golden(golden):
    got, workers = _train_run(TRAIN_TABLE)
    assert got == golden["train_policy_table"]
    assert 1 <= workers <= len(os.sched_getaffinity(0))


# Runs in a child process pinned to one CPU, so only that process is pinned.
_ONE_CPU = """
import json, os, sys
os.sched_setaffinity(0, {{{cpu}}})
sys.path.insert(0, {tests!r})
import test_kernel_golden as g
print(json.dumps({{name: g._train_run(run) for name, run in g.TRAIN_RUNS.items()}}))
"""


def test_training_goldens_independent_of_worker_count(golden):
    """On one CPU the validation pool has one worker; both training runs
    still give their golden values."""
    script = _ONE_CPU.format(
        cpu=min(os.sched_getaffinity(0)), tests=str(Path(__file__).parent)
    )
    src = str(Path(repro.__file__).parents[1])
    path = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True,
        timeout=300, check=True,
    )
    runs = json.loads(out.stdout)
    assert set(runs) == set(TRAIN_RUNS)
    for name, (got, workers) in runs.items():
        assert _pinned(got, golden[name]) == golden[name]
        assert workers == 1


def _record() -> None:
    out = {
        "trajectories": {_cell_id(*c): _trajectory(*c) for c in CELLS},
        **{name: _train_run(run)[0] for name, run in TRAIN_RUNS.items()},
    }
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {len(out['trajectories'])} trajectories to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    _record()
