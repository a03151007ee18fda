"""DDPG training loop for the WSD-L weight policy (Sections IV-B, V-A).

Follows the paper's protocol at reduced scale: for each (category, deletion
scenario, pattern) we train on several streams generated from the category's
*training* graph (Table I pairing) with the same deletion parameters as the
test stream, for a fixed number of gradient updates (paper: 1000 iterations,
replay 10k, batch 128, Adam lr 1e-3, γ = 0.99). An episode is one pass of WSD
itself over a training stream, with the exploring actor as its weight
function (``_Exploration.episode``).

The final policy is the candidate (warm start, mid-training snapshots, final
actors) with the lowest mean relative error over seeded WSD replays of a
held-out validation stream. Those replays are independent, so they run as one
job per (candidate, seed) on a pool of forked worker processes, one per
available core; each score is the mean of its candidate's errors in seed
order, so the scores and the selection do not depend on the pool size
(DESIGN.md §3, "Not on Spark").

``get_or_train_policy`` caches trained policies in a directory of the
caller's choosing (the paper-table command uses the repository's untracked
``results/policies/``), keyed by (dataset, scenario, pattern, variant) so
every table reuses them; training wall-time and the validation pool size are
recorded beside each policy for Tables IV / XI.
"""
from __future__ import annotations

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from multiprocessing import get_context
from pathlib import Path

import numpy as np

from ..core.patterns import PATTERN_EDGES
from ..core.weights import build_state
from ..core.wsd import WSD
from ..exact.incremental import ExactCounter, truth_trajectory
from ..graphs.generators import generate
from ..graphs.streams import make_stream
from .ddpg import DDPG
from .policy import LearnedPolicy, heuristic_init_params

__all__ = ["TrainConfig", "train_policy", "get_or_train_policy", "policy_path"]

# Base of the training seeds: streams, DDPG runs, episodes and the
# validation stream.
SEED = 0
# Exploration noise: starts at SIGMA0, decays by SIGMA_DECAY per gradient
# update, never below SIGMA_MIN.
SIGMA0 = 3.0
SIGMA_DECAY = 0.995
SIGMA_MIN = 0.2
# Reservoir budget during training when ``TrainConfig.M`` is 0, as a
# fraction of the stream's insertions.
M_RATIO = 0.05


@dataclass
class TrainConfig:
    iters: int = 600            # gradient updates (paper: 1000)
    n_streams: int = 3          # training streams (paper: 10)
    scale: float = 0.2          # training-graph scale factor
    M: int = 0                  # reservoir size during training (0 = use M_RATIO)
    batch: int = 128            # paper: N = 128
    replay: int = 10_000        # paper: 10,000
    update_every: int = 4       # transitions per gradient update
    warm_start: bool = True     # init actor at the WSD-H heuristic
    restarts: int = 1           # independent DDPG runs pooled for selection
    alpha: float = 3e-4
    beta_m: float = 0.5
    beta_l: float = 0.2


def _training_streams(dataset: str, scenario: str, cfg: TrainConfig):
    # ``dataset`` names the *training* graph itself (callers resolve the
    # Table I test→train pairing via generators.TRAIN_OF). Every stream is
    # built from the same graph (generation is deterministic), with its own
    # stream seed.
    edges = generate(dataset, scale=cfg.scale, seed_offset=0)
    return [
        make_stream(
            edges, scenario, alpha=cfg.alpha, beta_m=cfg.beta_m,
            beta_l=cfg.beta_l, seed=SEED + 100 + i,
        )
        for i in range(cfg.n_streams)
    ]


class _Exploration:
    """One DDPG run's exploration, across its episodes: the noise scale σ and
    the update schedule — a gradient update every ``cfg.update_every``
    transitions once the replay holds a batch, and actor snapshots at a third
    and two thirds of ``cfg.iters``."""

    def __init__(self, agent: DDPG, cfg: TrainConfig) -> None:
        self.agent = agent
        self.cfg = cfg
        self.sigma = SIGMA0
        self.steps = 0
        self.snap_at = {cfg.iters // 3, 2 * cfg.iters // 3}
        self.snapshots: list[dict[str, np.ndarray]] = []

    def _push(self, prev: tuple, s2: np.ndarray | None, eps: float, done: bool) -> float:
        """Store the transition from decision ``prev = (s, a, ε)`` to a state
        with error ``eps``, run the update schedule, and return its reward."""
        agent, cfg = self.agent, self.cfg
        s, a, eps_prev = prev
        r = eps_prev - eps
        agent.replay.push(s, a, r, s2, done)
        self.steps += 1
        if self.steps % cfg.update_every == 0 and agent.replay.n >= cfg.batch:
            agent.update()
            self.sigma = max(SIGMA_MIN, self.sigma * SIGMA_DECAY)
            if agent.updates in self.snap_at:
                self.snapshots.append({k: v.copy() for k, v in agent.actor.items()})
        return r

    def episode(self, events: tuple[list, list, list], pattern: str, M: int,
                variant: str, seed: int) -> float:
        """One episode of the weight MDP (Section IV-A), returning its return.

        WSD runs over the stream with the noisy actor as its weight function,
        so the decision points are WSD's own feasible insertions: the state
        is what the weight function sees (Eqs. 19–22), the action is the
        weight (Eq. 23), and the reward ``r_k = ε(t_k) − ε(t_{k+1})``
        (Eq. 25) is the change in relative error — against an exact counter
        advanced before each event — between two decisions. Rewards telescope
        to ``−ε(t_N)`` (Eq. 26; ``ε(t_1) = 0``). The episode stops as soon as
        the agent has made ``cfg.iters`` updates."""
        agent, iters = self.agent, self.cfg.iters
        exact = ExactCounter(pattern)
        prev = None  # (s_k, a_k, ε(t_k)) of the last decision
        ret = 0.0

        def error() -> float:
            truth = exact.count
            return abs(smp.estimate - truth) / max(1.0, truth)

        def weight(ctx) -> float:
            nonlocal prev, ret
            s, eps = build_state(ctx, variant), error()
            if prev is not None:
                ret += self._push(prev, s, eps, False)
            a = agent.explore(s, self.sigma)
            prev = (s, a, eps)
            return float(a)

        smp = WSD(M, pattern, weight, seed)
        for op, u, v in zip(*events):
            exact.process(op, u, v)
            smp.process(op, u, v)
            if agent.updates >= iters:
                return ret
        if prev is not None:
            ret += self._push(prev, None, error(), True)
        return ret


def train_policy(
    dataset: str,
    scenario: str,
    pattern: str,
    cfg: TrainConfig | None = None,
    variant: str = "max",
) -> tuple[LearnedPolicy, dict]:
    """Train a WSD-L policy; returns (policy, info) with training wall-time
    and the per-episode return trace."""
    cfg = cfg or TrainConfig()
    t0 = time.perf_counter()
    streams = _training_streams(dataset, scenario, cfg)
    t_ddpg = time.perf_counter()

    def m_for(stream) -> int:
        if cfg.M > 0:
            return cfg.M
        n_ins = int((stream["op"] > 0).sum())
        return max(50, int(M_RATIO * n_ins))

    episodes = [
        ((s["op"].tolist(), s["u"].tolist(), s["v"].tolist()), m_for(s)) for s in streams
    ]
    episode_returns: list[float] = []
    snapshots: list[dict[str, np.ndarray]] = []
    total_updates = 0
    total_eps = 0
    for restart in range(max(1, cfg.restarts)):
        agent = DDPG(
            PATTERN_EDGES[pattern] + 3,
            actor_init=heuristic_init_params(pattern) if cfg.warm_start else None,
            replay_capacity=cfg.replay,
            batch=cfg.batch,
            seed=SEED + 31 * restart,
        )
        run = _Exploration(agent, cfg)
        ep = 0
        while agent.updates < cfg.iters:
            events, M = episodes[ep % len(episodes)]
            seed = SEED + 1000 + 7919 * restart + ep
            episode_returns.append(run.episode(events, pattern, M, variant, seed))
            ep += 1
            if ep > 200:  # safety bound
                break
        snapshots += run.snapshots
        snapshots.append({k: v.copy() for k, v in agent.actor.items()})
        total_updates += agent.updates
        total_eps += ep

    t_val_graph = time.perf_counter()
    # Validation-based selection (DESIGN.md substitutions): the paper trains
    # for hours; at our scale short DDPG runs can drift below the heuristic
    # warm start, so the final policy is the candidate — mid-training
    # snapshots, final actor, or the initialisation — with the lowest mean
    # relative error on a held-out stream from the same training graph.
    val_edges = generate(dataset, scale=cfg.scale, seed_offset=7)
    val_stream = make_stream(
        val_edges, scenario, alpha=cfg.alpha, beta_m=cfg.beta_m,
        beta_l=cfg.beta_l, seed=SEED + 997,
    )
    t_validate = time.perf_counter()
    _, val_truth = truth_trajectory(val_stream, pattern, 10**9)
    candidates = [heuristic_init_params(pattern)] if cfg.warm_start else []
    candidates += snapshots
    scores, workers = _validate(
        candidates, val_stream, pattern, m_for(val_stream), variant, float(val_truth[-1])
    )
    best = int(np.argmin(scores))
    policy = LearnedPolicy(candidates[best], pattern, variant)
    t_end = time.perf_counter()
    info = {
        "train_time_s": t_end - t0,
        # Wall time per phase: training and validation graphs plus their
        # streams, DDPG episodes and updates, candidate validation.
        "graphs_s": (t_ddpg - t0) + (t_validate - t_val_graph),
        "ddpg_s": t_val_graph - t_ddpg,
        "validate_s": t_end - t_validate,
        # Worker processes that ran the candidate validation.
        "workers": workers,
        "episodes": total_eps,
        "updates": total_updates,
        "episode_returns": episode_returns,
        "val_scores": [float(s) for s in scores],
        "selected": best,
    }
    return policy, info


# Seeded WSD replays of the validation stream per candidate.
_VAL_RUNS = 4
# What every validation job reads, set once per worker by
# ``_init_validation``; a forked worker inherits it without pickling.
_val_inputs: tuple | None = None


def _init_validation(*inputs) -> None:
    global _val_inputs
    _val_inputs = inputs


def _validation_error(job: tuple[int, int]) -> float:
    """Relative error of WSD with candidate ``c``'s actor, seeded by run
    ``s``, over the validation stream."""
    c, s = job
    candidates, ops, us, vs, pattern, M, variant, target = _val_inputs
    wfn = LearnedPolicy(candidates[c], pattern, variant).as_weight_fn()
    smp = WSD(M, pattern, wfn, seed=5000 + s)
    proc = smp.process
    for o, u, v in zip(ops, us, vs):
        proc(o, u, v)
    return abs(smp.estimate - target) / max(1.0, abs(target))


def _validate(
    candidates: list[dict[str, np.ndarray]],
    stream: np.ndarray,
    pattern: str,
    M: int,
    variant: str,
    target: float,
) -> tuple[list[float], int]:
    """Mean relative error of WSD with each candidate actor over the
    validation stream, and the number of worker processes that computed it.

    The (candidate, seed) replays run on a pool of forked workers, one per
    available core at most. ``fork`` hands the stream to the workers without
    pickling and without re-importing ``__main__``, which a caller script
    without a main guard could not survive. The results come back in job
    order, so every score averages its candidate's errors in seed order."""
    jobs = [(c, s) for c in range(len(candidates)) for s in range(_VAL_RUNS)]
    workers = min(len(jobs), len(os.sched_getaffinity(0)))
    inputs = (
        candidates, stream["op"].tolist(), stream["u"].tolist(), stream["v"].tolist(),
        pattern, M, variant, target,
    )
    with ProcessPoolExecutor(
        workers, mp_context=get_context("fork"),
        initializer=_init_validation, initargs=inputs,
    ) as pool:
        errs = list(pool.map(_validation_error, jobs))
    scores = [
        float(np.mean(errs[i:i + _VAL_RUNS])) for i in range(0, len(errs), _VAL_RUNS)
    ]
    return scores, workers


def policy_path(cache_dir: str | Path, dataset: str, scenario: str, pattern: str, variant: str) -> Path:
    return Path(cache_dir) / f"{dataset}_{scenario}_{pattern}_{variant}.npz"


def get_or_train_policy(
    cache_dir: str | Path,
    dataset: str,
    scenario: str,
    pattern: str,
    cfg: TrainConfig | None = None,
    variant: str = "max",
) -> tuple[LearnedPolicy, dict]:
    """Load a cached policy or train and cache one. ``info['train_time_s']``
    is persisted alongside so Tables IV/XI can report cached timings."""
    path = policy_path(cache_dir, dataset, scenario, pattern, variant)
    meta = path.with_suffix(".json")
    if path.exists():
        info = json.loads(meta.read_text()) if meta.exists() else {"train_time_s": None}
        info["cached"] = True
        return LearnedPolicy.load(path), info
    policy, info = train_policy(dataset, scenario, pattern, cfg, variant)
    policy.save(path)
    meta.write_text(json.dumps({k: v for k, v in info.items() if k != "episode_returns"}))
    info["cached"] = False
    return policy, info
