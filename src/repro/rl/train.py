"""DDPG training loop for the WSD-L weight policy (Sections IV-B, V-A).

Follows the paper's protocol at reduced scale: for each (category, deletion
scenario, pattern) we train on several streams generated from the category's
*training* graph (Table I pairing) with the same deletion parameters as the
test stream, for a fixed number of gradient updates (paper: 1000 iterations,
replay 10k, batch 128, Adam lr 1e-3, γ = 0.99).

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

from ..core.wsd import WSD
from ..exact.incremental import truth_trajectory
from ..graphs.generators import generate
from ..graphs.streams import make_stream
from .ddpg import DDPG
from .env import WSDEnv
from .policy import LearnedPolicy, heuristic_init_params

__all__ = ["TrainConfig", "train_policy", "get_or_train_policy", "policy_path"]


@dataclass
class TrainConfig:
    iters: int = 600            # gradient updates (paper: 1000)
    n_streams: int = 3          # training streams (paper: 10)
    scale: float = 0.2          # training-graph scale factor
    M: int = 0                  # reservoir size during training (0 = use m_ratio)
    m_ratio: float = 0.05       # reservoir budget as a fraction of train |E|
    batch: int = 128            # paper: N = 128
    replay: int = 10_000        # paper: 10,000
    gamma: float = 0.99         # paper: 0.99
    lr: float = 1e-3            # paper: Adam 0.001
    sigma0: float = 3.0         # exploration noise, decayed per update
    sigma_decay: float = 0.995
    sigma_min: float = 0.2
    update_every: int = 4       # env steps per gradient update
    warm_start: bool = True     # init actor at the WSD-H heuristic
    restarts: int = 1           # independent DDPG runs pooled for selection
    alpha: float = 3e-4
    beta_m: float = 0.5
    beta_l: float = 0.2
    seed: int = 0


def _training_streams(dataset: str, scenario: str, cfg: TrainConfig):
    # ``dataset`` names the *training* graph itself (callers resolve the
    # Table I test→train pairing via generators.TRAIN_OF). Every stream is
    # built from the same graph (generation is deterministic), with its own
    # stream seed.
    edges = generate(dataset, scale=cfg.scale, seed_offset=0)
    return [
        make_stream(
            edges, scenario, alpha=cfg.alpha, beta_m=cfg.beta_m,
            beta_l=cfg.beta_l, seed=cfg.seed + 100 + i,
        )
        for i in range(cfg.n_streams)
    ]


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
        return max(50, int(cfg.m_ratio * n_ins))

    envs = [
        WSDEnv(s, pattern, m_for(s), seed=cfg.seed + i, variant=variant)
        for i, s in enumerate(streams)
    ]
    episode_returns: list[float] = []
    snapshots: list[dict[str, np.ndarray]] = []
    total_updates = 0
    total_eps = 0
    for restart in range(max(1, cfg.restarts)):
        agent = DDPG(
            envs[0].state_dim,
            actor_init=heuristic_init_params(pattern) if cfg.warm_start else None,
            gamma=cfg.gamma,
            lr=cfg.lr,
            replay_capacity=cfg.replay,
            batch=cfg.batch,
            seed=cfg.seed + 31 * restart,
        )
        sigma = cfg.sigma0
        snap_at = {cfg.iters // 3, 2 * cfg.iters // 3}
        steps = 0
        ep = 0
        while agent.updates < cfg.iters:
            env = envs[ep % len(envs)]
            s = env.reset(seed=cfg.seed + 1000 + 7919 * restart + ep)
            ep_ret = 0.0
            while s is not None:
                a = agent.explore(s, sigma)
                s2, r, done = env.step(a)
                agent.replay.push(s, a, r, s2, done)
                ep_ret += r
                s = s2
                steps += 1
                if steps % cfg.update_every == 0 and agent.replay.n >= cfg.batch:
                    agent.update()
                    sigma = max(cfg.sigma_min, sigma * cfg.sigma_decay)
                    if agent.updates in snap_at:
                        snapshots.append({k: v.copy() for k, v in agent.actor.items()})
                    if agent.updates >= cfg.iters:
                        break
            episode_returns.append(ep_ret)
            ep += 1
            if ep > 200:  # safety bound
                break
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
        beta_l=cfg.beta_l, seed=cfg.seed + 997,
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
