"""The three benchmark workloads and the metrics they report.

Every workload runs on the soc-TW proxy graph and calls only the public
functions of ``repro``. The benchmark seed seeds ``make_stream`` and the
trial seeds; the program receives only the generated inputs.

* ``mc-triangle-massive``: one Table III cell (triangles, massive deletion)
  through ``harness.trials.trial_frame``, called as ``table_main`` calls it:
  the six ``ALGOS_DYNAMIC`` × ``n_runs`` trials fanned out on Spark.
* ``kernel-wedge-light``: the same six samplers run in process with
  ``core.runner.run_trial`` (wedges, light deletion), over a fixed set of
  trial seeds. No Spark.
* ``stream-triangle-massive``: ``streaming.windowed.run_streaming_estimate``
  with WSD-H over the mc stream in 500-event windows. It is a closed loop
  over a pre-loaded backlog, so it measures service time and throughput.
  It is too slow and too noisy on a shared host for the gated set in
  BENCHMARK.json; traced mc runs measure its layers on the same stream.

Set-up builds the inputs (graph, stream, exact truth, WSD-L policy trained
into a fresh directory) ``SETUP_REPS`` times per run, and ``setup_s`` is the
median. The first repetition is cold: it runs from process start, launches
the Spark session (in the background, while the inputs are built) and runs
one small warm-up job through the workload's Spark path, so the timed phase
never pays for starting the Python workers.
The cold repetition is reported on its own as ``setup.first_s``.

Outputs are checked outside the timed phases. The traced mc run replays every
(label, run) in process and compares each final estimate, ARE and MARE with
the fan-out bit for bit; the untraced mc run replays the WSD-H runs only,
which checks the WSD-H row of the timed aggregate. Every workload checks the
final exact count against the DuckDB oracle SQL (mc and kernel), or every
streaming window estimate against the batch kernel (stream).
"""
from __future__ import annotations

import hashlib
import shutil
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.runner import are, mare, run_trial
from repro.core.wsd import WSD
from repro.exact.incremental import checkpoints, truth_trajectory
from repro.exact.spark_counts import TRIANGLE_SQL, WEDGE_SQL, alive_edges
from repro.graphs.generators import TRAIN_OF, generate
from repro.graphs.streams import make_stream
from repro.harness.config import BENCH, TEST
from repro.harness.factory import ALGOS_DYNAMIC, make_sampler
from repro.rl.train import TrainConfig, get_or_train_policy

from spans import Checks, Tracer, median, reference_loop_ms

DATASET = "soc-TW"
WINDOW = 500  # events per window (stream micro-batch and replay slice)
SETUP_REPS = 3
KERNEL_SEEDS = 2  # size of the fixed trial-seed set of kernel-wedge-light
WARM_EVENTS = WINDOW  # stream prefix used by the warm-up Spark job
EXACT_EVENTS = 4000  # stream prefix replayed with a reservoir that holds it all
SIZES = {"bench": BENCH, "test": TEST}
# A fixed, benchmark-owned training config: the policy is trained into a
# fresh directory on every set-up, never read from results/policies/.
TRAIN = {
    "bench": TrainConfig(iters=300, n_streams=2, scale=0.15, restarts=1),
    "test": TrainConfig(iters=40, n_streams=1, scale=0.06, restarts=1),
}


@dataclass(frozen=True)
class Workload:
    scenario: str
    pattern: str
    uses_spark: bool
    # Runs all six samplers, so set-up trains a WSD-L policy, and the
    # estimates are scored against the exact truth.
    six_samplers: bool


WORKLOADS = {
    "mc-triangle-massive": Workload("massive", "triangle", True, True),
    "kernel-wedge-light": Workload("light", "wedge", False, True),
    "stream-triangle-massive": Workload("massive", "triangle", True, False),
}

END_TO_END = {
    "events_per_s": "events/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "setup.first_s": "s",
    "graphs.generate_s": "s",
    "graphs.make_stream_s": "s",
    "exact.truth_s": "s",
    "rl.train_s": "s",
    "rl.load_s": "s",
    "spark.session_s": "s",
    "spark.warmup_s": "s",
    "harness.fanout_s": "s",
    "harness.aggregate_s": "s",
    "harness.tasks": "count",
    "harness.parallel_efficiency": "ratio",
    "harness.time_s_inflation": "ratio",
    **{
        f"kernel.{a}.{m}": u
        for a in ALGOS_DYNAMIC
        for m, u in (
            ("us_per_event", "us"),
            ("insert_us", "us"),
            ("delete_us", "us"),
            ("occupancy", "ratio"),
        )
    },
    "kernel.WSD-L.weight_us": "us",
    "kernel.GPS-A.zombie_share": "ratio",
    "wsd_l_are_pct": "%",
    "streaming.windows": "count",
    "streaming.window_ms_p50": "ms",
    "streaming.window_ms_p80": "ms",
    "streaming.kernel_ms_p50": "ms",
    "streaming.overhead_ms_p50": "ms",
    "streaming.write_files_s": "s",
    "trace.overhead_pct": "%",
    "host.ref_loop_ms": "ms",
}


@dataclass
class Inputs:
    stream: np.ndarray
    M: int
    ckpt_idx: np.ndarray
    truth: np.ndarray | None
    policy: object | None  # LearnedPolicy
    policy_dict: dict | None

    @property
    def bounds(self) -> np.ndarray:
        """Replay slice ends: every window end and every truth checkpoint."""
        n = len(self.stream)
        ends = np.arange(WINDOW, n, WINDOW, dtype=np.int64)
        return np.union1d(np.union1d(ends, self.ckpt_idx), [n])


@dataclass
class Trial:
    final: float
    est: np.ndarray  # estimates at the truth checkpoints
    window_est: np.ndarray  # estimates at every window end
    seconds: float


def policy_hash(policy) -> str:
    h = hashlib.sha256()
    h.update(policy.params["W"].tobytes())
    h.update(policy.params["b"].tobytes())
    h.update(f"{policy.pattern}/{policy.variant}".encode())
    return h.hexdigest()[:16]


def occupancy(sampler, M: int) -> float:
    """Final |R| / M, read from the sampler's state."""
    if hasattr(sampler, "res"):  # WSD, GPS-A (tagged zombies included)
        n = len(sampler.res)
    elif hasattr(sampler, "waiting"):  # WRS: waiting room + reservoir
        n = len(sampler.waiting) + len(sampler.rp)
    else:  # Triest, ThinkD
        n = len(sampler.rp)
    return n / M


def zombie_share(sampler) -> float:
    """Share of GPS-A's reservoir held by DEL-tagged records."""
    recs = sampler.res.records
    return sum(r.tagged for r in recs.values()) / max(1, len(recs))


class TimedWeight:
    """Wraps a weight function and accumulates the time spent in it."""

    def __init__(self, fn) -> None:
        self.fn = fn
        self.seconds = 0.0
        self.calls = 0

    def __call__(self, ctx) -> float:
        t0 = time.perf_counter()
        w = self.fn(ctx)
        self.seconds += time.perf_counter() - t0
        self.calls += 1
        return w


class WindowClock:
    """Sampler proxy for the streaming path. ``feed`` reads ``estimate``
    once per micro-batch, so one clock read there marks each window's end.
    Untraced, ``process`` is the inner sampler's bound method; traced, it
    also records the span of each window's sampler calls."""

    def __init__(self, inner, traced: bool) -> None:
        self.inner = inner
        self.reads: list[float] = []
        self.kernel_s: list[float] = []
        self._first: float | None = None
        self._last = 0.0
        self.process = self._timed_process if traced else inner.process

    def _timed_process(self, op: int, u: int, v: int) -> None:
        t0 = time.perf_counter()
        self.inner.process(op, u, v)
        self._last = time.perf_counter()
        if self._first is None:
            self._first = t0

    @property
    def estimate(self) -> float:
        self.reads.append(time.perf_counter())
        if self._first is not None:
            self.kernel_s.append(self._last - self._first)
            self._first = None
        return self.inner.estimate


def instrumented_pass(stream: np.ndarray, sampler) -> tuple[float, float, float]:
    """The benchmark's own event loop, timing every ``process`` call.
    Returns (final estimate, mean µs per insertion, mean µs per deletion)."""
    process = sampler.process
    clock = time.perf_counter
    t_ins = t_del = 0.0
    n_ins = n_del = 0
    for op, u, v in zip(stream["op"].tolist(), stream["u"].tolist(), stream["v"].tolist()):
        t0 = clock()
        process(op, u, v)
        dt = clock() - t0
        if op > 0:
            t_ins += dt
            n_ins += 1
        else:
            t_del += dt
            n_del += 1
    return (
        float(sampler.estimate),
        t_ins / max(1, n_ins) * 1e6,
        t_del / max(1, n_del) * 1e6,
    )


def new_session():
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


class SessionLauncher(threading.Thread):
    """Launches the Spark session in the background, so the cold set-up
    builds the inputs while the JVM starts (the launch mostly waits)."""

    def __init__(self) -> None:
        super().__init__(daemon=True)
        self.spark = None
        self.error: BaseException | None = None
        self.seconds = 0.0
        self.start()

    def run(self) -> None:
        t0 = time.perf_counter()
        try:
            self.spark = new_session()
        except BaseException as e:  # re-raised in the main thread by result()
            self.error = e
        self.seconds = time.perf_counter() - t0

    def result(self):
        self.join()
        if self.error is not None:
            raise self.error
        return self.spark


class Bench:
    """One benchmark run of one workload."""

    def __init__(
        self,
        workload: str,
        *,
        seed: int,
        seconds: float,
        traced: bool,
        size: str,
        work_dir: Path,
        t_start: float,
    ) -> None:
        self.name = workload
        self.w = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.cfg = SIZES[size]
        self.train_cfg = TRAIN[size]
        self.seed0 = seed * self.cfg.n_runs  # first trial seed
        self.work = work_dir
        self.t_start = t_start
        self.tracer = Tracer(traced, f"{workload}/seed{seed}")
        self.checks = Checks()
        self.spark = None
        self.policy_hash: str | None = None
        self.e2e: dict[str, float] = {}
        self.layer: dict[str, float] = {}
        self.info: dict = {}
        self.host_ms: list[float] = []

    # -- set-up --------------------------------------------------------------
    def set_up(self) -> Inputs:
        times = []
        t0 = self.t_start
        for rep in range(SETUP_REPS):
            inp = self._set_up_once(rep)
            times.append(time.perf_counter() - t0)
            self._probe_host()
            t0 = time.perf_counter()
        self.e2e["setup_s"] = median(times)
        self.layer["setup.first_s"] = times[0]
        self.info["setup_reps_s"] = times
        return inp

    def _set_up_once(self, rep: int) -> Inputs:
        tr, w, cfg = self.tracer, self.w, self.cfg
        cold = self.spark is None and w.uses_spark
        with tr.span("setup", rep=rep):
            launcher = SessionLauncher() if cold else None
            with tr.span("graphs.generate"):
                edges = generate(DATASET, scale=cfg.scale)
            with tr.span("graphs.make_stream"):
                stream = make_stream(
                    edges, w.scenario, alpha=cfg.alpha, beta_m=cfg.beta_m,
                    beta_l=cfg.beta_l, seed=self.seed,
                )
            # Estimates are compared at the truth checkpoints, or, with no
            # truth, at every window end.
            ckpt_idx, truth = checkpoints(len(stream), WINDOW), None
            if w.six_samplers:
                with tr.span("exact.truth"):
                    ckpt_idx, truth = truth_trajectory(
                        stream, w.pattern, cfg.ckpt_every(len(stream))
                    )
            policy = self._policy(rep) if w.six_samplers else None
            inp = Inputs(
                stream, cfg.reservoir_size(len(edges)), ckpt_idx, truth, policy,
                None if policy is None else {
                    "W": policy.params["W"], "b": policy.params["b"],
                    "pattern": policy.pattern, "variant": policy.variant,
                },
            )
            if launcher is not None:
                self.spark = launcher.result()
                self.layer["spark.session_s"] = launcher.seconds
                with tr.span("spark.warmup"):
                    self._warm_up(inp)
        return inp

    def _policy(self, rep: int):
        d = self.work / f"policies-{rep}"
        shutil.rmtree(d, ignore_errors=True)
        args = (d, TRAIN_OF[DATASET], self.w.scenario, self.w.pattern, self.train_cfg)
        with self.tracer.span("rl.train"):
            trained, info = get_or_train_policy(*args)
        with self.tracer.span("rl.load"):
            loaded, info_again = get_or_train_policy(*args)
        h = policy_hash(trained)
        self.checks.equal("rl.train reports cached", info["cached"], False)
        self.checks.equal("rl.load reports cached", info_again["cached"], True)
        self.checks.equal("policy cache round-trip hash", policy_hash(loaded), h)
        if self.policy_hash is None:
            self.policy_hash = h
        else:
            self.checks.equal("policy training reproducible", h, self.policy_hash)
        return loaded

    def _algos(self, inp: Inputs):
        return [(a, a, inp.policy_dict if a == "WSD-L" else None) for a in ALGOS_DYNAMIC]

    def _warm_up(self, inp: Inputs) -> None:
        """One small job through the workload's Spark path: the first job of
        a session pays for starting and importing the Python workers."""
        from repro.harness.trials import trial_frame
        from repro.streaming.windowed import run_streaming_estimate

        prefix = inp.stream[:WARM_EVENTS]
        if self.name == "mc-triangle-massive":
            trial_frame(
                self.spark, prefix, self.w.pattern, inp.M, self._algos(inp),
                n_runs=1, ckpt_every=WINDOW,
            )
        else:
            d = self.work / "warmup"
            shutil.rmtree(d, ignore_errors=True)
            sampler = make_sampler("WSD-H", inp.M, self.w.pattern, self.seed0)
            run_streaming_estimate(self.spark, prefix, sampler, window_size=WINDOW, work_dir=d)
            shutil.rmtree(d, ignore_errors=True)

    # -- helpers -------------------------------------------------------------
    def _probe_host(self) -> None:
        """Read the host's speed between phases, never during a timed one."""
        self.host_ms.extend(reference_loop_ms() for _ in range(2))

    def _repeat(self, fn, min_iters: int = 1):
        """Call ``fn(i)`` until ``seconds`` have passed (at least
        ``min_iters`` times); returns (wall seconds, outputs) per call. A
        traced run makes only ``min_iters`` calls: it needs them as the
        untraced reference for the tracing overhead."""
        walls, outs = [], []
        t_end = time.perf_counter() + (0.0 if self.traced else self.seconds)
        i = 0
        while True:
            t0 = time.perf_counter()
            outs.append(fn(i))
            t1 = time.perf_counter()
            walls.append(t1 - t0)
            i += 1
            if t1 >= t_end and i >= min_iters:
                return walls, outs

    def replay(self, inp: Inputs, sampler) -> Trial:
        """Feed the stream through ``sampler`` with ``run_trial``, one call
        per slice ending at each of ``inp.bounds``; the sampler sees exactly
        the events, in the order, of one ``run_trial`` over the whole stream."""
        bounds = inp.bounds
        ests = np.empty(len(bounds))
        secs = np.empty(len(bounds))
        start = 0
        for i, b in enumerate(bounds.tolist()):
            r = run_trial(inp.stream[start:b], sampler, b - start)
            ests[i] = r["final"]
            secs[i] = r["time_s"]
            start = b
        est = ests[np.searchsorted(bounds, inp.ckpt_idx)]
        at_end = (bounds % WINDOW == 0) | (bounds == bounds[-1])
        return Trial(float(ests[-1]), est, ests[at_end], float(secs.sum()))

    def _check_truth(self, inp: Inputs) -> None:
        """Final exact count against the DuckDB oracle SQL."""
        import duckdb
        import pandas as pd

        alive = alive_edges(inp.stream)
        sql = {"triangle": TRIANGLE_SQL, "wedge": WEDGE_SQL}[self.w.pattern]
        con = duckdb.connect()
        try:
            con.register("edges", pd.DataFrame({"a": alive[:, 0], "b": alive[:, 1]}))
            (cnt,) = con.execute(sql).fetchone()
        finally:
            con.close()
        self.checks.equal("final exact truth vs DuckDB", float(inp.truth[-1]), float(cnt))

    def _check_full_reservoir(self, inp: Inputs) -> None:
        """With a reservoir larger than the stream every sampler is exact;
        checked on a stream prefix, since a full reservoir is slow."""
        prefix = inp.stream[:EXACT_EVENTS]
        n = len(prefix)
        _, truth = truth_trajectory(prefix, self.w.pattern, n)
        for label, name, pol in self._algos(inp):
            s = make_sampler(name, n + 1, self.w.pattern, self.seed0, policy=pol)
            r = run_trial(prefix, s, n)
            self.checks.equal(f"{label} exact with M > |stream|", r["final"], float(truth[-1]))

    def _kernel_layers(self, inp: Inputs, trials: dict[str, list[Trial]], seed: int) -> float:
        """Per-kernel numbers: µs/event from ``trials``, and one
        instrumented pass per algorithm (insert/delete split, WSD-L weight
        time, final occupancy). Returns the instrumented passes' wall time."""
        n = len(inp.stream)
        wall = 0.0
        for label, name, pol in self._algos(inp):
            if label not in trials:
                continue
            self.layer[f"kernel.{label}.us_per_event"] = median(
                t.seconds / n * 1e6 for t in trials[label]
            )
            weight = None
            if label == "WSD-L":
                weight = TimedWeight(inp.policy.as_weight_fn())
                sampler = WSD(inp.M, self.w.pattern, weight, seed)
            else:
                sampler = make_sampler(name, inp.M, self.w.pattern, seed, wr_ratio=self.cfg.wr_ratio)
            t0 = time.perf_counter()
            with self.tracer.span("kernel.instrumented", algo=label):
                final, ins_us, del_us = instrumented_pass(inp.stream, sampler)
            wall += time.perf_counter() - t0
            self.checks.equal(f"{label} instrumented pass final", final, trials[label][0].final)
            self.layer[f"kernel.{label}.insert_us"] = ins_us
            self.layer[f"kernel.{label}.delete_us"] = del_us
            self.layer[f"kernel.{label}.occupancy"] = occupancy(sampler, inp.M)
            if weight is not None:
                self.layer["kernel.WSD-L.weight_us"] = weight.seconds / max(1, weight.calls) * 1e6
            if label == "GPS-A":
                self.layer["kernel.GPS-A.zombie_share"] = zombie_share(sampler)
        return wall

    # -- workloads -----------------------------------------------------------
    def run(self) -> None:
        inp = self.set_up()
        self.info["events"] = len(inp.stream)
        self.info["M"] = inp.M
        {
            "mc-triangle-massive": self._run_mc,
            "kernel-wedge-light": self._run_kernel,
            "stream-triangle-massive": self._run_stream,
        }[self.name](inp)
        self._probe_host()
        self.info["host_ref_loop_ms"] = self.host_ms
        self.layer["host.ref_loop_ms"] = median(self.host_ms)
        self._per_layer_from_spans()

    def _run_mc(self, inp: Inputs) -> None:
        from repro.harness.trials import aggregate, run_trials, trial_frame

        cfg, pattern, spark = self.cfg, self.w.pattern, self.spark
        algos = self._algos(inp)
        kw = dict(
            n_runs=cfg.n_runs, ckpt_every=int(inp.ckpt_idx[0]), mare_floor=cfg.mare_floor,
            wr_ratio=cfg.wr_ratio, seed0=self.seed0, truth=inp.truth,
        )
        n_trials = len(algos) * cfg.n_runs
        walls, aggs = self._repeat(
            lambda i: trial_frame(spark, inp.stream, pattern, inp.M, algos, **kw)
        )
        self.e2e["events_per_s"] = n_trials * len(inp.stream) / median(walls)
        self.info["main_walls_s"] = walls

        rows = None
        if self.traced:
            with self.tracer.span("harness.fanout"):
                sdf = run_trials(spark, inp.stream, pattern, inp.M, algos, **kw)
                rows = sdf.toPandas()
            with self.tracer.span("harness.aggregate"):
                aggs.append(aggregate(spark.createDataFrame(rows)))
            self.layer["harness.tasks"] = sdf.rdd.getNumPartitions()

        # In-process replay outside the timed phase: every (label, run) when
        # traced; untraced, only the WSD-H runs, which pin down the WSD-H row
        # of the timed aggregate exactly.
        truth = inp.truth
        local: dict[str, list[Trial]] = {}
        for label, name, pol in algos:
            if self.traced or label == "WSD-H":
                local[label] = [
                    self.replay(inp, make_sampler(
                        name, inp.M, pattern, self.seed0 + r, policy=pol, wr_ratio=cfg.wr_ratio,
                    ))
                    for r in range(cfg.n_runs)
                ]
        local_are = {l: [are(t.final, float(truth[-1])) for t in ts] for l, ts in local.items()}
        local_mare = {l: [mare(t.est, truth, cfg.mare_floor) for t in ts] for l, ts in local.items()}
        labels = sorted(label for label, _, _ in algos)
        for agg in aggs:
            self.checks.equal("aggregate labels", sorted(agg["label"]), labels)
            for row in agg.itertuples():
                lab = row.label
                self.checks.equal(f"{lab} n_runs", int(row.n_runs), cfg.n_runs)
                if lab not in local:
                    continue
                self.checks.close(f"{lab} mean ARE", row.are, float(np.mean(local_are[lab])))
                self.checks.close(f"{lab} mean MARE", row.mare, float(np.mean(local_mare[lab])))
        if rows is not None:
            self.checks.equal("fan-out row count", len(rows), n_trials)
            inflation = []
            for row in rows.itertuples():
                t = local.get(row.label)
                if t is None or not 0 <= row.run < len(t):
                    self.checks.equal("fan-out row key", (row.label, row.run), None)
                    continue
                key = f"{row.label}/run{row.run}"
                self.checks.equal(f"{key} final", row.final, t[row.run].final)
                self.checks.equal(f"{key} ARE", row.are, local_are[row.label][row.run])
                self.checks.equal(f"{key} MARE", row.mare, local_mare[row.label][row.run])
                inflation.append(row.time_s / t[row.run].seconds)
            kernel_s = sum(t.seconds for ts in local.values() for t in ts)
            fanout_s = self.tracer.first("harness.fanout")
            par = spark.sparkContext.defaultParallelism
            self.layer["harness.parallel_efficiency"] = kernel_s / (fanout_s * par)
            self.layer["harness.time_s_inflation"] = float(np.mean(inflation))
            traced_s = fanout_s + self.tracer.first("harness.aggregate")
            self.layer["trace.overhead_pct"] = (traced_s - median(walls)) / median(walls) * 100
            self._kernel_layers(inp, local, self.seed0)
            self._streaming_layers(inp, local["WSD-H"][0])
        if "WSD-L" in local:
            self.layer["wsd_l_are_pct"] = float(np.mean(local_are["WSD-L"]))
        self._check_truth(inp)
        self._check_full_reservoir(inp)

    def _run_kernel(self, inp: Inputs) -> None:
        pattern, cfg = self.w.pattern, self.cfg
        algos = self._algos(inp)
        seeds = [self.seed0 + k for k in range(KERNEL_SEEDS)]

        def one_round(i: int) -> dict[str, Trial]:
            s = seeds[i % len(seeds)]
            return {
                label: self.replay(inp, make_sampler(
                    name, inp.M, pattern, s, policy=pol, wr_ratio=cfg.wr_ratio,
                ))
                for label, name, pol in algos
            }

        walls, rounds = self._repeat(one_round, min_iters=len(seeds))
        # Per-algorithm medians over the rounds, so one slow trial does not
        # move the rate.
        per_algo_s = [median(r[label].seconds for r in rounds) for label, _, _ in algos]
        self.e2e["events_per_s"] = len(algos) * len(inp.stream) / sum(per_algo_s)
        self.info["main_walls_s"] = walls
        for i in range(len(seeds), len(rounds)):
            for label in rounds[i]:
                self.checks.equal(
                    f"{label} seed {seeds[i % len(seeds)]} repeat {i // len(seeds)} final",
                    rounds[i][label].final, rounds[i - len(seeds)][label].final,
                )
        truth = float(inp.truth[-1])
        self.layer["wsd_l_are_pct"] = float(
            np.mean([are(r["WSD-L"].final, truth) for r in rounds[: len(seeds)]])
        )
        if self.traced:
            by_algo = {label: [r[label] for r in rounds] for label, _, _ in algos}
            wall = self._kernel_layers(inp, by_algo, seeds[0])
            self.layer["trace.overhead_pct"] = (wall - median(walls)) / median(walls) * 100
        self._check_truth(inp)
        self._check_full_reservoir(inp)

    def _stream_query(self, inp: Inputs, tag: str, traced: bool):
        from repro.streaming.windowed import run_streaming_estimate

        proxy = WindowClock(make_sampler("WSD-H", inp.M, self.w.pattern, self.seed0), traced)
        d = self.work / f"stream-{tag}"
        shutil.rmtree(d, ignore_errors=True)
        df = run_streaming_estimate(self.spark, inp.stream, proxy, window_size=WINDOW, work_dir=d)
        shutil.rmtree(d, ignore_errors=True)
        return df, proxy

    def _check_stream(self, df, batch: Trial, n: int) -> None:
        """Every window's estimate against the batch kernel, same seed."""
        ends = np.append(np.arange(WINDOW, n, WINDOW), n)
        self.checks.equal("streaming window count", len(df), len(ends))
        self.checks.equal("streaming last_seq", df["last_seq"].tolist(), (ends - 1).tolist())
        for w, (got, want) in enumerate(zip(df["estimate"].tolist(), batch.window_est.tolist())):
            self.checks.equal(f"streaming window {w} estimate vs batch", got, want)

    def _streaming_layers(self, inp: Inputs, batch: Trial) -> float:
        """One traced streaming query with WSD-H: per-window kernel span and
        micro-batch overhead, plus ``write_event_files`` on the same stream.
        Returns the query's wall time."""
        from repro.streaming.windowed import write_event_files

        t0 = time.perf_counter()
        with self.tracer.span("streaming.query"):
            df, proxy = self._stream_query(inp, "traced", traced=True)
        wall = time.perf_counter() - t0
        win_ms = np.diff(proxy.reads) * 1e3
        kernel_ms = np.asarray(proxy.kernel_s) * 1e3
        self.layer["streaming.windows"] = len(df)
        self.layer["streaming.window_ms_p50"] = float(np.percentile(win_ms, 50))
        self.layer["streaming.window_ms_p80"] = float(np.percentile(win_ms, 80))
        self.layer["streaming.kernel_ms_p50"] = float(np.median(kernel_ms))
        self.layer["streaming.overhead_ms_p50"] = float(np.median(win_ms - kernel_ms[1:]))
        d = self.work / "write-files"
        shutil.rmtree(d, ignore_errors=True)
        with self.tracer.span("streaming.write_files"):
            write_event_files(inp.stream, d, WINDOW)
        shutil.rmtree(d, ignore_errors=True)
        self._check_stream(df, batch, len(inp.stream))
        return wall

    def _run_stream(self, inp: Inputs) -> None:
        n = len(inp.stream)
        # The batch kernel over the same stream and seed is the reference.
        batch = self.replay(inp, make_sampler("WSD-H", inp.M, self.w.pattern, self.seed0))
        walls, outs = self._repeat(lambda i: self._stream_query(inp, str(i), traced=False))
        self.e2e["events_per_s"] = n / median(walls)
        self.info["main_walls_s"] = walls
        win_ms = np.concatenate([np.diff(p.reads) for _, p in outs]) * 1e3
        self.info["window_ms_p50"] = float(np.percentile(win_ms, 50))
        self.info["window_ms_p80"] = float(np.percentile(win_ms, 80))
        for df, _ in outs:
            self._check_stream(df, batch, n)
        if self.traced:
            wall = self._streaming_layers(inp, batch)
            self.layer["trace.overhead_pct"] = (wall - median(walls)) / median(walls) * 100
            self._kernel_layers(inp, {"WSD-H": [batch]}, self.seed0)

    # -- per-layer numbers from spans -----------------------------------------
    def _per_layer_from_spans(self) -> None:
        if not self.traced:
            return
        tr = self.tracer
        for span, metric in (
            ("graphs.generate", "graphs.generate_s"),
            ("graphs.make_stream", "graphs.make_stream_s"),
            ("exact.truth", "exact.truth_s"),
            ("rl.train", "rl.train_s"),
            ("rl.load", "rl.load_s"),
        ):
            if tr.durations(span):
                self.layer[metric] = median(tr.durations(span))
        for span, metric in (
            ("spark.warmup", "spark.warmup_s"),
            ("harness.fanout", "harness.fanout_s"),
            ("harness.aggregate", "harness.aggregate_s"),
            ("streaming.write_files", "streaming.write_files_s"),
        ):
            if tr.durations(span):
                self.layer[metric] = tr.first(span)
