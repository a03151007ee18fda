"""Spark Monte-Carlo fan-out tests: parity with local execution and
oracle-checked aggregation."""
import numpy as np
import pandas as pd
import pytest

from repro.core.runner import are, mare, run_trial
from repro.exact.incremental import truth_trajectory
from repro.graphs.generators import generate
from repro.graphs.streams import make_stream
from repro.harness.factory import make_sampler
from repro.harness.trials import aggregate, run_trials, trial_frame
from repro.oracle import assert_equivalent
from repro.rl.policy import heuristic_init_params


@pytest.fixture(scope="module")
def setting():
    edges = generate("cit-HE", scale=0.06)
    stream = make_stream(edges, "light", beta_l=0.2, seed=3)
    ck = max(1, len(stream) // 10)
    _, truth = truth_trajectory(stream, "triangle", ck)
    return {"stream": stream, "ck": ck, "truth": truth, "M": 60}


ALGOS = [("WSD-H", "WSD-H", None), ("Triest", "Triest", None), ("ThinkD", "ThinkD", None)]


def _fanout(spark, setting, algos, n_runs):
    return run_trials(
        spark, setting["stream"], "triangle", setting["M"], algos,
        n_runs=n_runs, ckpt_every=setting["ck"], truth=setting["truth"],
    )


def test_spark_trials_match_local(spark, setting):
    """Every (algo, run) trial in the fan-out must equal the same trial run
    sequentially on the driver, bit for bit — full determinism across the
    cluster."""
    sdf = _fanout(spark, setting, ALGOS, 2)
    assert sdf.rdd.getNumPartitions() == min(6, spark.sparkContext.defaultParallelism)
    res = sdf.toPandas()
    for _, row in res.iterrows():
        sampler = make_sampler(row["label"], setting["M"], "triangle", int(row["run"]))
        local = run_trial(setting["stream"], sampler, setting["ck"])
        assert local["final"] == row["final"]
        assert are(local["final"], setting["truth"][-1]) == row["are"]
        assert mare(local["est"], setting["truth"]) == row["mare"]


@pytest.mark.parametrize(
    "algos, n_runs",
    [
        (ALGOS[:1], 2),  # fewer trials than cores
        (ALGOS, 3),  # 9 trials: an uneven split over the tasks
    ],
)
def test_fanout_one_task_per_core(spark, setting, algos, n_runs):
    """One shuffle-free task per core (never more than there are trials),
    and every (label, run) runs exactly once."""
    sdf = _fanout(spark, setting, algos, n_runs)
    n_trials = len(algos) * n_runs
    n_tasks = min(n_trials, spark.sparkContext.defaultParallelism)
    assert sdf.rdd.getNumPartitions() == n_tasks
    res = sdf.toPandas()
    keys = sorted(zip(res["label"], res["run"]))
    assert keys == sorted((l, r) for l, _, _ in algos for r in range(n_runs))
    assert (res["concurrency"] == n_tasks).all()


def test_trial_frame_aggregates_all_algos(spark, setting):
    agg = trial_frame(
        spark, setting["stream"], "triangle", setting["M"], ALGOS,
        n_runs=3, ckpt_every=setting["ck"], truth=setting["truth"],
    )
    assert sorted(agg["label"]) == sorted(l for l, _, _ in ALGOS)
    assert (agg["n_runs"] == 3).all()
    assert (agg["time_s"] > 0).all()


def test_aggregate_matches_duckdb_oracle(spark, setting):
    """The aggregation ``aggregate`` tabulates is itself
    oracle-checked, the concurrency each time_s was taken under included."""
    pdf = _fanout(spark, setting, ALGOS, 3).toPandas()
    assert_equivalent(
        aggregate(spark.createDataFrame(pdf)),
        """SELECT label, avg(are) AS are, avg(mare) AS mare, avg(time_s) AS time_s,
                  max(concurrency) AS concurrency, count(run) AS n_runs
           FROM trials GROUP BY label""",
        trials=pdf,
    )


def test_wsdl_runs_in_fanout_with_policy(spark, setting):
    pol = heuristic_init_params("triangle")
    algos = [("WSD-L", "WSD-L", {"W": pol["W"], "b": pol["b"], "pattern": "triangle", "variant": "max"}),
             ("WSD-H", "WSD-H", None)]
    agg = trial_frame(
        spark, setting["stream"], "triangle", setting["M"], algos,
        n_runs=2, ckpt_every=setting["ck"], truth=setting["truth"],
    )
    a = agg.set_index("label")
    # warm-start policy ≡ heuristic: identical metrics per seed
    assert a.loc["WSD-L", "are"] == pytest.approx(a.loc["WSD-H", "are"])


def test_factory_unknown_algo():
    with pytest.raises(ValueError):
        make_sampler("Magic", 10, "triangle", 0)


def test_factory_wsdl_requires_policy():
    with pytest.raises(ValueError):
        make_sampler("WSD-L", 10, "triangle", 0)
