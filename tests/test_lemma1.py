"""Lemma 1 as a property of the sample, not only of ``inclusion_prob``: an
edge alive at the end of the stream is sampled (untagged) with probability
``min(1, w/tau_q)``, so the Horvitz–Thompson count of sampled alive edges,
Σ_{e∈R untagged} 1 / inclusion_prob(w_e, tau_q), is an unbiased estimate of
the number of alive edges.

Each cell is a fixed-seed z-test over 300 seeds with |z| ≤ 4, a Bonferroni
bound over the four cells (a false alarm per cell is about 6e-5)."""
import numpy as np
import pytest

from repro.core.ranks import inclusion_prob
from repro.exact.spark_counts import alive_edges
from repro.graphs.generators import generate
from repro.graphs.streams import make_stream
from repro.harness.config import BENCH
from repro.harness.factory import make_sampler

SEEDS = 300
Z_MAX = 4.0


def _ht_alive_count(sampler) -> float:
    tau = sampler.tau_q
    return sum(
        1.0 / inclusion_prob(rec.weight, tau)
        for rec in sampler.res.records.values()
        if not rec.tagged
    )


@pytest.fixture(scope="module")
def tx_edges():
    return generate("soc-TX", scale=0.1)


@pytest.mark.parametrize("scenario", ["light", "massive"])
@pytest.mark.parametrize("algo", ["WSD-H", "GPS-A"])
def test_ht_alive_edge_count_unbiased(tx_edges, algo, scenario):
    # With stream seed 0 the massive stream deletes at this scale; with many
    # other seeds it does not.
    stream = make_stream(
        tx_edges, scenario, alpha=BENCH.alpha, beta_m=BENCH.beta_m,
        beta_l=BENCH.beta_l, seed=0,
    )
    assert (stream["op"] < 0).any()
    truth = len(alive_edges(stream))
    events = list(zip(stream["op"].tolist(), stream["u"].tolist(), stream["v"].tolist()))
    counts = []
    for seed in range(SEEDS):
        s = make_sampler(algo, 60, "triangle", seed)
        for op, u, v in events:
            s.process(op, u, v)
        counts.append(_ht_alive_count(s))
    counts = np.asarray(counts)
    se = counts.std(ddof=1) / np.sqrt(SEEDS)
    assert se > 0
    z = (counts.mean() - truth) / se
    assert abs(z) <= Z_MAX, f"mean {counts.mean():.1f} vs {truth} alive edges, z = {z:.2f}"
