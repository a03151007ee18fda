"""Rank function and reservoir data-structure tests."""
import numpy as np
import pytest

from repro.core.ranks import contribution, inclusion_prob, rank
from repro.core.reservoir import EdgeRecord, Reservoir


def test_rank_positive_and_at_least_weight():
    rng = np.random.default_rng(0)
    for w in [0.5, 1.0, 10.0]:
        rs = [rank(w, rng) for _ in range(200)]
        assert all(r >= w for r in rs), "u in (0,1] implies r = w/u >= w"


def test_rank_rejects_nonpositive_weight():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        rank(0.0, rng)
    with pytest.raises(ValueError):
        rank(-1.0, rng)


def test_rank_distribution():
    """P[w/u > tau] = min(1, w/tau): check empirically."""
    rng = np.random.default_rng(1)
    w, tau = 2.0, 10.0
    hits = sum(rank(w, rng) > tau for _ in range(20000)) / 20000
    assert abs(hits - w / tau) < 0.01


def test_inclusion_prob():
    assert inclusion_prob(5.0, 0.0) == 1.0
    assert inclusion_prob(5.0, 10.0) == 0.5
    assert inclusion_prob(20.0, 10.0) == 1.0


def _contribution_reference(instances, records, tau):
    """Algorithm 2's sum composed from ``inclusion_prob``, term by term."""
    total = 0.0
    for other_edges in instances:
        p = 1.0
        for k in other_edges:
            p *= inclusion_prob(records[k].weight, tau)
        total += 1.0 / p
    return total


def test_contribution_bit_identical_to_inclusion_prob_reference():
    """The inlined probability must give the same IEEE result, including
    weights equal to, just below and just above the threshold. Instances are
    passed as records, the form ``Reservoir.instances`` returns: one record
    per instance at arity 1 (wedges), a tuple of records otherwise."""
    rng = np.random.default_rng(9)
    for trial in range(300):
        tau = [0.0, 1.0, float(rng.uniform(0.5, 50.0))][trial % 3]
        near = [tau, np.nextafter(tau, 0.0), np.nextafter(tau, np.inf)] if tau else []
        keys = [(i, i + 1) for i in range(12)]
        weights = [float(x) for x in rng.uniform(0.1, 60.0, len(keys) - len(near))]
        records = {
            k: EdgeRecord(float(w), 0.0, 0, i)
            for i, (k, w) in enumerate(zip(keys, weights + near))
        }
        arity = int(rng.integers(1, 6))
        instances = [
            tuple(keys[j] for j in rng.choice(len(keys), arity, replace=False))
            for _ in range(int(rng.integers(0, 8)))
        ]
        if arity == 1:
            recs = [records[k] for (k,) in instances]
        else:
            recs = [tuple(records[k] for k in other) for other in instances]
        got = contribution(recs, tau)
        assert got.hex() == _contribution_reference(instances, records, tau).hex()


def test_reservoir_add_and_membership():
    r = Reservoir(3)
    r.add((0, 1), 1.0, 5.0, 1)
    assert (0, 1) in r and len(r) == 1
    assert r.degree(0) == 1 and r.degree(1) == 1 and r.degree(2) == 0


def test_reservoir_capacity():
    r = Reservoir(2)
    r.add((0, 1), 1.0, 5.0, 1)
    r.add((1, 2), 1.0, 6.0, 2)
    assert r.full
    with pytest.raises(OverflowError):
        r.add((2, 3), 1.0, 7.0, 3)


def test_reservoir_duplicate_add_raises():
    r = Reservoir(3)
    r.add((0, 1), 1.0, 5.0, 1)
    with pytest.raises(KeyError):
        r.add((0, 1), 1.0, 6.0, 2)


def test_reservoir_min_and_pop():
    r = Reservoir(4)
    r.add((0, 1), 1.0, 5.0, 1)
    r.add((1, 2), 1.0, 3.0, 2)
    r.add((2, 3), 1.0, 8.0, 3)
    key, rec = r.min_entry()
    assert key == (1, 2) and rec.rank == 3.0
    pkey, _ = r.pop_min()
    assert pkey == (1, 2) and (1, 2) not in r
    assert r.min_entry()[0] == (0, 1)


def test_reservoir_remove_updates_adjacency():
    r = Reservoir(4)
    r.add((0, 1), 1.0, 5.0, 1)
    r.add((1, 2), 1.0, 3.0, 2)
    r.remove((1, 2))
    assert r.degree(1) == 1 and r.degree(2) == 0
    # lazy heap entry for the removed edge must be skipped
    assert r.min_entry()[0] == (0, 1)


def test_reservoir_remove_then_readd_same_key():
    r = Reservoir(4)
    r.add((0, 1), 1.0, 5.0, 1)
    r.remove((0, 1))
    r.add((0, 1), 2.0, 2.0, 3)  # re-inserted with a new rank
    key, rec = r.min_entry()
    assert key == (0, 1) and rec.rank == 2.0 and rec.weight == 2.0


def test_reservoir_tag_zombie_semantics():
    """GPS-A: tagged edges keep occupying capacity but leave the adjacency."""
    r = Reservoir(2)
    r.add((0, 1), 1.0, 5.0, 1)
    r.add((1, 2), 1.0, 3.0, 2)
    r.tag((1, 2))
    assert len(r) == 2 and r.full, "zombie still occupies capacity"
    assert r.degree(2) == 0 and r.degree(1) == 1
    # zombie is still evictable by rank
    key, rec = r.min_entry()
    assert key == (1, 2) and rec.tagged
    r.pop_min()
    assert (1, 2) not in r and len(r) == 1


def test_reservoir_tag_idempotent():
    r = Reservoir(2)
    r.add((0, 1), 1.0, 5.0, 1)
    r.tag((0, 1))
    r.tag((0, 1))
    assert len(r) == 1


def test_reservoir_empty_min_raises():
    r = Reservoir(2)
    with pytest.raises(IndexError):
        r.min_entry()


def test_reservoir_invalid_capacity():
    with pytest.raises(ValueError):
        Reservoir(0)


def test_reservoir_many_ops_heap_consistency():
    rng = np.random.default_rng(2)
    r = Reservoir(50)
    live = {}
    uid = 0
    for _ in range(2000):
        if live and (rng.random() < 0.45 or r.full):
            key = list(live)[int(rng.integers(0, len(live)))]
            r.remove(key)
            del live[key]
        else:
            while True:
                key = (int(rng.integers(0, 100)), int(rng.integers(100, 200)))
                if key not in live:
                    break
            rk = float(rng.random() * 100)
            r.add(key, 1.0, rk, uid)
            live[key] = rk
            uid += 1
        if live:
            mk, mrec = r.min_entry()
            assert mrec.rank == min(live.values())
            assert live[mk] == mrec.rank
