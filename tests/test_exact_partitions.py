"""One certified stage-2 scan behind every exact caller.

Single-node search, the sharded server and the distributed engine are
partitions of ``ExactRBC.plan`` → ``ExactRBC.scan`` → ``merge_topk``.  These
tests check the partitions against each other and every caller against a
float64 oracle that computes ``q - x`` directly, never through the Gram
trick the search uses, on inputs built to break rounding: queries next to
representatives far from the origin, duplicate points, d=1 and k > n.
"""

import numpy as np
import pytest

from repro import (
    BatchPolicy,
    ExactRBC,
    ShardedStreamingSearcher,
    StreamingSearcher,
)
from repro.distributed import ClusterSpec, DistributedRBC
from repro.parallel.reduce import EMPTY_IDX, merge_topk
from repro.simulator import DESKTOP_QUAD

POLICY = BatchPolicy(max_delay_ms=50.0, max_batch=32)


def direct_oracle(Q, X, k):
    """Sorted exact squared k-NN distances from ``q - x`` directly."""
    out = np.full((len(Q), k), np.inf)
    kk = min(k, len(X))
    for r, q in enumerate(Q):
        diff = X - q
        out[r, :kk] = np.sort(np.einsum("ij,ij->i", diff, diff))[:kk]
    return out


def assert_matches_oracle(Q, X, dist, idx, k, label=""):
    """Every slot the oracle fills holds a distinct database id whose direct
    distance is the oracle's (up to ties), and the reported distance is that
    id's; slots past n are padding."""
    want = direct_oracle(Q, X, k)
    live = np.isfinite(want)
    assert idx.shape == dist.shape == (len(Q), k), label
    empty_rows = int(((idx < 0) & live).any(axis=1).sum())
    assert empty_rows == 0, f"{label}: {empty_rows} rows with an empty slot"
    assert (idx[~live] == EMPTY_IDX).all(), label
    for row, ok in zip(idx, live):
        assert np.unique(row[ok]).size == ok.sum(), f"{label}: duplicate id"
    safe = np.clip(idx, 0, len(X) - 1)
    diff = X[safe] - Q[:, None, :]
    got = np.where(live, np.einsum("ijk,ijk->ij", diff, diff), np.inf)
    # absolute bound on any float64 Gram-trick error in the row
    tol = 1e-12 * (np.einsum("ij,ij->i", Q, Q) + np.einsum("ij,ij->i", X, X).max())
    tol = np.broadcast_to(tol[:, None], want.shape)[live]
    got_sorted = np.sort(got, axis=1)[live]
    assert (np.abs(got_sorted - want[live]) <= tol).all(), label
    assert (np.abs(dist[live] ** 2 - got[live]) <= tol + 1e-12 * got[live]).all(), label


def answers_of_every_caller(X, Q, k, n_reps=None):
    """``(label, dist, idx)`` from each exact caller over the same data."""
    out = []
    for engine in (True, False):
        index = ExactRBC(seed=0, engine=engine).build(X, n_reps=n_reps)
        out.append((f"ExactRBC(engine={engine})", *index.query(Q, k=k)))
    index = ExactRBC(seed=0).build(X, n_reps=n_reps)
    for n_shards in (1, 2, 4):
        with ShardedStreamingSearcher(
            index, k=k, policy=POLICY, n_shards=n_shards
        ) as srv:
            rep = srv.search_stream(Q, qps=3000.0)
        out.append((f"sharded({n_shards})", rep.dist, rep.idx))
    eng = DistributedRBC(ClusterSpec.homogeneous(4, DESKTOP_QUAD), seed=0)
    eng.build(X, n_reps=n_reps)
    out.append(("DistributedRBC", *eng.query(Q, k=k)))
    return out


def near_rep_queries(X, n_reps=None, m=200, seed=1):
    """Queries jittered 1e-3 from the representatives every caller uses
    (all build with seed 0, so they sample the same ones)."""
    reps = ExactRBC(seed=0).build(X, n_reps=n_reps).rep_ids
    rng = np.random.default_rng(seed)
    pick = rng.choice(reps, size=m)
    return X[pick] + rng.normal(scale=1e-3, size=(m, X.shape[1]))


# ------------------------------------------------------ near-representative
@pytest.mark.parametrize("offset", [0.0, 10.0, 1000.0])
def test_near_representative_queries_exact_for_every_caller(offset):
    # the query's own representative is its nearest neighbor; its stage-1
    # and stage-2 Gram values differ by an absolute rounding error that a
    # relative survivor threshold used to miss, emptying the row
    X = np.random.default_rng(0).normal(size=(4000, 8)) + offset
    Q = near_rep_queries(X)
    for label, dist, idx in answers_of_every_caller(X, Q, 1):
        assert_matches_oracle(Q, X, dist, idx, 1, label=f"{label} @ {offset}")


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_float32_far_from_origin_is_exact_after_refinement(seed):
    # the float32 Gram error is absolute, ~u (|q|^2 + |x|^2): at offset 1000
    # it dwarfs the neighbor gaps, so a fixed over-fetch count misses true
    # neighbors; every value within twice the bound of the k-th must be kept
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(4000, 8)) + 1000.0
    Q = near_rep_queries(X, seed=seed + 10)
    index = ExactRBC(seed=0, dtype="float32").build(X)
    dist, idx = index.query(Q, k=5)
    assert_matches_oracle(Q, X, dist, idx, 5, label=f"float32 seed {seed}")


# ------------------------------------------------------- hostile inputs
def test_duplicate_points():
    rng = np.random.default_rng(2)
    base = rng.normal(size=(300, 3)) + 50.0
    X = np.concatenate([base, base, base[:100]])
    Q = np.concatenate([base[:20] + 1e-4, rng.normal(size=(20, 3)) + 50.0])
    for label, dist, idx in answers_of_every_caller(X, Q, 4):
        assert_matches_oracle(Q, X, dist, idx, 4, label=label)


def test_one_dimensional_data():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(800, 1)) * 100.0
    Q = np.concatenate([near_rep_queries(X, m=30), rng.normal(size=(10, 1))])
    for label, dist, idx in answers_of_every_caller(X, Q, 3):
        assert_matches_oracle(Q, X, dist, idx, 3, label=label)


def test_k_exceeds_database_size():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(6, 4)) + 10.0
    Q = rng.normal(size=(9, 4)) + 10.0
    for label, dist, idx in answers_of_every_caller(X, Q, 9, n_reps=2):
        assert_matches_oracle(Q, X, dist, idx, 9, label=label)


# ------------------------------------------------------------ partitions
@pytest.mark.parametrize("n_parts", [1, 3, 7])
def test_scan_partitions_merge_to_the_single_node_answer(n_parts):
    rng = np.random.default_rng(5)
    X = rng.normal(size=(3000, 6))
    Q = rng.normal(size=(50, 6))
    index = ExactRBC(seed=0).build(X)
    want = index.query(Q, k=3)
    plan = index.plan(Q, 3)
    reps = np.array_split(rng.permutation(index.n_reps), n_parts)
    dist = np.full((len(Q), 3), np.inf)
    idx = np.full((len(Q), 3), EMPTY_IDX, dtype=np.int64)
    for part in reps:
        rows = np.flatnonzero((plan.cuts[:, part] > 0).any(axis=1))
        if rows.size:
            dist[rows], idx[rows] = merge_topk(
                (dist[rows], idx[rows]), index.scan(plan, rows, part)
            )
    dist, idx = merge_topk((dist, idx), (plan.seed_d, plan.seed_i))
    np.testing.assert_array_equal(idx, want[1])
    np.testing.assert_allclose(dist, want[0], rtol=1e-12)
    assert plan.stats.rule_counts() == index.last_stats.rule_counts()


# -------------------------------------------------------- sharded serving
@pytest.fixture
def served(rng):
    X = rng.normal(size=(2500, 6))
    Q = rng.normal(size=(200, 6))
    return ExactRBC(seed=0).build(X), Q


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(approx_eps=2.0),
        dict(use_psi_rule=False),
        dict(use_3gamma_rule=False),
        dict(use_trim=False),
    ],
)
def test_sharded_honours_query_kwargs(served, kwargs):
    index, Q = served
    with StreamingSearcher(index, k=3, policy=POLICY, **kwargs) as base:
        want = base.search_stream(Q, qps=3000.0)
    with ShardedStreamingSearcher(
        index, k=3, policy=POLICY, n_shards=3, **kwargs
    ) as srv:
        got = srv.search_stream(Q, qps=3000.0)
    np.testing.assert_array_equal(got.idx, want.idx)
    assert (got.dist == want.dist).all()
    assert got.rule_counts == want.rule_counts
    if "approx_eps" in kwargs:
        with StreamingSearcher(index, k=3, policy=POLICY) as exact:
            assert exact.search_stream(Q, qps=3000.0).rule_counts != got.rule_counts


@pytest.mark.parametrize("n_shards", [1, 2, 4])
def test_sharded_rule_counts_equal_single_node(served, n_shards):
    index, Q = served
    with StreamingSearcher(index, k=4, policy=POLICY) as base:
        want = base.search_stream(Q, qps=3000.0)
    with ShardedStreamingSearcher(
        index, k=4, policy=POLICY, n_shards=n_shards
    ) as srv:
        got = srv.search_stream(Q, qps=3000.0)
    assert got.rule_counts == want.rule_counts
    assert got.rule_counts["n_queries"] == len(Q)
    np.testing.assert_array_equal(got.idx, want.idx)
