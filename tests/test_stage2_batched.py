"""Batched stage 2 of the exact search vs a slow per-query reference.

The batched kernels (vectorized pruning, grouped scans, seed reuse) must be
*semantically invisible*: identical ``(dist, idx)`` answers and identical
batching-invariant ``SearchStats`` counters (``rule_counts()``) compared to
a straightforward per-query implementation of the same rules.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ExactRBC
from repro.parallel import bf_knn
from repro.parallel.reduce import EMPTY_IDX
from repro.runtime import ExecContext


def reference_query(index, Q, k, *, use_psi_rule=True, use_3gamma_rule=True,
                    use_trim=True, approx_eps=0.0):
    """Per-query mirror of the exact stage 2 (the pre-batching formulation).

    Semantics: psi / 3-gamma rules per representative, Claim-2 prefix trim,
    candidates gathered per query, seeded with the k nearest representatives
    (their stage-1 distances reused, like the batched kernel).  Returns
    ``(dist, idx, counts)`` with ``counts`` matching ``SearchStats.rule_counts``.
    """
    metric = index.metric
    Qb = Q if isinstance(Q, (list, np.ndarray)) and np.ndim(Q) != 1 else metric._as_batch(Q)
    m = metric.length(Qb)
    nr = index.n_reps
    D_R = metric.pairwise(Qb, index.rep_data) if isinstance(Qb, np.ndarray) else \
        np.stack([metric.pairwise(metric.take(Qb, [i]), index.rep_data)[0]
                  for i in range(m)])
    if nr >= k:
        gamma = np.partition(D_R, k - 1, axis=1)[:, k - 1]
    else:
        gamma = np.full(m, np.inf)
    gamma_eff = gamma / (1.0 + approx_eps)

    counts = dict(n_queries=m, pruned_by_psi=0, pruned_by_3gamma=0,
                  trimmed_by_4gamma=0, candidates_examined=0)
    dists = np.full((m, k), np.inf)
    idxs = np.full((m, k), EMPTY_IDX, dtype=np.int64)
    for i in range(m):
        d_row = D_R[i]
        keep = np.ones(nr, dtype=bool)
        if use_psi_rule:
            kept = d_row - index.radii < gamma_eff[i]
            counts["pruned_by_psi"] += int(nr - kept.sum())
            keep &= kept
        if use_3gamma_rule:
            kept = d_row <= 3.0 * gamma[i]
            counts["pruned_by_3gamma"] += int(np.count_nonzero(keep & ~kept))
            keep &= kept
        parts = []
        for j in np.flatnonzero(keep):
            lst = index.lists[j]
            if lst.size == 0:
                continue
            if use_trim:
                cut = np.searchsorted(
                    index.list_dists[j], d_row[j] + gamma_eff[i], side="right"
                )
                counts["trimmed_by_4gamma"] += int(lst.size - cut)
                parts.append(lst[:cut])
            else:
                parts.append(lst)
        kk = min(k, nr)
        seed_pos = np.argpartition(d_row, kk - 1)[:kk]
        scanned = (np.concatenate(parts) if parts
                   else np.empty(0, dtype=np.int64))
        extra = seed_pos[~np.isin(index.rep_ids[seed_pos], scanned)]
        counts["candidates_examined"] += int(scanned.size + extra.size)

        if scanned.size:
            cd = metric.pairwise(
                metric.take(Qb, [i]), metric.take(index.X, scanned)
            )[0]
        else:
            cd = np.empty(0)
        all_d = np.concatenate([cd, d_row[extra]])
        all_i = np.concatenate([scanned, index.rep_ids[extra]])
        order = np.argsort(all_d, kind="stable")[:k]
        dists[i, : order.size] = all_d[order]
        idxs[i, : order.size] = all_i[order]
    return dists, idxs, counts


FLAGS = [
    dict(),
    dict(use_psi_rule=False),
    dict(use_3gamma_rule=False),
    dict(use_trim=False),
    dict(use_psi_rule=False, use_3gamma_rule=False, use_trim=False),
]


@pytest.mark.parametrize("metric", ["euclidean", "manhattan", "chebyshev"])
@pytest.mark.parametrize("flags", FLAGS)
def test_batched_matches_reference_rules(metric, flags):
    rng = np.random.default_rng(5)
    X = rng.normal(size=(600, 5))
    Q = rng.normal(size=(40, 5))
    index = ExactRBC(metric=metric, seed=1).build(X)
    d, i = index.query(Q, k=3, **flags)
    rd, ri, rc = reference_query(index, Q, 3, **flags)
    np.testing.assert_allclose(d, rd, rtol=1e-9, atol=1e-9)
    np.testing.assert_array_equal(i, ri)
    assert index.last_stats.rule_counts() == rc


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    k=st.integers(1, 6),
    approx_eps=st.sampled_from([0.0, 0.1, 1.0]),
    n_reps=st.integers(1, 80),
    flag_idx=st.integers(0, len(FLAGS) - 1),
)
def test_property_batched_equals_reference(seed, k, approx_eps, n_reps, flag_idx):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(300, 3))
    Q = rng.normal(size=(17, 3))
    flags = FLAGS[flag_idx]
    index = ExactRBC(seed=seed, rep_scheme="exact").build(X, n_reps=n_reps)
    d, i = index.query(Q, k=k, approx_eps=approx_eps, **flags)
    rd, ri, rc = reference_query(index, Q, k, approx_eps=approx_eps, **flags)
    np.testing.assert_allclose(d, rd, rtol=1e-9, atol=1e-9)
    np.testing.assert_array_equal(i, ri)
    assert index.last_stats.rule_counts() == rc


def test_batched_matches_reference_edit_distance():
    # integer-valued metric: distance ties everywhere, so compare distances
    # and counters (ids are ambiguous under ties by design)
    from repro.data import random_strings
    from repro.metrics import EditDistance

    S = random_strings(250, seed=0)
    Q = random_strings(12, seed=1)
    index = ExactRBC(metric=EditDistance(), seed=0).build(S)
    d, _ = index.query(Q, k=3)
    rd, _, rc = reference_query(index, Q, 3)
    np.testing.assert_array_equal(d, rd)
    assert index.last_stats.rule_counts() == rc


def test_batched_candidate_count_preserved_on_headline_config():
    # the batched scan must examine exactly the candidates the per-query
    # formulation would (no silent widening from group padding)
    rng = np.random.default_rng(0)
    X = rng.normal(size=(4000, 4))
    Q = rng.normal(size=(300, 4))
    index = ExactRBC(seed=0).build(X)
    d, i = index.query(Q, k=1)
    rd, ri, rc = reference_query(index, Q, 1)
    np.testing.assert_allclose(d, rd, rtol=1e-9, atol=1e-9)
    np.testing.assert_array_equal(i, ri)
    assert index.last_stats.rule_counts() == rc
    true_d, _ = bf_knn(Q, X, k=1)
    np.testing.assert_allclose(d, true_d, rtol=1e-9, atol=1e-7)


def test_batched_after_insert_delete():
    # dynamic updates shuffle list membership; the rep-position map used by
    # the seed dedup must stay consistent
    rng = np.random.default_rng(3)
    X = rng.normal(size=(500, 4))
    Q = rng.normal(size=(20, 4))
    index = ExactRBC(seed=0, rep_scheme="exact").build(X, n_reps=25)
    for p in rng.normal(size=(10, 4)):
        index.insert(p)
    victims = [int(g) for g in rng.choice(500, size=5, replace=False)
               if g not in set(index.rep_ids.tolist())][:3]
    for gid in victims:
        index.delete(gid)
    d, i = index.query(Q, k=4)
    rd, ri, rc = reference_query(index, Q, 4)
    np.testing.assert_allclose(d, rd, rtol=1e-9, atol=1e-9)
    np.testing.assert_array_equal(i, ri)
    assert index.last_stats.rule_counts() == rc


def test_batched_thread_executor_same_stats(small_vectors):
    X, Q = small_vectors
    serial = ExactRBC(seed=0).build(X)
    d1, i1 = serial.query(Q, k=3)
    c1 = serial.last_stats.rule_counts()
    threaded = ExactRBC(seed=0).build(X)
    d2, i2 = threaded.query(Q, k=3, ctx=ExecContext(executor="threads"))
    c2 = threaded.last_stats.rule_counts()
    np.testing.assert_allclose(d1, d2)
    np.testing.assert_array_equal(i1, i2)
    assert c1 == c2
