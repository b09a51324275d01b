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


# ------------------------------------------- engine scan vs collect-all
def collect_all_scan(index, plan, rows=slice(None), reps=None):
    """Reference engine scan without the per-group cap: every survivor under
    the certified threshold is collected group by group, one stable
    ``lexsort`` ranks them and each row keeps its first k (float64)."""
    metric = index.metric
    ridx = np.arange(len(plan.D_R))[rows]
    cuts = plan.cuts[rows] if reps is None else plan.cuts[rows][:, reps]
    c = ridx.size
    k = plan.k
    Qp = plan.Qp
    Cp = index._prepared_cands(str(Qp.data.dtype))
    squared = metric.squared_ok
    acc_r = [np.empty(0, dtype=np.int64)]
    acc_d = [np.empty(0)]
    acc_g = [np.empty(0, dtype=np.int64)]
    for jj in np.flatnonzero(cuts.any(axis=0)):
        j = int(jj if reps is None else reps[jj])
        sel = np.flatnonzero(cuts[:, jj])
        cut = cuts[sel, jj]
        plen = int(cut.max())
        prefix = index.lists[j][:plen]
        ragged = int(cut.min()) < plen
        if ragged:
            inside = np.arange(plen)[None, :] < cut[:, None]
        lo = int(index.packed.starts[j])
        D = metric.pairwise_prepared(
            Qp.take(ridx[sel]), Cp.slice(lo, lo + plen), squared=squared
        )
        mask = D <= plan.thr[ridx[sel], None]
        if ragged:
            mask &= inside
        flat = np.flatnonzero(mask)
        rr, cc = np.divmod(flat, plen)
        acc_r.append(sel[rr])
        acc_d.append(D.reshape(-1)[flat].astype(np.float64, copy=False))
        acc_g.append(prefix[cc])
    r_all, d_all = np.concatenate(acc_r), np.concatenate(acc_d)
    order = np.lexsort((d_all, r_all))
    r_s = r_all[order]
    rank = np.arange(r_s.size) - np.searchsorted(r_s, np.arange(c + 1))[r_s]
    top = rank < k
    dists = np.full((c, k), np.inf)
    idxs = np.full((c, k), EMPTY_IDX, dtype=np.int64)
    dists[r_s[top], rank[top]] = d_all[order][top]
    idxs[r_s[top], rank[top]] = np.concatenate(acc_g)[order][top]
    if squared:
        dists = metric.from_squared(dists)
    return dists, idxs


def _duplicates():
    rng = np.random.default_rng(2)
    base = rng.normal(size=(300, 3)) + 50.0
    X = np.concatenate([base, base, base[:100]])
    Q = np.concatenate([base[:20] + 1e-4, base[20:40], rng.normal(size=(20, 3)) + 50.0])
    return ExactRBC(seed=0, metric="euclidean").build(X), Q, 4


def _gaussian(metric):
    rng = np.random.default_rng(6)
    X = rng.normal(size=(3000, 5))
    return ExactRBC(seed=0, metric=metric).build(X), rng.normal(size=(120, 5)), 3


def _k_exceeds_reps():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(200, 4))
    index = ExactRBC(seed=0, rep_scheme="exact").build(X, n_reps=3)
    return index, rng.normal(size=(30, 4)), 9


def _after_updates(n_reps=40, k=5):
    rng = np.random.default_rng(8)
    X = rng.normal(size=(1500, 4))
    index = ExactRBC(seed=0, rep_scheme="exact").build(X, n_reps=n_reps)
    for p in rng.normal(size=(60, 4)):
        index.insert(p)
    reps = set(index.rep_ids.tolist())
    for gid in [g for g in rng.choice(1500, 80, replace=False) if g not in reps]:
        index.delete(int(gid))
    index.delete(int(index.rep_ids[5]))
    assert index.packed.capacity > index.packed.total  # slack rows exist
    return index, rng.normal(size=(50, 4)), k


def _one_dimensional():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(800, 1)) * 100.0
    return ExactRBC(seed=0).build(X), rng.normal(size=(40, 1)) * 100.0, 3


SCAN_CASES = {
    "duplicates": _duplicates,
    "gaussian-euclidean": lambda: _gaussian("euclidean"),
    "gaussian-manhattan": lambda: _gaussian("manhattan"),
    "k-exceeds-reps": _k_exceeds_reps,
    "after-updates": _after_updates,
    # gamma = inf: every bound passes the slack rows' inf, cuts clip to length
    "after-updates-k-exceeds-reps": lambda: _after_updates(n_reps=6, k=9),
    "one-dimensional": _one_dimensional,
}


@pytest.mark.parametrize("case", sorted(SCAN_CASES))
def test_scan_bit_identical_to_collect_all_ranking(case):
    # the per-group cap keeps each row's k smallest values and their ties
    # in emission order, so the final ranking picks exactly what ranking
    # every survivor picked: same ids, same distances, ties included
    index, Q, k = SCAN_CASES[case]()
    plan = index.plan(Q, k)
    cuts = plan.cuts
    ragged = [np.unique(col[col > 0]).size > 1 for col in cuts.T]
    # ragged groups everywhere but where gamma = inf scans whole lists
    assert any(ragged) or np.isinf(plan.gamma).all()
    m = len(Q)
    rng = np.random.default_rng(0)
    row_sets = [slice(None), np.sort(rng.choice(m, m // 2, replace=False))]
    rep_sets = [None] + list(np.array_split(rng.permutation(index.n_reps), 3))
    for rows in row_sets:
        for reps in rep_sets:
            got = index.scan(plan, rows, reps)
            want = collect_all_scan(index, plan, rows, reps)
            np.testing.assert_array_equal(got[1], want[1])
            np.testing.assert_array_equal(got[0], want[0])


def per_list_cuts(index, plan, approx_eps=0.0, use_trim=True, slack=0.0):
    """Claim-2 cuts and trim count from one ``searchsorted`` per list."""
    ge = plan.gamma / (1.0 + approx_eps)
    cuts = np.zeros_like(plan.cuts)
    trimmed = 0
    for j in np.flatnonzero(plan.keep.any(axis=0)):
        size = index.lists[j].size
        rows = np.flatnonzero(plan.keep[:, j])
        if size and use_trim:
            bound = (plan.D_R[rows, j] + ge[rows]) * (1.0 + slack)
            cut = np.searchsorted(index.list_dists[j], bound, side="right")
            trimmed += int(rows.size * size - cut.sum())
            cuts[rows, j] = cut
        else:
            cuts[rows, j] = size
    return cuts, trimmed


@pytest.mark.parametrize(
    "kwargs",
    [dict(), dict(approx_eps=0.5), dict(use_trim=False), dict(use_psi_rule=False)],
)
@pytest.mark.parametrize(
    "case", ["after-updates", "after-updates-k-exceeds-reps", "duplicates"]
)
def test_one_call_trim_equals_per_list_searchsorted(case, kwargs):
    index, Q, k = SCAN_CASES[case]()
    for dtype, slack in (("float64", 0.0), ("float32", 1e-4)):
        plan = index.plan(Q, k, ctx=ExecContext(dtype=dtype), **kwargs)
        want, trimmed = per_list_cuts(
            index, plan, kwargs.get("approx_eps", 0.0),
            kwargs.get("use_trim", True), slack,
        )
        np.testing.assert_array_equal(plan.cuts, want)
        assert plan.stats.trimmed_by_4gamma == trimmed
    # the key's slack rows sort after every live distance of their list
    key = index._trim_key()
    owner, live = index.packed.row_owners()
    assert (key.real == owner).all()
    assert np.isinf(key.imag[~live]).all()
    assert (np.diff(key.imag[live]) >= 0)[np.diff(owner[live]) == 0].all()


def test_rep_positions_match_per_list_lookup():
    index, _, _ = _after_updates()
    owner, pos = index._rep_positions()
    for r, gid in enumerate(index.rep_ids):
        hits = [(j, int(np.flatnonzero(lst == gid)[0]))
                for j, lst in enumerate(index.lists) if (lst == gid).any()]
        assert hits == ([(int(owner[r]), int(pos[r]))] if owner[r] >= 0 else [])
