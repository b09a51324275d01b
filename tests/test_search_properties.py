"""Property-based tests across the search structures.

These complement the per-structure suites with randomized cross-checks:
every exact structure must agree with brute force on arbitrary data, and
the approximate structures must respect their contracts.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.baselines import GNAT, BallTree, CoverTree, KDTree, VPTree
from repro.core import ExactRBC, OneShotRBC
from repro.parallel import bf_knn

FINITE = st.floats(min_value=-100, max_value=100, allow_nan=False)
SMALL_DATA = arrays(
    np.float64, st.tuples(st.integers(10, 50), st.integers(1, 4)),
    elements=FINITE,
)


@settings(max_examples=20, deadline=None)
@given(SMALL_DATA, st.integers(1, 3), st.integers(0, 999))
def test_property_all_exact_structures_agree(X, k, seed):
    Q = X[:: max(1, X.shape[0] // 5)]
    ref, _ = bf_knn(Q, X, k=k)
    for index in (
        ExactRBC(seed=seed),
        CoverTree(),
        KDTree(leaf_size=4),
        BallTree(leaf_size=4, seed=seed),
        VPTree(leaf_size=4, seed=seed),
        GNAT(arity=3, leaf_size=6, seed=seed),
    ):
        index.build(X)
        d, _ = index.query(Q, k=k)
        np.testing.assert_allclose(
            d, ref, atol=2e-5, err_msg=type(index).__name__
        )


@settings(max_examples=20, deadline=None)
@given(SMALL_DATA, st.integers(0, 999))
def test_property_oneshot_never_beats_optimal(X, seed):
    # the one-shot answer is drawn from the database, so its distance can
    # never be below the true NN distance (sanity for the merge logic)
    Q = X[:5]
    true_d, _ = bf_knn(Q, X, k=1)
    rbc = OneShotRBC(seed=seed).build(X)
    d, i = rbc.query(Q, k=1)
    assert (d[:, 0] >= true_d[:, 0] - 2e-5).all()
    # and every returned index is a real database id
    assert ((i >= 0) & (i < X.shape[0])).all()


@settings(max_examples=20, deadline=None)
@given(SMALL_DATA, st.floats(min_value=0.0, max_value=3.0), st.integers(0, 99))
# queries 0.01 from representatives far from the origin: the stage-1 and
# stage-2 Gram values of the nearest representative differ by an absolute
# rounding error that an uncertified survivor threshold drops (empty row)
@example(
    X=np.round(np.random.default_rng(94).normal(size=(50, 2)) * 3 + 100.0, 3),
    eps=0.0,
    seed=94,
)
def test_property_approx_contract(X, eps, seed):
    Q = X[:4] + 0.01
    true_d, _ = bf_knn(Q, X, k=1)
    rbc = ExactRBC(seed=seed).build(X)
    d, _ = rbc.query(Q, k=1, approx_eps=eps)
    assert (d[:, 0] <= (1 + eps) * true_d[:, 0] + 2e-5).all()


@settings(max_examples=15, deadline=None)
@given(SMALL_DATA, st.floats(min_value=0.1, max_value=20.0))
def test_property_range_query_complete(X, eps):
    from repro.parallel import bf_range

    Q = X[:3]
    rbc = ExactRBC(seed=0).build(X)
    got = rbc.range_query(Q, eps)
    expect = bf_range(Q, X, eps)
    for (gd, gi), (ed, ei) in zip(got, expect):
        assert set(gi.tolist()) == set(ei.tolist())


@settings(max_examples=20, deadline=None)
@given(SMALL_DATA, st.integers(1, 4), st.integers(0, 99))
def test_property_returned_distances_are_real(X, k, seed):
    # every (dist, idx) pair the index returns must satisfy
    # dist == rho(q, X[idx]) — guards against bookkeeping bugs
    Q = X[:4]
    rbc = ExactRBC(seed=seed).build(X)
    d, i = rbc.query(Q, k=k)
    m = rbc.metric
    for r in range(Q.shape[0]):
        for c in range(k):
            if i[r, c] >= 0:
                true = m.pairwise(Q[r : r + 1], X[i[r, c]][None])[0, 0]
                # abs tol covers sq-euclidean cancellation noise, which
                # differs between block shapes for the same pair
                assert d[r, c] == pytest.approx(true, abs=1e-5)
