"""The brute-force primitive BF(Q, X[L])."""

import numpy as np
import pytest

from repro.metrics import EditDistance, Euclidean, get_metric
from repro.parallel import bf_knn, bf_nn, bf_range
from repro.runtime import ExecContext
from repro.simulator import TraceRecorder


def reference_knn(Q, X, k, metric="euclidean"):
    D = get_metric(metric).pairwise(Q, X)
    order = np.argsort(D, axis=1, kind="stable")[:, :k]
    return np.take_along_axis(D, order, axis=1), order


@pytest.mark.parametrize("metric", ["euclidean", "manhattan", "chebyshev"])
@pytest.mark.parametrize("k", [1, 3, 10])
def test_matches_reference(metric, k, small_vectors):
    X, Q = small_vectors
    d, i = bf_knn(Q, X, metric, k=k)
    ed, _ = reference_knn(Q, X, k, metric)
    np.testing.assert_allclose(d, ed)
    # index consistency: distances recomputed from indices agree
    m = get_metric(metric)
    for r in range(Q.shape[0]):
        np.testing.assert_allclose(m.pairwise(Q[r : r + 1], X[i[r]])[0], d[r])


def test_tiny_tiles_match_single_tile(small_vectors):
    X, Q = small_vectors
    d1, i1 = bf_knn(Q, X, k=5)
    d2, i2 = bf_knn(Q, X, k=5, ctx=ExecContext(tile_cols=7))
    np.testing.assert_allclose(d1, d2)


def test_tiny_row_chunks_match(small_vectors):
    X, Q = small_vectors
    d1, _ = bf_knn(Q, X, k=5)
    d2, _ = bf_knn(Q, X, k=5, ctx=ExecContext(row_chunk=3))
    np.testing.assert_allclose(d1, d2)


def test_thread_executor_matches_serial(small_vectors):
    X, Q = small_vectors
    d1, _ = bf_knn(Q, X, k=4)
    d2, _ = bf_knn(Q, X, k=4, ctx=ExecContext(executor="threads", row_chunk=4))
    np.testing.assert_allclose(d1, d2)


def test_process_backend_matches_serial(small_vectors):
    X, Q = small_vectors
    d1, _ = bf_knn(Q, X, k=4)
    d2, _ = bf_knn(
        Q, X, "euclidean", k=4,
        ctx=ExecContext(executor="processes", n_workers=2, row_chunk=8),
    )
    np.testing.assert_allclose(d1, d2)


def test_process_backend_rejects_metric_instance(small_vectors):
    # a metric instance the workers cannot rebuild from the registry by
    # name (here an unregistered subclass) is refused, not approximated
    class Unregistered(Euclidean):
        pass

    X, Q = small_vectors
    with pytest.raises(TypeError):
        bf_knn(Q, X, Unregistered(), k=1, ctx=ExecContext(executor="processes"))


def test_bf_knn_processes_executor_matches_serial(small_vectors):
    # the regression this guards: executor="processes" used to crash with a
    # pickle error on the chunk closure
    X, Q = small_vectors
    d1, i1 = bf_knn(Q, X, k=4)
    d2, i2 = bf_knn(
        Q, X, k=4, ctx=ExecContext(executor="processes", row_chunk=64)
    )
    np.testing.assert_allclose(d1, d2)
    np.testing.assert_array_equal(i1, i2)


def test_bf_knn_processes_counter_credit(small_vectors):
    X, Q = small_vectors
    m = get_metric("euclidean")
    before = m.counter.n_evals
    bf_knn(Q, X, m, k=2, ctx=ExecContext(executor="processes"))
    assert m.counter.n_evals - before == Q.shape[0] * X.shape[0]


def test_bf_knn_processes_string_metric():
    # non-vector metrics can't use shared memory; they go through the
    # pickled-chunk worker, rebuilt by registry name in each worker
    S = ["cat", "cart", "dog", "dig", "cot", "cut", "coat", "dart"]
    Q = ["cut", "dug"]
    d1, i1 = bf_knn(Q, S, "edit", k=3)
    d2, i2 = bf_knn(
        Q, S, "edit", k=3, ctx=ExecContext(executor="processes", row_chunk=1)
    )
    np.testing.assert_array_equal(d1, d2)


def test_bf_knn_processes_default_instance_routed(small_vectors):
    # a pristine registry-metric instance is equivalent to its name and is
    # accepted; only customized instances are rejected
    X, Q = small_vectors
    d1, _ = bf_knn(Q, X, k=2)
    d2, _ = bf_knn(
        Q, X, Euclidean(), k=2, ctx=ExecContext(executor="processes")
    )
    np.testing.assert_allclose(d1, d2)


def test_bf_knn_processes_custom_instance_raises(small_vectors):
    from repro.metrics import Minkowski

    X, Q = small_vectors
    with pytest.raises(TypeError, match="registry"):
        bf_knn(
            Q, X, Minkowski(p=4.0), k=2, ctx=ExecContext(executor="processes")
        )


def test_bf_knn_processes_tracing_raises(small_vectors):
    X, Q = small_vectors
    with pytest.raises(ValueError, match="trace"):
        bf_knn(
            Q, X, k=2,
            ctx=ExecContext(executor="processes", recorder=TraceRecorder()),
        )


def test_bf_knn_processes_ids_restriction(small_vectors, rng):
    X, Q = small_vectors
    L = rng.choice(X.shape[0], size=31, replace=False)
    d1, i1 = bf_knn(Q, X, k=3, ids=L)
    d2, i2 = bf_knn(Q, X, k=3, ids=L, ctx=ExecContext(executor="processes"))
    np.testing.assert_allclose(d1, d2)
    assert set(i2.ravel()) <= set(L.tolist())


def test_ids_restriction(small_vectors, rng):
    X, Q = small_vectors
    L = rng.choice(X.shape[0], size=37, replace=False)
    d, i = bf_knn(Q, X, k=3, ids=L)
    # indices are global and drawn from L
    assert set(i.ravel()) <= set(L.tolist())
    ed, ei = reference_knn(Q, X[L], 3)
    np.testing.assert_allclose(d, ed)


def test_empty_ids_returns_padding(small_vectors):
    X, Q = small_vectors
    d, i = bf_knn(Q, X, k=2, ids=np.array([], dtype=np.int64))
    assert np.isinf(d).all()
    assert (i == -1).all()
    assert d.shape == (Q.shape[0], 2)


def test_k_larger_than_database(rng):
    X = rng.normal(size=(3, 2))
    Q = rng.normal(size=(2, 2))
    d, i = bf_knn(Q, X, k=5)
    assert d.shape == (2, 5)
    assert np.isfinite(d[:, :3]).all()
    assert np.isinf(d[:, 3:]).all()
    assert (i[:, 3:] == -1).all()


def test_single_query_vector(rng):
    X = rng.normal(size=(50, 4))
    q = X[17]  # 1-d array: a single point
    d, i = bf_knn(q, X, k=1)
    assert d.shape == (1, 1)
    assert i[0, 0] == 17
    assert d[0, 0] == pytest.approx(0.0, abs=1e-6)


def test_bf_nn_squeezes(small_vectors):
    X, Q = small_vectors
    d, i = bf_nn(Q, X)
    assert d.shape == (Q.shape[0],)
    assert i.shape == (Q.shape[0],)
    dk, ik = bf_knn(Q, X, k=1)
    np.testing.assert_allclose(d, dk[:, 0])


def test_empty_database_raises(rng):
    with pytest.raises(ValueError, match="empty"):
        bf_knn(rng.normal(size=(2, 3)), np.empty((0, 3)), k=1)


def test_bad_k_raises(small_vectors):
    X, Q = small_vectors
    with pytest.raises(ValueError):
        bf_knn(Q, X, k=0)


def test_string_metric(rng):
    S = ["cat", "cart", "dog", "dig", "cot"]
    d, i = bf_knn(["cut"], S, EditDistance(), k=2)
    assert d[0, 0] == 1.0  # cat or cot
    assert i[0, 0] in (0, 4)


def test_bf_range_matches_reference(small_vectors):
    X, Q = small_vectors
    eps = 2.0
    out = bf_range(Q, X, eps)
    D = get_metric("euclidean").pairwise(Q, X)
    for r, (d, i) in enumerate(out):
        expect = np.flatnonzero(D[r] <= eps)
        assert set(i.tolist()) == set(expect.tolist())
        assert (d <= eps).all()
        assert (np.diff(d) >= 0).all()  # sorted ascending


def test_bf_range_empty_result(rng):
    X = rng.normal(size=(20, 3)) + 100.0
    Q = rng.normal(size=(2, 3))
    out = bf_range(Q, X, 0.5)
    for d, i in out:
        assert d.size == 0 and i.size == 0


def test_bf_range_with_ids(small_vectors, rng):
    X, Q = small_vectors
    L = rng.choice(X.shape[0], size=25, replace=False)
    out = bf_range(Q, X, 3.0, ids=L)
    for d, i in out:
        assert set(i.tolist()) <= set(L.tolist())


def test_bf_range_negative_eps(small_vectors):
    X, Q = small_vectors
    with pytest.raises(ValueError):
        bf_range(Q, X, -1.0)


def test_counter_reflects_all_pairs(small_vectors):
    X, Q = small_vectors
    m = get_metric("euclidean")
    bf_knn(Q, X, m, k=1)
    assert m.counter.n_evals == Q.shape[0] * X.shape[0]


def test_trace_records_gemm_work(small_vectors):
    X, Q = small_vectors
    rec = TraceRecorder()
    m = get_metric("euclidean")
    bf_knn(Q, X, m, k=2, ctx=ExecContext(recorder=rec, tile_cols=100))
    trace = rec.trace
    assert trace.n_ops > 0
    gemm_flops = sum(
        op.flops for p in trace.phases for op in p.ops if op.kind == "gemm"
    )
    expected = Q.shape[0] * X.shape[0] * m.flops_per_eval(X.shape[1])
    assert gemm_flops == pytest.approx(expected)
    # tiling must produce a merge phase
    assert any("merge" in p.name for p in trace.phases)


def test_exhaustive_small_case():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    Q = np.array([[1.2]])
    d, i = bf_knn(Q, X, k=4)
    np.testing.assert_array_equal(i, [[1, 2, 0, 3]])
    np.testing.assert_allclose(d, [[0.2, 0.8, 1.2, 1.8]])


def test_thread_backend_scheduler_chunks_match_serial(rng):
    """The scheduler-planned thread chunking is invisible in the results."""

    X = rng.normal(size=(700, 9))
    Q = rng.normal(size=(150, 9))
    ds, is_ = bf_knn(Q, X, k=4)
    # no row_chunk override: the thread path plans via plan_row_chunks
    dt, it = bf_knn(Q, X, k=4, ctx=ExecContext(executor="threads", n_workers=3))
    np.testing.assert_array_equal(is_, it)
    np.testing.assert_allclose(ds, dt)
