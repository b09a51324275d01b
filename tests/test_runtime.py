"""The unified execution runtime: ExecContext, executor_scope, merging.

The contract under test: ``ctx=ExecContext(...)`` carries a run's
execution state, set fields win over an index's configuration, and
executor ownership is handled exactly once, by ``executor_scope``.
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest

from repro.core import ExactRBC
from repro.core.knngraph import knn_graph
from repro.index import available_indexes, index_class
from repro.parallel import bf_knn, bf_nn, bf_range
from repro.parallel.pool import (
    Executor,
    SerialExecutor,
    ThreadExecutor,
    executor_scope,
)
from repro.runtime import ExecContext, TimingRecorder
from repro.simulator.trace import NULL_RECORDER, TraceRecorder


# ---------------------------------------------------------------- executor scope


def test_executor_scope_spec_pool_is_registry_resident():
    with executor_scope("threads", 2) as exec_:
        assert isinstance(exec_, ThreadExecutor)
        inner = exec_
    # spec-resolved pools belong to the process-wide registry: they
    # survive the scope, and the next identical spec reuses the same one
    assert inner.map(lambda x: x, [1]) == [1]
    with executor_scope("threads", 2) as again:
        assert again is inner


def test_executor_scope_leaves_caller_pool_open():
    pool = ThreadExecutor(2)
    try:
        with executor_scope(pool) as exec_:
            assert exec_ is pool
        # caller-owned instance stays usable after the scope
        assert pool.map(lambda x: x + 1, [1, 2]) == [2, 3]
    finally:
        pool.close()


def test_executor_scope_pool_survives_error():
    captured = []
    with pytest.raises(ValueError, match="boom"):
        with executor_scope("threads", 2) as exec_:
            captured.append(exec_)
            raise ValueError("boom")
    # an exception inside the scope must not poison the resident pool
    assert captured[0].map(lambda x: x, [1]) == [1]


def test_ctx_executor_scope_inline_processes_degrade():
    ctx = ExecContext(executor="processes", n_workers=2)
    with ctx.executor_scope(inline_processes=True) as exec_:
        assert isinstance(exec_, SerialExecutor)


def test_ctx_executor_scope_serial_default():
    with ExecContext().executor_scope() as exec_:
        assert isinstance(exec_, Executor)
        assert exec_.map(lambda x: x * 2, [3]) == [6]


# -------------------------------------------------------------------- merging


def test_overriding_unset_fields_inherit():
    base = ExecContext(executor="threads", n_workers=3, dtype="float32")
    merged = ExecContext(dtype="float64").overriding(base)
    assert merged.executor == "threads"
    assert merged.n_workers == 3
    assert merged.dtype == "float64"


def test_transport_drops_numeric_policy():
    r = TraceRecorder()
    ctx = ExecContext(
        executor="threads", recorder=r, dtype="float32", engine=False, row_chunk=64
    )
    t = ctx.transport()
    assert t.executor == "threads"
    assert t.recorder is r
    assert t.row_chunk == 64
    assert t.dtype is None and t.engine is None


def test_invalid_dtype_rejected():
    with pytest.raises(ValueError):
        ExecContext(dtype="float16")


def test_uses_processes():
    assert ExecContext(executor="processes").uses_processes
    assert not ExecContext(executor="threads").uses_processes
    assert not ExecContext().uses_processes


def test_engine_policy_off_under_processes():
    from repro.metrics import get_metric

    metric = get_metric("euclidean")
    X = np.zeros((4, 3))
    assert ExecContext().engine_active(metric, X)
    assert not ExecContext(executor="processes").engine_active(metric, X)
    assert not ExecContext(engine=False).engine_active(metric, X)


# -------------------------------------------------------------- timing recorder


def test_timing_recorder_collects_phase_wall():
    rec = TimingRecorder()
    with rec.phase("work"):
        pass
    with rec.phase("work"):
        pass
    assert rec.enabled
    assert rec.phase_wall["work"] >= 0.0
    # repeats accumulate into one entry
    assert set(rec.phase_wall) == {"work"}


def test_timing_recorder_trace_ops_false_keeps_wall_drops_ops():
    from repro.simulator.trace import Op

    rec = TimingRecorder(trace_ops=False)
    assert not rec.enabled
    with rec.phase("work"):
        rec.record(Op(kind="gemm", flops=1.0, bytes=1.0))
    assert rec.trace.phases == []  # no ops collected
    assert "work" in rec.phase_wall  # but wall time is


def test_ctx_overrides_index_executor(small_vectors):
    """A caller-owned ctx executor runs the query and is left open."""
    X, Q = small_vectors
    pool = ThreadExecutor(2)
    try:
        index = ExactRBC(seed=0).build(X)
        d1, i1 = index.query(Q, k=2, ctx=ExecContext(executor=pool))
        d2, i2 = index.query(Q, k=2)
        np.testing.assert_array_equal(d1, d2)
        np.testing.assert_array_equal(i1, i2)
        # the run must not have closed the caller's pool
        assert pool.map(lambda x: x, [1]) == [1]
    finally:
        pool.close()


def test_ctx_recorder_not_mutated_by_null_default(small_vectors):
    """Queries without a recorder stay silent: NULL_RECORDER collects nothing."""
    X, Q = small_vectors
    index = ExactRBC(seed=0).build(X)
    index.query(Q, k=1)
    assert NULL_RECORDER.trace.phases == []


# ------------------------------------------------------ ctx= is the only way

#: per-call execution state that travels only on ``ctx``
_CTX_FIELDS = {"recorder", "executor", "row_chunk", "tile_cols", "n_workers", "dtype"}


def _entry_points():
    for name in available_indexes():
        cls = index_class(name)
        for method in ("build", "query", "range_query"):
            yield f"{name}.{method}", getattr(cls, method)
    for fn in (bf_knn, bf_range, bf_nn, knn_graph):
        yield fn.__name__, fn


@pytest.mark.parametrize(
    "fn", [pytest.param(fn, id=name) for name, fn in _entry_points()]
)
def test_entry_point_takes_ctx_only(fn):
    params = inspect.signature(fn).parameters
    assert "ctx" in params
    assert not _CTX_FIELDS & params.keys()


def test_per_call_recorder_kwarg_is_rejected(small_vectors):
    X, Q = small_vectors
    index = ExactRBC(seed=0).build(X)
    with pytest.raises(TypeError):
        index.query(Q, recorder=TraceRecorder())
