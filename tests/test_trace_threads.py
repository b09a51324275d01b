"""Thread-safety of :class:`TraceRecorder`.

The recorder keeps its open phase in thread-local storage, so concurrent
worker threads each build their own phases and only the completed phase is
appended (under a lock) to the shared trace.  Phase *order* across threads
is scheduling-dependent; the multiset of phases — their names and op
totals — must match a serial run exactly.
"""

import threading

import numpy as np
import pytest

from repro.core import ExactRBC
from repro.parallel import bf_knn
from repro.runtime import ExecContext
from repro.simulator import TraceRecorder
from repro.simulator.trace import Op


def phase_multiset(trace):
    """Order-independent fingerprint: one tuple per phase."""
    return sorted(
        (
            p.name,
            len(p.ops),
            round(sum(op.flops for op in p.ops), 6),
            round(sum(op.bytes for op in p.ops), 6),
        )
        for p in trace.phases
    )


def test_concurrent_phases_do_not_interleave():
    rec = TraceRecorder()
    start = threading.Barrier(4)

    def worker(tid):
        start.wait()
        for rep in range(20):
            with rec.phase(f"t{tid}"):
                for _ in range(5):
                    rec.record(Op(kind="ewise", flops=float(tid + 1), bytes=8.0))

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    assert len(rec.trace.phases) == 4 * 20
    for p in rec.trace.phases:
        tid = int(p.name[1:])
        assert len(p.ops) == 5
        # every op in a phase came from the thread that opened it
        assert all(op.flops == float(tid + 1) for op in p.ops)


def test_record_outside_phase_is_safe_across_threads():
    rec = TraceRecorder()

    def worker():
        for _ in range(50):
            rec.record(Op(kind="ewise", flops=1.0, bytes=8.0))

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert rec.trace.n_ops == 200


def test_bf_knn_trace_invariant_under_threads():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(2000, 6))
    Q = rng.normal(size=(700, 6))

    rec_s = TraceRecorder()
    bf_knn(Q, X, k=3, ctx=ExecContext(recorder=rec_s, row_chunk=128, tile_cols=500))
    rec_t = TraceRecorder()
    bf_knn(
        Q, X, k=3,
        ctx=ExecContext(
            recorder=rec_t, row_chunk=128, tile_cols=500, executor="threads"
        ),
    )

    assert phase_multiset(rec_s.trace) == phase_multiset(rec_t.trace)
    assert rec_s.trace.n_ops == rec_t.trace.n_ops


def test_exact_query_trace_invariant_under_threads():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(2000, 4))
    Q = rng.normal(size=(600, 4))  # > 256 queries => several stage-2 chunks

    idx_s = ExactRBC(seed=0).build(X)
    rec_s = TraceRecorder()
    d1, i1 = idx_s.query(Q, k=2, ctx=ExecContext(recorder=rec_s))

    idx_t = ExactRBC(seed=0).build(X)
    rec_t = TraceRecorder()
    d2, i2 = idx_t.query(
        Q, k=2, ctx=ExecContext(recorder=rec_t, executor="threads")
    )

    np.testing.assert_allclose(d1, d2)
    np.testing.assert_array_equal(i1, i2)
    assert phase_multiset(rec_s.trace) == phase_multiset(rec_t.trace)
    assert rec_s.trace.flops == pytest.approx(rec_t.trace.flops)
