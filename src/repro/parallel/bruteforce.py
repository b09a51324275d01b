"""The brute-force primitive ``BF(Q, X[L])`` (paper §3).

Everything in this package — RBC build, one-shot search, exact search — is
structured as calls to this primitive, because its two steps parallelize
like dense linear algebra:

1. **distance step** — all pairwise distances, computed tile-by-tile with
   the block decomposition of :mod:`repro.parallel.blocking` (matmul-like
   structure);
2. **comparison step** — per-query nearest (or k-nearest) selection, done as
   per-tile top-k selections merged through the inverted-binary-tree reduce
   of :mod:`repro.parallel.reduce`.

Row chunks and tiles are mapped over an :class:`~repro.parallel.pool.Executor`,
and every tile/merge is optionally recorded into a
:class:`~repro.simulator.trace.TraceRecorder` so the machine models can
replay the exact work performed.  Both, with the compute dtype and the
chunking, are carried by one :class:`~repro.runtime.context.ExecContext`
passed as ``ctx=``.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..metrics import get_metric
from ..metrics.base import Metric, VectorMetric
from ..metrics.engine import (
    check_dtype,
    prepare_operands,
    refine_topk,
    rounding_bound,
)
from ..runtime.context import ExecContext
from ..simulator.trace import Op, TraceRecorder
from .blocking import choose_tile_cols, row_chunks
from .pool import SerialExecutor
from .reduce import EMPTY_IDX, merge_topk, topk_of_block, tree_reduce
from .scheduler import plan_row_chunks

__all__ = ["bf_knn", "bf_nn", "bf_range"]

#: queries per row chunk; chunks are the unit mapped over the executor
_DEFAULT_ROW_CHUNK = 512


#: rows per recorded sub-op: the schedulable grain of a distance tile.
#: A dense tile is itself data-parallel (it is a GEMM), so the machine
#: models see it as independent row-band ops; the database slab's memory
#: traffic is amortized across the bands, which share it through the cache.
_RECORD_SUB_ROWS = 32


def _record_dist_tile(
    recorder: TraceRecorder,
    metric: Metric,
    rows: int,
    cols: int,
    dim: int,
    tag: str,
    itemsize: float = 8.0,
) -> None:
    if not recorder.enabled or rows <= 0 or cols <= 0:
        return
    fpe = metric.flops_per_eval(dim)
    # operand traffic scales with the compute dtype: float32 tiles move
    # half the bytes of float64 ones (the machine models care)
    slab_bytes = itemsize * cols * dim  # database slab, streamed once per tile
    done = 0
    while done < rows:
        r = min(_RECORD_SUB_ROWS, rows - done)
        recorder.record(
            Op(
                kind="gemm",
                flops=r * cols * fpe,
                bytes=itemsize * (r * dim + r * cols) + slab_bytes * (r / rows),
                vectorizable=True,
                tag=tag,
            )
        )
        done += r


def _record_select(
    recorder: TraceRecorder,
    rows: int,
    cols: int,
    tag: str,
    itemsize: float = 8.0,
) -> None:
    # the selection streams the (rows, cols) distance block once; its
    # operand traffic scales with the compute dtype, exactly like the
    # distance tiles that produced it
    if not recorder.enabled or rows <= 0 or cols <= 0:
        return
    recorder.record(
        Op(
            kind="reduce",
            flops=float(rows * cols),
            bytes=itemsize * rows * cols,
            vectorizable=True,
            tag=tag,
        )
    )


def _merge_candidates(
    candidates: list,
    m: int,
    k: int,
    recorder: TraceRecorder,
    tag: str,
    itemsize: float = 8.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Tree-merge per-tile top-k candidate blocks (recorded)."""
    if len(candidates) == 1:
        return candidates[0]
    with recorder.phase(f"{tag}:merge"):

        def merge(a, b):
            if recorder.enabled:
                # each merge reads two (m, k) candidate blocks: distances
                # at the compute itemsize plus int64 ids
                recorder.record(
                    Op(
                        kind="reduce",
                        flops=4.0 * m * k,
                        bytes=2.0 * m * k * (itemsize + 8.0),
                        vectorizable=True,
                        tag=f"{tag}:merge",
                    )
                )
            return merge_topk(a, b)

        return tree_reduce(candidates, merge)


def _knn_one_chunk(
    metric: Metric,
    Qc,
    X,
    k: int,
    tile_cols: int,
    recorder: TraceRecorder,
    dim: int,
    tag: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Top-k for one row chunk of queries: tiles then tree-merge."""
    n = metric.length(X)
    m = metric.length(Qc)
    candidates = []
    with recorder.phase(f"{tag}:dist+select"):
        for lo, hi in row_chunks(n, tile_cols):
            Xt = metric.take(X, np.arange(lo, hi)) if (lo, hi) != (0, n) else X
            D = metric.pairwise(Qc, Xt)
            _record_dist_tile(recorder, metric, m, hi - lo, dim, tag)
            candidates.append(topk_of_block(D, k, col_offset=lo))
            _record_select(recorder, m, hi - lo, tag)
    return _merge_candidates(candidates, m, k, recorder, tag)


def _knn_one_chunk_prepared(
    metric: VectorMetric,
    Qp,
    Xp,
    k: int,
    tile_cols: int,
    recorder: TraceRecorder,
    dim: int,
    tag: str,
    squared: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Engine variant of :func:`_knn_one_chunk` over prepared operands.

    Tiles are contiguous *views* of the prepared database (no gathers, no
    norm recomputation) and, for ``squared_ok`` metrics, distances stay in
    the squared domain — same ranking, so the elementwise root is deferred
    to the ``(m, k)`` result instead of the ``(m, n)`` block.
    """
    n = len(Xp)
    m = len(Qp)
    itemsize = float(Qp.data.dtype.itemsize)
    candidates = []
    with recorder.phase(f"{tag}:dist+select"):
        for lo, hi in row_chunks(n, tile_cols):
            Xt = Xp.slice(lo, hi) if (lo, hi) != (0, n) else Xp
            D = metric.pairwise_prepared(Qp, Xt, squared=squared)
            _record_dist_tile(
                recorder, metric, m, hi - lo, dim, tag, itemsize=itemsize
            )
            candidates.append(topk_of_block(D, k, col_offset=lo))
            _record_select(recorder, m, hi - lo, tag, itemsize=itemsize)
    return _merge_candidates(candidates, m, k, recorder, tag, itemsize=itemsize)


def bf_knn(
    Q,
    X,
    metric: str | Metric = "euclidean",
    k: int = 1,
    *,
    ids: np.ndarray | None = None,
    x_prepared=None,
    refine: bool = True,
    quantizer: str | None = None,
    ctx: ExecContext | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """k nearest neighbors of each query by exhaustive search.

    Parameters
    ----------
    Q, X:
        query set and database, in whatever form ``metric`` understands
        (``(m, d)`` / ``(n, d)`` arrays for vector metrics).
    metric:
        metric name or instance.
    k:
        neighbors per query.
    ids:
        optional integer id list ``L``; restricts the search to ``X[L]``
        (the paper's ``BF(Q, X[L])``) and reports *global* indices into X.
    x_prepared:
        optional :class:`~repro.metrics.engine.Prepared` form of ``X``
        (vector metrics only, incompatible with ``ids``).  Index structures
        pass their cached operands here so repeated calls against a fixed
        database recompute nothing; its dtype overrides ``ctx.dtype``.
    refine:
        float64-refine the result of a ``float32`` search (ignored for
        float64).
    quantizer:
        run the scan on compressed codes — ``"int8"``, ``"float16"`` or
        ``"pq"`` — with a certified float64 re-rank, so the answer ids
        match the uncompressed search exactly (see
        :mod:`repro.metrics.quantize`).  Vector metrics with a
        ``gram``/``angular`` kernel only.
    ctx:
        the run's :class:`~repro.runtime.context.ExecContext`:

        * ``executor`` / ``n_workers`` — row chunks are mapped over it.
        * ``recorder`` / ``tracer`` — trace recorder for the machine
          models and the span tracer.
        * ``dtype`` — compute dtype for vector metrics: ``"float64"``
          (default, exact) or ``"float32"`` (half the GEMM traffic; with
          ``refine=True`` the float32-selected candidates are re-scored in
          float64, so only the candidate *set* rides on low precision).
          The set is certified: a row whose over-fetched float32 frontier
          is not beyond its k-th value plus twice the kernel's
          :func:`~repro.metrics.engine.rounding_bound` is re-scanned in
          float64.
        * ``row_chunk`` / ``tile_cols`` — queries per mapped chunk and
          database columns per tile (auto-sized to the pool and to ~8 MB
          of operands when unset).

    Returns
    -------
    (dist, idx):
        ``(m, k)`` arrays, rows sorted ascending.  When fewer than ``k``
        points are available, trailing slots hold ``inf`` / ``-1``.
    """
    ctx = ExecContext() if ctx is None else ctx
    recorder = ctx.recorder
    dtype = ctx.dtype_or_default
    metric = get_metric(metric)
    if k < 1:
        raise ValueError("k must be >= 1")
    check_dtype(dtype)
    if x_prepared is not None and ids is not None:
        raise ValueError(
            "x_prepared and ids are incompatible: pass a prepared operand "
            "for the restricted set instead"
        )
    Qb = Q if _is_batch(metric, Q) else metric._as_batch(Q)
    m = metric.length(Qb)
    if ids is not None:
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size == 0:
            return (
                np.full((m, k), np.inf),
                np.full((m, k), EMPTY_IDX, dtype=np.int64),
            )
        X = metric.take(X, ids)
    n = metric.length(X)
    if n == 0:
        raise ValueError("database is empty")
    dim = metric.dim(X)
    tile_cols = ctx.tile_cols or choose_tile_cols(n, dim)

    if quantizer is not None:
        from ..metrics.quantize import (
            check_quantizer,
            quant_search,
            supports_quantization,
        )

        check_quantizer(quantizer)
        if not isinstance(metric, VectorMetric) or not supports_quantization(
            metric
        ):
            raise ValueError(
                f"quantizer= needs a vector metric with a 'gram' or "
                f"'angular' prepared kernel; {type(metric).__name__} has "
                f"neither"
            )
        if x_prepared is not None:
            raise ValueError(
                "x_prepared and quantizer are incompatible: the quantized "
                "operand is derived from the raw database"
            )
        from ..metrics.engine import operand_cache

        # key the cache on the caller's array (quantize_prepared coerces
        # via the cached float64 parent); a fresh temporary here would
        # defeat the id()-keyed cache and re-train PQ on every call
        qop = operand_cache.get_quantized(metric, X, quantizer)
        with ctx.span("bf:knn", backend="quant", m=m, n=n, k=k,
                      quantizer=quantizer):
            dist, idx = quant_search(metric, Qb, X, qop, k)[:2]
        if dist.shape[1] < k:  # fewer live rows than k: pad like the
            pad = k - dist.shape[1]  # uncompressed path does
            dist = np.pad(dist, ((0, 0), (0, pad)), constant_values=np.inf)
            idx = np.pad(idx, ((0, 0), (0, pad)), constant_values=EMPTY_IDX)
        if ids is not None:
            mask = idx >= 0
            idx[mask] = ids[idx[mask]]
        return dist, idx

    if isinstance(metric, VectorMetric):
        # engine path: prepared operands (hoisted coercion + norms) and,
        # for squared_ok metrics, squared-domain selection.  Bit-identical
        # to the plain path for the default float64 dtype.
        if x_prepared is not None:
            Xp = x_prepared
            dtype = str(Xp.dtype)
        elif ids is None and isinstance(X, np.ndarray):
            # fixed-database case: route through the process-wide cache so
            # repeated calls prepare X exactly once
            Xp = prepare_operands(metric, X, dtype=dtype)
        else:
            # transient operand (gathered subset / duck array): prepare
            # directly, don't pollute the cache with one-shot entries
            Xp = metric.prepare(X, dtype=dtype)
        Qp_full = metric.prepare(Qb, dtype=dtype)
        squared = metric.squared_ok
        fp32 = dtype == "float32"
        kk = min(n, max(2 * k, k + 8)) if (fp32 and refine) else k

        def task(chunk):
            lo, hi = chunk
            Qp = Qp_full.slice(lo, hi) if (lo, hi) != (0, m) else Qp_full
            return _knn_one_chunk_prepared(
                metric, Qp, Xp, kk, tile_cols, recorder, dim, "bf", squared
            )

    else:

        def task(chunk):
            lo, hi = chunk
            Qc = metric.take(Qb, np.arange(lo, hi)) if (lo, hi) != (0, m) else Qb
            return _knn_one_chunk(metric, Qc, X, k, tile_cols, recorder, dim, "bf")

    # one preallocated output pair per chunk plan: every task writes its
    # own row slice in place, so the tail-end concatenate (a full extra
    # copy of the result, allocated per call) disappears from the thread
    # and serial backends
    width = kk if isinstance(metric, VectorMetric) else k
    out_dtype = (
        np.float32
        if isinstance(metric, VectorMetric) and dtype == "float32"
        else np.float64
    )  # chunks land in the compute dtype; refinement re-ranks in float64
    dist = np.full((m, width), np.inf, dtype=out_dtype)
    idx = np.full((m, width), EMPTY_IDX, dtype=np.int64)

    tracer = ctx.tracer
    with tracer.span("bf:knn", m=m, n=n, k=k, dtype=dtype) as bf_span, \
            ctx.executor_scope() as exec_:
        if ctx.row_chunk is None and not isinstance(exec_, SerialExecutor):
            # no explicit chunking: let the scheduler size chunks to the
            # pool (static split for small inputs, dynamic oversubscription
            # for large ones) instead of a fixed one-size row count
            chunks = plan_row_chunks(m, exec_.n_workers)
        else:
            chunks = row_chunks(m, ctx.row_chunk or _DEFAULT_ROW_CHUNK)
        bf_span.set(backend=type(exec_).__name__, chunks=len(chunks))

        def traced_task(chunk, _parent=tracer.context()):
            # worker threads start with an empty span stack; parent their
            # chunk spans under the submitting bf:knn span explicitly
            with tracer.span_under(
                _parent, "bf:chunk", lo=chunk[0], hi=chunk[1]
            ):
                return task(chunk)

        run = task if not tracer.enabled else traced_task

        def run_into(chunk):
            d, i = run(chunk)
            lo, hi = chunk
            dist[lo:hi] = d
            idx[lo:hi] = i

        if len(chunks) == 1 or isinstance(exec_, SerialExecutor):
            for c in chunks:
                run_into(c)
        else:
            exec_.map(run_into, chunks)

    if isinstance(metric, VectorMetric):
        if fp32 and refine:
            if kk < n:
                # a true top-k value is at most the k-th plus twice the
                # rounding bound; a row whose frontier does not clear that
                # may have left a neighbor unfetched: re-scan it in float64
                sq = Xp.sqnorms
                x_sq_max = 0.0 if sq is None else float(sq.max())
                front = dist[:, -1].astype(np.float64)
                over = 2.0 * rounding_bound(
                    metric, Qp_full, slice(None), x_sq_max, front
                )
                redo = np.flatnonzero(~(front > dist[:, k - 1] + over))
                if redo.size:
                    idx[redo] = bf_knn(
                        metric.take(Qb, redo), X, metric, kk,
                        ctx=replace(ctx, dtype="float64"),
                    )[1]
            dist, idx = refine_topk(metric, Qb, X, idx, k)
        elif squared:
            dist = metric.from_squared(dist)
    if ids is not None:
        mask = idx >= 0
        idx[mask] = ids[idx[mask]]
    return dist, idx


def _is_batch(metric: Metric, Q) -> bool:
    """Heuristic: is Q already a batch (vs a single point)?"""
    if isinstance(Q, np.ndarray):
        return Q.ndim >= 2 or not np.issubdtype(Q.dtype, np.floating)
    if isinstance(Q, str):
        return False
    return True


def bf_nn(
    Q,
    X,
    metric: str | Metric = "euclidean",
    *,
    ids: np.ndarray | None = None,
    ctx: ExecContext | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """1-NN convenience wrapper: returns ``(m,)`` distance and index arrays."""
    dist, idx = bf_knn(Q, X, metric, k=1, ids=ids, ctx=ctx)
    return dist[:, 0], idx[:, 0]


def bf_range(
    Q,
    X,
    eps: float,
    metric: str | Metric = "euclidean",
    *,
    ids: np.ndarray | None = None,
    ctx: ExecContext | None = None,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """ε-range search: all database points within distance ``eps`` of each
    query.  Returns, per query, ``(dist, idx)`` sorted by distance.

    ``ctx`` carries the recorder, the compute dtype and the tile sizing;
    the scan itself is a single pass, so its executor is not consulted.
    With ``ctx.dtype="float32"`` (vector metrics) the scan runs in float32
    with a slack-widened threshold and every candidate hit is verified
    with the exact float64 distance, so the reported set and values match
    the float64 search up to genuinely borderline points within float32
    noise of ``eps``.
    """
    ctx = ExecContext() if ctx is None else ctx
    recorder = ctx.recorder
    dtype = ctx.dtype_or_default
    metric = get_metric(metric)
    if eps < 0:
        raise ValueError("eps must be non-negative")
    check_dtype(dtype)
    if ids is not None:
        ids = np.asarray(ids, dtype=np.int64)
        X = metric.take(X, ids)
    n = metric.length(X)
    dim = metric.dim(X)
    tile_cols = ctx.tile_cols or choose_tile_cols(n, dim)
    Qb = Q if _is_batch(metric, Q) else metric._as_batch(Q)
    m = metric.length(Qb)

    engine = isinstance(metric, VectorMetric)
    if engine:
        if ids is None and isinstance(X, np.ndarray):
            Xp = prepare_operands(metric, X, dtype=dtype)
        else:
            Xp = metric.prepare(X, dtype=dtype)
        Qp = metric.prepare(Qb, dtype=dtype)
        itemsize = float(Qp.data.dtype.itemsize)
        fp32 = dtype == "float32"
        # float32 scan keeps everything within relative slack of eps; the
        # exact float64 re-check below restores the true boundary
        eps_scan = eps * (1.0 + 1e-5) + 1e-6 if fp32 else eps
    else:
        fp32 = False

    hits_d: list[list[np.ndarray]] = [[] for _ in range(m)]
    hits_i: list[list[np.ndarray]] = [[] for _ in range(m)]
    with recorder.phase("bf-range:dist"):
        for lo, hi in row_chunks(n, tile_cols):
            if engine:
                Xt = Xp.slice(lo, hi) if (lo, hi) != (0, n) else Xp
                D = metric.pairwise_prepared(Qp, Xt)
                _record_dist_tile(
                    recorder, metric, m, hi - lo, dim, "bf-range",
                    itemsize=itemsize,
                )
                rows, cols = np.nonzero(D <= eps_scan)
            else:
                Xt = metric.take(X, np.arange(lo, hi)) if (lo, hi) != (0, n) else X
                D = metric.pairwise(Qb, Xt)
                _record_dist_tile(recorder, metric, m, hi - lo, dim, "bf-range")
                rows, cols = np.nonzero(D <= eps)
            for r in np.unique(rows):
                sel = cols[rows == r]
                if fp32:
                    # exact float64 verification of the float32 candidates
                    # (against the original rows — prepared data may be
                    # transformed, e.g. Mahalanobis)
                    d = metric.pairwise(
                        metric.take(Qb, [r]), metric.take(X, sel + lo)
                    )[0]
                    keep = d <= eps
                    hits_d[r].append(d[keep])
                    hits_i[r].append(sel[keep] + lo)
                else:
                    hits_d[r].append(D[r, sel])
                    hits_i[r].append(sel + lo)

    out = []
    for r in range(m):
        if hits_d[r]:
            d = np.concatenate(hits_d[r])
            i = np.concatenate(hits_i[r]).astype(np.int64)
            order = np.argsort(d, kind="stable")
            d, i = d[order], i[order]
        else:
            d = np.empty(0)
            i = np.empty(0, dtype=np.int64)
        if ids is not None:
            i = ids[i]
        out.append((d, i))
    return out
