"""The unified execution context threaded through every search run.

The paper's argument is that RBC search is *one* parallel primitive —
``BF(Q, X[L])`` — reused everywhere (§3).  The cross-cutting execution
state of that primitive (which executor maps the tiles, which recorder
collects the operation trace, what compute dtype/engine policy the kernels
use, how work is chunked) used to be hand-threaded as ad-hoc kwargs
through every layer, with the executor-ownership dance copied between
modules.  :class:`ExecContext` bundles all of it in one object:

* **executor scope** — :meth:`ExecContext.executor_scope` resolves the
  executor spec (``None``/``"serial"``, ``"threads"`` or an instance,
  checked when the context is built) for one ``with`` block (see
  :func:`repro.parallel.pool.executor_scope`);
* **recorder** — the :class:`~repro.simulator.trace.TraceRecorder` the
  run records into (:class:`TimingRecorder` additionally collects
  per-phase wall time);
* **engine/dtype policy** — compute dtype and the prepared-operand engine
  switch;
* **chunking policy** — ``row_chunk`` / ``tile_cols`` overrides for the
  blocked kernels;
* **observation windows** — :meth:`ExecContext.observe` snapshots the
  distance counter and the operand-cache counters around a block, the raw
  material of a :class:`~repro.runtime.report.RunReport`.

Every field defaults to "unset" (``None`` / :data:`NULL_RECORDER`), so a
context can be *merged*: explicitly-set fields win, unset fields fall back
to another context's (or an index's) defaults.  ``ctx=`` is the one way
every ``build``/``query``/``range_query`` and every brute-force entry
point takes per-call execution state; an index merges the call's context
over its own configuration (:meth:`ExecContext.overriding`).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from ..metrics.base import VectorMetric
from ..metrics.engine import CacheCounter, check_dtype, operand_cache
from ..obs.tracing import NULL_TRACER, Tracer
from ..simulator.trace import NULL_RECORDER, TraceRecorder

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..parallel.pool import Executor

# NOTE: runtime sits *below* repro.parallel in the layering (bruteforce
# imports this module), so the pool helpers are imported lazily inside the
# methods that need them rather than at module import time.

__all__ = ["ExecContext", "Observation", "TimingRecorder"]


class TimingRecorder(TraceRecorder):
    """A :class:`TraceRecorder` that also accumulates per-phase wall time.

    ``phase_wall`` maps phase name to total seconds spent inside that phase
    (summed over repeats — blocked algorithms open the same phase once per
    chunk).  Nested phases are flattened exactly like the base recorder, so
    the wall-time map has the same keys as the recorded trace.

    With ``trace_ops=False`` the recorder reports ``enabled = False`` —
    algorithms then skip all ``Op`` construction and the machine-model
    trace stays empty — but phase timings are still collected.  This is the
    near-zero-overhead observability mode: per-phase wall clock for the
    cost of two ``perf_counter`` calls per phase.
    """

    def __init__(self, trace_ops: bool = True, tracer: Tracer | None = None) -> None:
        super().__init__()
        self.enabled = bool(trace_ops)
        if tracer is not None and tracer.enabled:
            # ops recorded under an open span carry its id (see Op.span_id)
            self.tracer = tracer
        self.phase_wall: dict[str, float] = {}
        self._wall_lock = threading.Lock()

    def record(self, op) -> None:
        if self.enabled:
            super().record(op)

    @contextmanager
    def phase(self, name: str):
        if self._current is not None:  # nested: flatten, outer phase times
            yield self
            return
        t0 = time.perf_counter()
        try:
            with TraceRecorder.phase(self, name):
                yield self
        finally:
            dt = time.perf_counter() - t0
            with self._wall_lock:
                self.phase_wall[name] = self.phase_wall.get(name, 0.0) + dt


class Observation:
    """Counter deltas measured around one run (see :meth:`ExecContext.observe`).

    ``evals``/``n_calls`` are the distance-counter window — exactly the
    work of the observed block, immune to whatever ran before — and
    ``cache`` is the operand-cache activity (preparations, hits,
    invalidations) as a :class:`~repro.metrics.engine.CacheCounter` delta.
    """

    __slots__ = ("wall_s", "evals", "n_calls", "cache")

    def __init__(self) -> None:
        self.wall_s = 0.0
        self.evals = 0
        self.n_calls = 0
        self.cache = CacheCounter()


@dataclass
class ExecContext:
    """Everything a search run needs to execute and be observed.

    Fields left at their defaults mean "unset — inherit": the index
    classes fill them from their own configuration (``dtype``/``engine``),
    and the brute-force kernels from their defaults.

    Parameters
    ----------
    executor:
        ``None`` (inherit / serial), ``"serial"``, ``"threads"``, or an
        :class:`~repro.parallel.pool.Executor` instance (never closed by
        the run); anything else raises ``ValueError``.
    n_workers:
        worker count for string specs.
    recorder:
        trace recorder; :data:`NULL_RECORDER` disables tracing.
    tracer:
        span tracer (:mod:`repro.obs`); :data:`~repro.obs.tracing.
        NULL_TRACER` disables span collection at near-zero cost.
    dtype:
        compute dtype for vector-metric kernels (``None`` inherits;
        effective default ``"float64"``).
    engine:
        prepared-operand kernel engine switch (``None`` inherits;
        effective default on).
    row_chunk / tile_cols:
        chunking policy for the blocked brute-force kernels (``None``
        auto-sizes).
    """

    executor: str | Executor | None = None
    n_workers: int | None = None
    recorder: TraceRecorder = NULL_RECORDER
    dtype: str | None = None
    engine: bool | None = None
    row_chunk: int | None = None
    tile_cols: int | None = None
    tracer: Tracer = NULL_TRACER

    def __post_init__(self) -> None:
        if self.recorder is None:
            self.recorder = NULL_RECORDER
        if self.tracer is None:
            self.tracer = NULL_TRACER
        if self.dtype is not None:
            check_dtype(self.dtype)
        if self.executor not in (None, "serial", "threads"):
            from ..parallel.pool import Executor

            if not isinstance(self.executor, Executor):
                raise ValueError(
                    f"unknown executor {self.executor!r}: use 'threads' for "
                    f"parallel execution, 'serial' (or None), or an "
                    f"Executor instance"
                )

    # -------------------------------------------------------------- merging
    def overriding(self, base: "ExecContext") -> "ExecContext":
        """New context taking this one's set fields, falling back to ``base``."""
        return ExecContext(
            executor=self.executor if self.executor is not None else base.executor,
            n_workers=(
                self.n_workers if self.n_workers is not None else base.n_workers
            ),
            recorder=(
                self.recorder
                if self.recorder is not NULL_RECORDER
                else base.recorder
            ),
            dtype=self.dtype if self.dtype is not None else base.dtype,
            engine=self.engine if self.engine is not None else base.engine,
            row_chunk=(
                self.row_chunk if self.row_chunk is not None else base.row_chunk
            ),
            tile_cols=(
                self.tile_cols if self.tile_cols is not None else base.tile_cols
            ),
            tracer=(
                self.tracer if self.tracer is not NULL_TRACER else base.tracer
            ),
        )

    def transport(self) -> "ExecContext":
        """The execution fields only — executor, recorder, tracer,
        chunking — without the dtype/engine policy.  Sub-calls with their
        own numeric policy (index builds always run float64, an inner index
        has its own dtype knob) travel on this."""
        return ExecContext(
            executor=self.executor,
            n_workers=self.n_workers,
            recorder=self.recorder,
            row_chunk=self.row_chunk,
            tile_cols=self.tile_cols,
            tracer=self.tracer,
        )

    def with_recorder(self, recorder: TraceRecorder) -> "ExecContext":
        return replace(self, recorder=recorder)

    def with_tracer(self, tracer: Tracer) -> "ExecContext":
        return replace(self, tracer=tracer)

    def span(self, name: str, **attrs):
        """Open a span on the context's tracer (no-op context manager when
        tracing is disabled) — the one-liner instrumented code calls."""
        return self.tracer.span(name, **attrs)

    # ------------------------------------------------------- executor scope
    def executor_scope(self):
        """Scoped executor for this run (see :func:`~repro.parallel.pool.executor_scope`)."""
        from ..parallel.pool import executor_scope

        return executor_scope(self.executor, self.n_workers)

    # -------------------------------------------------------- engine policy
    @property
    def dtype_or_default(self) -> str:
        return self.dtype if self.dtype is not None else "float64"

    @property
    def engine_or_default(self) -> bool:
        return True if self.engine is None else bool(self.engine)

    def engine_active(self, metric, X) -> bool:
        """Whether the prepared-operand engine applies to this run: vector
        metrics over ndarray databases only."""
        return (
            self.engine_or_default
            and isinstance(metric, VectorMetric)
            and isinstance(X, np.ndarray)
        )

    # ----------------------------------------------------------- observation
    @contextmanager
    def observe(self, metric):
        """Measure a block: wall time, the metric's distance-counter window,
        and the operand-cache counter window, as an :class:`Observation`.

        The windows are snapshot-based (lock-consistent), so ``obs.evals``
        is exactly the block's work even when other runs came before.
        """
        obs = Observation()
        c0 = metric.counter.snapshot()
        k0 = operand_cache.stats.snapshot()
        t0 = time.perf_counter()
        try:
            yield obs
        finally:
            obs.wall_s = time.perf_counter() - t0
            c1 = metric.counter.snapshot()
            k1 = operand_cache.stats.snapshot()
            obs.evals = c1.n_evals - c0.n_evals
            obs.n_calls = c1.n_calls - c0.n_calls
            obs.cache = CacheCounter(
                k1.n_prepared - k0.n_prepared,
                k1.n_hits - k0.n_hits,
                k1.n_invalidated - k0.n_invalidated,
            )

