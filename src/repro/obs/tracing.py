"""Span tracing: per-run timelines across threads and simulated nodes.

The paper's accounting story — RBC wins because ``BF(Q, X[L])`` does
provably less work and schedules like dense linear algebra (§3) — needs a
*live* counterpart to the post-hoc :class:`~repro.runtime.report.RunReport`:
something that attributes wall time to individual queries, batches, kernel
calls, worker threads and cluster nodes while a serve run is in flight.

A :class:`Span` is one timed, attributed interval with OpenTelemetry-style
identity: a ``trace_id`` naming the causal tree it belongs to, its own
``span_id``, and a ``parent_id``.  Ids are strings namespaced by pid
(``s<pid>-<n>``), so spans minted by separate tracers can never collide
when they are merged into one timeline.

The :class:`Tracer` is the collection point.  ``tracer.span("phase")`` is
a context manager that opens a child of the calling thread's current span
(each thread has its own stack, so concurrent batches nest correctly);
:meth:`Tracer.context` captures the current position as a picklable
:class:`SpanContext`; worker threads open their spans under it with
:meth:`Tracer.span_under`.  A node of
:class:`~repro.distributed.engine.DistributedRBC` records into its own
child :class:`Tracer` (``Tracer(root=span_ctx)``), which parents everything
under the coordinator's span; the node's finished spans come back as plain
dicts and :meth:`Tracer.adopt` re-parents them into the coordinator's
tracer — so one Chrome-trace export shows coordinator and node activity on
a single timeline.

Export is the Chrome ``trace_events`` JSON format (:meth:`chrome_trace`),
loadable in ``chrome://tracing`` / Perfetto: one complete (``"ph": "X"``)
event per span, grouped by pid/tid, with the span identity and attributes
in ``args``.

Disabled tracing must cost nothing: :data:`NULL_TRACER` answers
``enabled = False`` and its ``span()`` reuses a no-op context manager, so
instrumented code paths need no conditional at the call site.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = [
    "Span",
    "SpanContext",
    "Tracer",
    "NULL_TRACER",
    "chrome_trace",
]

#: per-process id source; ids are namespaced by pid so adopted spans keep
#: unique ids
_ids = itertools.count(1)


def _new_id(prefix: str) -> str:
    return f"{prefix}{os.getpid()}-{next(_ids)}"


@dataclass(frozen=True)
class SpanContext:
    """The picklable identity of a span: what crosses tracer boundaries.

    A child tracer (a distributed node's) receives one of these and parents
    its own spans under it; nothing else about the tracer travels.
    """

    trace_id: str
    span_id: str


@dataclass
class Span:
    """One timed, attributed interval of work.

    ``start_s`` is epoch wall-clock (``time.time()``) so spans recorded in
    different processes on one machine land on a common timeline;
    ``dur_s`` is measured with ``perf_counter`` for resolution.
    """

    name: str
    trace_id: str
    span_id: str
    parent_id: str | None = None
    start_s: float = 0.0
    dur_s: float = 0.0
    attrs: dict = field(default_factory=dict)
    pid: int = 0
    tid: int = 0
    _t0: float = field(default=0.0, repr=False, compare=False)

    def set(self, **attrs) -> "Span":
        """Attach attributes to a live span (chainable)."""
        self.attrs.update(attrs)
        return self

    @property
    def context(self) -> SpanContext:
        return SpanContext(self.trace_id, self.span_id)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_s": self.start_s,
            "dur_s": self.dur_s,
            "attrs": dict(self.attrs),
            "pid": self.pid,
            "tid": self.tid,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Span":
        return cls(
            name=d["name"],
            trace_id=d["trace_id"],
            span_id=d["span_id"],
            parent_id=d.get("parent_id"),
            start_s=float(d.get("start_s", 0.0)),
            dur_s=float(d.get("dur_s", 0.0)),
            attrs=dict(d.get("attrs", {})),
            pid=int(d.get("pid", 0)),
            tid=int(d.get("tid", 0)),
        )


class _NullSpan:
    """Stand-in yielded by the null tracer; absorbs attribute writes."""

    __slots__ = ()
    trace_id = span_id = parent_id = None
    context = None

    def set(self, **attrs) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class Tracer:
    """Collects finished spans; thread-safe, one per run (or per worker).

    Parameters
    ----------
    root:
        optional :class:`SpanContext` adopted as the implicit parent: a
        worker-side tracer built from the submitting span's context
        parents its top-level spans under the submitter, in the
        submitter's trace.
    """

    enabled = True

    def __init__(self, root: SpanContext | None = None) -> None:
        self.spans: list[Span] = []
        self.root = root
        self._tls = threading.local()
        self._lock = threading.Lock()

    # ------------------------------------------------------------ recording
    @property
    def _stack(self) -> list[Span]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    @property
    def current(self) -> Span | None:
        """This thread's innermost open span (``None`` outside any)."""
        stack = self._stack
        return stack[-1] if stack else None

    def context(self) -> SpanContext | None:
        """Picklable identity of the current span, for task payloads."""
        cur = self.current
        return cur.context if cur is not None else self.root

    def start_span(
        self, name: str, *, parent: SpanContext | None = None, **attrs
    ) -> Span:
        """Open a span without entering it on the thread stack.

        For intervals that do not nest lexically — a served query's life
        from arrival to answer spans many batcher events — the caller
        holds the span and ends it with :meth:`finish`.
        """
        up = parent or self.context()
        span = Span(
            name=name,
            trace_id=up.trace_id if up is not None else _new_id("t"),
            span_id=_new_id("s"),
            parent_id=up.span_id if up is not None else None,
            start_s=time.time(),
            attrs=dict(attrs),
            pid=os.getpid(),
            tid=threading.get_ident(),
        )
        span._t0 = time.perf_counter()
        return span

    def finish(self, span: Span) -> Span:
        """Close a span opened with :meth:`start_span` and collect it."""
        span.dur_s = time.perf_counter() - span._t0
        with self._lock:
            self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, **attrs):
        """Open a child of the calling thread's current span."""
        span = self.start_span(name, **attrs)
        stack = self._stack
        stack.append(span)
        try:
            yield span
        finally:
            stack.pop()
            self.finish(span)

    @contextmanager
    def span_under(self, parent: SpanContext | None, name: str, **attrs):
        """Like :meth:`span`, but parented explicitly.

        Worker threads have an empty span stack, so a task fanned out over
        a thread pool passes the submitting span's context here to keep
        the tree connected across the dispatch.
        """
        span = self.start_span(name, parent=parent, **attrs)
        stack = self._stack
        stack.append(span)
        try:
            yield span
        finally:
            stack.pop()
            self.finish(span)

    # ---------------------------------------------------------- re-parenting
    def adopt(
        self, span_dicts, parent: SpanContext | Span | None = None
    ) -> list[Span]:
        """Merge worker-side span dicts into this tracer's timeline.

        Spans whose ``trace_id``/``parent_id`` already point at the
        submitting span (the worker was built with ``Tracer(root=...)``)
        are taken as-is; orphans — workers run without a root context — are
        re-parented under ``parent`` (default: the current span) and moved
        into its trace.  Children keep their internal linkage either way.
        """
        if parent is None:
            parent = self.context()
        elif isinstance(parent, Span):
            parent = parent.context
        spans = [Span.from_dict(d) for d in span_dicts]
        local = {s.span_id for s in spans}
        for s in spans:
            if s.parent_id not in local:  # worker-root span
                if parent is not None and s.parent_id is None:
                    s.parent_id = parent.span_id
            if parent is not None and s.trace_id != parent.trace_id:
                # orphan trace: fold the whole worker subtree into the
                # submitting trace so the timeline reads as one tree
                if s.parent_id not in local:
                    s.parent_id = parent.span_id
                s.trace_id = parent.trace_id
        with self._lock:
            self.spans.extend(spans)
        return spans

    # -------------------------------------------------------------- export
    def export(self) -> list[dict]:
        """Finished spans as dicts (the JSONL/pickle-friendly form)."""
        with self._lock:
            return [s.to_dict() for s in self.spans]

    def chrome_trace(self) -> dict:
        """The collected timeline in Chrome ``trace_events`` format."""
        with self._lock:
            spans = list(self.spans)
        return chrome_trace(spans)

    def save(self, path) -> None:
        """Write the Chrome-trace JSON to ``path``."""
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(), fh, indent=2)

    def clear(self) -> None:
        with self._lock:
            self.spans.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self.spans)


class _NullTracer(Tracer):
    """Tracer that records nothing (tracing disabled)."""

    enabled = False

    def __init__(self) -> None:
        super().__init__()

    @contextmanager
    def span(self, name: str, **attrs):  # noqa: D102 - intentional no-op
        yield _NULL_SPAN

    @contextmanager
    def span_under(self, parent, name: str, **attrs):  # noqa: D102
        yield _NULL_SPAN

    def start_span(self, name: str, *, parent=None, **attrs):  # noqa: D102
        return _NULL_SPAN

    def finish(self, span):  # noqa: D102
        return span

    def context(self) -> None:  # noqa: D102
        return None

    def adopt(self, span_dicts, parent=None) -> list:  # noqa: D102
        return []


NULL_TRACER = _NullTracer()


def chrome_trace(spans: list[Span]) -> dict:
    """Render spans as a Chrome ``trace_events`` document.

    One complete event (``"ph": "X"``) per span, timestamps rebased to the
    earliest span so the timeline starts at zero; span identity and
    attributes land in ``args`` for inspection in the trace viewer.
    """
    t0 = min((s.start_s for s in spans), default=0.0)
    events = []
    for s in sorted(spans, key=lambda s: s.start_s):
        events.append(
            {
                "ph": "X",
                "name": s.name,
                "cat": s.name.split(":")[0],
                "ts": (s.start_s - t0) * 1e6,
                "dur": s.dur_s * 1e6,
                "pid": s.pid,
                "tid": s.tid,
                "args": {
                    "trace_id": s.trace_id,
                    "span_id": s.span_id,
                    "parent_id": s.parent_id,
                    **s.attrs,
                },
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}
