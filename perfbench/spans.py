"""Spans recorded from outside the program, around calls into its layers.

:func:`traced` installs timing wrappers on public entry points for the
duration of a ``with`` block and removes them afterwards.  Each wrapped
call becomes one span: name, start, end, parent span, request id and a few
attributes.  Spans stay in memory; :meth:`SpanLog.save` writes them out
when the run ends.

A call made on a pool thread has no span open on its own thread; it is
parented under the innermost span open on the thread that opened the log,
which is the call that handed the work to the pool.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import ExitStack, contextmanager
from pathlib import Path

import numpy as np

#: spans of the program's kernels: their time belongs to the caller's layer
KERNELS = (
    "pairwise",
    "pairwise_prepared",
    "rescore_pairs@searcher",
    "rescore_pairs@sharded",
    "rescore_pairs@cache",
    "merge_group_topk",
    "merge_topk",
    "dedupe_rows",
)


class SpanLog:
    """In-memory span store with per-thread parent stacks."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.request = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = self._stack()

    def _stack(self) -> list[int]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def new_request(self) -> int:
        self.request += 1
        return self.request

    def call(self, name: str, fn, *args, attrs: dict | None = None, **kwargs):
        st = self._stack()
        if st:
            parent = st[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        sid = next(self._ids)
        st.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            st.pop()
            self.spans.append(
                {
                    "id": sid,
                    "name": name,
                    "start": t0,
                    "end": t1,
                    "parent": parent,
                    "request": self.request,
                    "attrs": attrs or {},
                }
            )

    def wrap(self, name: str, fn, attrs_of=None):
        def traced_call(*args, **kwargs):
            attrs = attrs_of(*args, **kwargs) if attrs_of is not None else None
            return self.call(name, fn, *args, attrs=attrs, **kwargs)

        return traced_call

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


@contextmanager
def _patched(obj, attr: str, value, *, instance: bool):
    """Set ``obj.attr`` for the block; an instance patch is removed again
    (uncovering the class attribute), a module patch restored."""
    old = getattr(obj, attr)
    setattr(obj, attr, value)
    try:
        yield
    finally:
        if instance:
            delattr(obj, attr)
        else:
            setattr(obj, attr, old)


@contextmanager
def traced(log: SpanLog, index, caches=()):
    """Wrap the public calls of ``index``, its metric, the serving modules'
    imported kernels and each :class:`ProximityCache` in ``caches``."""
    from repro.serving import cache as cache_mod
    from repro.serving import searcher as searcher_mod
    from repro.serving import sharded as sharded_mod

    metric = index.metric

    def query_attrs(Q, k=1, **_kw):
        return {"m": int(np.shape(Q)[0])}

    def prepared_attrs(Qp, Xp, **_kw):
        # stage 1 scans the prepared representatives, which are the
        # index's own rep_data array; stage 2 scans candidate slices
        rep = index.rep_data
        return {"stage1": Xp.data is rep or Xp.data.base is rep}

    def lookup_attrs(Qb, **_kw):
        # one lookup opens every served micro-batch: a new request
        log.new_request()
        return {"m": int(Qb.shape[0])}

    with ExitStack() as stack:
        for name in ("query", "insert", "delete"):
            fn = getattr(index, name)
            attrs_of = query_attrs if name == "query" else None
            stack.enter_context(
                _patched(
                    index, name, log.wrap(f"ExactRBC.{name}", fn, attrs_of),
                    instance=True,
                )
            )
        stack.enter_context(
            _patched(metric, "pairwise", log.wrap("pairwise", metric.pairwise),
                     instance=True)
        )
        stack.enter_context(
            _patched(
                metric, "pairwise_prepared",
                log.wrap("pairwise_prepared", metric.pairwise_prepared,
                         prepared_attrs),
                instance=True,
            )
        )
        for mod, tag in (
            (searcher_mod, "searcher"),
            (sharded_mod, "sharded"),
            (cache_mod, "cache"),
        ):
            stack.enter_context(
                _patched(
                    mod, "rescore_pairs",
                    log.wrap(f"rescore_pairs@{tag}", mod.rescore_pairs),
                    instance=False,
                )
            )
        for name in ("merge_group_topk", "merge_topk", "dedupe_rows"):
            stack.enter_context(
                _patched(
                    sharded_mod, name, log.wrap(name, getattr(sharded_mod, name)),
                    instance=False,
                )
            )
        for cache in caches:
            stack.enter_context(
                _patched(
                    cache, "lookup",
                    log.wrap("ProximityCache.lookup", cache.lookup, lookup_attrs),
                    instance=True,
                )
            )
            stack.enter_context(
                _patched(
                    cache, "admit",
                    log.wrap("ProximityCache.admit", cache.admit),
                    instance=True,
                )
            )
        yield log


# ------------------------------------------------------------ derivation
def _union(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = -np.inf
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


class SpanTree:
    """Self times and owning layer call of every recorded span."""

    def __init__(self, spans: list[dict]) -> None:
        self.spans = spans
        self.by_id = {s["id"]: s for s in spans}
        kids: dict[int, list[dict]] = {}
        for s in spans:
            if s["parent"] is not None:
                kids.setdefault(s["parent"], []).append(s)
        self.children = kids
        for s in spans:
            lo, hi = s["start"], s["end"]
            cover = [
                (max(c["start"], lo), min(c["end"], hi))
                for c in kids.get(s["id"], ())
            ]
            s["self"] = (hi - lo) - _union([iv for iv in cover if iv[1] > iv[0]])
            s["dur"] = hi - lo

    def owner(self, span: dict) -> dict | None:
        """Nearest ancestor that is not a kernel (the call whose layer a
        kernel span's time belongs to)."""
        p = span["parent"]
        while p is not None:
            anc = self.by_id.get(p)
            if anc is None:
                return None
            if anc["name"] not in KERNELS:
                return anc
            p = anc["parent"]
        return None

    def named(self, *names: str) -> list[dict]:
        return [s for s in self.spans if s["name"] in names]

    def gemm_cover(self, span: dict) -> float:
        """Time inside ``span`` covered by its distance-kernel children."""
        iv = [
            (c["start"], c["end"])
            for c in self.children.get(span["id"], ())
            if c["name"] in ("pairwise", "pairwise_prepared")
        ]
        return _union(iv)
