"""Execution backends: serial, threaded, and shared-memory process pools.

The brute-force primitive maps independent row/tile tasks over one of these
executors.  Three backends are provided because the right one is
platform-dependent:

* :class:`SerialExecutor` — deterministic reference; also fastest for small
  inputs where pool dispatch dominates.
* :class:`ThreadExecutor` — NumPy's kernels (BLAS GEMM, ufunc loops) release
  the GIL, so the dense distance tiles genuinely run concurrently under
  threads; this is the analogue of the paper's OpenMP CPU implementation.
* :class:`ProcessExecutor` — full process parallelism for workloads with
  Python-level inner loops (e.g. the edit-distance kernel); large operands
  should be passed through :class:`SharedArray` to avoid per-task pickling.

All executors share a two-method protocol (``map``, ``close``) plus a
``n_workers`` attribute, so algorithms are backend-agnostic.

Two process-wide registries make repeated calls against a fixed workload
cheap enough to serve a query stream:

* :class:`ExecutorPool` — live thread/process pools keyed by
  ``(backend, n_workers)``.  ``get_executor`` resolves string specs through
  it, so back-to-back runs reuse the same warm workers instead of paying
  pool construction (and, for processes, interpreter spawn) per call.
  Registry-owned pools ignore ``close()``; :meth:`ExecutorPool.shutdown`
  (also registered ``atexit``) really terminates them.
* :class:`OperandStore` — :class:`SharedArray`-backed operands (dataset
  plus hoisted norms) registered once per dataset epoch and addressed by
  picklable handles in task payloads, so process workers attach by name
  instead of receiving pickled copies per task.
"""

from __future__ import annotations

import atexit
import os
import threading
import weakref
from collections import OrderedDict
from collections.abc import Callable, Iterable
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

__all__ = [
    "Executor",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "SharedArray",
    "ExecutorPool",
    "executor_pool",
    "OperandStore",
    "operand_store",
    "get_executor",
    "executor_scope",
    "default_workers",
]


def default_workers() -> int:
    """Worker count used when none is given (all visible CPUs)."""
    return max(os.cpu_count() or 1, 1)


class Executor:
    """Minimal executor protocol; subclasses run ``map`` their own way."""

    n_workers: int = 1

    def map(self, fn: Callable, items: Iterable) -> list:
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - default no-op
        pass

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SerialExecutor(Executor):
    """Run tasks inline, in order.  The reference backend."""

    n_workers = 1

    def map(self, fn: Callable, items: Iterable) -> list:
        return [fn(item) for item in items]


class ThreadExecutor(Executor):
    """Thread-pool backend; effective for GIL-releasing NumPy kernels."""

    def __init__(self, n_workers: int | None = None) -> None:
        self.n_workers = n_workers or default_workers()
        self._pool = ThreadPoolExecutor(max_workers=self.n_workers)

    def map(self, fn: Callable, items: Iterable) -> list:
        return list(self._pool.map(fn, items))

    def close(self) -> None:
        self._pool.shutdown(wait=True)


class ProcessExecutor(Executor):
    """Process-pool backend for Python-level-parallel workloads.

    ``fn`` and each item must be picklable; use :class:`SharedArray` to pass
    large read-only arrays by name rather than by value.
    """

    def __init__(self, n_workers: int | None = None) -> None:
        self.n_workers = n_workers or default_workers()
        self._pool = ProcessPoolExecutor(max_workers=self.n_workers)

    def map(self, fn: Callable, items: Iterable) -> list:
        return list(self._pool.map(fn, items))

    def close(self) -> None:
        self._pool.shutdown(wait=True)


class _ResidentThread(ThreadExecutor):
    """Registry-owned thread pool: scopes may not close it, only the
    registry's :meth:`ExecutorPool.shutdown` does."""

    def close(self) -> None:
        pass

    def shutdown(self) -> None:
        ThreadExecutor.close(self)


class _ResidentProcess(ProcessExecutor):
    """Registry-owned process pool (see :class:`_ResidentThread`)."""

    def close(self) -> None:
        pass

    def shutdown(self) -> None:
        ProcessExecutor.close(self)


class ExecutorPool:
    """Process-wide registry of live executors keyed by ``(backend, n_workers)``.

    ``get_executor`` used to build a fresh pool on every string spec — a
    full ``ProcessPoolExecutor`` spawn per process-backend ``bf_knn``
    call.  The registry keeps one warm pool per key and hands it out
    repeatedly; returned pools ignore ``close()`` (so the existing
    ``with``-scoped call sites need no changes) and are really terminated
    by :meth:`shutdown`, which is also registered ``atexit``.

    A registered pool that has broken (a worker died) or was shut down
    out-of-band fails the health check and is transparently replaced.
    """

    _CLASSES = {"threads": _ResidentThread, "processes": _ResidentProcess}

    def __init__(self) -> None:
        self._pools: dict[tuple[str, int], Executor] = {}
        self._lock = threading.Lock()
        #: pools constructed over the registry's lifetime (reuse observable)
        self.n_created = 0

    @staticmethod
    def _healthy(pool: Executor) -> bool:
        inner = getattr(pool, "_pool", None)
        if inner is None:
            return False
        if getattr(inner, "_broken", False):
            return False
        if getattr(inner, "_shutdown", False):  # ThreadPoolExecutor
            return False
        if getattr(inner, "_shutdown_thread", False):  # ProcessPoolExecutor
            return False
        return True

    def get(self, backend: str, n_workers: int | None = None) -> Executor:
        """A live resident pool for the spec, creating it at most once."""
        cls = self._CLASSES.get(backend)
        if cls is None:
            raise ValueError(f"unknown executor backend {backend!r}")
        key = (backend, int(n_workers or default_workers()))
        with self._lock:
            pool = self._pools.get(key)
            if pool is not None and self._healthy(pool):
                return pool
            pool = cls(key[1])
            self._pools[key] = pool
            self.n_created += 1
            return pool

    def shutdown(self) -> None:
        """Terminate every registered pool (idempotent)."""
        with self._lock:
            pools = list(self._pools.values())
            self._pools.clear()
        for pool in pools:
            pool.shutdown()

    def __len__(self) -> int:
        with self._lock:
            return len(self._pools)


#: the process-wide executor registry behind ``get_executor`` string specs
executor_pool = ExecutorPool()
atexit.register(executor_pool.shutdown)


@dataclass
class SharedArray:
    """A NumPy array backed by POSIX shared memory, addressable by name.

    The creating process calls :meth:`from_array` and eventually
    :meth:`unlink`; workers call :meth:`open` with the (picklable) handle
    and see the same pages with zero copies.
    """

    name: str
    shape: tuple[int, ...]
    dtype: str

    _shm: shared_memory.SharedMemory | None = None

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "SharedArray":
        arr = np.ascontiguousarray(arr)
        shm = shared_memory.SharedMemory(create=True, size=max(arr.nbytes, 1))
        view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)
        view[...] = arr
        out = cls(name=shm.name, shape=tuple(arr.shape), dtype=str(arr.dtype))
        out._shm = shm
        return out

    def open(self) -> np.ndarray:
        """Attach and return a read-write view (workers treat it read-only)."""
        if self._shm is None:
            self._shm = shared_memory.SharedMemory(name=self.name)
        return np.ndarray(self.shape, dtype=self.dtype, buffer=self._shm.buf)

    def close(self) -> None:
        if self._shm is not None:
            self._shm.close()
            self._shm = None

    def unlink(self) -> None:
        """Release the segment (creator-side cleanup)."""
        shm = self._shm or shared_memory.SharedMemory(name=self.name)
        shm.close()
        shm.unlink()
        self._shm = None

    def __getstate__(self):
        return {"name": self.name, "shape": self.shape, "dtype": self.dtype}

    def __setstate__(self, state):
        self.name = state["name"]
        self.shape = state["shape"]
        self.dtype = state["dtype"]
        self._shm = None


def get_executor(
    executor: str | Executor | None, n_workers: int | None = None
) -> Executor:
    """Resolve an executor spec: ``None`` / ``"serial"`` / ``"threads"`` /
    ``"processes"`` or an existing instance (passed through).

    String specs resolve through the process-wide :data:`executor_pool`
    registry, so back-to-back calls with the same spec reuse one live pool
    (and, for processes, the same resident workers) instead of spinning a
    fresh one up per call.  Registry pools ignore ``close()``; use
    ``executor_pool.shutdown()`` to really terminate them.
    """
    if executor is None or executor == "serial":
        return SerialExecutor()
    if isinstance(executor, Executor):
        return executor
    if executor in ("threads", "processes"):
        return executor_pool.get(executor, n_workers)
    raise ValueError(f"unknown executor {executor!r}")


@contextmanager
def executor_scope(
    executor: str | Executor | None, n_workers: int | None = None
):
    """Resolve an executor spec for the duration of one ``with`` block.

    Ownership is decided once, here: an :class:`Executor` instance passed
    in belongs to the caller and is left open, while a pool resolved from a
    spec (``None`` or a backend name) comes from the :data:`executor_pool`
    registry and *survives* the block — its ``close()`` is a no-op, so the
    same warm workers serve the next identical spec.  Exceptions inside the
    block leave the resident pool usable; a pool broken by a dead worker is
    replaced on the next resolution.
    """
    exec_ = get_executor(executor, n_workers)
    owns = not isinstance(executor, Executor)
    try:
        yield exec_
    finally:
        if owns:
            exec_.close()


# ------------------------------------------------------------ operand store
class _StoreEntry:
    __slots__ = ("ref", "version", "handles")

    def __init__(self, ref, version, handles) -> None:
        self.ref = ref
        self.version = version
        self.handles = handles


def _unlink_handles(handles: dict) -> None:
    for h in handles.values():
        try:
            h.unlink()
        except FileNotFoundError:
            pass  # already released by another path


class OperandStore:
    """Process-wide registry of shared-memory operands for fixed datasets.

    The process backend used to ship its operands per *call*: every
    process-backend ``bf_knn`` placed the whole database in fresh shared memory,
    let the workers attach, and unlinked it on the way out — an O(n d)
    copy plus worker re-attachment per query batch, and the hoisted norms
    were recomputed from scratch in every worker.  The store registers a
    dataset's prepared operands (data plus norms, as named
    :class:`SharedArray` segments) once per dataset epoch; task payloads
    then carry only the picklable handles, and resident workers keep their
    attachments across calls.

    Keying mirrors :class:`~repro.metrics.engine.OperandCache`:
    ``(token, id(array))`` plus a caller-supplied version stamp, with a
    weak reference to detect id recycling — a dead or restamped entry is
    unlinked and rebuilt.  The referent's death also unlinks eagerly (via
    the weakref callback), :meth:`release_for` drops a dataset explicitly,
    and :meth:`clear` (registered ``atexit``) guarantees no orphaned
    ``/dev/shm`` segments outlive the process.  Entries are LRU-bounded;
    eviction unlinks.  Like the operand cache, in-place mutation of a
    registered array requires a version bump (the index classes do this).
    """

    def __init__(self, max_entries: int = 8) -> None:
        self._entries: OrderedDict[tuple, _StoreEntry] = OrderedDict()
        self._lock = threading.Lock()
        self.max_entries = int(max_entries)
        #: registrations performed (each is one shared-memory copy)
        self.n_registered = 0
        #: calls served by an existing registration
        self.n_hits = 0

    def get(
        self,
        token,
        X: np.ndarray,
        *,
        version: int = 0,
        build: Callable[[np.ndarray], dict],
    ) -> dict:
        """Handles for ``X``'s operands, registering them at most once.

        ``build(X)`` returns the named operand arrays (e.g. ``{"data": X,
        "sqnorms": ...}``); each is copied into a :class:`SharedArray`
        exactly once per ``(token, array, version)``.  The returned dict of
        handles is picklable and safe to embed in task payloads.
        """
        key = (token, id(X))
        with self._lock:
            ent = self._entries.get(key)
            if ent is not None:
                if ent.ref() is X and ent.version == version:
                    self._entries.move_to_end(key)
                    self.n_hits += 1
                    return ent.handles
                del self._entries[key]
                _unlink_handles(ent.handles)
        arrays = build(X)
        handles = {
            name: SharedArray.from_array(arr)
            for name, arr in arrays.items()
            if arr is not None
        }

        def _on_dead(_ref, _handles=handles):
            # the source array died: its id may be recycled, so the
            # segments can never be validly served again — release now.
            # GC may fire this on a thread already holding the lock, so
            # only drop the table entry opportunistically; a survivor is
            # detected (dead ref) and removed by the next lookup anyway.
            _unlink_handles(_handles)
            if self._lock.acquire(blocking=False):
                try:
                    self._entries.pop(key, None)
                finally:
                    self._lock.release()

        try:
            ref = weakref.ref(X, _on_dead)
        except TypeError:  # non-weakrefable operand: serve, don't register
            return handles
        evicted: list[dict] = []
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                evicted.append(old.handles)
            self._entries[key] = _StoreEntry(ref, version, handles)
            self.n_registered += 1
            while len(self._entries) > self.max_entries:
                evicted.append(self._entries.popitem(last=False)[1].handles)
        for h in evicted:
            _unlink_handles(h)
        return handles

    def release_for(self, X) -> int:
        """Unlink every registration of ``X``; returns the count dropped."""
        target = id(X)
        with self._lock:
            victims = [k for k in self._entries if k[1] == target]
            dropped = [self._entries.pop(k) for k in victims]
        for ent in dropped:
            _unlink_handles(ent.handles)
        return len(dropped)

    def segment_names(self) -> list[str]:
        """Names of every shared-memory segment currently registered."""
        with self._lock:
            return [
                h.name
                for ent in self._entries.values()
                for h in ent.handles.values()
            ]

    def segments_for(self, X) -> list[str]:
        """Names of the segments registered for ``X`` (leak-test probe)."""
        target = id(X)
        with self._lock:
            return [
                h.name
                for key, ent in self._entries.items()
                if key[1] == target
                for h in ent.handles.values()
            ]

    def clear(self) -> None:
        """Unlink everything (idempotent; registered ``atexit``)."""
        with self._lock:
            dropped = list(self._entries.values())
            self._entries.clear()
        for ent in dropped:
            _unlink_handles(ent.handles)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


#: the process-wide resident-operand registry used by the process backend
operand_store = OperandStore()
atexit.register(operand_store.clear)
