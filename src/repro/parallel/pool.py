"""Execution backends: serial and threaded.

The brute-force primitive maps independent row/tile tasks over one of these
executors:

* :class:`SerialExecutor` — deterministic reference; also fastest for small
  inputs where pool dispatch dominates.
* :class:`ThreadExecutor` — NumPy's kernels (BLAS GEMM, ufunc loops) release
  the GIL, so the dense distance tiles genuinely run concurrently under
  threads; this is the analogue of the paper's OpenMP CPU implementation.

Both share a two-method protocol (``map``, ``close``) plus a ``n_workers``
attribute, so algorithms are backend-agnostic.

:class:`ExecutorPool` is a process-wide registry of live thread pools keyed
by ``n_workers``: ``get_executor`` resolves the ``"threads"`` spec through
it, so back-to-back runs reuse the same warm workers instead of paying pool
construction per call.  Registry-owned pools ignore ``close()``;
:meth:`ExecutorPool.shutdown` (also registered ``atexit``) really
terminates them.
"""

from __future__ import annotations

import atexit
import os
import threading
from collections.abc import Callable, Iterable
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

__all__ = [
    "Executor",
    "SerialExecutor",
    "ThreadExecutor",
    "ExecutorPool",
    "executor_pool",
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


class _ResidentThread(ThreadExecutor):
    """Registry-owned thread pool: scopes may not close it, only the
    registry's :meth:`ExecutorPool.shutdown` does."""

    def close(self) -> None:
        pass

    def shutdown(self) -> None:
        ThreadExecutor.close(self)


class ExecutorPool:
    """Process-wide registry of live thread pools keyed by ``n_workers``.

    The registry keeps one warm pool per worker count and hands it out
    repeatedly; returned pools ignore ``close()`` (so the ``with``-scoped
    call sites need no changes) and are really terminated by
    :meth:`shutdown`, which is also registered ``atexit``.

    A registered pool that was shut down out-of-band fails the health check
    and is transparently replaced.
    """

    def __init__(self) -> None:
        self._pools: dict[int, _ResidentThread] = {}
        self._lock = threading.Lock()
        #: pools constructed over the registry's lifetime (reuse observable)
        self.n_created = 0

    @staticmethod
    def _healthy(pool: _ResidentThread) -> bool:
        inner = pool._pool
        return not (inner._broken or inner._shutdown)

    def get(self, backend: str, n_workers: int | None = None) -> Executor:
        """A live resident pool for the spec, creating it at most once."""
        if backend != "threads":
            raise ValueError(f"unknown executor backend {backend!r}")
        key = int(n_workers or default_workers())
        with self._lock:
            pool = self._pools.get(key)
            if pool is not None and self._healthy(pool):
                return pool
            pool = _ResidentThread(key)
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


def get_executor(
    executor: str | Executor | None, n_workers: int | None = None
) -> Executor:
    """Resolve an executor spec: ``None`` / ``"serial"`` / ``"threads"``
    or an existing instance (passed through).

    ``"threads"`` resolves through the process-wide :data:`executor_pool`
    registry, so back-to-back calls with the same spec reuse one live pool
    instead of spinning a fresh one up per call.  Registry pools ignore
    ``close()``; use ``executor_pool.shutdown()`` to really terminate them.
    """
    if executor is None or executor == "serial":
        return SerialExecutor()
    if isinstance(executor, Executor):
        return executor
    if executor == "threads":
        return executor_pool.get(executor, n_workers)
    raise ValueError(f"unknown executor {executor!r}")


@contextmanager
def executor_scope(
    executor: str | Executor | None, n_workers: int | None = None
):
    """Resolve an executor spec for the duration of one ``with`` block.

    Nothing is closed on the way out: an :class:`Executor` instance passed
    in belongs to the caller, and a ``"threads"`` spec resolves to a pool of
    the :data:`executor_pool` registry that *survives* the block, so the
    same warm workers serve the next identical spec.  Exceptions inside the
    block leave the resident pool usable; a pool shut down out-of-band is
    replaced on the next resolution.
    """
    yield get_executor(executor, n_workers)
