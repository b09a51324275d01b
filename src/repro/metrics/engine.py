"""Kernel engine: prepared operands for zero-recompute brute-force calls.

The paper reduces every search to the brute-force primitive ``BF(Q, X[L])``
whose distance step is GEMM-shaped (§3), so the distance kernel *is* the
serving hot path.  Against a fixed database the naive formulation wastes
work on every call: the Gram-trick metrics recompute the database norm
vector ``||x||^2`` (an O(n d) reduction), every call re-runs dtype coercion
and ``ascontiguousarray`` on operands that never change, and Mahalanobis
re-applies its Cholesky transform to the whole database per block.

This module removes all of that:

* :class:`Prepared` — a dataset in compute-ready form: contiguous data in
  the compute dtype plus whatever per-row terms the metric can hoist out of
  the kernel (squared norms for the Gram-trick metrics, row norms for the
  angular metric, transformed coordinates for Mahalanobis).  Prepared
  operands slice and gather without recomputation, so blocked kernels pay
  the O(n d) preparation exactly once.
* :class:`OperandCache` — a process-wide cache of prepared operands keyed
  on array identity plus a caller-supplied version stamp.  Index structures
  bump their stamp on ``insert``/``delete``/rebuild and :meth:`evict
  <OperandCache.evict>` the operands they superseded.  An entry holds a
  weak reference to its source array but a strong one to its prepared
  form, and that form's ``data`` may *be* the source (float64 Gram-trick
  metrics), so an entry can keep its source alive until it is evicted.
* :class:`CacheCounter` — the measurement instrument (mirroring
  :class:`~repro.metrics.base.DistanceCounter`): how many operand
  preparations (norm computations) ran, how many calls were served from
  cache, and how many entries were invalidated.  The "database norms are
  computed exactly once per build" property is asserted against it.
* :func:`refine_topk` — the float64 refinement step of the ``float32``
  compute path: candidate ids selected in float32 are re-scored with exact
  float64 distances and re-ranked, so the low-precision GEMM only has to
  get the *candidate set* right, not the final ordering.
* :func:`rounding_bound` — the bound on one prepared-kernel value's
  rounding error that certifies the float32 candidate sets of ``bf_knn``
  and exact RBC search, and the survivor threshold of the latter.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict

import numpy as np

__all__ = [
    "Prepared",
    "CacheCounter",
    "OperandCache",
    "operand_cache",
    "prepare_operands",
    "rescore_pairs",
    "refine_topk",
    "rounding_bound",
    "COMPUTE_DTYPES",
]

#: dtypes the compute path accepts; float64 is the exact default, float32
#: halves GEMM traffic (see docs/performance.md for the safety argument)
COMPUTE_DTYPES = ("float64", "float32")


def check_dtype(dtype: str) -> str:
    """Validate and normalize a compute-dtype knob value."""
    if dtype not in COMPUTE_DTYPES:
        raise ValueError(
            f"compute dtype must be one of {COMPUTE_DTYPES}, got {dtype!r}"
        )
    return dtype


class Prepared:
    """A dataset in compute-ready form for one metric.

    ``data`` is contiguous in the compute dtype; ``sqnorms``/``norms`` hold
    the metric's hoisted per-row terms (``None`` when the metric has none).
    Slicing and gathering preserve the hoisted terms, so blocked kernels
    never recompute them.
    """

    __slots__ = ("data", "sqnorms", "norms")

    def __init__(
        self,
        data: np.ndarray,
        sqnorms: np.ndarray | None = None,
        norms: np.ndarray | None = None,
    ) -> None:
        self.data = data
        self.sqnorms = sqnorms
        self.norms = norms

    def __len__(self) -> int:
        return len(self.data)

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def nbytes(self) -> int:
        total = self.data.nbytes
        for extra in (self.sqnorms, self.norms):
            if extra is not None:
                total += extra.nbytes
        return total

    def slice(self, lo: int, hi: int) -> "Prepared":
        """Contiguous row range as views (no copies, no recomputation)."""
        return Prepared(
            self.data[lo:hi],
            None if self.sqnorms is None else self.sqnorms[lo:hi],
            None if self.norms is None else self.norms[lo:hi],
        )

    def take(self, idx: np.ndarray) -> "Prepared":
        """Gather rows by index, carrying the hoisted terms along."""
        return Prepared(
            self.data[idx],
            None if self.sqnorms is None else self.sqnorms[idx],
            None if self.norms is None else self.norms[idx],
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Prepared(n={len(self.data)}, dtype={self.data.dtype})"


class CacheCounter:
    """Tally of operand-cache activity (exposed like ``DistanceCounter``).

    ``n_prepared`` counts full preparations — each one is an O(n d) pass
    over a dataset (coercion + norms); ``n_hits`` counts calls served from
    cache without touching the data; ``n_invalidated`` counts entries
    dropped because their version stamp moved or their array died.
    """

    __slots__ = ("n_prepared", "n_hits", "n_invalidated", "_lock")

    def __init__(
        self, n_prepared: int = 0, n_hits: int = 0, n_invalidated: int = 0
    ) -> None:
        self.n_prepared = n_prepared
        self.n_hits = n_hits
        self.n_invalidated = n_invalidated
        self._lock = threading.Lock()

    def add_prepared(self) -> None:
        with self._lock:
            self.n_prepared += 1

    def add_hit(self) -> None:
        with self._lock:
            self.n_hits += 1

    def add_invalidated(self) -> None:
        with self._lock:
            self.n_invalidated += 1

    def reset(self) -> None:
        with self._lock:
            self.n_prepared = 0
            self.n_hits = 0
            self.n_invalidated = 0

    def snapshot(self) -> "CacheCounter":
        with self._lock:
            return CacheCounter(self.n_prepared, self.n_hits, self.n_invalidated)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CacheCounter(n_prepared={self.n_prepared}, n_hits={self.n_hits}, "
            f"n_invalidated={self.n_invalidated})"
        )


class _Entry:
    __slots__ = ("ref", "version", "prepared")

    def __init__(self, ref, version, prepared) -> None:
        self.ref = ref
        self.version = version
        self.prepared = prepared


class OperandCache:
    """Process-wide cache of prepared operands for fixed datasets.

    Keyed on ``(metric token, id(array), dtype)`` plus a caller-supplied
    integer *version stamp*: a lookup with a different stamp than the
    cached entry invalidates and re-prepares.  Index structures own their
    stamp and bump it on every dynamic update, so stale norms can never be
    served after an ``insert``/``delete``/rebuild.

    Entries hold a weak reference to the source array and a strong one to
    its prepared form, and the table is LRU-bounded.  When the prepared
    ``data`` is the source itself (float64 with nothing to transform) the
    entry keeps the source alive until it is evicted or pushed out of the
    LRU, so an owner that replaces a source calls :meth:`evict` on the old
    one.  The ``id()`` key is safe because a dead referent (whose id could
    be recycled) is detected through the weakref and dropped.  The cache
    does **not** fingerprint array contents: callers mutating an array in
    place must bump the version stamp (the index classes do) or bypass the
    cache.
    """

    def __init__(self, max_entries: int = 32) -> None:
        self._entries: OrderedDict[tuple, _Entry] = OrderedDict()
        self._lock = threading.Lock()
        self.max_entries = int(max_entries)
        self.stats = CacheCounter()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def _evict_family(self, token, xid) -> None:
        """Drop every entry for ``(token, xid)`` — all dtypes and derived
        quantized variants.  Caller holds the lock.

        A version-stamp miss means the source array changed; the float64
        parent and everything *derived* from it (float32 coercions, int8 /
        float16 / PQ codes) are stale together, so the whole family goes
        at once — a quantized variant can never outlive its parent.
        """
        dead = [k for k in self._entries if k[0] == token and k[1] == xid]
        for k in dead:
            del self._entries[k]
            self.stats.add_invalidated()

    def evict(self, metric, X) -> None:
        """Drop every entry prepared from ``X`` for ``metric`` (all dtypes
        and quantized variants): the owner superseded them."""
        with self._lock:
            self._evict_family(metric.cache_token(), id(X))

    def _lookup(self, key, X, version):
        """Hit / stale handling shared by the dtype and quantized getters.

        Returns the cached value on a hit; ``None`` after evicting the
        whole ``(token, id)`` family on a stale or dead entry.  Caller
        holds the lock.
        """
        entry = self._entries.get(key)
        if entry is None:
            return None
        if entry.ref() is X and entry.version == version:
            self._entries.move_to_end(key)
            self.stats.add_hit()
            return entry.prepared
        self._evict_family(key[0], key[1])
        return None

    def _store(self, key, X, version, prepared) -> None:
        try:
            ref = weakref.ref(X)
        except TypeError:  # non-weakrefable duck arrays: don't cache
            return
        with self._lock:
            self._entries[key] = _Entry(ref, version, prepared)
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def get(self, metric, X: np.ndarray, dtype: str = "float64", version: int = 0):
        """Return the prepared form of ``X``, computing it at most once per
        ``(array, dtype, version)``."""
        check_dtype(dtype)
        key = (metric.cache_token(), id(X), dtype)
        with self._lock:
            hit = self._lookup(key, X, version)
        if hit is not None:
            return hit
        prepared = metric.prepare(X, dtype=dtype)
        self.stats.add_prepared()
        self._store(key, X, version, prepared)
        return prepared

    def get_quantized(
        self,
        metric,
        X: np.ndarray,
        kind: str,
        *,
        version: int = 0,
        seed: int = 0,
        ids=None,
        valid=None,
    ):
        """Quantized operand for ``X``, derived from (and version-locked
        to) the cached float64 parent.

        Cached under ``(metric token, id(X), "quant:<kind>")`` with the
        same version stamp as the parent, so a stale parent takes every
        quantized sibling with it (see :meth:`_evict_family`).  ``ids``/
        ``valid``/``seed`` parameterize the build only — they are
        functions of the same index version the stamp already tracks.
        """
        from .quantize import quantize_prepared

        key = (metric.cache_token(), id(X), f"quant:{kind}")
        with self._lock:
            hit = self._lookup(key, X, version)
        if hit is not None:
            return hit
        parent = self.get(metric, X, dtype="float64", version=version)
        qop = quantize_prepared(
            metric, parent, kind, seed=seed, ids=ids, valid=valid
        )
        self.stats.add_prepared()
        self._store(key, X, version, qop)
        return qop


#: the process-wide cache used by ``bf_knn``/``bf_range`` and the indexes
operand_cache = OperandCache()


def rounding_bound(metric, Qp: Prepared, rows, x_sq_max: float, g):
    """Bound on ``|computed - exact|`` of one prepared-kernel value for the
    query rows ``rows``, in the kernel's ranking domain.

    ``4 (d + 2) eps`` is twice the dot-product bound ``2 gamma_{d+2}``
    (``gamma_n = n u / (1 - n u)``, ``u = eps / 2``); the margin covers
    rounding the operands to the compute dtype.  Gram-trick metrics
    (``squared_ok``) carry an absolute error scaled by the norms, the
    others a relative one at distance scale ``g`` (plus the square-root
    loss of ``arccos`` near 0 for the angular metric).
    """
    rel = 4.0 * (Qp.data.shape[1] + 2) * float(np.finfo(Qp.data.dtype).eps)
    if metric.squared_ok:
        return rel * (Qp.sqnorms[rows].astype(np.float64) + x_sq_max)
    err = rel * g
    if metric.prepared_kernel == "angular":
        err = err + np.pi * np.sqrt(rel)
    return err


def prepare_operands(metric, X, dtype: str = "float64", *, version: int = 0):
    """Prepared form of ``X`` for ``metric``, via the process-wide cache."""
    return operand_cache.get(metric, X, dtype=dtype, version=version)


def rescore_pairs(metric, Qb, X, idx: np.ndarray) -> np.ndarray:
    """Exact float64 distances for an ``(m, k')`` candidate-id block.

    Row ``i``'s candidates ``idx[i]`` are scored against query ``i`` with
    the metric's *paired* kernel, whose per-pair reduction is independent
    of how the rows are batched — so the scores are bit-identical whether
    the queries arrive one at a time or in one block (the serving
    pipeline's determinism anchor).  Padding slots (id ``-1``) score
    ``inf``.  The evaluations are real work, counted on the metric's
    :class:`~repro.metrics.base.DistanceCounter` like any other.
    """
    m, kk = idx.shape
    Qb = np.atleast_2d(np.asarray(Qb, dtype=np.float64))
    d = np.empty((m, kk))
    # row blocks bound the (rows * kk, d) gathered operands
    step = max(1, 65536 // max(kk, 1))
    for lo in range(0, m, step):
        hi = min(lo + step, m)
        block = idx[lo:hi]
        safe = np.clip(block, 0, None).reshape(-1)
        pairs_q = np.repeat(Qb[lo:hi], kk, axis=0)
        d[lo:hi] = metric.paired(pairs_q, metric.take(X, safe)).reshape(
            hi - lo, kk
        )
    d[idx < 0] = np.inf
    return d


def refine_topk(
    metric,
    Qb,
    X,
    idx: np.ndarray,
    k: int,
    *,
    ids_are_global: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Re-score float32-selected candidates in float64 and re-rank to ``k``.

    ``idx`` is an ``(m, k')`` candidate-id block (``k' >= k``) selected by
    the low-precision kernel; each row's candidates are re-scored with the
    exact float64 :func:`rescore_pairs` and the ``k`` nearest kept.
    Padding slots (id ``-1``) are ignored.  Returns ``(dist, idx)`` of
    shape ``(m, k)``, rows sorted ascending, padded with ``inf``/``-1``.
    """
    d = rescore_pairs(metric, Qb, X, idx)
    order = np.argsort(d, axis=1, kind="stable")[:, :k]
    out_d = np.take_along_axis(d, order, axis=1)
    out_i = np.take_along_axis(idx, order, axis=1).astype(np.int64, copy=False)
    out_i = np.where(np.isfinite(out_d), out_i, -1)
    return out_d, out_i
