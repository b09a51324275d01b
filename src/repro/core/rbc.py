"""The Random Ball Cover data structure (paper §4).

The RBC is a single-level cover of a metric space: a random subset ``R`` of
the database acts as representatives, each representative ``r`` owns a list
``L_r`` of database points, and stores the radius ``psi_r`` of that list
(the distance to the furthest owned point).  The two search algorithms use
slightly different ownership rules:

* **exact** build (:class:`~repro.core.exact.ExactRBC`): each database
  point joins the list of its *nearest representative* — one ``BF(X, R)``;
* **one-shot** build (:class:`~repro.core.oneshot.OneShotRBC`): each
  representative owns its ``s`` *nearest database points* — one
  ``BF(R, X)`` — so lists typically overlap.

Both builds are single calls of the brute-force primitive, which is the
whole point: construction parallelizes exactly like the searches do.

This module holds the shared machinery: representative sampling, list
storage (sorted by distance-to-representative, enabling the Claim-2 trim),
and radii.
"""

from __future__ import annotations

import numpy as np

from ..index.protocol import Capabilities, Index
from ..metrics import get_metric
from ..metrics.base import Metric
from ..metrics.engine import Prepared, check_dtype, operand_cache
from ..metrics.quantize import check_quantizer, supports_quantization
from ..runtime.context import ExecContext
from .packed import PackedLists
from .stats import BuildStats, SearchStats

__all__ = ["RBCBase", "sample_representatives"]

#: packed column of the gathered float64 candidate block (row ``t`` is the
#: database point ``packed.ids[t]``) every prepared dtype derives from
_SRC = ("cands_src", "float64")


def sample_representatives(
    n: int,
    n_reps: int,
    rng: np.random.Generator,
    *,
    scheme: str = "bernoulli",
) -> np.ndarray:
    """Choose representative ids from ``range(n)``.

    ``scheme="bernoulli"`` follows the paper exactly: each point is chosen
    independently with probability ``n_reps / n`` (so the count is random
    with mean ``n_reps``; the theory's geometric-distribution argument in
    Claim 1 relies on this independence).  ``scheme="exact"`` draws exactly
    ``n_reps`` without replacement — handy when reproducible sizes matter
    more than the letter of the analysis.
    """
    if not 1 <= n_reps <= n:
        raise ValueError(f"need 1 <= n_reps <= n, got n_reps={n_reps}, n={n}")
    if scheme == "bernoulli":
        mask = rng.random(n) < (n_reps / n)
        ids = np.flatnonzero(mask)
        if ids.size == 0:  # resample guard: an empty R is never usable
            ids = rng.choice(n, size=1, replace=False)
        return ids.astype(np.int64)
    if scheme == "exact":
        return np.sort(rng.choice(n, size=n_reps, replace=False)).astype(np.int64)
    raise ValueError(f"unknown sampling scheme {scheme!r}")


class RBCBase(Index):
    """State and helpers shared by the two RBC search structures.

    Parameters
    ----------
    metric:
        metric name or :class:`~repro.metrics.base.Metric` instance.
    seed:
        seed (or Generator) for representative sampling; builds are
        deterministic given the seed.
    rep_scheme:
        ``"bernoulli"`` (paper) or ``"exact"`` representative sampling.
    dtype:
        compute dtype for the query-time distance kernels — ``"float64"``
        (default, exact) or ``"float32"`` (half the GEMM traffic; answers
        are float64-refined, see docs/performance.md).  Builds always run
        in float64 so stored list distances/radii stay exact bounds.
    engine:
        enable the prepared-operand kernel engine (cached norms, packed
        candidate gathers).  On by default for vector databases; disable
        to force the straightforward gather-per-call formulation.
    quantizer:
        quantized scan tier below the engine: ``None`` (off, default),
        ``"int8"``/``"float16"``/``"pq"`` to force a code kind, or
        ``"auto"`` to let the autotuner pick per workload shape.  Answer
        ids stay identical to the uncompressed paths — quantized scans
        only *generate candidates*, which a float64 re-rank finalizes
        (see docs/performance.md).  Requires a metric with a GEMM-shaped
        prepared kernel (the Euclidean family, Mahalanobis, or cosine).
    quant_strategy:
        ``"auto"`` (autotuner decides), ``"flat"`` (one certified scan of
        the whole database replaces both stages) or ``"grouped"`` (the
        pruned stage-2 lists scan the decode cache).  Exact search only.
    """

    def __init__(
        self,
        metric: str | Metric = "euclidean",
        *,
        seed: int | np.random.Generator | None = 0,
        rep_scheme: str = "bernoulli",
        dtype: str = "float64",
        engine: bool = True,
        quantizer: str | None = None,
        quant_strategy: str = "auto",
    ) -> None:
        self.metric = get_metric(metric)
        self.rng = (
            seed
            if isinstance(seed, np.random.Generator)
            else np.random.default_rng(seed)
        )
        self.rep_scheme = rep_scheme
        self.dtype = check_dtype(dtype)
        self.engine = bool(engine)
        if quantizer is not None:
            if quantizer != "auto":
                check_quantizer(quantizer)
            if not supports_quantization(self.metric):
                raise ValueError(
                    f"quantizer={quantizer!r} requires a metric with a "
                    f"GEMM-shaped prepared kernel; "
                    f"{type(self.metric).__name__} has none"
                )
        if quant_strategy not in ("auto", "flat", "grouped"):
            raise ValueError(
                "quant_strategy must be 'auto', 'flat' or 'grouped', "
                f"got {quant_strategy!r}"
            )
        self.quantizer = quantizer
        self.quant_strategy = quant_strategy

        # populated by build()
        self.X = None
        self.n: int = 0
        #: liveness per database row; deletions tombstone rows so global
        #: ids stay stable (None until the first update touches it)
        self._active: np.ndarray | None = None
        self.rep_ids: np.ndarray | None = None
        self.rep_data = None
        #: packed ownership lists (ids + distances + offsets); the
        #: ``lists``/``list_dists`` properties expose per-list views
        self._packed: PackedLists | None = None
        #: psi_r = max_{x in L_r} rho(x, r)
        self.radii: np.ndarray | None = None
        self.build_stats: BuildStats | None = None
        self.last_stats: SearchStats | None = None

        #: database append buffer: ``X`` is a length-``n`` view of it once
        #: the first insert over-allocates (capacity/length split)
        self._X_buf: np.ndarray | None = None
        #: version stamp of the index state; bumped by every build and
        #: dynamic update (read by the semantic cache)
        self._version: int = 0
        #: per-version derived state (prepared operands, trim tables,
        #: plans): a write patches the row-aligned parts in step with the
        #: packed edit and drops the rest (see :meth:`_after_edit`)
        self._prep: dict = {}

    # ------------------------------------------------------------- helpers
    @property
    def is_built(self) -> bool:
        return self.rep_ids is not None

    @property
    def lists(self):
        """Per-representative arrays of owned global ids, ascending by
        distance to the representative (contiguous views into the packed
        storage)."""
        return [] if self._packed is None else self._packed.id_views

    @property
    def list_dists(self):
        """Distances aligned with ``lists`` (contiguous views)."""
        return [] if self._packed is None else self._packed.dist_views

    @property
    def packed(self) -> PackedLists | None:
        """The underlying CSR-style list storage."""
        return self._packed

    @property
    def n_reps(self) -> int:
        self._require_built()
        return int(self.rep_ids.size)

    def _require_built(self) -> None:
        if not self.is_built:
            raise RuntimeError("call build(X) before querying")

    def _require_true_metric(self, why: str) -> None:
        if not getattr(self.metric, "is_true_metric", True):
            raise ValueError(
                f"{type(self.metric).__name__} does not satisfy the triangle "
                f"inequality, which {why} requires"
            )

    def _validate_input(self, X) -> None:
        """Run the metric's dataset validation (e.g. finiteness) if any."""
        validate = getattr(self.metric, "validate", None)
        if validate is not None and isinstance(X, np.ndarray):
            validate(X)

    def _finish_build(
        self,
        X,
        rep_ids: np.ndarray,
        lists: list[np.ndarray],
        list_dists: list[np.ndarray],
        build_evals: int,
    ) -> None:
        self._reset_prep()
        self.X = X
        self._X_buf = None
        self.n = self.metric.length(X)
        self.rep_ids = rep_ids
        self.rep_data = self.metric.take(X, rep_ids)
        self._packed = PackedLists(lists, list_dists)
        self.radii = np.array(
            [d[-1] if len(d) else 0.0 for d in list_dists], dtype=np.float64
        )
        self.build_stats = BuildStats(
            n_points=self.n,
            n_reps=int(rep_ids.size),
            build_evals=build_evals,
            list_sizes=[len(lst) for lst in lists],
        )
        self._bump_version()

    # ------------------------------------------------------- kernel engine
    #: refined per-structure by the subclasses (one-shot is approximate,
    #: exact supports range queries); ``quantizable``/``rescorable`` are
    #: resolved against the configured metric in :meth:`capabilities`.
    CAPS = Capabilities(
        exact=True,
        range_queries=False,
        mutable=True,
        quantizable=True,
        rescorable=True,
        warmable=True,
    )

    def capabilities(self) -> Capabilities:
        return self.CAPS.replace(
            quantizable=self.CAPS.quantizable
            and supports_quantization(self.metric),
            rescorable=self.CAPS.rescorable and self._rescorable_now(),
        )

    def _bump_version(self) -> None:
        """Stamp a new index version.  The operand-cache entries prepared
        from the representative and candidate blocks are evicted: the
        index keeps (and patches) its own operands in ``_prep``, and a
        superseded entry would only pin its source array."""
        self._version += 1
        self._release_operands()

    def _release_operands(self) -> None:
        src = self._packed.columns.get(_SRC) if self._packed is not None else None
        for X in (self.rep_data, src):
            if X is not None:
                operand_cache.evict(self.metric, X)

    def _reset_prep(self) -> None:
        """Discard all per-version state: a build or a representative
        delete renumbers the lists and the representative block."""
        self._release_operands()
        self._prep.clear()
        if self._packed is not None:
            self._packed.detach_all()

    def warm(self, ctx: ExecContext | None = None) -> "RBCBase":
        """Pre-populate the per-version caches the query hot path fills
        lazily (prepared representatives and candidate matrix for the
        effective dtype), so a serving front-end pays the one-time
        preparation cost before the first query arrives instead of inside
        its latency budget.  Idempotent; inserts and deletes patch what it
        built (the quantized tier excepted), builds and representative
        deletes discard it.  Subclasses extend this with their own derived
        structures."""
        self._require_built()
        ctx = self._call_ctx(ctx)
        if self._engine_active(ctx):
            dtype = ctx.dtype_or_default
            self._prepared_reps(dtype)
            self._prepared_cands(dtype)
            if self.quantizer is not None:
                # resolve the tuned kernel plan and build the code operand
                # now, so serving pays for autotuning + quantization before
                # the first query instead of inside its latency budget
                plan = self._quant_plan()
                self._quant_operand(plan.quantizer)
        return self

    # ---------------------------------------------------- execution context
    def _base_ctx(self) -> ExecContext:
        """The index's own configuration as an execution context: the
        fallback every per-call context merges over."""
        return ExecContext(
            dtype=self.dtype,
            engine=self.engine,
        )

    def _call_ctx(
        self,
        ctx: ExecContext | None,
    ) -> ExecContext:
        """One call's execution context: set ``ctx`` fields win, then the
        index configuration."""
        base = self._base_ctx()
        return base if ctx is None else ctx.overriding(base)

    def _engine_active(self, ctx: ExecContext | None = None) -> bool:
        """Prepared-operand kernels apply to vector databases only.  The
        rule itself lives on :meth:`ExecContext.engine_active`."""
        ctx = self._base_ctx() if ctx is None else ctx
        return ctx.engine_active(self.metric, self.X)

    def _prepared_reps(self, dtype: str | None = None):
        """Prepared representative block (cached until the next update).

        ``dtype`` defaults to the index's own; a per-call override (via
        :class:`ExecContext`) caches under its own key, so alternating
        dtypes never thrash a single slot.
        """
        dtype = self.dtype if dtype is None else dtype
        key = ("reps", dtype)
        ent = self._prep.get(key)
        if ent is None:
            ent = operand_cache.get(
                self.metric, self.rep_data, dtype=dtype, version=self._version
            )
            self._prep[key] = ent
        return ent

    def _prepared_cands(self, dtype: str | None = None):
        """Prepared pre-gathered candidate matrix, aligned with the packed
        list storage: backing row ``t`` holds the database point
        ``packed.ids[t]`` (slack rows the point 0, never read), so every
        stage-2 list prefix is a contiguous slice of compute-ready rows.

        Gathered once per build into the float64 source block, prepared
        once per dtype, and attached column by column to the packed
        storage, so inserts and deletes move these rows with the lists.
        """
        dtype = self.dtype if dtype is None else dtype
        key = ("cands", dtype)
        ent = self._prep.get(key)
        if ent is None:
            cols = self._packed.columns
            if ("cands", dtype, "data") not in cols:
                self._attach_cands(dtype)
            ent = Prepared(
                *(cols.get(("cands", dtype, f)) for f in Prepared.__slots__)
            )
            self._prep[key] = ent
        return ent

    def _attach_cands(self, dtype: str) -> None:
        packed = self._packed
        src = packed.columns.get(_SRC)
        if src is None:
            src = self.X[np.where(packed.row_owners()[1], packed.ids, 0)]
            packed.attach(_SRC, src, self.X[0].copy())
        ent = operand_cache.get(
            self.metric, src, dtype=dtype, version=self._version
        )
        fill = self.metric.prepare(self.X[[0, 0]], dtype=dtype)
        for f in Prepared.__slots__:
            if getattr(ent, f) is not None:
                packed.attach(("cands", dtype, f), getattr(ent, f), getattr(fill, f)[0])

    # ----------------------------------------------------- quantized tier
    def _estimate_candidate_fraction(self) -> float:
        """Fraction of the database the pruning rules are expected to keep
        per query — the autotuner's flat-vs-grouped decider.  The base
        structure has no pruning model; subclasses override with a cheap
        probe (see ``ExactRBC``)."""
        return 1.0

    def _quant_plan(self):
        """The tuned :class:`~repro.runtime.autotune.KernelPlan` for this
        index (resolved once per version; ``quantizer=None`` -> ``None``).

        ``quantizer="auto"`` lets the autotuner pick the code kind and the
        flat/grouped strategy from the machine model and a cheap pruning
        probe; an explicit kind pins the quantizer but still takes the
        tuned strategy/chunking unless ``quant_strategy`` pins those too.
        """
        if self.quantizer is None:
            return None
        cached = self._prep.get("quant_plan")
        if cached is not None:
            return cached
        from dataclasses import replace as dc_replace

        from ..runtime.autotune import default_autotuner

        kind = None if self.quantizer == "auto" else self.quantizer
        plan = default_autotuner.plan_for(
            type(self).__name__.lower(),
            self.n,
            int(self.metric.dim(self.X)),
            kernel=self.metric.prepared_kernel,
            quantizer=kind,
            cand_frac=self._estimate_candidate_fraction(),
        )
        if self.quant_strategy != "auto":
            plan = dc_replace(plan, strategy=self.quant_strategy)
        self._prep["quant_plan"] = plan
        return plan

    def _quant_operand(self, kind: str):
        """Quantized code operand aligned with the packed list storage.

        Backing row ``t`` codes the database point ``packed.ids[t]`` —
        the same layout as :meth:`_prepared_cands`, so grouped stage-2
        scans slice it directly, while the flat scan covers exactly the
        live points (slack rows are masked out, tombstoned points are
        simply absent).  Derived through
        :meth:`~repro.metrics.engine.OperandCache.get_quantized`, so it
        shares the float64 parent's version stamp and is evicted with it.
        """
        key = ("quant", kind)
        ent = self._prep.get(key)
        if ent is None:
            self._prepared_cands("float64")  # parent + gathered matrix
            packed = self._packed
            gathered = packed.columns[_SRC]
            safe_ids = np.clip(packed.ids, 0, self.n - 1).astype(np.int64)
            valid = packed.row_owners()[1]
            # slack rows map to -1 (refine_topk's ignored padding id),
            # never to a real point, should one leak past the masks
            safe_ids[~valid] = -1
            ent = operand_cache.get_quantized(
                self.metric,
                gathered,
                kind,
                version=self._version,
                ids=safe_ids,
                valid=valid,
            )
            self._prep[key] = ent
        return ent

    # ------------------------------------------------------ dynamic updates
    @property
    def active_ids(self) -> np.ndarray:
        """Global ids of live (non-deleted) database points."""
        self._require_built()
        if self._active is None:
            return np.arange(self.n, dtype=np.int64)
        return np.flatnonzero(self._active).astype(np.int64)

    @property
    def n_active(self) -> int:
        self._require_built()
        if self._active is None:
            return self.n
        return int(self._active.sum())

    def _require_vector_db(self, what: str) -> None:
        if not isinstance(self.X, np.ndarray):
            raise ValueError(f"{what} requires an ndarray database")

    def _append_point(self, x) -> int:
        """Append a row to the database; returns its global id.

        Amortized O(1): the database lives in an over-allocated append
        buffer (capacity/length split, doubled geometrically) and ``X`` is
        a length-``n`` view of it, so most appends are a single row copy.
        """
        x = np.asarray(x, dtype=np.float64).reshape(1, -1)
        if x.shape[1] != self.X.shape[1]:
            raise ValueError(
                f"dimension mismatch: point has d={x.shape[1]}, "
                f"database has d={self.X.shape[1]}"
            )
        if self._X_buf is None or self.n + 1 > self._X_buf.shape[0]:
            cap = max(self.n + 1, 2 * self.n, 8)
            buf = np.empty((cap, self.X.shape[1]), dtype=np.float64)
            buf[: self.n] = self.X
            self._X_buf = buf
        self._X_buf[self.n] = x[0]
        self.n += 1
        self.X = self._X_buf[: self.n]
        if self._active is None:
            self._active = np.ones(self.n - 1, dtype=bool)
        self._active = np.append(self._active, True)
        self._bump_version()
        return self.n - 1

    #: ``_prep`` entries a write keeps in step with the packed edit; it
    #: drops every other one (rebuilt lazily by the next read)
    _PATCHED = ("reps", "cands")

    def _point_row(self, gid: int) -> dict:
        """The new rows a point brings to the attached candidate columns:
        its source row and, per cached dtype, ``metric.prepare`` of that
        one point.  The point is prepared as a two-row block: BLAS takes a
        matrix-vector path for one row (Mahalanobis' transform), whose
        rounding differs from the block the rebuild prepares."""
        x = self.X[[gid, gid]]
        prepared, row = {}, {}
        for name in self._packed.columns:
            if name == _SRC:
                row[name] = x[0]
            elif isinstance(name, tuple) and name[0] == "cands":
                _, dtype, f = name
                if dtype not in prepared:
                    prepared[dtype] = self.metric.prepare(x, dtype=dtype)
                row[name] = getattr(prepared[dtype], f)[0]
        return row

    def _list_row(self, j: int, dist: float, row: dict) -> dict:
        """``row`` plus the attached columns whose new row depends on the
        list (subclass hook)."""
        return row

    def _insert_rows(self, gid: int, lists, dists) -> None:
        """File point ``gid`` into each list of ``lists`` at its sorted
        position (``dists``: its distance to each list's representative),
        growing the radii; every attached column gets its new row."""
        packed = self._packed
        row = self._point_row(gid)
        for j, dist in zip(lists, dists):
            dist = float(dist)
            pos = int(np.searchsorted(packed.dists_of(j), dist))
            relayout = packed.insert(j, pos, gid, dist, self._list_row(j, dist, row))
            self.radii[j] = max(self.radii[j], dist)
            self._after_edit(j, pos, 1, relayout)

    def _delete_rows(self, gid: int) -> int:
        """Remove point ``gid`` from every list holding it (one compare
        over the packed ids); returns how many lists held it."""
        lists, positions = self._packed.find(gid)
        # last row first: no deletion moves a row still to be deleted
        for j, pos in zip(lists[::-1].tolist(), positions[::-1].tolist()):
            self._packed.delete_at(j, pos)
            self._after_edit(j, pos, -1, False)
        return int(lists.size)

    def _after_edit(self, j: int, pos: int, step: int, relayout: bool) -> None:
        """Keep ``_prep`` in step with one packed edit at row ``pos`` of
        list ``j`` (``step`` +1: insert, -1: delete).  The attached columns
        already moved; entries outside ``_PATCHED`` are dropped, and after
        a relayout the prepared wrappers are re-made around the moved
        columns on the next read."""
        for key in list(self._prep):
            name = key[0] if isinstance(key, tuple) else key
            if name not in self._PATCHED or (relayout and name == "cands"):
                del self._prep[key]

    def _tombstone(self, gid: int) -> None:
        if self._active is None:
            self._active = np.ones(self.n, dtype=bool)
        if not 0 <= gid < self.n or not self._active[gid]:
            raise ValueError(f"point {gid} does not exist or is deleted")
        self._active[gid] = False
        self._bump_version()

    def memory_footprint(self) -> int:
        """Approximate bytes held by the cover: the packed columns (ids,
        distances and any attached candidate block) + radii + quantized
        codes, counting *allocated capacity* (packed-list slack and the
        database append buffer's tail included), not just live entries."""
        self._require_built()
        total = self.rep_ids.nbytes + self.radii.nbytes
        if self._packed is not None:
            total += self._packed.nbytes  # the attached columns included
        if self._X_buf is not None and isinstance(self.X, np.ndarray):
            # slack rows beyond the live view
            total += (self._X_buf.shape[0] - self.n) * self.X.itemsize * (
                self.X.shape[1] if self.X.ndim == 2 else 1
            )
        for key, val in self._prep.items():
            if isinstance(key, tuple) and key[0] == "quant":
                total += val.nbytes
        return total

    # ------------------------------------------------------------ interface
    def build(
        self,
        X,
        n_reps: int | None = None,
        *,
        ctx: ExecContext | None = None,
    ) -> "RBCBase":
        raise NotImplementedError

    def query(
        self,
        Q,
        k: int = 1,
        *,
        ctx: ExecContext | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = (
            f"n={self.n}, n_reps={self.rep_ids.size}" if self.is_built else "unbuilt"
        )
        return f"{type(self).__name__}({self.metric.name}, {state})"
