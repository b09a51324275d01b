"""SLO-driven query router — an :class:`Index` that picks other indexes.

The paper's core observation is that the right search algorithm depends on
the regime: brute force wins small-n/high-d, RBC exact wins when the
expansion rate ``c`` is modest, one-shot and forests trade recall for
latency.  The :class:`Router` makes that choice per query batch from

* ``(n, d)`` of the built database,
* ``k`` and the batch size of the incoming request,
* the expansion-rate estimate ``c_est`` inverted from the exact RBC's
  build stats via Theorem 1 (expected stage-2 candidates ``c^3 n / n_r``),
* a latency budget (per batch, seconds), and
* measured per-backend cost history (EWMA over RunReport wall clocks,
  seeded by a calibration probe at build time and updated after every
  dispatch).

Degradation ladder: under SLO pressure the router walks ``rbc-exact →
rbc-oneshot → rpforest → rbc-oneshot-small`` (one-shot with ``n_r/4``
representatives), restoring to exact when pressure clears.  Wire it to an
:class:`~repro.obs.slo.SLOMonitor` with :meth:`Router.attach_slo` — or let
:class:`~repro.serving.searcher.StreamingSearcher` do it automatically for
any index whose capabilities declare ``degradable``.

Range queries are routed only to range-capable backends; if none is
configured the router raises the uniform
:class:`~repro.index.protocol.UnsupportedCapability`.
"""

from __future__ import annotations

import dataclasses
import math
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ..metrics.base import VectorMetric
from ..runtime.context import ExecContext
from ..simulator.trace import NULL_RECORDER
from .protocol import Capabilities, Index, UnsupportedCapability, capabilities_for

__all__ = ["RouteDecision", "Router"]

#: seconds per distance-flop fallback used before any measurement exists
_DEFAULT_S_PER_FLOP = 2.5e-10


@dataclass(frozen=True)
class RouteDecision:
    """One routing choice and its justification."""

    backend: str
    rung: int
    n_queries: int
    k: int
    predicted_s: float
    budget_s: float | None
    reason: str
    measured_s: float | None = None
    c_est: float | None = None


@dataclass
class _CostModel:
    """Per-backend EWMA of measured seconds/query, bucketed by ``log2 k``."""

    alpha: float = 0.3
    buckets: dict = field(default_factory=dict)

    def update(self, k: int, per_query_s: float) -> None:
        b = int(math.log2(max(k, 1)))
        prev = self.buckets.get(b)
        self.buckets[b] = (
            per_query_s
            if prev is None
            else (1.0 - self.alpha) * prev + self.alpha * per_query_s
        )

    def predict(self, k: int) -> float | None:
        if not self.buckets:
            return None
        b = int(math.log2(max(k, 1)))
        if b in self.buckets:
            return self.buckets[b]
        nearest = min(self.buckets, key=lambda x: abs(x - b))
        return self.buckets[nearest]


class Router(Index):
    """Capability- and cost-aware dispatch over registered backends."""

    CAPS = Capabilities(
        exact=True,
        range_queries=True,
        mutable=False,
        process_safe=True,
        quantizable=False,
        rescorable=True,
        warmable=True,
        degradable=True,
    )

    #: default quality ladder, best first
    DEFAULT_LADDER = ("rbc-exact", "rbc-oneshot", "rpforest", "rbc-oneshot-small")

    def __init__(
        self,
        metric: str | object = "euclidean",
        *,
        backends: dict | None = None,
        ladder: tuple | None = None,
        latency_budget_s: float | None = None,
        seed: int = 0,
        calibrate: bool = True,
        calibration_queries: int = 8,
        ewma_alpha: float = 0.3,
    ) -> None:
        from ..metrics import get_metric

        self.metric = get_metric(metric)
        self.seed = int(seed)
        self.calibrate = bool(calibrate)
        self.calibration_queries = int(calibration_queries)
        self.latency_budget_s = latency_budget_s
        self._given_backends = backends
        self._given_ladder = tuple(ladder) if ladder is not None else None
        self._backends: dict[str, Index] = {}
        self.ladder: tuple[str, ...] = ()
        self._cost: dict[str, _CostModel] = {}
        self._ewma_alpha = float(ewma_alpha)
        self._rung = 0
        self.c_est: float | None = None
        self.X = None
        self.n = 0
        self.last_decision: RouteDecision | None = None
        self.last_stats = None
        self.history: deque[RouteDecision] = deque(maxlen=256)
        #: report ids already folded into the cost model (bounded FIFO)
        self._seen_reports: set[str] = set()
        self._seen_order: deque[str] = deque(maxlen=4096)

    # ------------------------------------------------------------ build

    def _default_backends(self) -> tuple[dict[str, Index], tuple[str, ...]]:
        from ..core.exact import ExactRBC
        from ..core.oneshot import OneShotRBC

        backends: dict[str, Index] = {
            "rbc-exact": ExactRBC(self.metric, seed=self.seed),
            "rbc-oneshot": OneShotRBC(self.metric, seed=self.seed),
            "rbc-oneshot-small": OneShotRBC(self.metric, seed=self.seed + 1),
        }
        ladder = ["rbc-exact", "rbc-oneshot", "rpforest", "rbc-oneshot-small"]
        if isinstance(self.metric, VectorMetric):
            from .rpforest import RPForest

            backends["rpforest"] = RPForest(self.metric, seed=self.seed)
        else:
            ladder.remove("rpforest")
        return backends, tuple(ladder)

    def build(
        self,
        X,
        n_reps: int | None = None,
        *,
        c: float = 1.0,
        ctx: ExecContext | None = None,
    ) -> "Router":
        recorder = NULL_RECORDER if ctx is None else ctx.recorder
        if self._given_backends is not None:
            self._backends = dict(self._given_backends)
            self.ladder = self._given_ladder or tuple(self._backends)
        else:
            self._backends, self.ladder = self._default_backends()
            if self._given_ladder is not None:
                self.ladder = self._given_ladder
        missing = [name for name in self.ladder if name not in self._backends]
        if missing:
            raise ValueError(f"ladder names missing from backends: {missing}")
        self.X = X
        self.n = self.metric.length(X)
        self._cost = {name: _CostModel(self._ewma_alpha) for name in self._backends}
        self._rung = 0
        with recorder.phase("router:build"):
            for name, index in self._backends.items():
                self._build_backend(name, index, X, n_reps, c, ctx)
            self.c_est = self._estimate_c()
            if self.calibrate:
                self._calibrate(ctx)
        return self

    def _build_backend(self, name, index, X, n_reps, c, ctx) -> None:
        from ..core.oneshot import OneShotRBC
        from ..core.params import oneshot_params
        from ..core.rbc import RBCBase

        if not isinstance(index, RBCBase):
            index.build(X, ctx=ctx)
        elif name == "rbc-oneshot-small" and isinstance(index, OneShotRBC):
            # the ladder's last rung: deliberately under-provisioned
            nr_full, s_full = oneshot_params(self.metric.length(X), c=c)
            small = max(1, nr_full // 4)
            index.build(X, n_reps=small, s=max(1, s_full // 4), c=c, ctx=ctx)
        elif isinstance(index, OneShotRBC):
            index.build(X, c=c, ctx=ctx)
        else:
            index.build(X, n_reps=n_reps, c=c, ctx=ctx)

    def _estimate_c(self) -> float:
        """Invert Theorem 1: expected stage-2 candidates ``c^3 n / n_r``.

        The exact RBC's pruning probe measures the candidate fraction
        ``f = candidates / n`` directly, so ``c_est = (f * n_r)^(1/3)``,
        clipped to the metric's lower bound ``c >= 1``.
        """
        exact = self._backends.get("rbc-exact")
        probe = getattr(exact, "_estimate_candidate_fraction", None)
        if exact is None or probe is None or not getattr(exact, "is_built", False):
            return 1.0
        frac = float(probe())
        nr = int(exact.rep_ids.size)
        return max(1.0, (frac * nr) ** (1.0 / 3.0))

    def _calibrate(self, ctx) -> None:
        """Seed the cost model with one tiny probe batch per backend."""
        m = min(self.calibration_queries, self.n)
        if m == 0:
            return
        rng = np.random.default_rng(self.seed)
        probe_ids = rng.choice(self.n, size=m, replace=False)
        Qp = self.metric.take(self.X, probe_ids)
        for name, index in self._backends.items():
            t0 = time.perf_counter()
            index.query(Qp, k=1, ctx=ctx)
            self._cost[name].update(1, (time.perf_counter() - t0) / m)

    def _require_built(self) -> None:
        if self.X is None:
            raise RuntimeError("call build(X) first")

    # ------------------------------------------------------- cost model

    def _analytic_per_query_s(self, name: str, k: int) -> float:
        """Eval-count model used before any measurement exists, from the
        paper's work expressions with the build-time ``c_est``."""
        n, c = max(self.n, 1), self.c_est or 1.0
        d = 1.0
        if isinstance(self.metric, VectorMetric) and self.X is not None:
            d = float(self.metric.dim(self.X))
        index = self._backends[name]
        nr = int(getattr(index, "rep_ids", np.empty(0)).size) or int(math.sqrt(n))
        if name == "brute":
            evals = float(n)
        elif name == "rbc-exact":
            evals = nr + min(float(n), c**3 * n / nr) * max(1.0, k / 4.0)
        elif name.startswith("rbc-oneshot"):
            s = int(getattr(index, "s", nr)) or nr
            evals = nr + s
        elif name == "rpforest":
            evals = float(
                getattr(index, "n_trees", 8) * getattr(index, "leaf_size", 64)
            )
        else:
            evals = float(n)
        return evals * d * _DEFAULT_S_PER_FLOP * 3.0

    def predict_cost_s(self, name: str, m: int, k: int) -> float:
        """Predicted wall seconds to run an ``(m, k)`` batch on backend
        ``name`` (measured EWMA when available, analytic model otherwise)."""
        per_q = self._cost[name].predict(k)
        if per_q is None:
            per_q = self._analytic_per_query_s(name, k)
        return per_q * max(m, 1)

    def observe_report(self, name: str, report) -> None:
        """Ingest an external RunReport/StreamReport for backend ``name``
        (e.g. from the eval harness) into the cost model.

        Idempotent by ``report.report_id``: the EWMA is a weighted
        average, so re-observing the same report (a calibration-seeded
        report handed back by two harness layers, a report summarized
        twice) would keep pulling the model toward one sample.  Seen ids
        are tracked in a bounded FIFO and duplicates are dropped.
        """
        if name not in self._cost:
            return
        rid = getattr(report, "report_id", None)
        if rid is not None:
            if rid in self._seen_reports:
                return
            if len(self._seen_order) == self._seen_order.maxlen:
                self._seen_reports.discard(self._seen_order[0])
            self._seen_order.append(rid)
            self._seen_reports.add(rid)
        wall = float(getattr(report, "wall_s", 0.0) or 0.0)
        m = getattr(report, "n_queries", None)
        if m is None:
            dist = getattr(report, "dist", None)
            m = dist.shape[0] if dist is not None else 1
        k_arr = getattr(report, "dist", None)
        k = k_arr.shape[1] if k_arr is not None and k_arr.ndim == 2 else 1
        if wall > 0 and m:
            self._cost[name].update(k, wall / m)

    # -------------------------------------------------------- selection

    @property
    def rung(self) -> int:
        """Current degradation rung (0 = best quality)."""
        return self._rung

    def degrade(self) -> int:
        """Step one rung down the quality ladder (SLO breach hook)."""
        self._rung = min(self._rung + 1, len(self.ladder) - 1)
        return self._rung

    def restore(self) -> int:
        """Reset to the best-quality rung."""
        self._rung = 0
        return self._rung

    def attach_slo(self, monitor) -> None:
        """Degrade one rung on every breach of ``monitor``."""
        monitor.on_breach(lambda _mon: self.degrade())

    def plan(
        self,
        n_queries: int,
        k: int = 1,
        *,
        latency_budget_s: float | None = None,
    ) -> RouteDecision:
        """The routing decision for an ``(n_queries, k)`` batch — pure
        (no dispatch, no cost-model update)."""
        self._require_built()
        budget = (
            latency_budget_s if latency_budget_s is not None else self.latency_budget_s
        )
        candidates = self.ladder[self._rung :] or self.ladder[-1:]
        chosen, pred, reason = None, math.inf, ""
        for name in candidates:
            p = self.predict_cost_s(name, n_queries, k)
            if budget is None or p <= budget:
                chosen, pred = name, p
                reason = (
                    f"rung {self._rung}; first ladder backend "
                    + ("within budget" if budget is not None else "(no budget)")
                )
                break
        if chosen is None:
            # nothing fits: take the cheapest remaining rung
            chosen = min(candidates, key=lambda s: self.predict_cost_s(s, n_queries, k))
            pred = self.predict_cost_s(chosen, n_queries, k)
            reason = f"rung {self._rung}; over budget everywhere, cheapest rung"
        return RouteDecision(
            backend=chosen,
            rung=self._rung,
            n_queries=n_queries,
            k=k,
            predicted_s=pred,
            budget_s=budget,
            reason=reason,
            c_est=self.c_est,
        )

    def backend(self, name: str) -> Index:
        """The built backend registered under ``name``."""
        self._require_built()
        return self._backends[name]

    def backend_names(self) -> tuple[str, ...]:
        return tuple(self._backends)

    def shard_target(self) -> Index:
        """The backend a sharded searcher should partition (the exact RBC
        primary, which owns the disjoint ownership lists)."""
        self._require_built()
        exact = self._backends.get("rbc-exact")
        if exact is None:
            raise UnsupportedCapability(
                "Router has no rbc-exact backend to shard over"
            )
        return exact

    # ------------------------------------------------------------ query

    def query(
        self,
        Q,
        k: int = 1,
        *,
        backend: str | None = None,
        latency_budget_s: float | None = None,
        ctx: ExecContext | None = None,
        **query_kwargs,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Route the batch to one backend and run it.

        ``backend=`` pins the choice explicitly; otherwise the decision
        comes from :meth:`plan`.  The measured wall clock feeds back into
        the cost model.
        """
        self._require_built()
        if isinstance(self.metric, VectorMetric):
            Q = self.metric._as_batch(np.asarray(Q, dtype=np.float64))
        m = self.metric.length(Q)
        if backend is not None:
            decision = RouteDecision(
                backend=backend,
                rung=self._rung,
                n_queries=m,
                k=k,
                predicted_s=self.predict_cost_s(backend, m, k),
                budget_s=latency_budget_s,
                reason="pinned by caller",
                c_est=self.c_est,
            )
        else:
            decision = self.plan(m, k, latency_budget_s=latency_budget_s)
        index = self._backends[decision.backend]
        t0 = time.perf_counter()
        out = index.query(Q, k, ctx=ctx, **query_kwargs)
        wall = time.perf_counter() - t0
        if m:
            self._cost[decision.backend].update(k, wall / m)
        decision = dataclasses.replace(decision, measured_s=wall)
        self.last_decision = decision
        self.history.append(decision)
        self.last_stats = getattr(index, "last_stats", None)
        return out

    # ------------------------------------------------------------ range

    def range_query(
        self,
        Q,
        eps: float,
        *,
        ctx: ExecContext | None = None,
    ):
        """Route to the best-quality range-capable backend; refuse (with
        the uniform error) if none is configured."""
        self._require_built()
        for name in (*self.ladder, *self._backends):
            index = self._backends.get(name)
            if index is not None and capabilities_for(index).range_queries:
                self.last_decision = RouteDecision(
                    backend=name,
                    rung=self._rung,
                    n_queries=int(self.metric.length(Q)),
                    k=0,
                    predicted_s=0.0,
                    budget_s=None,
                    reason="range query; first range-capable backend",
                    c_est=self.c_est,
                )
                return index.range_query(Q, eps, ctx=ctx)
        raise UnsupportedCapability(
            "no configured backend supports range queries; add rbc-exact, "
            "buffer-kd, or brute to the router's backends"
        )

    # ------------------------------------------------------------- misc

    def warm(self, ctx=None) -> None:
        for index in self._backends.values():
            if capabilities_for(index).warmable:
                index.warm(ctx)

    def memory_footprint(self) -> int:
        """Sum of the built backends' structures."""
        self._require_built()
        total = 0
        for index in self._backends.values():
            try:
                total += int(index.memory_footprint())
            except (NotImplementedError, RuntimeError):
                pass
        return total

    def capabilities(self) -> Capabilities:
        caps = self.CAPS
        if self._backends:
            current = self._backends[self.ladder[self._rung]]
            backend_caps = capabilities_for(current)
            caps = caps.replace(
                exact=backend_caps.exact,
                range_queries=any(
                    capabilities_for(b).range_queries for b in self._backends.values()
                ),
                process_safe=all(
                    capabilities_for(b).process_safe for b in self._backends.values()
                ),
                rescorable=isinstance(self.metric, VectorMetric)
                and isinstance(self.X, np.ndarray),
            )
        return caps

    def route_counts(self) -> dict[str, int]:
        """How many batches each backend served (from bounded history)."""
        counts: dict[str, int] = {}
        for dec in self.history:
            counts[dec.backend] = counts.get(dec.backend, 0) + 1
        return counts
