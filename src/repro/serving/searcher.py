"""The streaming query front-end: warm operands + micro-batching + metrics.

:class:`StreamingSearcher` turns an index's batch ``query()`` into a
query *server*: arrivals are enqueued, the adaptive
:class:`~repro.serving.batcher.QueryBatcher` groups them into
latency-budgeted micro-batches, each batch runs one ``query()`` call on a
registry-resident executor against operands prepared by ``warm()``, and
answers fan back out per query.

**Determinism.**  Per-query and batched dispatch must return the *same
answer* — a correctness property, not a best effort.  The candidate ids an
index returns are batching-invariant, but raw float64 GEMM distances are
not bit-identical between a 1-row and an m-row kernel call (different BLAS
reduction orders, ~1 ulp).  The searcher therefore re-scores every
returned candidate with the metric's *paired* kernel
(:func:`~repro.metrics.engine.rescore_pairs`), whose per-pair reduction
does not depend on how rows are batched — so a ``max_batch=1`` server and
a ``max_batch=256`` server produce bit-identical distances, and the
regression tests compare them with ``==``.  The pruning-rule counters are
likewise batching-invariant (summed over micro-batches).

**Measurement.**  :meth:`search_stream` replays an arrival trace on a
*virtual clock*: arrivals and flush deadlines advance simulated time,
while each dispatched batch contributes its real measured service wall
time.  Nothing sleeps, so a 10-second trace replays in the time the
kernels actually take, and the recorded per-query sojourn latencies
(arrival to answer, queueing included) are reproducible modulo kernel
timing noise.  The result is a :class:`~repro.runtime.report.StreamReport`
— the standard :class:`~repro.runtime.report.RunReport` observables plus
throughput, batch shape, and latency percentiles.
"""

from __future__ import annotations

import time
from collections import deque

import numpy as np

from ..index.protocol import capabilities_for
from ..metrics.engine import rescore_pairs
from ..obs.collectors import (
    install_cache_collectors,
    install_index_collectors,
    install_quality_collectors,
    install_standard_collectors,
)
from ..obs.explain import QueryExplain
from ..obs.flight import FlightRecorder
from ..obs.metrics import MetricsRegistry
from ..obs.quality import DriftMonitor, QualitySampler
from ..obs.slo import SLOMonitor
from ..runtime.context import ExecContext, TimingRecorder
from ..runtime.report import LatencyStats, StreamReport, collect_report
from .batcher import BatchPolicy, QueryBatcher
from .cache import CachePolicy, ProximityCache

__all__ = ["StreamingSearcher"]


class StreamingSearcher:
    """A persistent serving session over one built index.

    Parameters
    ----------
    index:
        any built index exposing ``query(Q, k, ctx=...)`` (the RBC
        structures and the baselines all do).
    k:
        neighbors returned per query.
    policy:
        micro-batching policy; ``BatchPolicy(max_batch=1)`` is the
        per-query dispatch baseline.
    ctx:
        execution context for the dispatched queries (executor backend,
        dtype, ...).  String executor specs resolve to registry-resident
        pools, so workers persist across micro-batches.
    rescore:
        re-score returned candidates with the batching-invariant paired
        kernel (see module docstring).  Leave on; turning it off trades
        the bit-identity guarantee for skipping one ``(m, k)`` paired
        pass.
    slo:
        optional :class:`~repro.obs.slo.SLOMonitor` fed every served
        query's sojourn latency; its breach callback is wired to
        :meth:`~repro.serving.batcher.QueryBatcher.backoff`, so a burning
        error budget drops the batch ladder one level.
    metrics:
        optional :class:`~repro.obs.metrics.MetricsRegistry`; the searcher
        maintains batcher gauges (ladder level, target, queue depth), a
        sojourn-latency histogram, and served/batch counters in it, and
        installs the standard pull-collectors (operand cache, executor
        pool, packed-list slack).
    cache:
        optional proximity-keyed result cache
        (:class:`~repro.serving.cache.ProximityCache`) consulted before
        every dispatch: queries within a cached key's certified tolerance
        radius are answered from cache with zero recall loss, everything
        else falls through to the index.  Pass an existing cache, a
        :class:`~repro.serving.cache.CachePolicy`, or ``True`` for the
        default policy.  Requires an exact index over a true metric with
        rescoring available (the certificate math needs all three); the
        searcher over-fetches ``k + 1`` neighbors on misses to learn each
        entry's radius, and still serves ``k`` per answer.
    quality:
        optional shadow-oracle recall sampling: pass a configured
        :class:`~repro.obs.quality.QualitySampler`, ``True`` for the
        default 1% sampler, or a float fraction.  Sampled queries are
        re-answered by brute force *after* each batch's service time is
        taken (the virtual clock never sees the oracle) and fed to the
        sampler's :class:`~repro.obs.quality.QualityMonitor`.  Breaches
        are the symmetric counterpart of SLO pressure: a degradable
        index is walked back *up* its quality ladder (``restore()``) and
        an attached proximity cache is disabled.
    flight:
        optional :class:`~repro.obs.flight.FlightRecorder`: the searcher
        feeds its rings (batch span digests, batch explains, quality
        samples, breach events) and wires SLO/quality breaches to
        :meth:`~repro.obs.flight.FlightRecorder.dump`.
    query_kwargs:
        extra keyword arguments forwarded to every ``index.query`` call
        (e.g. ``n_probes=2``).

    Span tracing rides the execution context: pass
    ``ctx=ExecContext(tracer=Tracer())`` and every served query gets a
    root span, each dispatched micro-batch a ``serve:batch`` span
    parented under its oldest query, and the kernel/worker spans nest
    below that — one Chrome-trace timeline from arrival to answer.

    Use as a context manager (or call :meth:`close`); a closed searcher
    refuses further work::

        with StreamingSearcher(index, k=3) as server:
            report = server.search_stream(Q, qps=2000.0)
    """

    def __init__(
        self,
        index,
        *,
        k: int = 1,
        policy: BatchPolicy | None = None,
        ctx: ExecContext | None = None,
        rescore: bool = True,
        slo: SLOMonitor | None = None,
        metrics: MetricsRegistry | None = None,
        cache: ProximityCache | CachePolicy | bool | None = None,
        quality: QualitySampler | float | bool | None = None,
        flight: FlightRecorder | None = None,
        **query_kwargs,
    ) -> None:
        getattr(index, "_require_built", lambda: None)()
        self.index = index
        #: neighbors per served answer (``self.k`` is the dispatch width:
        #: one wider when the cache needs the (k+1)-th distance)
        self.k_serve = int(k)
        self.k = self.k_serve
        self.policy = policy or BatchPolicy()
        base = getattr(index, "_base_ctx", ExecContext)()
        self.ctx = base if ctx is None else ctx.overriding(base)
        self.query_kwargs = dict(query_kwargs)
        self.batcher = QueryBatcher(self.policy)
        self.rescore = bool(rescore) and self._can_rescore(index)
        self.cache: ProximityCache | None = None
        if cache is not None and cache is not False:
            if not self.rescore:
                raise ValueError(
                    "the proximity cache needs rescoring: hit distances "
                    "are recomputed for the new query with the paired "
                    "kernel, and bit-identity with the miss path depends "
                    "on both sides being rescored"
                )
            if isinstance(cache, ProximityCache):
                if cache.index is not index or cache.k != self.k_serve:
                    raise ValueError(
                        "cache was built for a different index or k"
                    )
                self.cache = cache
            else:
                pol = cache if isinstance(cache, CachePolicy) else None
                self.cache = ProximityCache(
                    index, self.k_serve, policy=pol
                )
            # misses fetch one extra neighbor so the (k+1)-th distance
            # certifies each admitted entry's tolerance radius
            self.k = self.k_serve + 1
        self._closed = False
        #: ticket -> (dist_row, idx_row) for answered, un-collected queries
        self._done: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._next_ticket = 0
        #: pruning-rule counters summed over every dispatched micro-batch
        self.rule_counts: dict[str, int] = {}
        #: ticket -> open root span of a live-submitted query
        self._qspans: dict = {}
        self.flight = flight
        self.quality: QualitySampler | None = None
        if quality is not None and quality is not False:
            if isinstance(quality, QualitySampler):
                self.quality = quality
            else:
                frac = 0.01 if quality is True else float(quality)
                self.quality = QualitySampler(
                    index,
                    self.k_serve,
                    fraction=frac,
                    drift=DriftMonitor.from_index(index),
                )
            mon = self.quality.monitor
            if capabilities_for(index).degradable:
                # the symmetric counterpart of SLO pressure: a recall
                # breach walks the router back *up* its quality ladder
                mon.on_breach(lambda _m: index.restore())
            if self.cache is not None:
                mon.on_breach(lambda _m: self._disable_cache_on_breach())
            if flight is not None:
                mon.on_breach(
                    lambda m: flight.record_event(
                        "quality-breach",
                        now=m.last_fired_at,
                        recall_estimate=m.recall_estimate,
                        target=m.target,
                    )
                )
                mon.on_breach(
                    lambda m: flight.dump("quality-breach", now=m.last_fired_at)
                )
        self.slo = slo
        if slo is not None:
            # late-bound on purpose: search_stream swaps in a per-stream
            # batcher, and that is the one a breach must back off
            slo.on_breach(lambda _mon: self.batcher.backoff())
            if capabilities_for(index).degradable:
                # degradable indexes (the router) also walk their own
                # quality ladder under SLO pressure
                slo.on_breach(lambda _mon: index.degrade())
            if flight is not None:
                slo.on_breach(
                    lambda mon: flight.record_event(
                        "slo-breach", now=getattr(mon, "_last_fired", None)
                    )
                )
                slo.on_breach(
                    lambda mon: flight.dump(
                        "slo-breach", now=getattr(mon, "_last_fired", None)
                    )
                )
        if flight is not None:
            flight.attach(quality=self.quality, metrics=metrics)
        #: explain plumbing: tickets awaiting an explain, finished
        #: explains, and the last observed batch's digest
        self._explain_tickets: set[int] = set()
        self._explains: dict[int, QueryExplain] = {}
        self._batch_info: dict | None = None
        self._last_hit_mask: np.ndarray | None = None
        self._last_wave: dict | None = None
        self.metrics = metrics
        #: batcher backoffs already mirrored into the backoff counter
        self._backoffs_seen = 0
        if metrics is not None:
            install_standard_collectors(metrics)
            install_index_collectors(index, metrics)
            if self.cache is not None:
                install_cache_collectors(self.cache, metrics)
            if self.quality is not None:
                install_quality_collectors(self.quality, metrics)
            self._m_served = metrics.counter(
                "repro_queries_served_total", "queries answered by the searcher"
            )
            self._m_batches = metrics.counter(
                "repro_batches_dispatched_total", "micro-batches dispatched"
            )
            self._m_backoffs = metrics.counter(
                "repro_batcher_backoffs_total", "SLO-driven ladder backoffs"
            )
            self._m_level = metrics.gauge(
                "repro_batcher_ladder_level", "current batch-size ladder index"
            )
            self._m_target = metrics.gauge(
                "repro_batcher_target", "batch size the controller aims to fill"
            )
            self._m_depth = metrics.gauge(
                "repro_batcher_queue_depth", "queries waiting in the batcher"
            )
            self._m_sojourn = metrics.histogram(
                "repro_query_sojourn_seconds",
                "arrival-to-answer latency of served queries",
            )
        # fill the prepared-operand caches before the first query arrives
        if capabilities_for(index).warmable:
            index.warm(self.ctx)

    @staticmethod
    def _can_rescore(index) -> bool:
        """Rescoring is a declared capability now: backends opt in through
        ``capabilities().rescorable`` (the protocol's default resolves it
        against the live metric/database state; foreign duck-typed indexes
        get the same structural fallback via ``capabilities_for``)."""
        return capabilities_for(index).rescorable

    # ------------------------------------------------------------ lifecycle
    def close(self) -> None:
        """Mark the session closed; idempotent."""
        self._closed = True

    def __enter__(self) -> "StreamingSearcher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _require_open(self) -> None:
        if self._closed:
            raise RuntimeError("StreamingSearcher is closed")

    # -------------------------------------------------------------- dispatch
    def _dispatch(
        self, Qb: np.ndarray, width: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """One micro-batch through the index, re-scored to batching
        invariance, with the rule counters accumulated."""
        k = self.k if width is None else int(width)
        dist, idx = self.index.query(
            Qb, k, ctx=self.ctx, **self.query_kwargs
        )
        stats = getattr(self.index, "last_stats", None)
        if stats is not None:
            for key, val in stats.rule_counts().items():
                self.rule_counts[key] = self.rule_counts.get(key, 0) + int(val)
        return self._rescored(Qb, dist, idx)

    def _rescored(self, Qb, dist, idx):
        """Re-score ``idx`` with the batching-invariant paired kernel and
        re-rank (a no-op with rescoring off) — what makes answers ``==``
        across batch shapes and shard counts."""
        if not self.rescore:
            return dist, idx
        d = rescore_pairs(self.index.metric, Qb, self.index.X, idx)
        order = np.argsort(d, axis=1, kind="stable")
        dist = np.take_along_axis(d, order, axis=1)
        idx = np.take_along_axis(idx, order, axis=1)
        return dist, np.where(np.isfinite(dist), idx, -1)

    def _timed_dispatch(
        self, Qb: np.ndarray, width: int | None = None
    ) -> tuple[np.ndarray, np.ndarray, float]:
        """Dispatch one micro-batch and return ``(dist, idx, service_s)``.

        The base searcher's service time is the measured wall time of the
        ``query()`` call.  Subclasses that *model* service (e.g. the
        sharded searcher, whose time is the max over shard completions
        plus communication) override this one method; everything else —
        batching, the virtual clock, telemetry — is inherited unchanged.
        ``width`` overrides the dispatch top-k (default ``self.k``).
        """
        self._last_wave = None
        t0 = time.perf_counter()
        dist, idx = self._dispatch(Qb, width)
        return dist, idx, time.perf_counter() - t0

    def _serve_batch(
        self, Qb: np.ndarray, now: float
    ) -> tuple[np.ndarray, np.ndarray, float]:
        """Serve one micro-batch, then run the off-path observability
        pass (shadow-oracle sampling, explain capture, flight rings).

        The observability work happens strictly *after* the batch's
        service time has been measured by :meth:`_serve_batch_core`, so
        the virtual clock — and the latency percentiles built on it —
        never see the oracle's brute-force pass or the explain
        bookkeeping.  With nothing attached the wrapper is two attribute
        checks.
        """
        active = (
            self.quality is not None
            or self.flight is not None
            or bool(self._explain_tickets)
        )
        if not active:
            self._batch_info = None
            return self._serve_batch_core(Qb, now)
        rules_before = dict(self.rule_counts)
        self._last_hit_mask = None
        dist, idx, service = self._serve_batch_core(Qb, now)
        self._observe_batch(Qb, dist, idx, service, now, rules_before)
        return dist, idx, service

    def _serve_batch_core(
        self, Qb: np.ndarray, now: float
    ) -> tuple[np.ndarray, np.ndarray, float]:
        """Serve one micro-batch: cache hits first, index for the rest.

        Returns ``(dist, idx, service_s)`` at the *served* width
        ``k_serve``.  Without a cache this is :meth:`_timed_dispatch`
        verbatim.  With one, certified hits skip the index entirely,
        misses dispatch through the (unchanged, subclass-overridable)
        :meth:`_timed_dispatch` at width ``k + 1`` and are admitted as new
        keys; the cache's own work (lookup GEMM, hit rescore, admission)
        is measured and included in the batch's service time.  A cache
        disabled by a quality breach is bypassed entirely (dispatch at
        the served width — no over-fetch, no admission).
        """
        if self.cache is None:
            return self._timed_dispatch(Qb)
        if not self.cache.enabled:
            return self._timed_dispatch(Qb, self.k_serve)
        t0 = time.perf_counter()
        hit, hd, hi = self.cache.lookup(Qb, now=now)
        cache_s = time.perf_counter() - t0
        self._last_hit_mask = hit
        m = int(Qb.shape[0])
        dist = np.empty((m, self.k_serve))
        idx = np.empty((m, self.k_serve), dtype=np.int64)
        if hd is not None:
            dist[hit], idx[hit] = hd, hi
        miss = ~hit
        service = 0.0
        if np.any(miss):
            md, mi, service = self._timed_dispatch(Qb[miss])
            ks = self.k_serve
            # A tie at the k-boundary (d_k == d_{k+1}) means which tie
            # member makes the top-k is a width-dependent engine choice:
            # the k+1 over-fetch trimmed to k may pick a different (equally
            # correct) id than an uncached k-width dispatch would.  Re-ask
            # those rare rows at width k so the served row — and the stored
            # entry an exact repeat is later served from — is the engine's
            # own k-width answer.  The certified radius is 0 either way.
            tie = np.isfinite(md[:, ks - 1]) & (md[:, ks - 1] == md[:, ks])
            if np.any(tie):
                td, ti, extra = self._timed_dispatch(Qb[miss][tie], ks)
                service += extra
                md[tie, :ks] = td
                mi[tie, :ks] = ti
                md[tie, ks] = td[:, ks - 1]
                mi[tie, ks] = -1
            t1 = time.perf_counter()
            self.cache.admit(Qb[miss], md, mi, now=now)
            cache_s += time.perf_counter() - t1
            dist[miss] = md[:, : self.k_serve]
            idx[miss] = mi[:, : self.k_serve]
        return dist, idx, service + cache_s

    # -------------------------------------------------------- observability
    def _disable_cache_on_breach(self) -> None:
        """Quality-breach response: stop serving from the cache (its
        certified radii are only as good as the index answers that were
        admitted under them)."""
        if self.cache is None or not self.cache.enabled:
            return
        self.cache.disable("quality breach")
        if self.flight is not None:
            self.flight.record_event(
                "cache-disabled", reason="quality breach"
            )

    def _explain_shards(self) -> dict | None:
        """Scatter-gather shape of the last dispatch (sharded subclass
        stamps ``_last_wave``; the base dispatch clears it)."""
        return self._last_wave

    def _observe_batch(
        self,
        Qb: np.ndarray,
        dist: np.ndarray,
        idx: np.ndarray,
        service: float,
        now: float,
        rules_before: dict,
    ) -> None:
        """The off-path observability pass for one served batch: digest
        what the serve decided (router, cache, rules, shards), feed the
        shadow oracle, and stock the flight rings."""
        m = int(Qb.shape[0])
        rules_delta = {
            key: val - rules_before.get(key, 0)
            for key, val in self.rule_counts.items()
            if val != rules_before.get(key, 0)
        }
        hit_mask = self._last_hit_mask
        all_hit = hit_mask is not None and bool(np.all(hit_mask))
        dec = getattr(self.index, "last_decision", None)
        rung = getattr(self.index, "rung", None)
        if all_hit:
            backend = "cache"
        elif dec is not None:
            backend = dec.backend
        else:
            backend = type(self.index).__name__
        router_info = None
        if dec is not None and not all_hit:
            router_info = {
                "backend": dec.backend,
                "reason": dec.reason,
                "predicted_s": dec.predicted_s,
                "measured_s": dec.measured_s,
                "budget_s": dec.budget_s,
                "c_est": dec.c_est,
            }
            if hasattr(self.index, "predict_cost_s") and hasattr(
                self.index, "backend_names"
            ):
                router_info["scores"] = {
                    name: self.index.predict_cost_s(name, m, self.k_serve)
                    for name in self.index.backend_names()
                }
        if self.cache is None:
            cache_state = "off"
        elif not self.cache.enabled:
            cache_state = "disabled"
        else:
            cache_state = "on"
        stats = getattr(self.index, "last_stats", None)
        quant = getattr(stats, "quant", None) if stats is not None else None
        if quant is not None and hasattr(quant, "to_dict"):
            quant = quant.to_dict()
        samples: dict[int, object] = {}
        if self.quality is not None:
            t_done = now + service
            for s in self.quality.observe_batch(
                Qb,
                dist,
                idx,
                now=t_done,
                backend=backend,
                rung=int(rung) if rung is not None else 0,
                cache_hit=hit_mask,
            ):
                samples[s.row] = s
            self.quality.observe_rules(rules_delta, m)
        self._batch_info = {
            "m": m,
            "service": service,
            "now": now,
            "backend": backend,
            "rung": rung,
            "router": router_info,
            "rules": rules_delta,
            "cache_state": cache_state,
            "cache_detail": (
                self.cache.last_lookup if cache_state == "on" else None
            ),
            "quant": quant,
            "shards": self._explain_shards(),
            "samples": samples,
        }
        if self.flight is not None:
            self.flight.record_span(
                "serve:batch",
                ts=now,
                dur_s=service,
                size=m,
                backend=backend,
                **({"rung": int(rung)} if rung is not None else {}),
            )
            for s in samples.values():
                self.flight.record_quality(s)
            self.flight.record_explain(self._explain_from_info(row=None))

    def _explain_from_info(
        self, *, row: int | None, ticket: int | None = None
    ) -> QueryExplain:
        """Build a :class:`QueryExplain` for one row of the last observed
        batch (or the whole batch, with ``row=None``)."""
        info = self._batch_info or {}
        cache_state = info.get("cache_state", "off")
        cache_info: dict | None = None
        if cache_state == "off":
            cache_info = None
        elif cache_state == "disabled":
            cache_info = {"outcome": "disabled"}
        else:
            detail = info.get("cache_detail")
            if detail is None:
                cache_info = {"outcome": "miss"}
            elif row is None:
                hit = detail["hit"]
                cache_info = {
                    "outcome": "hit" if bool(np.all(hit)) else "miss",
                    "hits": int(np.count_nonzero(hit)),
                }
            else:
                hit = bool(detail["hit"][row])
                delta = (
                    float(detail["delta"][row])
                    if detail.get("delta") is not None
                    else None
                )
                radius = (
                    float(detail["radius"][row])
                    if detail.get("radius") is not None
                    else None
                )
                if hit:
                    outcome = "hit"
                elif delta is not None and np.isfinite(delta):
                    outcome = "reject"  # a key was near, but outside radius
                else:
                    outcome = "miss"
                cache_info = {
                    "outcome": outcome,
                    "delta": delta if delta is not None and np.isfinite(delta) else None,
                    "radius": radius if radius is not None and np.isfinite(radius) else None,
                }
        sample = info.get("samples", {}).get(row) if row is not None else None
        rung = info.get("rung")
        return QueryExplain(
            ticket=ticket,
            row=row,
            k=self.k_serve,
            backend=info.get("backend", ""),
            rung=int(rung) if rung is not None else None,
            batch_size=info.get("m", 0),
            service_s=info.get("service", 0.0),
            t=info.get("now", 0.0),
            router=info.get("router"),
            rules=info.get("rules", {}),
            cache=cache_info,
            quant=info.get("quant"),
            shards=info.get("shards"),
            sampled=sample is not None,
            recall=sample.recall if sample is not None else None,
        )

    def _observe_served(self, sojourns, now: float) -> None:
        """Per-dispatch telemetry: SLO samples first (a breach may back
        the ladder off), then the metrics instruments.

        ``sojourns`` are the batch's arrival-to-answer latencies and
        ``now`` the completion time, both on the caller's clock — wall
        for the live path, virtual for :meth:`search_stream`.
        """
        depth = self.batcher.pending
        if self.slo is not None:
            for s in sojourns:
                self.slo.observe(s, now=now, queue_depth=depth)
        if self.metrics is not None:
            self._m_served.inc(len(sojourns))
            self._m_batches.inc()
            fresh = self.batcher.n_backoffs - self._backoffs_seen
            if fresh > 0:
                self._m_backoffs.inc(fresh)
            self._backoffs_seen = self.batcher.n_backoffs
            self._m_level.set(self.batcher.level)
            self._m_target.set(self.batcher.target)
            self._m_depth.set(depth)
            for s in sojourns:
                self._m_sojourn.observe(s)

    def _flush(self, now: float) -> tuple[int, float]:
        """Dispatch the batch due at ``now``; answers land in ``_done``.

        Returns ``(batch_size, service_s)`` with the *measured* service
        wall time (also fed to the batcher's controller).
        """
        items = self.batcher.take(now)
        if not items:
            return 0, 0.0
        tickets = [t for (t, _q), _arr in items]
        Qb = np.stack([q for (_t, q), _arr in items])
        tracer = self.ctx.tracer
        qspans = [self._qspans.pop(t, None) for t in tickets]
        # the batch span joins the trace of its oldest query, so worker
        # spans below land under the submitting query's trace id
        parent = next((s for s in qspans if s is not None), None)
        with tracer.span_under(
            parent.context if parent is not None else None,
            "serve:batch",
            size=len(items),
        ):
            dist, idx, service = self._serve_batch(Qb, now)
        self.batcher.observe(len(items), service)
        done_t = now + service
        for row, ticket in enumerate(tickets):
            self._done[ticket] = (dist[row], idx[row])
            span = qspans[row]
            if span is not None:
                tracer.finish(span.set(batch=len(items)))
            if ticket in self._explain_tickets:
                self._explain_tickets.discard(ticket)
                e = self._explain_from_info(row=row, ticket=ticket)
                self._explains[ticket] = e
                if self.flight is not None:
                    self.flight.record_explain(e)
        self._observe_served([done_t - arr for _p, arr in items], done_t)
        return len(items), service

    # ------------------------------------------------------------- live API
    def submit(
        self, q, *, now: float | None = None, explain: bool = False
    ) -> int:
        """Enqueue one query; returns its ticket.  Dispatches inline when
        the batcher's target fills or the latency budget demands it.

        With ``explain=True`` the serving batch's decision digest is
        captured for this ticket; collect it with :meth:`explain` once
        the answer has been served.
        """
        self._require_open()
        row = np.asarray(q, dtype=np.float64)
        if row.ndim == 2 and row.shape[0] == 1:
            row = row[0]
        if row.ndim != 1:
            raise ValueError("submit() takes one query vector at a time")
        ticket = self._next_ticket
        self._next_ticket += 1
        if explain:
            self._explain_tickets.add(ticket)
        now = time.perf_counter() if now is None else float(now)
        tracer = self.ctx.tracer
        if tracer.enabled:
            # each live query gets a root span; outside any open span this
            # starts a fresh trace, so one trace = one query's causal tree
            self._qspans[ticket] = tracer.start_span(
                "serve:query", ticket=ticket
            )
        self.batcher.add((ticket, row), now)
        if self.batcher.ready(now):
            self._flush(now)
        return ticket

    def tick(self, now: float | None = None) -> int:
        """Flush any batch whose latency budget has run out; returns the
        number of queries served.

        The live path needs this: :meth:`submit` only evaluates the
        deadline rule at submission time, so with no further arrivals a
        sub-target batch would wait forever.  A live event loop calls
        ``tick()`` periodically (or sleeps until :meth:`next_deadline`);
        the virtual-clock replay advances time itself and never needs it.
        """
        self._require_open()
        now = time.perf_counter() if now is None else float(now)
        n = 0
        while self.batcher.ready(now):
            size, _service = self._flush(now)
            if size == 0:
                break
            n += size
        return n

    def next_deadline(self) -> float | None:
        """Absolute time at which the oldest queued query's budget forces
        a flush (``None`` when nothing is queued) — what a live event
        loop should sleep until before calling :meth:`tick`."""
        return self.batcher.next_deadline()

    def poll(self, ticket: int, *, now: float | None = None):
        """The answered ``(dist, idx)`` rows for ``ticket``, or ``None``
        while it is still queued.

        Polling also checks the deadline rule: if the queue's budget has
        expired by ``now`` (wall clock when not given), the due batch is
        flushed first — so a caller that only ever submits and polls
        still cannot starve the last sub-target batch.
        """
        ans = self._done.pop(ticket, None)
        if ans is None and not self._closed and self.batcher.pending:
            now = time.perf_counter() if now is None else float(now)
            if self.batcher.ready(now):
                self._flush(now)
                ans = self._done.pop(ticket, None)
        return ans

    def drain(self) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """Flush everything queued; returns (and forgets) all answers
        collected since the last drain, keyed by ticket."""
        self._require_open()
        while self.batcher.pending:
            self._flush(time.perf_counter())
        out = self._done
        self._done = {}
        return out

    def explain(self, ticket: int) -> QueryExplain | None:
        """The captured :class:`~repro.obs.explain.QueryExplain` for a
        ticket submitted with ``explain=True`` (``None`` while it is
        still queued); collecting forgets it."""
        return self._explains.pop(ticket, None)

    def explain_query(
        self, q, *, now: float | None = None
    ) -> tuple[np.ndarray, np.ndarray, QueryExplain]:
        """One-shot convenience: submit one query with explain capture,
        drain, and return ``(dist, idx, explain)``."""
        ticket = self.submit(q, now=now, explain=True)
        answers = self.drain()
        dist, idx = answers.pop(ticket)
        self._done.update(answers)  # other tickets stay collectible
        return dist, idx, self._explains.pop(ticket)

    # ------------------------------------------------------- trace replay
    def search_stream(
        self,
        Q,
        *,
        qps: float | None = None,
        arrival_times=None,
        name: str | None = None,
        trace_ops: bool = False,
        metrics_jsonl=None,
        snapshot_every_s: float = 1.0,
    ) -> StreamReport:
        """Replay an arrival trace through the server on a virtual clock.

        ``arrival_times`` gives each query's arrival second explicitly
        (any nondecreasing trace — bursty, lulls, ...); ``qps`` is the
        uniform-rate shorthand ``i / qps``.  Exactly one must be given.
        Batches dispatch when the adaptive target fills or a query's
        latency budget runs out, service time is the real measured wall
        time of each ``query()`` call, and simulated time advances by it —
        so queueing behind a slow kernel is captured without any sleeping.

        Returns a :class:`~repro.runtime.report.StreamReport` whose
        ``dist``/``idx`` are in arrival order (identical to per-query
        answers), with sojourn/wait percentiles, throughput over the
        stream makespan, batch-shape counters, and the usual counter
        windows.

        Telemetry: the attached :class:`SLOMonitor` (if any) is driven on
        the virtual clock and its :meth:`~repro.obs.slo.SLOMonitor.report`
        lands in ``report.slo``; with a metrics registry attached,
        ``metrics_jsonl`` appends one snapshot line per
        ``snapshot_every_s`` of *virtual* time (plus a final one at the
        makespan); a tracer on the context yields one root span per query
        with each batch (and its kernel/worker spans) under the oldest
        query it serves.
        """
        self._require_open()
        Qb = np.atleast_2d(np.asarray(Q, dtype=np.float64))
        m = Qb.shape[0]
        if (qps is None) == (arrival_times is None):
            raise ValueError("give exactly one of qps or arrival_times")
        if arrival_times is None:
            if qps <= 0:
                raise ValueError("qps must be positive")
            arrivals = np.arange(m, dtype=np.float64) / float(qps)
        else:
            arrivals = np.asarray(arrival_times, dtype=np.float64)
            if arrivals.shape != (m,):
                raise ValueError("need one arrival time per query")
            if np.any(np.diff(arrivals) < 0):
                raise ValueError("arrival times must be nondecreasing")

        batcher = QueryBatcher(self.policy)  # fresh controller per stream
        tracer = self.ctx.tracer
        recorder = TimingRecorder(trace_ops=trace_ops, tracer=tracer)
        run_ctx = self.ctx.with_recorder(recorder)
        old_ctx, old_batcher = self.ctx, self.batcher
        old_backoffs = self._backoffs_seen
        self.ctx, self.batcher = run_ctx, batcher
        self._backoffs_seen = 0
        self._stream_begin()

        dist = np.full((m, self.k_serve), np.inf)
        idx = np.full((m, self.k_serve), -1, dtype=np.int64)
        sojourn = np.zeros(m)
        wait = np.zeros(m)
        served = deque()
        t0_counts = dict(self.rule_counts)
        self.rule_counts = {}
        #: row -> open root span of an in-flight query
        qspans: dict = {}
        next_snap = float(snapshot_every_s)

        try:
            with run_ctx.observe(self.index.metric) as obs:
                free_at = 0.0  # virtual time the executor is next free
                j = 0
                while j < m or batcher.pending:
                    next_arr = arrivals[j] if j < m else np.inf
                    deadline = batcher.next_deadline()
                    flush_at = max(
                        free_at,
                        np.inf if deadline is None else deadline,
                    )
                    if next_arr <= flush_at:
                        if tracer.enabled:
                            qspans[j] = tracer.start_span(
                                "serve:query", row=j
                            )
                        batcher.add((j, Qb[j]), now=next_arr)
                        j += 1
                        now = max(free_at, next_arr)
                    else:
                        now = flush_at
                    if batcher.ready(now, more_coming=(j < m)):
                        items = batcher.take(now)
                        rows = [payload[0] for payload, _arr in items]
                        # the batch span (and the kernel/worker spans
                        # below it) joins the oldest served query's trace
                        parent = qspans.get(rows[0])
                        with tracer.span_under(
                            parent.context if parent is not None else None,
                            "serve:batch",
                            size=len(items),
                        ):
                            bd, bi, service = self._serve_batch(
                                Qb[rows], now
                            )
                        batcher.observe(len(items), service)
                        done_t = now + service
                        dist[rows], idx[rows] = bd, bi
                        for (_row, _q), arr in items:
                            wait[_row] = now - arr
                            sojourn[_row] = done_t - arr
                            span = qspans.pop(_row, None)
                            if span is not None:
                                tracer.finish(
                                    span.set(
                                        sojourn_s=sojourn[_row],
                                        wait_s=wait[_row],
                                        batch=len(items),
                                    )
                                )
                        served.append(done_t)
                        free_at = done_t
                        self._observe_served(
                            [sojourn[r] for r in rows], done_t
                        )
                        if self.metrics is not None and metrics_jsonl:
                            while next_snap <= done_t:
                                self.metrics.dump_jsonl(
                                    metrics_jsonl, now=next_snap
                                )
                                next_snap += float(snapshot_every_s)
                makespan = max(float(served[-1]) if served else 0.0, 1e-12)
        finally:
            stream_counts = self.rule_counts
            self.ctx, self.batcher = old_ctx, old_batcher
            self.rule_counts = t0_counts
            self._backoffs_seen = old_backoffs

        if self.metrics is not None and metrics_jsonl:
            # final snapshot at the makespan, so short streams still leave
            # at least one line behind
            self.metrics.dump_jsonl(metrics_jsonl, now=makespan)
        if self.flight is not None and self.metrics is not None:
            self.flight.record_metrics(self.metrics, now=makespan)

        report = collect_report(
            name or f"{type(self.index).__name__}:stream",
            run_ctx,
            obs,
            dist=dist,
            idx=idx,
            stats=None,
        )
        stream = StreamReport(
            **vars(report),
            n_queries=m,
            throughput_qps=m / makespan,
            n_batches=batcher.n_batches,
            mean_batch=batcher.n_items / max(batcher.n_batches, 1),
            max_batch=batcher.max_batch_seen,
            deadline_flushes=batcher.n_deadline_flushes,
            n_backoffs=batcher.n_backoffs,
            latency=LatencyStats.from_samples(sojourn),
            wait=LatencyStats.from_samples(wait),
            slo=self.slo.report() if self.slo is not None else None,
            quality=(
                self.quality.report() if self.quality is not None else None
            ),
        )
        stream.rule_counts = stream_counts
        self._augment_report(stream)
        return stream

    # ------------------------------------------------------ subclass hooks
    def _stream_begin(self) -> None:
        """Called by :meth:`search_stream` once the per-stream batcher is
        installed, before any dispatch; subclasses snapshot per-stream
        accumulators here (and call ``super()``)."""
        self._cache_snap = (
            self.cache.counters.snapshot() if self.cache is not None else None
        )

    def _augment_report(self, stream: StreamReport) -> None:
        """Called on the finished :class:`StreamReport` just before
        :meth:`search_stream` returns; subclasses stamp extra fields
        (shard counts, hedges, per-shard load) here (and call
        ``super()``)."""
        if self.cache is not None and self._cache_snap is not None:
            win = self.cache.counters.since(self._cache_snap)
            stream.cache_hits = win.hits
            stream.cache_misses = win.misses
            stream.cache_rejects = win.rejects
            stream.cache_hit_rate = win.hit_rate
