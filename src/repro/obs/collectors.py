"""Pull-style collectors: bridge existing instruments into the registry.

The package already measures its hot seams — the operand cache counts
preparations vs hits, the executor pool counts pools created, packed list
storage knows its slack.  None of
that should be *pushed* into the registry on the hot path; instead these
collectors read the existing instruments at scrape time (they run inside
:meth:`~repro.obs.metrics.MetricsRegistry.expose` / ``snapshot``), so the
cost lands on the scraper, never on a query.

:func:`install_standard_collectors` wires the process-wide seams; it is
idempotent, so every entry point that wants a populated registry (the
serving front-end, the ``repro metrics`` CLI) can call it unconditionally.
:func:`install_index_collectors` adds per-index gauges (packed-list slack,
dataset shape) for the index a serving session fronts.
"""

from __future__ import annotations

import weakref

from .metrics import MetricsRegistry, registry as default_registry

__all__ = [
    "install_standard_collectors",
    "install_index_collectors",
    "install_cache_collectors",
    "install_quality_collectors",
]


def _collect_process_seams(reg: MetricsRegistry) -> None:
    # imported lazily: obs sits below everything else in the layering, so
    # the modules being observed must not be imported at obs import time
    from ..metrics.engine import operand_cache
    from ..parallel.pool import executor_pool

    stats = operand_cache.stats.snapshot()
    reg.gauge(
        "repro_operand_cache_hits_total",
        "pairwise calls served by a cached prepared operand",
    ).set(stats.n_hits)
    reg.gauge(
        "repro_operand_cache_prepared_total",
        "operand preparations (norm hoists) performed",
    ).set(stats.n_prepared)
    reg.gauge(
        "repro_operand_cache_invalidated_total",
        "cached operands invalidated by version bumps",
    ).set(stats.n_invalidated)
    total = stats.n_hits + stats.n_prepared
    reg.gauge(
        "repro_operand_cache_hit_rate",
        "fraction of operand lookups served from cache",
    ).set(stats.n_hits / total if total else 0.0)

    reg.gauge(
        "repro_executor_pool_live",
        "resident executors currently registered",
    ).set(len(executor_pool))
    reg.gauge(
        "repro_executor_pool_created_total",
        "executors constructed over the registry lifetime",
    ).set(executor_pool.n_created)


def install_standard_collectors(reg: MetricsRegistry | None = None) -> MetricsRegistry:
    """Attach the process-wide seam collectors to ``reg`` (idempotent)."""
    reg = reg if reg is not None else default_registry
    reg.add_collector(_collect_process_seams)
    return reg


def install_index_collectors(
    index, reg: MetricsRegistry | None = None, *, label: str | None = None
) -> MetricsRegistry:
    """Attach per-index gauges: packed-list occupancy/slack and size.

    The collector holds the index weakly — registering an index for
    observation must not keep it alive past its serving session.
    """
    reg = reg if reg is not None else default_registry
    ref = weakref.ref(index)
    name = label or type(index).__name__

    def collect(r: MetricsRegistry) -> None:
        idx = ref()
        if idx is None:
            return
        r.gauge(
            "repro_index_points", "database points indexed", ("index",)
        ).set(getattr(idx, "n", 0), index=name)
        footprint = getattr(idx, "memory_footprint", None)
        if callable(footprint):
            try:
                bytes_held = int(footprint())
            except (NotImplementedError, RuntimeError):
                bytes_held = None  # unbuilt, or no accounting
            if bytes_held is not None:
                r.gauge(
                    "repro_index_memory_bytes",
                    "approximate bytes held by the index structure",
                    ("index",),
                ).set(bytes_held, index=name)
        packed = getattr(idx, "packed", None)
        if packed is None:
            return
        size = getattr(packed, "total", None)
        capacity = getattr(packed, "capacity", None)
        if size is None or capacity is None:
            return
        r.gauge(
            "repro_packed_entries",
            "stored entries in packed list storage",
            ("index",),
        ).set(size, index=name)
        r.gauge(
            "repro_packed_slack_entries",
            "allocated-but-unused entries (growth headroom)",
            ("index",),
        ).set(capacity - size, index=name)

    reg.add_collector(collect)
    return reg


def install_cache_collectors(
    cache, reg: MetricsRegistry | None = None
) -> MetricsRegistry:
    """Attach semantic-cache gauges for one
    :class:`~repro.serving.cache.ProximityCache` (held weakly): lifetime
    hit/miss/certified-reject/eviction/invalidation tallies, live entry
    count, and the running hit rate — read from the cache's own counters
    at scrape time, never on the lookup path."""
    reg = reg if reg is not None else default_registry
    ref = weakref.ref(cache)

    def collect(r: MetricsRegistry) -> None:
        c = ref()
        if c is None:
            return
        counters = c.counters
        r.gauge(
            "repro_semantic_cache_hits_total",
            "queries answered from a certified cached result",
        ).set(counters.hits)
        r.gauge(
            "repro_semantic_cache_misses_total",
            "queries that fell through to the index",
        ).set(counters.misses)
        r.gauge(
            "repro_semantic_cache_rejects_total",
            "misses whose nearest key failed the tolerance certificate",
        ).set(counters.rejects)
        r.gauge(
            "repro_semantic_cache_entries",
            "live cached results",
        ).set(len(c))
        r.gauge(
            "repro_semantic_cache_hit_rate",
            "lifetime fraction of lookups served from cache",
        ).set(counters.hit_rate)
        r.gauge(
            "repro_semantic_cache_evictions_total",
            "entries dropped by LRU pressure or TTL expiry",
        ).set(counters.evicted + counters.expired)
        r.gauge(
            "repro_semantic_cache_invalidations_total",
            "entries dropped because the index mutated",
        ).set(counters.invalidated)

    reg.add_collector(collect)
    return reg


def install_quality_collectors(
    sampler, reg: MetricsRegistry | None = None
) -> MetricsRegistry:
    """Attach answer-quality gauges for one
    :class:`~repro.obs.quality.QualitySampler` (held weakly): the
    windowed recall estimate, sample/breach counters, and — when a
    drift monitor is attached — the live-vs-build distribution gauges
    (nearest-representative distance ratio, ownership-hit entropy, and
    the live Theorem-1 ``c`` estimate)."""
    reg = reg if reg is not None else default_registry
    ref = weakref.ref(sampler)

    def collect(r: MetricsRegistry) -> None:
        s = ref()
        if s is None:
            return
        mon = s.monitor
        r.gauge(
            "repro_quality_recall_estimate",
            "windowed shadow-oracle recall@k estimate",
        ).set(mon.recall_estimate)
        r.gauge(
            "repro_quality_rank_error",
            "windowed mean excess rank of served ids",
        ).set(mon.rank_error_mean)
        r.gauge(
            "repro_quality_distance_ratio",
            "windowed mean served-over-oracle NN distance ratio",
        ).set(mon.distance_ratio_mean)
        r.gauge(
            "repro_quality_samples_total",
            "queries re-answered by the shadow oracle",
        ).set(mon.n_samples)
        r.gauge(
            "repro_quality_breaches_total",
            "recall-target breach signals fired",
        ).set(mon.n_breaches)
        r.gauge(
            "repro_quality_seen_total",
            "queries the sampler hashed (sampled or not)",
        ).set(s.n_seen)
        drift = getattr(s, "drift", None)
        if drift is None:
            return
        rep = drift.report()
        r.gauge(
            "repro_drift_rep_dist_ratio",
            "live over build-time mean nearest-representative distance",
        ).set(rep.dist_ratio)
        r.gauge(
            "repro_drift_rep_entropy",
            "normalized entropy of live representative hits",
        ).set(rep.rep_entropy)
        r.gauge(
            "repro_drift_entropy_baseline",
            "normalized entropy of build-time ownership-list sizes",
        ).set(rep.baseline_entropy)
        if rep.c_live is not None:
            r.gauge(
                "repro_drift_c_live",
                "live expansion-rate estimate (Theorem 1 inverted)",
            ).set(rep.c_live)
        if rep.c_build is not None:
            r.gauge(
                "repro_drift_c_build",
                "build-time expansion-rate estimate",
            ).set(rep.c_build)
        r.gauge(
            "repro_drift_flag",
            "1 when the live window crossed a drift threshold",
        ).set(1.0 if rep.drifted else 0.0)

    reg.add_collector(collect)
    return reg
