"""repro.obs — live telemetry: span tracing, metrics, and SLO monitoring.

The post-hoc observability of :mod:`repro.runtime` (RunReports summarize a
run after it ends) gets a *live* counterpart here:

* :mod:`repro.obs.tracing` — :class:`Span`/:class:`Tracer` timelines with
  trace/span/parent identity that crosses worker threads and distributed
  nodes (a node's spans are re-parented under the coordinator's on
  return) and export as Chrome ``trace_events`` JSON;
* :mod:`repro.obs.metrics` — a process-wide :class:`MetricsRegistry` of
  named counters/gauges/histograms with label support, per-thread shards
  on the write path, Prometheus text exposition, and JSONL snapshots;
* :mod:`repro.obs.collectors` — pull-gauges over the instruments the
  package already has (operand cache, executor pool, packed-list slack);
* :mod:`repro.obs.slo` — a rolling-window :class:`SLOMonitor` tracking
  latency percentiles and error-budget burn against the batcher's
  latency budget, with breach callbacks the batcher consumes;
* :mod:`repro.obs.quality` — the answer-quality counterpart: shadow-
  oracle recall sampling (:class:`QualitySampler`), a rolling
  :class:`QualityMonitor` with breach callbacks, and query-distribution
  drift detection (:class:`DriftMonitor` / :class:`DriftReport`);
* :mod:`repro.obs.explain` — :class:`QueryExplain`, the structured
  per-query account of routing, pruning, caching, and sharding;
* :mod:`repro.obs.flight` — the :class:`FlightRecorder`: always-on
  bounded telemetry rings dumped as a self-contained bundle on breach.

This package sits at the bottom of the layering (stdlib + numpy only), so
every other module can import it freely.
"""

from .collectors import (
    install_index_collectors,
    install_quality_collectors,
    install_standard_collectors,
)
from .explain import QueryExplain
from .flight import FlightRecorder
from .metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    registry,
)
from .quality import (
    DriftMonitor,
    DriftReport,
    QualityMonitor,
    QualitySample,
    QualitySampler,
)
from .slo import SLOMonitor
from .tracing import NULL_TRACER, Span, SpanContext, Tracer, chrome_trace

__all__ = [
    "Span",
    "SpanContext",
    "Tracer",
    "NULL_TRACER",
    "chrome_trace",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "registry",
    "DEFAULT_BUCKETS",
    "install_standard_collectors",
    "install_index_collectors",
    "install_quality_collectors",
    "SLOMonitor",
    "QualitySample",
    "QualityMonitor",
    "QualitySampler",
    "DriftMonitor",
    "DriftReport",
    "QueryExplain",
    "FlightRecorder",
]
