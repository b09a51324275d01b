"""Streaming query serving: persistent executors, warm operands,
adaptive micro-batching (see docs/serving.md).

The paper benchmarks one big batch of queries; a deployed nearest-neighbor
service sees them one at a time.  This package closes that gap without
giving up the paper's batched-kernel economics: a
:class:`~repro.serving.searcher.StreamingSearcher` keeps executors and
prepared operands resident across calls, groups arrivals into
latency-budgeted micro-batches via the measurement-driven
:class:`~repro.serving.batcher.QueryBatcher`, and reports per-query
latency percentiles and throughput as a
:class:`~repro.runtime.report.StreamReport`.

Skewed traffic gets its own tier: the
:class:`~repro.serving.cache.ProximityCache` answers queries within a
certified tolerance radius of a cached neighbor's result with zero
recall loss, and :mod:`repro.serving.scenarios` generates the realistic
traces (diurnal, flash-crowd, Zipfian, drift) that make the skew
measurable.
"""

from .batcher import BatchPolicy, QueryBatcher
from .cache import CacheCounters, CachePolicy, ProximityCache
from .scenarios import (
    SCENARIOS,
    ScenarioTrace,
    make_scenario,
    observe_scenario,
)
from .searcher import StreamingSearcher
from .sharded import HedgePolicy, ShardedStreamingSearcher

__all__ = [
    "BatchPolicy",
    "QueryBatcher",
    "CacheCounters",
    "CachePolicy",
    "ProximityCache",
    "SCENARIOS",
    "ScenarioTrace",
    "make_scenario",
    "observe_scenario",
    "StreamingSearcher",
    "HedgePolicy",
    "ShardedStreamingSearcher",
]
