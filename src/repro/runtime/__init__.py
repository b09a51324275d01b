"""Unified execution runtime: one context object per search run.

:class:`ExecContext` bundles the cross-cutting execution state — scoped
executor, trace recorder, engine/dtype policy, chunking policy — that the
brute-force primitive, both RBC searches, every baseline, and the eval
harness all share; :class:`RunReport` is the per-run observability record
a context-driven run emits.  Every entry point takes it as ``ctx=``; see
:mod:`repro.runtime.context` for how a call's context merges over an
index's configuration.
"""

from .autotune import Autotuner, KernelPlan, autotune_cache_path, default_autotuner
from .context import ExecContext, Observation, TimingRecorder
from .report import (
    LatencyStats,
    PhaseReport,
    RunReport,
    StreamReport,
    collect_report,
)

__all__ = [
    "Autotuner",
    "KernelPlan",
    "autotune_cache_path",
    "default_autotuner",
    "ExecContext",
    "Observation",
    "TimingRecorder",
    "LatencyStats",
    "PhaseReport",
    "RunReport",
    "StreamReport",
    "collect_report",
]
