"""Metric catalogue and the per-layer metrics derived from a traced pass.

Layer names are the program's module names.  Every workload emits every
metric; a layer a workload bypasses reads 0 there, which is how the traced
split shows the bypass.
"""

from __future__ import annotations

import numpy as np

from spans import SpanTree

#: end-to-end metrics (untraced run): name -> unit
END_TO_END = {
    "setup_s": "s",
    "rss_mb": "MB",
    "qps": "1/s",
    "p50_ms": "ms",
    "tail_ms": "ms",
}

#: per-layer metrics (traced run): name -> unit
PER_LAYER = {
    "serving.batcher.mean_batch": "queries",
    "serving.batcher.overload_mean_batch": "queries",
    "serving.batcher.deadline_flush_share": "fraction",
    "serving.batcher.wait_p50_ms": "ms",
    "serving.batcher.wait_p99_ms": "ms",
    "serving.searcher.service_mean_ms": "ms",
    "serving.searcher.rescore_ms": "ms",
    "serving.cache.hit_rate": "fraction",
    "serving.cache.lookup_ms": "ms",
    "serving.cache.admit_ms": "ms",
    "serving.cache.rejects": "count",
    "serving.sharded.fanout": "shards",
    "serving.sharded.imbalance": "ratio",
    "serving.sharded.scan_ms": "ms",
    "serving.sharded.merge_ms": "ms",
    "serving.sharded.evals_per_query": "count",
    "core.exact.query_ms": "ms",
    "core.exact.query_ms.b1": "ms",
    "core.exact.query_ms.b64": "ms",
    "core.exact.query_ms.b512": "ms",
    "core.exact.stage1_ms": "ms",
    "core.exact.stage2_gemm_ms": "ms",
    "core.exact.gemm_share": "fraction",
    "core.exact.gemm_calls_per_call": "count",
    "core.exact.candidates_per_query": "count",
    "core.rbc.insert_ms": "ms",
    "core.rbc.delete_ms": "ms",
    "core.rbc.reprep_ms": "ms",
    "metrics.engine.prepared": "count",
    "metrics.engine.hits": "count",
    "metrics.engine.invalidated": "count",
    "parallel.bruteforce.qps_b1": "1/s",
    "parallel.bruteforce.qps_b64": "1/s",
    "parallel.bruteforce.qps_b512": "1/s",
    "trace.overhead": "ratio",
    "trace.unattributed_share": "fraction",
}


def _median_ms(durs) -> float:
    return float(np.median(durs)) * 1e3 if len(durs) else 0.0


def exact_layer(tree: SpanTree, candidates: int) -> dict:
    """``core.exact`` metrics from the ``ExactRBC.query`` spans and the
    distance kernels they (or their pool threads) called; ``candidates``
    is the ``last_stats.candidates_examined`` total over those calls."""
    out: dict[str, float] = {}
    calls = tree.named("ExactRBC.query")
    if not calls:
        return out
    rows = sum(c["attrs"]["m"] for c in calls)
    out["core.exact.query_ms"] = sum(c["dur"] for c in calls) / rows * 1e3
    for b in (1, 64, 512):
        sel = [c for c in calls if c["attrs"]["m"] == b]
        if sel:
            out[f"core.exact.query_ms.b{b}"] = (
                sum(c["dur"] for c in sel) / (b * len(sel)) * 1e3
            )
    stage1 = stage2 = 0.0
    n_kernels = 0
    for s in tree.named("pairwise_prepared", "pairwise"):
        own = tree.owner(s)
        if own is None or own["name"] != "ExactRBC.query":
            continue
        n_kernels += 1
        if s["attrs"].get("stage1"):
            stage1 += s["self"]
        else:
            stage2 += s["self"]
    out["core.exact.stage1_ms"] = stage1 / rows * 1e3
    out["core.exact.stage2_gemm_ms"] = stage2 / rows * 1e3
    out["core.exact.gemm_share"] = sum(tree.gemm_cover(c) for c in calls) / sum(
        c["dur"] for c in calls
    )
    out["core.exact.gemm_calls_per_call"] = n_kernels / len(calls)
    out["core.exact.candidates_per_query"] = candidates / rows
    return out


def serving_layers(tree: SpanTree, n_served: int) -> dict:
    """``serving.cache`` / ``.searcher`` / ``.sharded`` span times per
    served query.  Kernel spans owned by no wrapped call ran inside a
    scatter-gather wave of the sharded searcher."""
    per_q = 1e3 / max(n_served, 1)
    acc = {"lookup": 0.0, "admit": 0.0, "rescore": 0.0, "scan": 0.0, "merge": 0.0}
    for s in tree.spans:
        name = s["name"]
        if name == "ProximityCache.lookup":
            acc["lookup"] += s["dur"]
        elif name == "ProximityCache.admit":
            acc["admit"] += s["dur"]
        elif name in ("rescore_pairs@searcher", "rescore_pairs@sharded"):
            acc["rescore"] += s["self"]
        elif name in ("merge_group_topk", "merge_topk", "dedupe_rows"):
            acc["merge"] += s["self"]
        elif name in ("pairwise", "pairwise_prepared"):
            own = tree.owner(s)
            if own is not None and own["name"] == "serve.stream":
                acc["scan"] += s["self"]
    return {
        "serving.cache.lookup_ms": acc["lookup"] * per_q,
        "serving.cache.admit_ms": acc["admit"] * per_q,
        "serving.searcher.rescore_ms": acc["rescore"] * per_q,
        "serving.sharded.scan_ms": acc["scan"] * per_q,
        "serving.sharded.merge_ms": acc["merge"] * per_q,
    }


def write_layer(tree: SpanTree) -> dict:
    """``core.rbc`` write latencies and the re-preparation a read pays
    right after a write (the read's request span carries the flag)."""
    ins = [s["dur"] for s in tree.named("ExactRBC.insert")]
    dels = [s["dur"] for s in tree.named("ExactRBC.delete")]
    first, other = [], []
    for s in tree.named("ExactRBC.query"):
        req = tree.by_id.get(s["parent"])
        after = req is not None and req["attrs"].get("after_write", False)
        (first if after else other).append(s["dur"])
    out = {"core.rbc.insert_ms": _median_ms(ins), "core.rbc.delete_ms": _median_ms(dels)}
    if first and other:
        out["core.rbc.reprep_ms"] = _median_ms(first) - _median_ms(other)
    return out


def unattributed_share(tree: SpanTree, root_names: tuple[str, ...]) -> float:
    """Share of the benchmark's request spans that no wrapped call covers."""
    roots = tree.named(*root_names)
    total = sum(r["dur"] for r in roots)
    return sum(r["self"] for r in roots) / total if total > 0 else 0.0


def complete(values: dict) -> dict:
    """Every per-layer metric, 0 where the workload bypasses the layer."""
    unknown = set(values) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"metrics missing from the catalogue: {sorted(unknown)}")
    return {name: float(values.get(name, 0.0)) for name in PER_LAYER}
