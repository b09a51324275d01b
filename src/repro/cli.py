"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``
    Registry contents: paper-analog datasets, metrics, machine presets.
``build``
    Build an RBC index from a ``.npy`` array or a registry dataset name
    and save it to ``.npz``.
``query``
    Load a saved index and run k-NN queries from a ``.npy`` file; prints
    neighbors and work statistics.
``dim``
    Estimate the expansion rate (Definition 1) of a dataset.
``compare``
    Quick exact-RBC vs brute-force comparison on a dataset — a one-command
    taste of Figure 2.
``knn-graph``
    Build the exact k-NN graph of a dataset (RBC-accelerated all-k-NN)
    and save the ``(dist, idx)`` arrays to ``.npz``.
``serve-bench``
    Streaming-serving benchmark: replay a query-arrival trace through a
    per-call server and a resident micro-batched server, print latency
    percentiles and throughput, verify the answers are identical.
    ``--trace`` saves a Chrome-trace JSON of the batched run.
``explain``
    Serve a few queries with EXPLAIN capture and print each one's
    decision digest: router choice and per-backend cost scores, cache
    outcome with the tolerance radius, pruning-rule attribution,
    quantized-tier stats, shard fan-out.
``report``
    Pretty-print any saved observability artifact — a ``RunReport`` /
    ``StreamReport`` / serve-bench JSON, a Chrome-trace file, a span
    dump, a metrics-snapshot JSONL, or a flight-recorder bundle
    directory (auto-detected by its ``manifest.json``).
``metrics``
    Run a small instrumented serving stream and print the metrics
    registry's Prometheus text exposition plus the SLO summary.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

__all__ = ["main"]


def _load_data(spec: str, scale: float, n_queries: int):
    """Resolve a data spec: registry dataset name or a .npy path."""
    from .data import DATASETS, load

    if spec in DATASETS:
        return load(spec, scale=scale, n_queries=n_queries)
    X = np.load(spec)
    if X.ndim != 2:
        raise SystemExit(f"expected a 2-d array in {spec}, got shape {X.shape}")
    return X, None


def _cmd_info(args) -> int:
    from .data import table1_rows
    from .eval import format_table
    from .metrics import available_metrics
    from .simulator import AMD_48CORE, DESKTOP_QUAD, SEQUENTIAL, TESLA_C2050

    print(
        format_table(
            ["dataset", "paper n", "n @ default scale", "dim", "intrinsic"],
            [list(r) for r in table1_rows()],
            title="Paper-analog datasets (Table 1)",
        )
    )
    print("\nmetrics:", ", ".join(available_metrics()))
    print("\nmachine models:")
    for m in (AMD_48CORE, DESKTOP_QUAD, SEQUENTIAL, TESLA_C2050):
        print(
            f"  {m.name:20s} workers={m.n_workers:3d} "
            f"peak={m.peak_gflops:7.1f} GFLOP/s "
            f"bw={m.mem_bandwidth_gbs:g} GB/s"
        )
    return 0


def _cmd_build(args) -> int:
    from .core import ExactRBC, OneShotRBC, save_index

    X, _ = _load_data(args.data, args.scale, n_queries=0)
    t0 = time.perf_counter()
    if args.algorithm == "exact":
        index = ExactRBC(metric=args.metric, seed=args.seed)
        index.build(X, n_reps=args.n_reps)
    else:
        index = OneShotRBC(metric=args.metric, seed=args.seed)
        index.build(X, n_reps=args.n_reps, s=args.s)
    elapsed = time.perf_counter() - t0
    save_index(index, args.output)
    bs = index.build_stats
    print(
        f"built {args.algorithm} RBC over {bs.n_points} points: "
        f"{bs.n_reps} representatives, mean list {bs.mean_list:.1f}, "
        f"{bs.build_evals} distance evaluations, {elapsed:.2f}s"
    )
    print(f"saved to {args.output}")
    return 0


def _cmd_query(args) -> int:
    from .core import load_index

    index = load_index(args.index)
    Q = np.load(args.queries)
    t0 = time.perf_counter()
    dist, idx = index.query(np.atleast_2d(Q), k=args.k)
    elapsed = time.perf_counter() - t0
    st = index.last_stats
    for r in range(min(dist.shape[0], args.show)):
        pairs = ", ".join(
            f"#{int(i)} @ {d:.4g}" for d, i in zip(dist[r], idx[r]) if i >= 0
        )
        print(f"query {r}: {pairs}")
    print(
        f"\n{dist.shape[0]} queries in {elapsed:.3f}s; "
        f"{st.per_query_evals():.0f} distance evaluations/query "
        f"(database holds {index.n})"
    )
    return 0


def _cmd_dim(args) -> int:
    from .dimension import estimate_expansion_rate

    X, _ = _load_data(args.data, args.scale, n_queries=0)
    est = estimate_expansion_rate(
        X, args.metric, n_centers=args.centers, seed=args.seed
    )
    print(
        f"expansion rate c = {est.c:.2f} (median {est.c_median:.2f}, "
        f"max {est.c_max:.2f}) over {est.n_centers} centers"
    )
    print(f"growth dimension log2(c) = {est.log2_c:.2f}")
    return 0


def _cmd_compare(args) -> int:
    import inspect

    from .baselines import BruteForceIndex
    from .core import ExactRBC
    from .eval import traced_query
    from .index import create_index
    from .runtime import ExecContext
    from .simulator import AMD_48CORE

    X, Q = _load_data(args.data, args.scale, n_queries=args.queries)
    if Q is None:
        rng = np.random.default_rng(args.seed)
        take = rng.choice(X.shape[0], size=args.queries, replace=False)
        Q = X[take]
    # both runs execute under an ExecContext; the harness adds the recorder
    brute = BruteForceIndex().build(X)
    b = traced_query(
        brute, Q, [AMD_48CORE], k=args.k, ctx=ExecContext(tile_cols=2048)
    )
    name = args.index
    rbc = create_index(name, lenient=True, metric="euclidean", seed=args.seed)
    if "n_reps" in inspect.signature(rbc.build).parameters:
        rbc.build(X, n_reps=args.n_reps)
    else:
        rbc.build(X)
    r = traced_query(rbc, Q, [AMD_48CORE], k=args.k, ctx=ExecContext())
    caps = rbc.capabilities()
    same = bool(np.allclose(b.dist, r.dist, atol=1e-6))
    print(f"database {X.shape[0]} x {X.shape[1]}, {Q.shape[0]} queries, k={args.k}")
    if caps.exact:
        print(f"answers identical: {same}")
    else:
        hits = sum(
            len(set(r.idx[t]) & set(b.idx[t])) for t in range(Q.shape[0])
        )
        recall = hits / float(Q.shape[0] * args.k)
        print(f"{name} is approximate: recall@{args.k} = {recall:.4f}")
    print(f"work:        brute {b.evals:>12d} evals | {name} {r.evals:>12d} "
          f"({b.evals / max(r.evals, 1):.1f}x less)")
    print(
        f"48-core sim: brute {b.sim_time(AMD_48CORE) * 1e3:9.3f} ms | {name} "
        f"{r.sim_time(AMD_48CORE) * 1e3:9.3f} ms "
        f"({b.sim_time(AMD_48CORE) / max(r.sim_time(AMD_48CORE), 1e-12):.1f}x faster)"
    )
    decision = getattr(rbc, "last_decision", None)
    if decision is not None:
        print(
            f"routed to:   {decision.backend} (rung {decision.rung}, "
            f"c_est {decision.c_est:.2f}, predicted "
            f"{decision.predicted_s * 1e3:.3f} ms, measured "
            f"{decision.measured_s * 1e3:.3f} ms)"
        )
    if args.quantize and name not in ("rbc-exact", "exact"):
        print("(--quantize applies to --index rbc-exact only; skipping)")
        args.quantize = None
    if args.quantize:
        ctx = ExecContext(engine=True)
        qidx = ExactRBC(seed=args.seed, quantizer=args.quantize).build(
            X, n_reps=args.n_reps
        )
        qidx.warm(ctx)
        qr = traced_query(qidx, Q, [AMD_48CORE], k=args.k, ctx=ctx)
        qsame = bool(
            r.idx is not None and qr.idx is not None
            and np.array_equal(r.idx, qr.idx)
        )
        info = qr.quant or {}
        plan = qidx._quant_plan()
        # bytes one query scans: codes vs the float64 operand it replaces
        float_bytes = X.shape[0] * X.shape[1] * 8
        code_bytes = int(info.get("code_bytes", 0))
        print(
            f"quantized:   {info.get('quantizer', args.quantize)}"
            f"/{info.get('strategy', plan.strategy)} "
            f"({info.get('backend', plan.backend)}) "
            f"{qr.wall_s * 1e3:9.3f} ms vs rbc {r.wall_s * 1e3:9.3f} ms "
            f"({r.wall_s / max(qr.wall_s, 1e-12):.1f}x)"
        )
        print(
            f"  ids identical: {qsame}; bytes/scan {code_bytes} vs "
            f"{float_bytes} float64 "
            f"({float_bytes / max(code_bytes, 1):.1f}x less moved)"
        )
        if "recall_before_rerank" in info:
            print(
                f"  recall before re-rank: "
                f"{info['recall_before_rerank']:.4f} "
                f"(k'={info.get('k_prime', '?')}, exact after re-rank)"
            )
        if args.report:
            print("\n" + qr.summary())
    if args.report:
        print("\n" + b.summary())
        print("\n" + r.summary())
    return 0


def _cmd_serve_bench(args) -> int:
    import json

    from .core import ExactRBC, OneShotRBC
    from .eval import format_table
    from .obs import SLOMonitor, Tracer
    from .runtime import ExecContext
    from .serving import (
        BatchPolicy,
        CachePolicy,
        HedgePolicy,
        ShardedStreamingSearcher,
        StreamingSearcher,
        make_scenario,
    )

    X, Q = _load_data(args.data, args.scale, n_queries=args.queries)
    if Q is None:
        rng = np.random.default_rng(args.seed)
        take = rng.choice(X.shape[0], size=args.queries, replace=False)
        Q = X[take]
    arrivals = None
    scenario_params = None
    if args.scenario:
        # the whole trace — content skew and arrival process — comes from
        # the explicit seed, so reruns replay byte-identical traffic
        trace = make_scenario(
            args.scenario, Q, n_queries=args.queries, qps=args.qps,
            seed=args.seed,
        )
        Q, arrivals = trace.queries, trace.arrivals
        scenario_params = trace.params
    cache_spec = (
        CachePolicy(
            max_entries=args.cache_size,
            ttl_s=args.cache_ttl if args.cache_ttl > 0 else float("inf"),
        )
        if args.cache
        else None
    )
    if args.index:
        from .index import create_index

        index = create_index(
            args.index, lenient=True, metric="euclidean", seed=args.seed
        )
        index.build(X)
        if args.shards > 1 and not (
            hasattr(index, "shard_target") or hasattr(index, "lists")
        ):
            raise SystemExit(
                "--shards requires an RBC-backed index (rbc-exact or router)"
            )
    elif args.algorithm == "exact":
        index = ExactRBC(seed=args.seed).build(X)
    else:
        if args.shards > 1:
            raise SystemExit("--shards requires --algorithm exact")
        index = OneShotRBC(seed=args.seed).build(X)
    ctx = ExecContext(executor=args.backend) if args.backend else None

    def run(
        max_batch: int,
        label: str,
        tracer: Tracer | None = None,
        cache=None,
        quality=None,
        flight=None,
    ):
        restore = getattr(index, "restore", None)
        if callable(restore):
            # each serving run starts at the router's best-quality rung;
            # SLO breaches during the run may walk it down the ladder
            restore()
        policy = BatchPolicy(max_delay_ms=args.max_delay_ms, max_batch=max_batch)
        run_ctx = ctx
        if tracer is not None:
            run_ctx = (ctx or ExecContext()).with_tracer(tracer)
        slo = SLOMonitor(args.max_delay_ms / 1e3, window_s=float("inf"))
        if args.shards > 1:
            srv_ = ShardedStreamingSearcher(
                index,
                k=args.k,
                policy=policy,
                ctx=run_ctx,
                slo=slo,
                n_shards=args.shards,
                replicas=args.replicas,
                hedge=HedgePolicy() if args.replicas > 1 else None,
                cache=cache,
                quality=quality,
                flight=flight,
            )
        else:
            srv_ = StreamingSearcher(
                index, k=args.k, policy=policy, ctx=run_ctx, slo=slo,
                cache=cache, quality=quality, flight=flight,
            )
        with srv_ as srv:
            if arrivals is not None:
                return srv.search_stream(
                    Q, arrival_times=arrivals, name=label
                )
            return srv.search_stream(Q, qps=args.qps, name=label)

    flight = None
    if args.flight:
        from .obs import FlightRecorder

        flight = FlightRecorder(dir=args.flight)
    tracer = Tracer() if args.trace else None
    per_call = run(1, "per-call")
    # the cache / quality sampler / flight recorder ride the resident run
    # only: answers must still match the uncached per-call baseline
    # bit-for-bit (the zero-recall-loss check)
    batched = run(
        args.max_batch, "resident+batched", tracer, cache_spec,
        args.quality if args.quality > 0 else None, flight,
    )
    if tracer is not None:
        tracer.save(args.trace)
        print(f"wrote {args.trace} ({len(tracer)} spans)")

    identical = bool(
        np.array_equal(per_call.dist, batched.dist)
        and np.array_equal(per_call.idx, batched.idx)
    )
    rows = [
        [
            r.name,
            r.throughput_qps,
            r.latency.p50_s * 1e3,
            r.latency.p95_s * 1e3,
            r.latency.p99_s * 1e3,
            r.mean_batch,
            r.n_batches,
        ]
        for r in (per_call, batched)
    ]
    print(
        f"database {X.shape[0]} x {X.shape[1]}, {Q.shape[0]} queries at "
        f"{args.qps:g} q/s offered, k={args.k}, "
        f"budget {args.max_delay_ms:g} ms"
    )
    if scenario_params is not None:
        knobs = ", ".join(
            f"{k}={v}" for k, v in scenario_params.items()
            if k not in ("scenario", "n_queries", "qps")
        )
        print(f"scenario: {scenario_params['scenario']} ({knobs})")
    print(
        format_table(
            ["server", "q/s", "p50 ms", "p95 ms", "p99 ms", "batch", "flushes"],
            rows,
        )
    )
    speedup = batched.throughput_qps / per_call.throughput_qps
    print(f"\nbatched speedup: {speedup:.1f}x; answers identical: {identical}")
    if cache_spec is not None:
        print(
            f"semantic cache: {batched.cache_hits} hits / "
            f"{batched.cache_misses} misses "
            f"({batched.cache_rejects} certified rejects), "
            f"hit rate {batched.cache_hit_rate:.1%}"
        )
    if batched.quality:
        q = batched.quality
        print(
            f"quality: recall est {q.get('recall_estimate', 0.0):.4f} "
            f"(target {q.get('target', 0.0):g}) from "
            f"{q.get('n_sampled', 0)}/{q.get('n_seen', 0)} sampled, "
            f"{q.get('n_breaches', 0)} breaches"
        )
    if flight is not None and flight.bundles:
        for b in flight.bundles:
            print(f"flight bundle: {b}")
    route_counts = getattr(index, "route_counts", None)
    if callable(route_counts):
        counts = route_counts()
        rung = getattr(index, "rung", 0)
        print(
            f"router: final rung {rung}, batches per backend {counts}"
            + ("" if identical else "\n  (differing answers mean SLO breaches degraded one run's rung)")
        )
    if batched.n_shards:
        print(
            f"sharded over {batched.n_shards} nodes "
            f"(x{args.replicas} replicas): {batched.rounds} rounds, "
            f"{batched.hedges} hedges"
        )
    if args.json:
        payload = {
            "n": int(X.shape[0]),
            "dim": int(X.shape[1]),
            "queries": int(Q.shape[0]),
            "qps_offered": float(args.qps),
            "identical": identical,
            "speedup": speedup,
            "per_call": per_call.to_dict(),
            "batched": batched.to_dict(),
        }
        if scenario_params is not None:
            payload["scenario"] = scenario_params
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"wrote {args.json}")
    return 0 if identical else 1


def _cmd_explain(args) -> int:
    from .index import create_index
    from .serving import BatchPolicy, StreamingSearcher

    X, Q = _load_data(args.data, args.scale, n_queries=max(args.queries, 1))
    if Q is None:
        rng = np.random.default_rng(args.seed)
        take = rng.choice(X.shape[0], size=max(args.queries, 1), replace=False)
        Q = X[take]
    index = create_index(
        args.index, lenient=True, metric="euclidean", seed=args.seed
    )
    index.build(X)
    with StreamingSearcher(
        index,
        k=args.k,
        policy=BatchPolicy(max_batch=1),
        cache=True if args.cache else None,
        quality=args.quality if args.quality > 0 else None,
    ) as srv:
        for r in range(min(args.queries, Q.shape[0])):
            dist, idx, e = srv.explain_query(Q[r])
            pairs = ", ".join(
                f"#{int(i)} @ {d:.4g}" for d, i in zip(dist, idx) if i >= 0
            )
            print(f"query {r}: {pairs}")
            print(e.summary())
            if args.json:
                import json

                print(json.dumps(e.to_dict(), default=str))
            print()
    return 0


def _print_flight_bundle(bundle, manifest: dict) -> None:
    import json

    print(
        f"flight bundle: reason '{manifest.get('reason', '?')}' "
        f"(v{manifest.get('version', '?')}, clock "
        f"{manifest.get('now')})"
    )
    counts = manifest.get("counts", {})
    print(
        "  rings: "
        + ", ".join(f"{k} {v}" for k, v in sorted(counts.items()))
    )
    files = manifest.get("files", {})
    quality_file = bundle / files.get("quality", "quality.json")
    if quality_file.exists():
        q = json.loads(quality_file.read_text())
        mon = q.get("monitor")
        if mon:
            print(
                f"  quality: recall est {mon.get('recall_estimate', 0.0):.4f} "
                f"(target {mon.get('target', 0.0):g}) over "
                f"{mon.get('n_samples', 0)} samples, "
                f"{mon.get('n_breaches', 0)} breaches"
            )
            for label, agg in sorted(mon.get("by_label", {}).items()):
                print(
                    f"    {label}: n={agg.get('n', 0)} "
                    f"recall={agg.get('recall', 1.0):.4f}"
                )
        drift = q.get("drift")
        if drift:
            from .obs.quality import DriftReport

            print("  " + DriftReport.from_dict(drift).summary())
    events_file = bundle / files.get("events", "events.json")
    if events_file.exists():
        events = json.loads(events_file.read_text())
        if events:
            print(f"  events ({len(events)}):")
            for ev in events[-8:]:
                extra = ", ".join(
                    f"{k}={v}" for k, v in ev.items() if k not in ("kind", "t")
                )
                print(
                    f"    {ev.get('kind', '?')} at t={ev.get('t')}"
                    + (f" ({extra})" if extra else "")
                )
    explains_file = bundle / files.get("explains", "explains.json")
    if explains_file.exists():
        explains = json.loads(explains_file.read_text())
        if explains:
            from .obs.explain import QueryExplain

            print(f"  last of {len(explains)} recorded explains:")
            last = QueryExplain.from_dict(explains[-1])
            for line in last.summary().splitlines():
                print("    " + line)
    trace_file = bundle / files.get("trace", "trace.json")
    if trace_file.exists():
        payload = json.loads(trace_file.read_text())
        if payload.get("traceEvents"):
            print()
            _print_chrome_trace(payload)


def _detect_flight_bundle(path):
    """``(bundle_dir, manifest)`` when ``path`` is a flight bundle (the
    directory or its manifest.json), else ``None``."""
    import json
    from pathlib import Path

    from .obs.flight import BUNDLE_KIND

    p = Path(path)
    manifest_path = None
    if p.is_dir() and (p / "manifest.json").exists():
        manifest_path = p / "manifest.json"
    elif p.is_file() and p.name == "manifest.json":
        manifest_path = p
    if manifest_path is None:
        return None
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, ValueError):
        return None
    if not isinstance(manifest, dict) or manifest.get("kind") != BUNDLE_KIND:
        return None
    return manifest_path.parent, manifest


def _print_chrome_trace(payload: dict) -> None:
    from .eval import format_table

    events = payload.get("traceEvents", [])
    agg: dict[str, list[float]] = {}
    pids = set()
    for ev in events:
        ent = agg.setdefault(ev.get("name", "?"), [0, 0.0])
        ent[0] += 1
        ent[1] += float(ev.get("dur", 0.0))
        pids.add(ev.get("pid"))
    span = max((e.get("ts", 0.0) + e.get("dur", 0.0) for e in events), default=0.0)
    print(
        f"Chrome trace: {len(events)} events across {len(pids)} process(es), "
        f"{span / 1e3:.2f} ms timeline"
    )
    rows = [
        [name, n, total / 1e3, total / n / 1e3]
        for name, (n, total) in sorted(
            agg.items(), key=lambda kv: -kv[1][1]
        )
    ]
    print(format_table(["span", "count", "total ms", "mean ms"], rows))


def _print_span_dump(spans: list) -> None:
    from .eval import format_table

    agg: dict[str, list[float]] = {}
    traces = set()
    for s in spans:
        ent = agg.setdefault(s.get("name", "?"), [0, 0.0])
        ent[0] += 1
        ent[1] += float(s.get("dur_s", 0.0))
        traces.add(s.get("trace_id"))
    print(f"Span dump: {len(spans)} spans in {len(traces)} trace(s)")
    rows = [
        [name, n, total * 1e3, total / n * 1e3]
        for name, (n, total) in sorted(agg.items(), key=lambda kv: -kv[1][1])
    ]
    print(format_table(["span", "count", "total ms", "mean ms"], rows))


def _print_metrics_snapshots(records: list) -> None:
    last = records[-1]["metrics"]
    if len(records) > 1:
        t0, t1 = records[0].get("ts", 0.0), records[-1].get("ts", 0.0)
        print(
            f"Metrics: {len(records)} snapshots over {t1 - t0:.3f} s "
            f"(latest shown)"
        )
    for name, entry in sorted(last.items()):
        values = entry.get("values", {})
        for labels, val in sorted(values.items()):
            where = f"{{{labels}}}" if labels else ""
            if isinstance(val, dict):  # histogram: sum/count
                n = val.get("count", 0)
                mean = val.get("sum", 0.0) / n if n else 0.0
                shown = f"count {n}, mean {mean:.6g}"
            else:
                shown = f"{val:g}"
            print(f"  {name}{where} [{entry.get('kind', '?')}] {shown}")


def _print_serve_bench(payload: dict) -> None:
    from .runtime.report import StreamReport

    print(
        f"serve-bench: {payload.get('queries', '?')} queries over "
        f"{payload.get('n', '?')} x {payload.get('dim', '?')} at "
        f"{payload.get('qps_offered', 0.0):g} q/s offered; "
        f"speedup {payload.get('speedup', 0.0):.1f}x, "
        f"identical: {payload.get('identical')}"
    )
    for key in ("per_call", "batched"):
        if key in payload:
            print("\n" + StreamReport.from_dict(payload[key]).summary())


def _print_scenarios(payload: dict) -> None:
    from .eval import format_table

    print(
        f"scenario bench: {payload.get('n', '?')} x "
        f"{payload.get('dim', '?')} database, k={payload.get('k', '?')}, "
        f"{payload.get('queries', '?')} queries per scenario"
    )
    rows = [
        [
            s.get("name", "?"),
            s.get("offered_qps", 0.0),
            s.get("hit_rate", 0.0) * 100.0,
            s.get("uncached_throughput_qps", 0.0),
            s.get("cached_throughput_qps", 0.0),
            s.get("uncached_p99_ms", 0.0),
            s.get("cached_p99_ms", 0.0),
            s.get("p99_speedup_raw", s.get("p99_speedup", 0.0)),
            "yes" if s.get("identical") else "NO",
        ]
        for s in payload.get("scenarios", [])
    ]
    print(
        format_table(
            [
                "scenario", "offered q/s", "hit %", "q/s off", "q/s on",
                "p99 off ms", "p99 on ms", "p99 x", "identical",
            ],
            rows,
        )
    )
    zipf = payload.get("zipfian")
    if zipf:
        x = zipf.get("p99_speedup_raw", zipf.get("p99_speedup", 0.0))
        print(
            f"\nzipfian hot-key: p99 speedup {x:.1f}x "
            f"at hit rate {zipf.get('hit_rate', 0.0):.1%} "
            f"(acceptance floor 2.0x)"
        )


def _cmd_report(args) -> int:
    import json

    from .runtime.report import RunReport, StreamReport

    found = _detect_flight_bundle(args.file)
    if found is not None:
        _print_flight_bundle(*found)
        return 0
    with open(args.file) as fh:
        text = fh.read()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        # not one JSON document: try metrics-snapshot JSONL
        try:
            records = [
                json.loads(ln) for ln in text.splitlines() if ln.strip()
            ]
        except json.JSONDecodeError:
            raise SystemExit(f"{args.file}: neither JSON nor JSONL")
        if not records or not all(
            isinstance(r, dict) and "metrics" in r for r in records
        ):
            raise SystemExit(f"{args.file}: unrecognized JSONL contents")
        _print_metrics_snapshots(records)
        return 0
    if isinstance(payload, dict) and "traceEvents" in payload:
        _print_chrome_trace(payload)
    elif isinstance(payload, dict) and "scenarios" in payload:
        _print_scenarios(payload)
    elif isinstance(payload, dict) and "per_call" in payload:
        _print_serve_bench(payload)
    elif isinstance(payload, dict) and "metrics" in payload:
        _print_metrics_snapshots([payload])
    elif isinstance(payload, dict) and "n_queries" in payload:
        print(StreamReport.from_dict(payload).summary())
    elif isinstance(payload, dict) and "wall_s" in payload:
        print(RunReport.from_dict(payload).summary())
    elif (
        isinstance(payload, list)
        and payload
        and isinstance(payload[0], dict)
        and "span_id" in payload[0]
    ):
        _print_span_dump(payload)
    else:
        raise SystemExit(f"{args.file}: unrecognized report format")
    return 0


def _cmd_metrics(args) -> int:
    from .core import ExactRBC
    from .obs import MetricsRegistry, SLOMonitor
    from .serving import BatchPolicy, StreamingSearcher

    X, Q = _load_data(args.data, args.scale, n_queries=args.queries)
    if Q is None:
        rng = np.random.default_rng(args.seed)
        take = rng.choice(X.shape[0], size=args.queries, replace=False)
        Q = X[take]
    index = ExactRBC(seed=args.seed).build(X)
    reg = MetricsRegistry()
    slo = SLOMonitor(args.max_delay_ms / 1e3, window_s=float("inf"))
    policy = BatchPolicy(max_delay_ms=args.max_delay_ms)
    with StreamingSearcher(
        index, k=args.k, policy=policy, slo=slo, metrics=reg
    ) as srv:
        srv.search_stream(Q, qps=args.qps)
    sys.stdout.write(reg.expose())
    print("\n" + slo.summary())
    return 0


def _cmd_knn_graph(args) -> int:
    from .core.knngraph import knn_graph

    X, _ = _load_data(args.data, args.scale, n_queries=0)
    t0 = time.perf_counter()
    dist, idx = knn_graph(X, args.k, metric=args.metric, seed=args.seed)
    elapsed = time.perf_counter() - t0
    np.savez_compressed(args.output, dist=dist, idx=idx)
    print(
        f"{args.k}-NN graph over {X.shape[0]} points in {elapsed:.2f}s; "
        f"saved dist/idx arrays to {args.output}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="Random Ball Cover nearest-neighbor search (Cayton, IPPS 2012)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="list datasets, metrics, machine models")

    b = sub.add_parser("build", help="build and save an RBC index")
    b.add_argument("data", help="dataset name (see `info`) or .npy path")
    b.add_argument("-o", "--output", required=True, help="output .npz path")
    b.add_argument("--algorithm", choices=["exact", "oneshot"], default="exact")
    b.add_argument("--metric", default="euclidean")
    b.add_argument("--n-reps", type=int, default=None)
    b.add_argument("--s", type=int, default=None, help="one-shot list size")
    b.add_argument("--scale", type=float, default=0.05)
    b.add_argument("--seed", type=int, default=0)

    q = sub.add_parser("query", help="query a saved index")
    q.add_argument("index", help=".npz file written by `build`")
    q.add_argument("queries", help=".npy file of query points")
    q.add_argument("-k", type=int, default=1)
    q.add_argument("--show", type=int, default=5, help="queries to print")

    d = sub.add_parser("dim", help="estimate the expansion rate")
    d.add_argument("data", help="dataset name or .npy path")
    d.add_argument("--metric", default="euclidean")
    d.add_argument("--centers", type=int, default=64)
    d.add_argument("--scale", type=float, default=0.01)
    d.add_argument("--seed", type=int, default=0)

    c = sub.add_parser(
        "compare", help="a registered index vs brute force, one command"
    )
    c.add_argument("data", help="dataset name or .npy path")
    c.add_argument(
        "--index",
        default="rbc-exact",
        help="registered backend to compare against brute force "
        "(see `repro.index.available_indexes()`; 'router' picks per batch)",
    )
    c.add_argument("-k", type=int, default=1)
    c.add_argument("--queries", type=int, default=200)
    c.add_argument("--n-reps", type=int, default=None)
    c.add_argument("--scale", type=float, default=0.05)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument(
        "--report",
        action="store_true",
        help="print the full per-run observability reports",
    )
    c.add_argument(
        "--quantize",
        nargs="?",
        const="auto",
        default=None,
        choices=["auto", "int8", "float16", "pq"],
        help="additionally run a quantized exact index and report its "
        "speedup, bytes moved, and recall before the float64 re-rank "
        "(answers stay id-identical)",
    )

    s = sub.add_parser(
        "serve-bench", help="streaming per-call vs micro-batched serving"
    )
    s.add_argument("data", help="dataset name or .npy path")
    s.add_argument("-k", type=int, default=1)
    s.add_argument("--queries", type=int, default=512)
    s.add_argument("--algorithm", choices=["exact", "oneshot"], default="exact")
    s.add_argument(
        "--index",
        default=None,
        help="serve a registered backend by name instead of --algorithm "
        "('router' serves with the SLO degradation ladder armed)",
    )
    s.add_argument("--qps", type=float, default=2000.0, help="offered load")
    s.add_argument("--max-delay-ms", type=float, default=100.0)
    s.add_argument("--max-batch", type=int, default=256)
    s.add_argument(
        "--shards",
        type=int,
        default=1,
        help="partition the (exact) index over this many simulated "
        "node shards",
    )
    s.add_argument(
        "--replicas",
        type=int,
        default=1,
        help="replica-group size per shard; > 1 enables hedged requests",
    )
    s.add_argument(
        "--backend",
        choices=["serial", "threads"],
        default=None,
        help="executor backend for the dispatched query calls",
    )
    s.add_argument(
        "--scenario",
        choices=["uniform", "diurnal", "flash_crowd", "zipfian", "drift"],
        default=None,
        help="replay a generated traffic scenario (arrival process + "
        "query skew) instead of the uniform-rate trace; seeded by --seed",
    )
    s.add_argument(
        "--cache",
        action="store_true",
        help="front the resident run with the proximity-keyed semantic "
        "cache (answers stay bit-identical to the uncached baseline)",
    )
    s.add_argument(
        "--cache-size", type=int, default=2048, help="max cached results"
    )
    s.add_argument(
        "--cache-ttl",
        type=float,
        default=0.0,
        help="cache entry TTL in seconds (<= 0 means no expiry)",
    )
    s.add_argument(
        "--quality",
        type=float,
        default=0.0,
        help="shadow-oracle sampling fraction for the resident run "
        "(0 disables; the windowed recall estimate is printed and "
        "lands in the JSON report)",
    )
    s.add_argument(
        "--flight",
        default=None,
        help="arm a flight recorder on the resident run; breach bundles "
        "land under this directory",
    )
    s.add_argument("--scale", type=float, default=0.05)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--json", default=None, help="write the full report here")
    s.add_argument(
        "--trace",
        default=None,
        help="write a Chrome-trace JSON of the batched run here",
    )

    e = sub.add_parser(
        "explain", help="serve queries with EXPLAIN capture and print each digest"
    )
    e.add_argument("data", help="dataset name or .npy path")
    e.add_argument("-k", type=int, default=1)
    e.add_argument(
        "--index",
        default="rbc-exact",
        help="registered backend to serve ('router' shows the decision "
        "and per-backend cost scores)",
    )
    e.add_argument("--queries", type=int, default=3, help="queries to explain")
    e.add_argument(
        "--cache",
        action="store_true",
        help="front the searcher with the proximity cache (hit/reject "
        "outcomes appear in the digest)",
    )
    e.add_argument(
        "--quality",
        type=float,
        default=0.0,
        help="shadow-oracle sampling fraction (sampled queries show "
        "their measured recall)",
    )
    e.add_argument(
        "--json",
        action="store_true",
        help="also print each explain as one JSON line",
    )
    e.add_argument("--scale", type=float, default=0.05)
    e.add_argument("--seed", type=int, default=0)

    r = sub.add_parser(
        "report", help="pretty-print a saved observability artifact"
    )
    r.add_argument(
        "file",
        help="RunReport/StreamReport/serve-bench/scenario-bench JSON, "
        "Chrome trace, span dump, metrics JSONL, or a flight-recorder "
        "bundle directory",
    )

    mt = sub.add_parser(
        "metrics", help="instrumented serving demo + Prometheus exposition"
    )
    mt.add_argument("data", help="dataset name or .npy path")
    mt.add_argument("-k", type=int, default=1)
    mt.add_argument("--queries", type=int, default=256)
    mt.add_argument("--qps", type=float, default=2000.0)
    mt.add_argument("--max-delay-ms", type=float, default=100.0)
    mt.add_argument("--scale", type=float, default=0.05)
    mt.add_argument("--seed", type=int, default=0)

    g = sub.add_parser("knn-graph", help="all-k-NN graph of a dataset")
    g.add_argument("data", help="dataset name or .npy path")
    g.add_argument("-o", "--output", required=True, help="output .npz path")
    g.add_argument("-k", type=int, default=8)
    g.add_argument("--metric", default="euclidean")
    g.add_argument("--scale", type=float, default=0.01)
    g.add_argument("--seed", type=int, default=0)
    return p


_HANDLERS = {
    "info": _cmd_info,
    "build": _cmd_build,
    "query": _cmd_query,
    "dim": _cmd_dim,
    "compare": _cmd_compare,
    "knn-graph": _cmd_knn_graph,
    "serve-bench": _cmd_serve_bench,
    "explain": _cmd_explain,
    "report": _cmd_report,
    "metrics": _cmd_metrics,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _HANDLERS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
