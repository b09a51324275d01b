"""The telemetry layer: span tracing, metrics registry, exporters.

Contracts under test:

* **span identity** — spans nest per thread, ids are unique, contexts
  pickle, and :meth:`Tracer.adopt` re-parents a child tracer's spans into
  the submitting trace;
* **propagation** — the thread backend and the distributed engine produce
  worker/node spans parented under the submitting span, with no spans (and
  no overhead path) when tracing is disabled;
* **metric exactness** — sharded counters and histograms survive thread
  hammering with exact totals; the Prometheus exposition and JSON
  snapshot render labels, buckets, and collector-backed gauges.
"""

from __future__ import annotations

import json
import pickle
import threading

import numpy as np
import pytest

from repro import BruteForceIndex, ExactRBC
from repro.obs import (
    NULL_TRACER,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    SLOMonitor,
    Span,
    SpanContext,
    Tracer,
    chrome_trace,
    install_index_collectors,
    install_standard_collectors,
)
from repro.parallel.bruteforce import bf_knn
from repro.runtime import ExecContext


@pytest.fixture
def data():
    rng = np.random.default_rng(0)
    return rng.standard_normal((300, 8)), rng.standard_normal((25, 8))


# --------------------------------------------------------------------- spans
class TestSpans:
    def test_nesting_and_identity(self):
        tr = Tracer()
        with tr.span("outer") as outer:
            with tr.span("inner", depth=1) as inner:
                assert inner.parent_id == outer.span_id
                assert inner.trace_id == outer.trace_id
                assert tr.current is inner
            assert tr.current is outer
        assert tr.current is None
        assert len(tr) == 2
        assert outer.span_id != inner.span_id
        assert outer.dur_s >= inner.dur_s >= 0.0
        assert inner.attrs == {"depth": 1}

    def test_separate_roots_get_separate_traces(self):
        tr = Tracer()
        with tr.span("a") as a:
            pass
        with tr.span("b") as b:
            pass
        assert a.trace_id != b.trace_id

    def test_start_finish_non_lexical(self):
        tr = Tracer()
        span = tr.start_span("query", ticket=7)
        assert len(tr) == 0  # not collected until finished
        tr.finish(span)
        assert len(tr) == 1 and tr.spans[0].attrs["ticket"] == 7

    def test_span_under_explicit_parent(self):
        tr = Tracer()
        with tr.span("root") as root:
            ctx = root.context
        with tr.span_under(ctx, "child") as child:
            pass
        assert child.parent_id == root.span_id
        assert child.trace_id == root.trace_id

    def test_context_pickles(self):
        ctx = SpanContext("t1-1", "s1-2")
        assert pickle.loads(pickle.dumps(ctx)) == ctx

    def test_span_dict_round_trip(self):
        tr = Tracer()
        with tr.span("x", a=1):
            pass
        d = tr.export()[0]
        assert Span.from_dict(d).to_dict() == d

    def test_thread_stacks_are_independent(self):
        tr = Tracer()
        seen = {}

        def work(name):
            with tr.span(name) as s:
                seen[name] = s.parent_id

        with tr.span("main"):
            threads = [
                threading.Thread(target=work, args=(f"w{i}",)) for i in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        # worker threads have their own (empty) stacks: their spans are
        # roots, not children of the main thread's open span
        assert all(parent is None for parent in seen.values())

    def test_worker_root_tracer_parents_under_submitter(self):
        parent_tr = Tracer()
        with parent_tr.span("submit") as sub:
            ctx = parent_tr.context()
        worker = Tracer(root=ctx)
        with worker.span("chunk"):
            pass
        adopted = parent_tr.adopt(worker.export())
        assert len(adopted) == 1
        assert adopted[0].parent_id == sub.span_id
        assert adopted[0].trace_id == sub.trace_id

    def test_adopt_folds_orphan_traces(self):
        parent_tr = Tracer()
        orphan = Tracer()  # no root: its spans live in a foreign trace
        with orphan.span("lost"):
            pass
        with parent_tr.span("home") as home:
            parent_tr.adopt(orphan.export())
        lost = [s for s in parent_tr.spans if s.name == "lost"][0]
        assert lost.trace_id == home.trace_id
        assert lost.parent_id == home.span_id

    def test_null_tracer_is_inert(self):
        with NULL_TRACER.span("x") as s:
            assert s.set(a=1) is s
        assert NULL_TRACER.context() is None
        assert NULL_TRACER.adopt([{"name": "x"}]) == []
        assert len(NULL_TRACER) == 0
        assert not NULL_TRACER.enabled

    def test_chrome_trace_format(self):
        tr = Tracer()
        with tr.span("phase", size=3):
            with tr.span("sub"):
                pass
        doc = tr.chrome_trace()
        events = doc["traceEvents"]
        assert len(events) == 2
        assert {e["ph"] for e in events} == {"X"}
        # rebased: earliest event starts at ts 0
        assert min(e["ts"] for e in events) == 0.0
        for e in events:
            assert e["dur"] >= 0.0
            assert "span_id" in e["args"] and "trace_id" in e["args"]
        json.dumps(doc)  # valid JSON
        assert chrome_trace([])["traceEvents"] == []

    def test_save_writes_json(self, tmp_path):
        tr = Tracer()
        with tr.span("x"):
            pass
        path = tmp_path / "trace.json"
        tr.save(path)
        doc = json.loads(path.read_text())
        assert len(doc["traceEvents"]) == 1


# --------------------------------------------------------- span propagation
class TestPropagation:
    def test_thread_backend_chunks_parent_under_bf(self, data):
        X, Q = data
        tr = Tracer()
        ctx = ExecContext(
            executor="threads", n_workers=2, row_chunk=8, tracer=tr
        )
        bf_knn(Q, X, "euclidean", k=3, ctx=ctx)
        bf = [s for s in tr.spans if s.name == "bf:knn"]
        chunks = [s for s in tr.spans if s.name == "bf:chunk"]
        assert len(bf) == 1 and len(chunks) >= 2
        assert all(c.parent_id == bf[0].span_id for c in chunks)
        assert all(c.trace_id == bf[0].trace_id for c in chunks)

    def test_disabled_tracing_records_nothing(self, data):
        X, Q = data
        ctx = ExecContext(executor="threads", n_workers=2)
        bf_knn(Q, X, "euclidean", k=3, ctx=ctx)
        assert len(NULL_TRACER) == 0

    def test_distributed_nodes_parent_under_query(self, data):
        from repro.distributed.cluster import ClusterSpec
        from repro.distributed.engine import DistributedRBC
        from repro.simulator.machine import MachineSpec

        X, Q = data
        cluster = ClusterSpec.homogeneous(3, MachineSpec("node"))
        tr = Tracer()
        eng = DistributedRBC(cluster).build(X, 12)
        eng.query(Q, k=2, ctx=ExecContext(tracer=tr))
        q = [s for s in tr.spans if s.name == "dist:query"][0]
        nodes = [s for s in tr.spans if s.name == "dist:node"]
        assert nodes
        assert all(
            s.trace_id == q.trace_id and s.parent_id == q.span_id
            for s in nodes
        )
        assert {"dist:coord", "dist:merge"} <= {s.name for s in tr.spans}


# -------------------------------------------------------------------- metrics
class TestMetrics:
    def test_counter_exact_under_thread_hammering(self):
        c = Counter("hits")
        n_threads, n_incs = 8, 5000

        def hammer():
            for _ in range(n_incs):
                c.inc()

        threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value() == n_threads * n_incs

    def test_counter_labels_and_negative_rejection(self):
        c = Counter("req", labelnames=("backend",))
        c.inc(2.0, backend="threads")
        c.inc(backend="processes")
        assert c.value(backend="threads") == 2.0
        assert c.value(backend="processes") == 1.0
        with pytest.raises(ValueError):
            c.inc(-1.0, backend="threads")
        with pytest.raises(ValueError):
            c.inc(1.0, wrong="label")

    def test_histogram_exact_under_thread_hammering(self):
        h = Histogram("lat", buckets=(0.1, 1.0))
        n_threads, n_obs = 6, 2000

        def hammer():
            for i in range(n_obs):
                h.observe(0.05 if i % 2 else 0.5)

        threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        (counts, total, n) = h.collect()[()]
        assert n == n_threads * n_obs
        assert counts == [n // 2, n // 2]
        assert total == pytest.approx(n // 2 * 0.05 + n // 2 * 0.5)

    def test_histogram_cumulative_samples(self):
        h = Histogram("lat", buckets=(0.01, 0.1, 1.0))
        for v in (0.005, 0.05, 0.5, 5.0):
            h.observe(v)
        rows = {suffix: val for suffix, _key, val in h.samples()}
        assert rows['_bucket{le="0.01"}'] == 1
        assert rows['_bucket{le="0.1"}'] == 2
        assert rows['_bucket{le="1"}'] == 3
        assert rows['_bucket{le="+Inf"}'] == 4
        assert rows["_count"] == 4

    def test_gauge(self):
        g = Gauge("depth")
        g.set(5)
        g.inc(2)
        g.dec()
        assert g.value() == 6

    def test_registry_create_or_return_and_mismatch(self):
        reg = MetricsRegistry()
        c1 = reg.counter("x_total", "help")
        assert reg.counter("x_total") is c1
        with pytest.raises(ValueError):
            reg.gauge("x_total")
        with pytest.raises(ValueError):
            reg.counter("x_total", labelnames=("a",))
        assert "x_total" in reg and len(reg) == 1

    def test_expose_format(self):
        reg = MetricsRegistry()
        reg.counter("c_total", "a counter", labelnames=("op",)).inc(3, op="bf")
        reg.gauge("g", "a gauge").set(1.5)
        reg.histogram("h_seconds", buckets=(1.0,)).observe(0.5)
        text = reg.expose()
        assert "# HELP c_total a counter" in text
        assert "# TYPE c_total counter" in text
        assert 'c_total{op="bf"} 3' in text
        assert "g 1.5" in text
        assert 'h_seconds_bucket{le="1"} 1' in text
        assert 'h_seconds_bucket{le="+Inf"} 1' in text
        assert "h_seconds_count 1" in text

    def test_histogram_label_merge_in_expose(self):
        reg = MetricsRegistry()
        reg.histogram(
            "h_seconds", labelnames=("idx",), buckets=(1.0,)
        ).observe(0.5, idx="a")
        text = reg.expose()
        assert 'h_seconds_bucket{idx="a",le="1"} 1' in text

    @staticmethod
    def _parse_exposition(text: str) -> dict[str, float]:
        """Parse Prometheus text exposition into {sample_line_key: value}.

        Every non-comment line must be ``name{labels} value`` (or bare
        ``name value``); raises on anything malformed."""
        out: dict[str, float] = {}
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            key, _, raw = line.rpartition(" ")
            assert key, f"malformed sample line: {line!r}"
            out[key] = float(raw)
        return out

    def test_exposition_conformance_large_counts(self):
        # regression: %g formatting truncated values >= 1e6 to 6
        # significant digits, so a bucket could expose 1.23457e+06 while
        # _count exposed a different rounding of the same tally
        reg = MetricsRegistry()
        big = 12_345_678
        reg.counter("c_total", "a big counter").inc(big)
        h = reg.histogram(
            "lat_seconds", "latency", labelnames=("shard",), buckets=(0.1,)
        )
        # seed this thread's shard as a long-lived serving process would
        # have left it: `big` observations, all above the last edge
        h._shard()[("0",)] = [[0], 0.5 * big, big]
        samples = self._parse_exposition(reg.expose())
        assert samples["c_total"] == big
        assert samples['lat_seconds_bucket{shard="0",le="+Inf"}'] == big
        assert samples['lat_seconds_count{shard="0"}'] == big

    def test_exposition_conformance_histogram_invariants(self):
        # the scrape-side contract: cumulative buckets are nondecreasing,
        # the +Inf bucket equals _count, and _sum is the exact total —
        # per labeled shard, parsed from the exposition text itself
        reg = MetricsRegistry()
        h = reg.histogram(
            "svc_seconds", "per-shard service", labelnames=("shard",),
            buckets=(0.01, 0.1, 1.0),
        )
        rng = np.random.default_rng(3)
        totals = {}
        for shard in ("0", "1"):
            vals = rng.gamma(1.0, 0.05, size=257)
            for v in vals:
                h.observe(float(v), shard=shard)
            totals[shard] = (len(vals), float(np.sum(vals)))
        samples = self._parse_exposition(reg.expose())
        for shard, (n, total) in totals.items():
            edges = ["0.01", "0.1", "1", "+Inf"]
            cum = [
                samples[f'svc_seconds_bucket{{shard="{shard}",le="{e}"}}']
                for e in edges
            ]
            assert cum == sorted(cum), "buckets must be cumulative"
            assert cum[-1] == n == samples[f'svc_seconds_count{{shard="{shard}"}}']
            assert samples[f'svc_seconds_sum{{shard="{shard}"}}'] == (
                pytest.approx(total, rel=1e-12)
            )

    def test_exposition_conformance_values_round_trip(self):
        # finite values must round-trip through the text exactly;
        # specials render as the spec's +Inf / -Inf / NaN tokens
        reg = MetricsRegistry()
        cases = {
            "g_tiny": 3.0000000000000004e-7,
            "g_pi": 3.141592653589793,
            "g_big_int": 9_007_199_254_740_992.0,
            "g_neg": -123456789.25,
        }
        for name, val in cases.items():
            reg.gauge(name).set(val)
        reg.gauge("g_inf").set(float("inf"))
        reg.gauge("g_ninf").set(float("-inf"))
        text = reg.expose()
        samples = self._parse_exposition(text)
        for name, val in cases.items():
            assert samples[name] == val, name
        assert "g_inf +Inf" in text
        assert "g_ninf -Inf" in text

    def test_exposition_escapes_label_values(self):
        reg = MetricsRegistry()
        reg.counter("c_total", labelnames=("path",)).inc(
            1, path='a"b\\c\nd'
        )
        text = reg.expose()
        assert 'c_total{path="a\\"b\\\\c\\nd"} 1' in text

    def test_snapshot_and_jsonl(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("c_total").inc(4)
        snap = reg.snapshot()
        assert snap["c_total"]["values"][""] == 4
        path = tmp_path / "m.jsonl"
        reg.dump_jsonl(path, now=1.5)
        reg.dump_jsonl(path, now=2.5)
        lines = [json.loads(ln) for ln in path.read_text().splitlines()]
        assert [r["ts"] for r in lines] == [1.5, 2.5]
        assert lines[0]["metrics"]["c_total"]["values"][""] == 4

    def test_collectors_pull_at_scrape_time(self, data):
        X, _ = data
        reg = MetricsRegistry()
        install_standard_collectors(reg)
        idx = ExactRBC(seed=0).build(X, n_reps=10)
        install_index_collectors(idx, reg)
        text = reg.expose()
        assert "repro_operand_cache_prepared_total" in text
        assert f'repro_index_points{{index="ExactRBC"}} {X.shape[0]}' in text
        assert "repro_packed_entries" in text

    def test_index_collector_survives_index_gc(self, data):
        X, _ = data
        reg = MetricsRegistry()
        idx = BruteForceIndex().build(X)
        install_index_collectors(idx, reg)
        del idx
        reg.expose()  # weakref-dead index must not break scrapes


# ---------------------------------------------------------------- op stamping
class TestOpSpanStamping:
    def test_recorded_ops_carry_live_span_id(self, data):
        from repro.runtime import TimingRecorder

        X, Q = data
        tr = Tracer()
        idx = BruteForceIndex().build(X)
        rec = TimingRecorder(trace_ops=True, tracer=tr)
        with tr.span("run") as run:
            idx.query(Q, 2, ctx=ExecContext(recorder=rec, tracer=tr))
        ops = [op for p in rec.trace.phases for op in p.ops]
        assert ops and all(op.span_id is not None for op in ops)
        span_ids = {s.span_id for s in tr.spans} | {run.span_id}
        assert {op.span_id for op in ops} <= span_ids

    def test_ops_unstamped_without_tracer(self, data):
        from repro.runtime import TimingRecorder

        X, Q = data
        idx = BruteForceIndex().build(X)
        rec = TimingRecorder(trace_ops=True)
        idx.query(Q, 2, ctx=ExecContext(recorder=rec))
        ops = [op for p in rec.trace.phases for op in p.ops]
        assert ops and all(op.span_id is None for op in ops)


def test_slo_exported_from_obs_package():
    assert SLOMonitor(0.1).budget_s == 0.1


# ---------------------------------------------------------------- acceptance
@pytest.mark.slow
class TestAcceptance:
    """The end-to-end scenario: one streamed run on the thread backend
    produces a valid Chrome trace with chunk spans parented into the query
    traces, a Prometheus exposition with live serving gauges, agreeing SLO
    percentiles, and periodic JSONL metric snapshots."""

    def test_streamed_threads_run_full_telemetry(self, tmp_path):
        from repro.serving import BatchPolicy, StreamingSearcher

        rng = np.random.default_rng(4)
        X = rng.standard_normal((1500, 12))
        Q = rng.standard_normal((96, 12))
        idx = BruteForceIndex().build(X)
        tr = Tracer()
        reg = MetricsRegistry()
        slo = SLOMonitor(0.05, window_s=float("inf"))
        jsonl = tmp_path / "metrics.jsonl"
        srv = StreamingSearcher(
            idx,
            k=3,
            policy=BatchPolicy(max_delay_ms=50.0, max_batch=32),
            ctx=ExecContext(executor="threads", n_workers=2, tracer=tr),
            slo=slo,
            metrics=reg,
        )
        rep = srv.search_stream(
            Q, qps=3000.0, metrics_jsonl=jsonl, snapshot_every_s=0.01
        )

        # results are exact: identical to a plain serial query
        d0, i0 = BruteForceIndex().build(X).query(Q, 3)
        np.testing.assert_array_equal(rep.idx, i0)

        # (a) valid Chrome trace, chunk spans parented under queries
        query_traces = {
            s.trace_id for s in tr.spans if s.name == "serve:query"
        }
        chunks = [s for s in tr.spans if s.name == "bf:chunk"]
        assert len(query_traces) == len(Q)
        assert chunks and all(c.trace_id in query_traces for c in chunks)
        doc = chrome_trace(tr.spans)
        assert all(
            ev["ph"] == "X" and ev["ts"] >= 0 and ev["dur"] >= 0
            for ev in doc["traceEvents"]
        )
        json.dumps(doc)  # serializable as-is

        # (b) exposition carries the live serving/cache observables
        text = reg.expose()
        for name in (
            "repro_batcher_ladder_level",
            "repro_batcher_queue_depth",
            "repro_operand_cache_hit_rate",
            "repro_query_sojourn_seconds_bucket",
            "repro_queries_served_total",
        ):
            assert name in text, name
        assert f"repro_queries_served_total {len(Q)}" in text

        # (c) the live monitor agrees exactly with the post-hoc stats
        assert slo.p99_s == rep.latency.p99_s
        assert rep.slo["p50_s"] == rep.latency.p50_s

        # periodic virtual-time snapshots landed, and parse as JSON
        lines = jsonl.read_text().strip().splitlines()
        assert len(lines) >= 2
        assert all("metrics" in json.loads(ln) for ln in lines)
