"""Quality observability: shadow-oracle sampling, drift, EXPLAIN, flight.

Contracts under test:

* **monitor** — the rolling :class:`QualityMonitor` fires on a windowed
  recall breach (after ``min_samples``, paced by cooldown), evicts old
  samples, and aggregates per backend/rung/cache label;
* **sampler determinism** — content-hash selection picks the *same*
  queries for the same seed and trace regardless of searcher type or
  batching, and the windowed estimate tracks exhaustive recall;
* **drift** — shifted query streams trip the live-vs-build distribution
  monitor before recall math is even consulted;
* **EXPLAIN** — per-query digests carry router scores, cache outcomes
  with radii, pruning attribution, and round-trip through dicts;
* **flight recorder** — bounded rings, breach-triggered bundles the
  ``repro report`` CLI auto-detects;
* **closed loop** — a forced recall regression (router pinned to its
  cheapest approximate rung under adversarial drift) trips the monitor,
  walks the router back up the ladder, disables the proximity cache,
  and leaves a parseable bundle behind.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.core import ExactRBC, OneShotRBC
from repro.index import Router
from repro.obs import (
    DriftMonitor,
    FlightRecorder,
    QualityMonitor,
    QualitySample,
    QualitySampler,
    QueryExplain,
)
from repro.parallel import bf_knn
from repro.runtime.report import StreamReport
from repro.serving import BatchPolicy, ShardedStreamingSearcher, StreamingSearcher
from repro.serving.scenarios import make_scenario


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(500, 8))
    Q = rng.normal(size=(160, 8))
    return X, Q


@pytest.fixture(scope="module")
def exact(data):
    X, _ = data
    return ExactRBC(seed=0).build(X)


def _sample(recall, t, **kw):
    defaults = dict(
        key="00", rank_error=0.0, distance_ratio=1.0, backend="b", rung=0
    )
    defaults.update(kw)
    return QualitySample(recall=recall, t=t, **defaults)


# ------------------------------------------------------------------ monitor
class TestQualityMonitor:
    def test_breach_fires_after_min_samples(self):
        fired = []
        mon = QualityMonitor(
            target=0.9, window_s=math.inf, min_samples=4, cooldown_s=0.0
        )
        mon.on_breach(lambda m: fired.append(m.recall_estimate))
        for t in range(3):
            mon.observe(_sample(0.5, float(t)), now=float(t))
        assert not fired  # below min_samples: one bad query can't trip
        mon.observe(_sample(0.5, 3.0), now=3.0)
        assert len(fired) == 1 and fired[0] == pytest.approx(0.5)
        assert mon.n_breaches == 1
        assert mon.last_fired_at == 3.0

    def test_cooldown_paces_firings(self):
        fired = []
        mon = QualityMonitor(
            target=0.9, window_s=math.inf, min_samples=1, cooldown_s=10.0
        )
        mon.on_breach(lambda m: fired.append(1))
        for t in (0.0, 1.0, 2.0, 11.0):
            mon.observe(_sample(0.0, t), now=t)
        assert len(fired) == 2  # t=0 fires, 1/2 cooled down, 11 fires

    def test_window_eviction_recovers_estimate(self):
        mon = QualityMonitor(target=0.5, window_s=5.0, min_samples=99)
        mon.observe(_sample(0.0, 0.0), now=0.0)
        assert mon.recall_estimate == 0.0
        mon.observe(_sample(1.0, 10.0), now=10.0)  # evicts the t=0 sample
        assert mon.n_window == 1
        assert mon.recall_estimate == 1.0
        assert mon.n_samples == 2  # lifetime counter survives eviction

    def test_empty_window_reads_perfect(self):
        mon = QualityMonitor()
        assert mon.recall_estimate == 1.0
        assert mon.rank_error_mean == 0.0
        assert mon.distance_ratio_mean == 1.0

    def test_labels_aggregate_by_backend_rung_hit(self):
        mon = QualityMonitor(window_s=math.inf)
        mon.observe(_sample(1.0, 0.0, backend="rbc-exact"), now=0.0)
        mon.observe(
            _sample(0.5, 1.0, backend="rpforest", rung=2), now=1.0
        )
        mon.observe(
            _sample(1.0, 2.0, backend="cache", cache_hit=True), now=2.0
        )
        by = mon.by_label()
        assert by["rbc-exact|rung0|miss"] == {"n": 1, "recall": 1.0}
        assert by["rpforest|rung2|miss"] == {"n": 1, "recall": 0.5}
        assert by["cache|rung0|hit"]["n"] == 1
        rep = mon.report()
        assert rep["n_samples"] == 3
        assert "recall est" in mon.summary()

    def test_validation(self):
        with pytest.raises(ValueError):
            QualityMonitor(target=0.0)
        with pytest.raises(ValueError):
            QualityMonitor(window_s=0.0)
        with pytest.raises(ValueError):
            QualityMonitor(min_samples=0)


# ------------------------------------------------------------------ sampler
class TestSamplerDeterminism:
    def _zipf_trace(self, data, *, n_queries=300, seed=21):
        X, Q = data
        return make_scenario(
            "zipfian", Q, n_queries=n_queries, qps=4000.0, seed=seed
        )

    def test_same_seed_same_trace_same_sample_set(self, data, exact):
        X, _ = data
        trace = self._zipf_trace(data)

        def run(make_searcher, policy):
            sampler = QualitySampler(exact, 3, fraction=0.25, seed=9)
            with make_searcher(policy, sampler) as srv:
                srv.search_stream(
                    trace.queries, arrival_times=trace.arrivals
                )
            return sampler.sample_keys

        plain = run(
            lambda p, s: StreamingSearcher(exact, k=3, policy=p, quality=s),
            BatchPolicy(max_batch=1),
        )
        batched = run(
            lambda p, s: StreamingSearcher(exact, k=3, policy=p, quality=s),
            BatchPolicy(max_batch=64),
        )
        sharded = run(
            lambda p, s: ShardedStreamingSearcher(
                exact, k=3, policy=p, quality=s, n_shards=3
            ),
            BatchPolicy(max_batch=32),
        )
        assert plain  # the zipfian trace at 25% must sample something
        assert plain == batched == sharded

    def test_different_seed_different_sample_set(self, data, exact):
        trace = self._zipf_trace(data)
        keys = {}
        for seed in (0, 1):
            sampler = QualitySampler(exact, 3, fraction=0.25, seed=seed)
            with StreamingSearcher(exact, k=3, quality=sampler) as srv:
                srv.search_stream(trace.queries, arrival_times=trace.arrivals)
            keys[seed] = sampler.sample_keys
        assert keys[0] != keys[1]

    def test_fraction_one_samples_everything(self, data, exact):
        X, Q = data
        sampler = QualitySampler(exact, 3, fraction=1.0, seed=0)
        with StreamingSearcher(exact, k=3, quality=sampler) as srv:
            srv.search_stream(Q[:40], qps=4000.0)
        assert sampler.n_seen == sampler.n_sampled == 40
        # the exact index against its own oracle: perfect everywhere
        assert sampler.monitor.recall_estimate == 1.0
        assert sampler.monitor.distance_ratio_mean == pytest.approx(1.0)

    def test_estimate_tracks_exhaustive_recall_on_zipfian(self, data):
        """The windowed estimate from a 50% sample sits within +-0.02 of
        the true recall of every served answer (approximate backend, so
        there is a real gap to estimate).  Everything is seeded, so the
        numbers are exactly reproducible."""
        X, _ = data
        k = 10
        trace = self._zipf_trace(data, n_queries=500, seed=9)
        approx = OneShotRBC(seed=3).build(X, n_reps=32, s=80)
        sampler = QualitySampler(
            approx,
            k,
            fraction=0.5,
            seed=0,
            monitor=QualityMonitor(target=0.01, window_s=math.inf),
        )
        with StreamingSearcher(
            approx, k=k, policy=BatchPolicy(max_batch=32), quality=sampler
        ) as srv:
            report = srv.search_stream(
                trace.queries, arrival_times=trace.arrivals
            )
        od, oi = bf_knn(trace.queries, X, k=k)
        m = trace.queries.shape[0]
        true_recall = np.mean(
            [
                len(set(report.idx[r]) & set(oi[r])) / k
                for r in range(m)
            ]
        )
        assert true_recall < 1.0  # the gap being estimated is real
        est = sampler.monitor.recall_estimate
        assert est == pytest.approx(true_recall, abs=0.02)
        assert report.quality["recall_estimate"] == est

    def test_sampler_requires_ndarray_database(self):
        class NoX:
            metric = None

        with pytest.raises(ValueError, match="ndarray database"):
            QualitySampler(NoX(), 3)

    def test_rank_error_and_ratio_scoring(self, data, exact):
        X, _ = data
        sampler = QualitySampler(exact, 2, fraction=1.0, seed=0)
        Qs = X[:3] + 1e-3  # large enough that the self-distance is > 0
        od, oi, D = sampler.oracle_topk(Qs)
        # serve the oracle's 2nd and 3rd neighbors instead of 1st/2nd:
        # each served id sits one rank below its position
        part = np.argsort(D, axis=1)[:, 1:3]
        dist = np.take_along_axis(D, part, axis=1)
        samples = sampler.observe_batch(Qs, dist, part, now=0.0)
        assert len(samples) == 3
        for s in samples:
            assert s.recall == pytest.approx(0.5)  # shares one of two ids
            assert s.rank_error == pytest.approx(1.0)
            assert s.distance_ratio > 1.0

    def test_rank_error_scores_missing_slots_as_misses(self, data, exact):
        X, _ = data
        sampler = QualitySampler(exact, 3, fraction=1.0, seed=0)
        n = exact.n_active
        D_row = sampler.oracle_topk(X[:1] + 1e-3)[2][0]
        best = np.argsort(D_row)[:3]
        assert sampler._rank_error(D_row, best, n) == 0.0
        # an empty answer is the worst score, not a perfect one
        empty = np.full(3, -1)
        assert sampler._rank_error(D_row, empty, n) == pytest.approx(n - 1.0)
        # one missing slot of three: only that slot is charged
        short = np.array([best[0], best[1], -1])
        assert sampler._rank_error(D_row, short, n) == pytest.approx((n - 2) / 3)
        # slots past the live point count are legitimately empty
        assert sampler._rank_error(np.array([0.1]), np.array([0, -1, -1]), 1) == 0.0


# -------------------------------------------------------------------- drift
class TestDrift:
    def test_in_distribution_stream_is_stable(self, data, exact):
        X, Q = data
        mon = DriftMonitor.from_index(exact)
        assert mon is not None
        mon.observe_queries(Q)
        rep = mon.report()
        assert not rep.drifted
        assert rep.dist_ratio < 1.5
        assert rep.n_window == Q.shape[0]

    def test_shifted_stream_trips_distance_ratio(self, data, exact):
        X, Q = data
        mon = DriftMonitor.from_index(exact)
        mon.observe_queries(Q + 6.0)  # far off the built manifold
        rep = mon.report()
        assert rep.drifted
        assert any("rep-distance" in r for r in rep.reasons)
        assert "DRIFTED" in rep.summary()

    def test_hot_spot_collapses_entropy(self, data, exact):
        X, _ = data
        mon = DriftMonitor.from_index(exact)
        hot = np.repeat(X[:1], 200, axis=0)  # every query hits one rep
        mon.observe_queries(hot)
        rep = mon.report()
        assert rep.rep_entropy < rep.baseline_entropy
        assert any("entropy" in r for r in rep.reasons)

    def test_live_c_estimate_from_rule_counts(self, data, exact):
        mon = DriftMonitor.from_index(exact)
        assert mon.c_live is None  # nothing observed yet
        # candidates/query equal to the whole database: c = n_reps^(1/3)
        mon.observe_rules(exact.n * 10, 10)
        assert mon.c_live == pytest.approx(mon.n_reps ** (1.0 / 3.0))

    def test_from_index_returns_none_without_lists(self, data):
        X, _ = data

        class Bare:
            pass

        assert DriftMonitor.from_index(Bare()) is None

    def test_report_round_trip(self, data, exact):
        mon = DriftMonitor.from_index(exact)
        mon.observe_queries(data[1])
        rep = mon.report()
        back = type(rep).from_dict(rep.to_dict())
        assert back.to_dict() == rep.to_dict()


# ------------------------------------------------------------------ explain
class TestExplain:
    def test_explain_query_basic(self, data, exact):
        X, Q = data
        with StreamingSearcher(exact, k=3) as srv:
            dist, idx, e = srv.explain_query(Q[0])
        ref_d, ref_i = exact.query(Q[:1], k=3)
        np.testing.assert_array_equal(idx, ref_i[0])
        assert e.ticket == 0
        assert e.row == 0
        assert e.k == 3
        assert e.backend == "ExactRBC"
        assert e.batch_size == 1
        assert e.cache is None  # no cache attached -> no cache section
        assert e.rules.get("n_queries") == 1
        assert "EXPLAIN ticket 0" in e.summary()

    def test_explain_cache_outcomes(self, data, exact):
        X, Q = data
        with StreamingSearcher(
            exact, k=3, policy=BatchPolicy(max_batch=1), cache=True
        ) as srv:
            _d, _i, miss = srv.explain_query(Q[0])
            _d, _i, hit = srv.explain_query(Q[0])
            _d, _i, other = srv.explain_query(Q[1])
        assert miss.cache["outcome"] == "miss"
        assert hit.cache["outcome"] == "hit"
        assert hit.backend == "cache"
        assert hit.cache["radius"] is not None
        # a different query near the store is a certified reject or miss
        assert other.cache["outcome"] in ("reject", "miss")
        if other.cache["outcome"] == "reject":
            assert other.cache["delta"] > other.cache["radius"]

    def test_explain_router_scores(self, data):
        X, Q = data
        router = Router(seed=0, calibrate=False).build(X)
        with StreamingSearcher(router, k=2) as srv:
            _d, _i, e = srv.explain_query(Q[0])
        assert e.backend == "rbc-exact"
        assert e.rung == 0
        assert set(e.router["scores"]) == set(router.backend_names())
        assert e.router["reason"]
        assert "<-- chosen" in e.summary()

    def test_explain_sharded_fan_out(self, data, exact):
        X, Q = data
        with ShardedStreamingSearcher(exact, k=2, n_shards=4) as srv:
            _d, _i, e = srv.explain_query(Q[0])
        assert e.shards is not None
        assert 1 <= e.shards["fan_out"] <= 4
        assert e.shards["rounds"] >= 1
        assert "fan-out" in e.summary()

    def test_explain_marks_sampled_queries(self, data, exact):
        X, Q = data
        with StreamingSearcher(exact, k=3, quality=1.0) as srv:
            _d, _i, e = srv.explain_query(Q[0])
        assert e.sampled
        assert e.recall == pytest.approx(1.0)

    def test_dict_round_trip(self, data, exact):
        X, Q = data
        with StreamingSearcher(exact, k=3, cache=True, quality=1.0) as srv:
            _d, _i, e = srv.explain_query(Q[0])
        back = QueryExplain.from_dict(json.loads(json.dumps(e.to_dict())))
        assert back.to_dict() == e.to_dict()

    def test_submit_explain_interleaved(self, data, exact):
        """Only tickets submitted with explain=True get digests, and each
        digest points at its own batch row."""
        X, Q = data
        with StreamingSearcher(
            exact,
            k=2,
            policy=BatchPolicy(max_batch=8, min_batch=2, max_delay_ms=1e6),
        ) as srv:
            t_plain = srv.submit(Q[0])
            t_explained = srv.submit(Q[1], explain=True)
            srv.drain()
            assert srv.explain(t_plain) is None
            e = srv.explain(t_explained)
        assert e is not None and e.ticket == t_explained
        assert e.row == 1  # second row of the served batch
        assert e.batch_size == 2
        assert srv.explain(t_explained) is None  # collected once


# ----------------------------------------------------------- flight recorder
class TestFlightRecorder:
    def test_rings_are_bounded(self):
        fr = FlightRecorder(span_capacity=4, event_capacity=2)
        for i in range(10):
            fr.record_span("s", ts=float(i), dur_s=0.001)
            fr.record_event("e", now=float(i))
        assert len(fr.spans) == 4
        assert len(fr.events) == 2
        assert fr.spans[0]["ts"] == 6.0  # oldest evicted first
        assert fr.memory_bytes() > 0

    def test_dump_writes_selfcontained_bundle(self, tmp_path, data, exact):
        X, Q = data
        fr = FlightRecorder(dir=tmp_path, cooldown_s=0.0)
        sampler = QualitySampler(exact, 2, fraction=1.0, seed=0)
        fr.attach(quality=sampler)
        with StreamingSearcher(
            exact, k=2, quality=sampler, flight=fr
        ) as srv:
            srv.search_stream(Q[:20], qps=4000.0)
        bundle = fr.dump("unit-test", now=1.25)
        assert bundle is not None
        manifest = json.loads((bundle / "manifest.json").read_text())
        assert manifest["kind"] == "flight-bundle"
        assert manifest["reason"] == "unit-test"
        assert manifest["now"] == 1.25
        trace = json.loads((bundle / "trace.json").read_text())
        assert trace["traceEvents"]
        assert all(e["ph"] == "X" for e in trace["traceEvents"])
        quality = json.loads((bundle / "quality.json").read_text())
        assert quality["samples"]
        assert quality["monitor"]["n_samples"] == 20
        explains = json.loads((bundle / "explains.json").read_text())
        assert explains  # per-batch digests were recorded

    def test_cooldown_and_cap_suppress_dumps(self, tmp_path):
        fr = FlightRecorder(dir=tmp_path, cooldown_s=1e9, max_bundles=8)
        assert fr.dump("first") is not None
        assert fr.dump("second") is None  # inside the cooldown
        assert fr.n_suppressed == 1
        fr2 = FlightRecorder(dir=tmp_path / "capped", cooldown_s=0.0, max_bundles=1)
        assert fr2.dump("only") is not None
        assert fr2.dump("over-cap") is None
        assert len(fr2.bundles) == 1

    def test_cli_report_autodetects_bundle(self, tmp_path, capsys):
        from repro.cli import main

        fr = FlightRecorder(dir=tmp_path, cooldown_s=0.0)
        fr.record_span("serve:batch", ts=0.0, dur_s=0.002, size=4)
        fr.record_event("quality-breach", now=0.5, recall_estimate=0.8)
        bundle = fr.dump("breach")
        assert main(["report", str(bundle)]) == 0
        out = capsys.readouterr().out
        assert "flight bundle" in out
        assert "breach" in out
        # the manifest path alone works too
        assert main(["report", str(bundle / "manifest.json")]) == 0


# ------------------------------------------------- stream report integration
class TestStreamReportQuality:
    def test_quality_section_round_trips(self, data, exact):
        X, Q = data
        with StreamingSearcher(exact, k=2, quality=1.0) as srv:
            report = srv.search_stream(Q[:30], qps=4000.0)
        assert report.quality["n_sampled"] == 30
        back = StreamReport.from_dict(json.loads(json.dumps(report.to_dict())))
        assert back.quality == report.quality
        assert "quality: recall est" in back.summary()

    def test_old_payloads_degrade_gracefully(self, data, exact):
        X, Q = data
        with StreamingSearcher(exact, k=2) as srv:
            report = srv.search_stream(Q[:10], qps=4000.0)
        payload = report.to_dict()
        assert payload["quality"] is None
        del payload["quality"]  # a pre-quality serialized report
        back = StreamReport.from_dict(payload)
        assert back.quality is None
        assert "quality" not in back.summary()


# ------------------------------------------------------------- the full loop
class TestBreachClosedLoop:
    def test_recall_regression_walks_router_up_and_dumps(self, tmp_path):
        """The acceptance scenario: the router pinned to its approximate
        rpforest rung under adversarial drift trips the QualityMonitor,
        which restores the router to the exact rung, disables the
        proximity cache, and emits a flight bundle the CLI parses."""
        from repro.cli import main

        rng = np.random.default_rng(5)
        X = rng.normal(size=(600, 16))
        router = Router(seed=0, calibrate=False).build(X)
        Q = rng.normal(size=(120, 16)) + 2.5  # off the built manifold

        mon = QualityMonitor(
            target=0.95, window_s=math.inf, min_samples=4, cooldown_s=0.0
        )
        fr = FlightRecorder(dir=tmp_path, cooldown_s=0.0, max_bundles=2)
        sampler = QualitySampler(
            router,
            5,
            fraction=1.0,
            seed=3,
            monitor=mon,
            drift=DriftMonitor.from_index(router),
        )
        srv = StreamingSearcher(
            router,
            k=5,
            policy=BatchPolicy(max_batch=16),
            cache=True,
            quality=sampler,
            flight=fr,
        )
        # pin the degraded rung *after* construction (the cache needs the
        # exact rung's capabilities to build its certificates against)
        router.degrade()
        router.degrade()
        assert router.ladder[router.rung] == "rpforest"
        with srv:
            report = srv.search_stream(Q, qps=4000.0)

        assert mon.n_breaches >= 1
        assert router.rung == 0  # walked back up the ladder
        assert not srv.cache.enabled
        assert srv.cache.disabled_reason == "quality breach"
        assert report.quality["n_breaches"] == mon.n_breaches
        assert report.quality["drift"]["drifted"]
        # the per-label ledger shows where recall was lost
        by = report.quality["by_label"]
        assert any(label.startswith("rpforest|rung2") for label in by)
        bad = [v["recall"] for k, v in by.items() if k.startswith("rpforest")]
        assert min(bad) < 0.95

        assert fr.bundles
        bundle = fr.bundles[0]
        manifest = json.loads((bundle / "manifest.json").read_text())
        assert manifest["reason"] == "quality-breach"
        events = json.loads((bundle / "events.json").read_text())
        kinds = {e["kind"] for e in events}
        assert {"quality-breach", "cache-disabled"} <= kinds
        assert main(["report", str(bundle)]) == 0
