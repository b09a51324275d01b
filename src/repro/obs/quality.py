"""Online answer-quality observability: shadow-oracle recall sampling,
a rolling :class:`QualityMonitor`, and query-distribution drift detection.

Latency observability (:mod:`repro.obs.slo`) closed the loop on *speed*;
this module closes it on *answers*.  Every speed win since the exact
kernels — the router's degradation ladder, RPForest, the quantized
pre-rerank frontier, the semantic cache — trades exactness for latency,
and none of them report what that trade actually costs under live
traffic.  Three pieces:

* :class:`QualitySampler` — samples a configurable fraction of served
  queries by **deterministic content hashing** (blake2b of the query
  bytes keyed by the seed), so the same trace replayed through any
  searcher — batched differently, sharded, cached — samples the *same*
  queries.  Sampled queries are re-answered by brute force against the
  database (a shadow oracle, off the measured service path: the virtual
  clock never sees it) and scored with recall@k, rank error, and the
  distance ratio.
* :class:`QualityMonitor` — SLOMonitor-shaped: a rolling window of
  per-sample recall with breach callbacks (cooldown-paced) when the
  windowed recall estimate falls below target, labeled by backend,
  router rung, and cache-hit-vs-miss.  The serving front-end wires
  breaches to ``Router.restore()`` (walk *up* the quality ladder — the
  symmetric counterpart of latency-driven ``degrade()``) and can disable
  the proximity cache.
* :class:`DriftMonitor` / :class:`DriftReport` — the paper's Theorem-1
  machinery reused as a monitor: the built index fixes a baseline
  distribution (distance of owned points to their representative, the
  ownership-list size entropy, the build-time expansion estimate
  ``c``); the live window tracks sampled queries' nearest-representative
  distances, which representatives they hit, and the live ``c`` implied
  by the measured stage-2 candidate fraction.  A drifting query stream
  shows up as a distance-ratio shift, an entropy collapse (hot spot) or
  a ``c`` blow-up before recall falls off a cliff.

Everything runs on the caller's explicit clock, like the SLO monitor, so
the virtual-clock replay and the live path share one code path.
"""

from __future__ import annotations

import hashlib
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "QualitySample",
    "QualityMonitor",
    "QualitySampler",
    "DriftMonitor",
    "DriftReport",
]


# --------------------------------------------------------------------------
# samples and the rolling monitor
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class QualitySample:
    """One shadow-oracle evaluation of a served query."""

    #: deterministic content-hash key of the query (hex); identical
    #: queries share a key, so a replay samples the same set
    key: str
    #: fraction of the oracle's top-k the served answer recovered
    #: (tie-aware: a served id within the oracle's k-th distance counts,
    #: so duplicate database points never read as recall loss)
    recall: float
    #: mean positions the served ids sit *below* their oracle rank
    rank_error: float
    #: served over oracle nearest-neighbor distance (>= 1; 1 is exact)
    distance_ratio: float
    #: backend label of the batch that served the query
    backend: str = ""
    #: router degradation rung at serve time (0 when unrouted)
    rung: int = 0
    #: whether the row was answered from the proximity cache
    cache_hit: bool = False
    #: observation time on the caller's clock
    t: float = 0.0
    #: row index inside the served batch (explain attribution)
    row: int = -1

    def to_dict(self) -> dict:
        return {
            "key": self.key,
            "recall": self.recall,
            "rank_error": self.rank_error,
            "distance_ratio": self.distance_ratio,
            "backend": self.backend,
            "rung": self.rung,
            "cache_hit": self.cache_hit,
            "t": self.t,
        }


class QualityMonitor:
    """Rolling-window recall tracking with breach callbacks.

    The shape mirrors :class:`~repro.obs.slo.SLOMonitor` on purpose — an
    explicit clock, a rolling window, cooldown-paced callbacks — so
    serving code treats latency SLOs and quality SLOs symmetrically.

    Parameters
    ----------
    target:
        windowed recall@k estimate the stream must hold (default 0.95).
    window_s:
        rolling-window length in seconds (``inf`` keeps every sample —
        a whole replayed stream as one evaluation window).
    min_samples:
        breaches only fire once the window holds at least this many
        samples, so one unlucky early query cannot trip the ladder.
    cooldown_s:
        minimum spacing between callback firings.
    """

    def __init__(
        self,
        *,
        target: float = 0.95,
        window_s: float = 60.0,
        min_samples: int = 8,
        cooldown_s: float = 1.0,
    ) -> None:
        if not 0.0 < target <= 1.0:
            raise ValueError("target must be in (0, 1]")
        if window_s <= 0:
            raise ValueError("window_s must be positive")
        if min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        self.target = float(target)
        self.window_s = float(window_s)
        self.min_samples = int(min_samples)
        self.cooldown_s = float(cooldown_s)
        self._samples: deque[QualitySample] = deque()
        self._recall_sum = 0.0
        self._rank_err_sum = 0.0
        self._ratio_sum = 0.0
        self._callbacks: list = []
        self._last_fired: float | None = None
        #: lifetime counters (survive window eviction)
        self.n_samples = 0
        self.n_breaches = 0
        #: per-label lifetime aggregates: label -> [n, recall_sum]
        self._by_label: dict[str, list] = {}

    # ------------------------------------------------------------ ingestion
    def on_breach(self, callback) -> None:
        """Register ``callback(monitor)`` to fire on a recall breach."""
        self._callbacks.append(callback)

    @staticmethod
    def label_of(backend: str, rung: int, cache_hit: bool) -> str:
        return f"{backend or '?'}|rung{int(rung)}|" + (
            "hit" if cache_hit else "miss"
        )

    def observe(self, sample: QualitySample, now: float) -> None:
        """Record one shadow-oracle sample at time ``now``."""
        self._evict(now)
        self._samples.append(sample)
        self._recall_sum += sample.recall
        self._rank_err_sum += sample.rank_error
        self._ratio_sum += sample.distance_ratio
        self.n_samples += 1
        agg = self._by_label.setdefault(
            self.label_of(sample.backend, sample.rung, sample.cache_hit),
            [0, 0.0],
        )
        agg[0] += 1
        agg[1] += sample.recall
        if (
            len(self._samples) >= self.min_samples
            and self.recall_estimate < self.target
        ):
            self._fire(now)

    def _evict(self, now: float) -> None:
        if self.window_s == math.inf:
            return
        horizon = float(now) - self.window_s
        samples = self._samples
        while samples and samples[0].t < horizon:
            s = samples.popleft()
            self._recall_sum -= s.recall
            self._rank_err_sum -= s.rank_error
            self._ratio_sum -= s.distance_ratio

    def _fire(self, now: float) -> None:
        if (
            self._last_fired is not None
            and now - self._last_fired < self.cooldown_s
        ):
            return
        self._last_fired = float(now)
        self.n_breaches += 1
        for cb in list(self._callbacks):
            cb(self)

    # ------------------------------------------------------------- reading
    @property
    def n_window(self) -> int:
        return len(self._samples)

    @property
    def last_fired_at(self) -> float | None:
        """Clock time of the most recent breach firing (``None`` if
        nothing ever fired)."""
        return self._last_fired

    @property
    def recall_estimate(self) -> float:
        """Windowed mean recall (1.0 when nothing is sampled yet)."""
        n = len(self._samples)
        return self._recall_sum / n if n else 1.0

    @property
    def rank_error_mean(self) -> float:
        n = len(self._samples)
        return self._rank_err_sum / n if n else 0.0

    @property
    def distance_ratio_mean(self) -> float:
        n = len(self._samples)
        return self._ratio_sum / n if n else 1.0

    def by_label(self) -> dict[str, dict]:
        """Lifetime per-label sample counts and mean recall, keyed by
        ``backend|rungN|hit-or-miss``."""
        return {
            label: {"n": n, "recall": s / n if n else 1.0}
            for label, (n, s) in sorted(self._by_label.items())
        }

    def report(self) -> dict:
        """JSON-friendly summary of the current window and lifetime."""
        return {
            "target": self.target,
            "window_s": self.window_s,
            "min_samples": self.min_samples,
            "n_window": self.n_window,
            "recall_estimate": self.recall_estimate,
            "rank_error_mean": self.rank_error_mean,
            "distance_ratio_mean": self.distance_ratio_mean,
            "n_samples": self.n_samples,
            "n_breaches": self.n_breaches,
            "by_label": self.by_label(),
        }

    def summary(self) -> str:
        r = self.report()
        return (
            f"quality: recall est {r['recall_estimate']:.4f} "
            f"(target {self.target:g}) over {r['n_window']} windowed / "
            f"{r['n_samples']} lifetime samples; "
            f"rank err {r['rank_error_mean']:.2f}, "
            f"dist ratio {r['distance_ratio_mean']:.4f}, "
            f"{r['n_breaches']} breach signals"
        )


# --------------------------------------------------------------------------
# the shadow-oracle sampler
# --------------------------------------------------------------------------


class QualitySampler:
    """Deterministic shadow-oracle recall sampling over served batches.

    Parameters
    ----------
    index:
        the served index — must expose an ndarray database ``X`` and a
        ``metric`` with ``pairwise`` (the oracle is one brute-force row
        per sampled query against the *same* database the index serves).
    k:
        neighbors per served answer (the searcher's ``k_serve``).
    fraction:
        expected fraction of queries sampled (default 1%).
    seed:
        keys the content hash; same seed + same trace = same sampled
        set, across searcher types and replays.
    monitor:
        the :class:`QualityMonitor` fed by every sample (a default one
        is created when omitted).
    drift:
        optional :class:`DriftMonitor` fed the sampled queries and the
        per-batch candidate counts.
    keep:
        how many recent :class:`QualitySample` objects to retain in
        :attr:`samples` (flight-recorder fodder).
    """

    def __init__(
        self,
        index,
        k: int,
        *,
        fraction: float = 0.01,
        seed: int = 0,
        monitor: QualityMonitor | None = None,
        drift: "DriftMonitor | None" = None,
        keep: int = 512,
    ) -> None:
        X = getattr(index, "X", None)
        metric = getattr(index, "metric", None)
        if not isinstance(X, np.ndarray) or metric is None:
            raise ValueError(
                "QualitySampler needs an index over an ndarray database "
                "with a metric (the shadow oracle is brute force over X)"
            )
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        if k < 1:
            raise ValueError("k must be >= 1")
        self.index = index
        self.metric = metric
        self.k = int(k)
        self.fraction = float(fraction)
        self.seed = int(seed)
        self.monitor = monitor if monitor is not None else QualityMonitor()
        self.drift = drift
        #: lifetime counters
        self.n_seen = 0
        self.n_sampled = 0
        #: content-hash keys of every sampled query, in serve order —
        #: the determinism tests compare these lists across searchers
        self.sample_keys: list[str] = []
        #: recent samples (bounded)
        self.samples: deque[QualitySample] = deque(maxlen=int(keep))
        self._threshold = int(self.fraction * 2.0**64)
        self._seed_key = self.seed.to_bytes(8, "little", signed=False)

    # ------------------------------------------------------------ selection
    def _digest(self, row: np.ndarray) -> bytes:
        buf = np.ascontiguousarray(row, dtype=np.float64)
        return hashlib.blake2b(
            buf.tobytes(), digest_size=8, key=self._seed_key
        ).digest()

    def wants(self, row: np.ndarray) -> bool:
        """Whether the content hash selects this query for sampling."""
        d = self._digest(row)
        return int.from_bytes(d, "big") < self._threshold

    def select_rows(self, Qb: np.ndarray) -> list[tuple[int, str]]:
        """``(row, key_hex)`` for every sampled row of the batch; also
        advances the lifetime seen/sampled counters."""
        m = int(Qb.shape[0])
        self.n_seen += m
        picked: list[tuple[int, str]] = []
        for r in range(m):
            d = self._digest(Qb[r])
            if int.from_bytes(d, "big") < self._threshold:
                picked.append((r, d.hex()))
        self.n_sampled += len(picked)
        return picked

    # -------------------------------------------------------------- oracle
    def oracle_topk(self, Qs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Brute-force top-k for the sampled rows: ``(dist, idx, D)``
        where ``D`` is the full ``(s, n)`` distance matrix (kept for
        rank-error attribution)."""
        X = self.index.X
        D = np.atleast_2d(self.metric.pairwise(Qs, X))
        n = D.shape[1]
        k = min(self.k, n)
        part = np.argpartition(D, k - 1, axis=1)[:, :k]
        pd = np.take_along_axis(D, part, axis=1)
        order = np.argsort(pd, axis=1, kind="stable")
        oi = np.take_along_axis(part, order, axis=1)
        od = np.take_along_axis(pd, order, axis=1)
        return od, oi, D

    # ------------------------------------------------------------- scoring
    def observe_batch(
        self,
        Qb: np.ndarray,
        dist: np.ndarray,
        idx: np.ndarray,
        *,
        now: float,
        backend: str = "",
        rung: int = 0,
        cache_hit: np.ndarray | None = None,
    ) -> list[QualitySample]:
        """Score the sampled rows of one served batch against the oracle
        and feed the monitor (and the drift monitor, when attached).

        Runs *off* the measured service path: the caller invokes this
        after the batch's service time has been taken, so the oracle's
        brute-force work never lands in a latency sample.
        """
        picked = self.select_rows(Qb)
        if not picked:
            return []
        rows = [r for r, _ in picked]
        Qs = np.ascontiguousarray(Qb[rows], dtype=np.float64)
        od, oi, D = self.oracle_topk(Qs)
        if self.drift is not None:
            self.drift.observe_queries(Qs)
        out: list[QualitySample] = []
        n_active = int(getattr(self.index, "n_active", D.shape[1]))
        for s, (r, key) in enumerate(picked):
            served_i = idx[r]
            served_d = dist[r]
            oracle_ids = set(int(x) for x in oi[s] if x >= 0)
            got = set(int(x) for x in served_i if x >= 0)
            # tie-aware recall: a served id counts when its *true* distance
            # (re-evaluated against this query) is within the oracle's k-th
            # distance, so exact duplicates in the database cannot read as
            # recall loss no matter how ties were broken
            if oracle_ids:
                thresh = float(od[s, -1])
                tol = abs(thresh) * 1e-9 + 1e-12
                hits = sum(1 for i in got if D[s, i] <= thresh + tol)
                recall = min(hits, len(oracle_ids)) / len(oracle_ids)
            else:
                recall = 1.0
            rank_err = self._rank_error(D[s], served_i, n_active)
            t0 = float(od[s, 0])
            f0 = float(served_d[0]) if np.isfinite(served_d[0]) else np.inf
            ratio = f0 / t0 if t0 > 0 else 1.0
            sample = QualitySample(
                key=key,
                recall=recall,
                rank_error=rank_err,
                distance_ratio=float(ratio),
                backend=backend,
                rung=int(rung),
                cache_hit=bool(cache_hit[r]) if cache_hit is not None else False,
                t=float(now),
                row=r,
            )
            self.monitor.observe(sample, now)
            self.samples.append(sample)
            self.sample_keys.append(key)
            out.append(sample)
        return out

    @staticmethod
    def _rank_error(D_row: np.ndarray, served_i: np.ndarray, n_active: int) -> float:
        """Mean excess rank of the served slots: 0 when every served id
        sits at (or above) its position in the oracle ordering.  A slot
        left empty while ``n_active`` live points could fill it is a miss,
        ranked past every live point."""
        slots = np.asarray(served_i)[: min(len(served_i), n_active)]
        if slots.size == 0:
            return 0.0
        hit = slots >= 0
        d_served = D_row[np.where(hit, slots, 0)]
        # rank of an id = how many points are strictly closer
        ranks = (D_row[None, :] < d_served[:, None]).sum(axis=1)
        ranks = np.where(hit, ranks, n_active)
        return float(np.maximum(ranks - np.arange(slots.size), 0).mean())

    def observe_rules(self, rule_delta: dict, n_queries: int) -> None:
        """Forward one batch's pruning-rule deltas to the drift monitor
        (the live c-estimate reads the candidate fraction from them)."""
        if self.drift is not None:
            self.drift.observe_rules(
                int(rule_delta.get("candidates_examined", 0)), int(n_queries)
            )

    def report(self) -> dict:
        rep = {
            "fraction": self.fraction,
            "seed": self.seed,
            "n_seen": self.n_seen,
            "n_sampled": self.n_sampled,
            **self.monitor.report(),
        }
        if self.drift is not None:
            rep["drift"] = self.drift.report().to_dict()
        return rep


# --------------------------------------------------------------------------
# drift detection
# --------------------------------------------------------------------------


@dataclass
class DriftReport:
    """Windowed query-distribution statistics vs the built index."""

    #: sampled queries inside the live window
    n_window: int = 0
    #: live mean / 95th-quantile distance of sampled queries to their
    #: nearest representative
    mean_rep_dist: float = 0.0
    q95_rep_dist: float = 0.0
    #: build-time baseline: distances of owned points to their rep
    baseline_mean_rep_dist: float = 0.0
    baseline_q95_rep_dist: float = 0.0
    #: live mean over baseline mean (1 = the stream looks like the build)
    dist_ratio: float = 1.0
    #: normalized entropy of which representatives the live window hits
    rep_entropy: float = 1.0
    #: normalized entropy of the build-time ownership-list sizes
    baseline_entropy: float = 1.0
    entropy_gap: float = 0.0
    #: live expansion-rate estimate from the measured stage-2 candidate
    #: fraction (Theorem 1 inverted), vs the build-time estimate
    c_live: float | None = None
    c_build: float | None = None
    c_ratio: float | None = None
    drifted: bool = False
    reasons: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "n_window": self.n_window,
            "mean_rep_dist": self.mean_rep_dist,
            "q95_rep_dist": self.q95_rep_dist,
            "baseline_mean_rep_dist": self.baseline_mean_rep_dist,
            "baseline_q95_rep_dist": self.baseline_q95_rep_dist,
            "dist_ratio": self.dist_ratio,
            "rep_entropy": self.rep_entropy,
            "baseline_entropy": self.baseline_entropy,
            "entropy_gap": self.entropy_gap,
            "c_live": self.c_live,
            "c_build": self.c_build,
            "c_ratio": self.c_ratio,
            "drifted": self.drifted,
            "reasons": list(self.reasons),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DriftReport":
        return cls(
            n_window=int(d.get("n_window", 0)),
            mean_rep_dist=float(d.get("mean_rep_dist", 0.0)),
            q95_rep_dist=float(d.get("q95_rep_dist", 0.0)),
            baseline_mean_rep_dist=float(d.get("baseline_mean_rep_dist", 0.0)),
            baseline_q95_rep_dist=float(d.get("baseline_q95_rep_dist", 0.0)),
            dist_ratio=float(d.get("dist_ratio", 1.0)),
            rep_entropy=float(d.get("rep_entropy", 1.0)),
            baseline_entropy=float(d.get("baseline_entropy", 1.0)),
            entropy_gap=float(d.get("entropy_gap", 0.0)),
            c_live=d.get("c_live"),
            c_build=d.get("c_build"),
            c_ratio=d.get("c_ratio"),
            drifted=bool(d.get("drifted", False)),
            reasons=list(d.get("reasons", [])),
        )

    def summary(self) -> str:
        bits = [
            f"drift: {'DRIFTED' if self.drifted else 'stable'} "
            f"({self.n_window} sampled)",
            f"rep dist {self.mean_rep_dist:.4g} vs build "
            f"{self.baseline_mean_rep_dist:.4g} "
            f"(ratio {self.dist_ratio:.2f})",
            f"entropy {self.rep_entropy:.3f} vs build "
            f"{self.baseline_entropy:.3f}",
        ]
        if self.c_live is not None and self.c_build is not None:
            bits.append(f"c {self.c_live:.2f} vs build {self.c_build:.2f}")
        if self.reasons:
            bits.append("; ".join(self.reasons))
        return " | ".join(bits)


def _norm_entropy(counts: np.ndarray) -> float:
    """Entropy of a count vector normalized by ``log(len)`` (1 =
    uniform, 0 = a single bin takes everything)."""
    counts = np.asarray(counts, dtype=np.float64)
    total = counts.sum()
    if total <= 0 or counts.size <= 1:
        return 1.0
    p = counts[counts > 0] / total
    return float(-(p * np.log(p)).sum() / math.log(counts.size))


class DriftMonitor:
    """Windowed live-vs-build query-distribution comparison.

    Build one with :meth:`from_index` over any RBC-built structure (the
    router resolves to its exact primary).  The baseline is frozen at
    construction from the ownership lists; the live side is fed sampled
    queries (:meth:`observe_queries`) and per-batch candidate counts
    (:meth:`observe_rules`).
    """

    def __init__(
        self,
        rep_data: np.ndarray,
        metric,
        *,
        baseline_dists: np.ndarray,
        baseline_sizes: np.ndarray,
        n: int,
        c_build: float | None = None,
        window: int = 2048,
        dist_ratio_threshold: float = 1.5,
        entropy_gap_threshold: float = 0.2,
        c_ratio_threshold: float = 1.25,
    ) -> None:
        self.rep_data = np.ascontiguousarray(rep_data, dtype=np.float64)
        self.metric = metric
        self.n = int(n)
        self.n_reps = int(self.rep_data.shape[0])
        self.window = int(window)
        self.dist_ratio_threshold = float(dist_ratio_threshold)
        self.entropy_gap_threshold = float(entropy_gap_threshold)
        self.c_ratio_threshold = float(c_ratio_threshold)
        bd = np.asarray(baseline_dists, dtype=np.float64)
        bd = bd[np.isfinite(bd)]
        self.baseline_mean = float(bd.mean()) if bd.size else 0.0
        self.baseline_q95 = float(np.percentile(bd, 95)) if bd.size else 0.0
        self.baseline_entropy = _norm_entropy(np.asarray(baseline_sizes))
        self.c_build = float(c_build) if c_build is not None else None
        self._d_rep: deque[float] = deque(maxlen=self.window)
        self._rep_hits: deque[int] = deque(maxlen=self.window)
        self._hit_counts = np.zeros(self.n_reps, dtype=np.int64)
        #: rolling (candidates, queries) pairs for the live c estimate
        self._rules: deque[tuple[int, int]] = deque(maxlen=512)
        self._cand_sum = 0
        self._query_sum = 0

    @classmethod
    def from_index(cls, index, **kwargs) -> "DriftMonitor | None":
        """A monitor over ``index``'s representative structure, or
        ``None`` when the index has no RBC ownership lists to baseline
        against (brute force, a bare forest, ...)."""
        target = index
        shard_target = getattr(index, "shard_target", None)
        if callable(shard_target):
            try:
                target = shard_target()
            except Exception:
                target = index
        rep_data = getattr(target, "rep_data", None)
        list_dists = getattr(target, "list_dists", None)
        lists = getattr(target, "lists", None)
        if rep_data is None or list_dists is None or lists is None:
            return None
        dists = (
            np.concatenate([np.asarray(d, dtype=np.float64) for d in list_dists])
            if len(list_dists)
            else np.zeros(0)
        )
        sizes = np.asarray([len(lst) for lst in lists], dtype=np.int64)
        c_build = getattr(index, "c_est", None)
        if c_build is None:
            probe = getattr(target, "_estimate_candidate_fraction", None)
            if callable(probe):
                try:
                    frac = float(probe())
                    c_build = max(1.0, (frac * max(sizes.size, 1)) ** (1.0 / 3.0))
                except Exception:
                    c_build = None
        return cls(
            rep_data,
            target.metric,
            baseline_dists=dists,
            baseline_sizes=sizes,
            n=int(getattr(target, "n", 0)),
            c_build=c_build,
            **kwargs,
        )

    # ------------------------------------------------------------ ingestion
    def observe_queries(self, Qs: np.ndarray) -> None:
        """Fold sampled queries into the live window: distance to and
        identity of each query's nearest representative."""
        if Qs.size == 0 or self.n_reps == 0:
            return
        D = np.atleast_2d(self.metric.pairwise(Qs, self.rep_data))
        j = np.argmin(D, axis=1)
        d = D[np.arange(D.shape[0]), j]
        for ji, di in zip(j, d):
            if len(self._rep_hits) == self._rep_hits.maxlen:
                old = self._rep_hits[0]
                self._hit_counts[old] -= 1
            self._rep_hits.append(int(ji))
            self._hit_counts[int(ji)] += 1
            self._d_rep.append(float(di))

    def observe_rules(self, candidates: int, n_queries: int) -> None:
        """Fold one batch's stage-2 candidate count into the live
        c-estimate window."""
        if n_queries <= 0:
            return
        if len(self._rules) == self._rules.maxlen:
            c0, q0 = self._rules[0]
            self._cand_sum -= c0
            self._query_sum -= q0
        self._rules.append((int(candidates), int(n_queries)))
        self._cand_sum += int(candidates)
        self._query_sum += int(n_queries)

    # ------------------------------------------------------------- reading
    @property
    def c_live(self) -> float | None:
        """Theorem 1 inverted on the live window: candidates per query
        ``= c^3 n / n_r`` so ``c = (frac * n_r)^(1/3)``."""
        if self._query_sum == 0 or self.n == 0 or self.n_reps == 0:
            return None
        frac = self._cand_sum / (self._query_sum * self.n)
        return max(1.0, (frac * self.n_reps) ** (1.0 / 3.0))

    def report(self) -> DriftReport:
        d = np.asarray(self._d_rep, dtype=np.float64)
        mean_d = float(d.mean()) if d.size else 0.0
        q95_d = float(np.percentile(d, 95)) if d.size else 0.0
        ratio = (
            mean_d / self.baseline_mean
            if self.baseline_mean > 0 and d.size
            else 1.0
        )
        entropy = (
            _norm_entropy(self._hit_counts) if len(self._rep_hits) else 1.0
        )
        gap = abs(entropy - self.baseline_entropy) if len(self._rep_hits) else 0.0
        c_live = self.c_live
        c_ratio = (
            c_live / self.c_build
            if c_live is not None and self.c_build
            else None
        )
        reasons: list[str] = []
        if d.size and ratio > self.dist_ratio_threshold:
            reasons.append(
                f"rep-distance ratio {ratio:.2f} > "
                f"{self.dist_ratio_threshold:g}"
            )
        if len(self._rep_hits) and gap > self.entropy_gap_threshold:
            reasons.append(
                f"entropy gap {gap:.2f} > {self.entropy_gap_threshold:g}"
            )
        if c_ratio is not None and c_ratio > self.c_ratio_threshold:
            reasons.append(
                f"c ratio {c_ratio:.2f} > {self.c_ratio_threshold:g}"
            )
        return DriftReport(
            n_window=len(self._d_rep),
            mean_rep_dist=mean_d,
            q95_rep_dist=q95_d,
            baseline_mean_rep_dist=self.baseline_mean,
            baseline_q95_rep_dist=self.baseline_q95,
            dist_ratio=float(ratio),
            rep_entropy=entropy,
            baseline_entropy=self.baseline_entropy,
            entropy_gap=float(gap),
            c_live=c_live,
            c_build=self.c_build,
            c_ratio=c_ratio,
            drifted=bool(reasons),
            reasons=reasons,
        )
