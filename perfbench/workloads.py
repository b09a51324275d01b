"""The benchmark's three workloads, driven only through the public API.

All three search the robot analog of the paper's Table 1 (d=21, intrinsic
dimension 7) at n=50k with the threads executor; ``--seed`` draws the
queries, the serving pool, the arrivals and the churn op mix.
Each returns an :class:`Outcome`: one result line per metric, the
end-to-end metrics (untraced run) or per-layer metrics (traced run), and
the oracle tally.  ``NOTES.md`` says why each workload exists and which
layers it bypasses.

A traced run executes a fixed plan twice: once untraced, once under the
span wrappers of :mod:`spans`; the ratio of the two walls is
``trace.overhead``.
"""

from __future__ import annotations

import gc
import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

import layers
from host import CALIBRATION_REF_S, calibrate
from oracle import check_rows, knn_oracle, sqnorms
from repro import ExactRBC, ShardedStreamingSearcher, bf_knn
from repro.data.datasets import DATASETS
from repro.metrics.engine import operand_cache
from repro.serving.scenarios import make_scenario
from spans import SpanLog, SpanTree, traced

BATCHES = (1, 64, 512)
#: generator seed of the robot-analog trajectory and its database split
CURVE_SEED = 0
#: held-out rows generated per row a seed draws
HELD_OUT_POOL = 4
#: representative-sampling seed of every index (program configuration)
INDEX_SEED = 0
#: neighbours per answer on the serving and churn workloads
K_SERVE = 10
#: the churn loop stops here even when its ops are not all done, so a run
#: on a slow host still ends inside its time limit
CHURN_CAP_S = 120.0
#: churn ops per throughput segment
CHURN_SEGMENT = 50
#: result slot of a churn op that raised
RAISED = object()


@dataclass(frozen=True)
class Size:
    """Input sizes; ``FULL`` is the benchmark, ``TINY`` the self-test."""

    n: int = 50_000
    held_out: int = 4608
    #: batch-1nn query pool and churn read pool (first held-out rows)
    query_pool: int = 4096
    #: batch-1nn slices (512 queries at every batch size) per second of
    #: ``--seconds``, rounded up to whole passes over the pool
    slices_per_s: float = 1.2
    #: churn insert pool (last held-out rows)
    insert_pool: int = 512
    #: serve-hotkey pool: database rows plus held-out rows
    serve_db: int = 256
    serve_held: int = 256
    nominal_qps: float = 200.0
    overload_qps: float = 4000.0
    #: stream lengths per second of ``--seconds``
    nominal_per_s: int = 160
    overload_per_s: int = 40
    read_batch: int = 16
    #: churn ops per second of ``--seconds``, untraced and traced
    ops_per_s: int = 32
    traced_ops_per_s: int = 16
    setups: int = 7


FULL = Size()
TINY = Size(
    n=3000, held_out=256, query_pool=128, insert_pool=64, serve_db=32, serve_held=32,
    nominal_per_s=40, overload_per_s=20, ops_per_s=40, traced_ops_per_s=40,
    setups=2,
)


@dataclass
class Outcome:
    #: (name, value, unit, samples), one per reported metric
    lines: list = field(default_factory=list)
    #: JSON metrics: end-to-end (untraced run) or per-layer (traced run)
    metrics: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    spans: SpanLog | None = None
    #: digest of the generated inputs
    inputs: str = ""

    def line(self, name: str, value: float, unit: str, samples: int) -> None:
        self.lines.append((name, float(value), unit, int(samples)))

    def tally(self, bad: np.ndarray) -> np.ndarray:
        self.attempted += int(bad.size)
        self.failed += int(bad.sum())
        return bad


def make_inputs(seed: int, size: Size) -> tuple[np.ndarray, np.ndarray]:
    """The fixed robot-analog database and ``size.held_out`` held-out rows
    drawn by ``seed``.

    Like the paper's one recorded Robot dataset, the database does not
    change with the seed: the index built over it samples its
    representatives from its own fixed seed, and a different sample moves
    the exact search's cost by up to 1.5x.  ``seed`` draws the queries,
    the serving pool, the arrivals and the churn op mix.
    """
    full = DATASETS["robot"].make(size.n + HELD_OUT_POOL * size.held_out, CURVE_SEED)
    perm = np.random.default_rng(CURVE_SEED).permutation(full.shape[0])
    X, held = full[perm[: size.n]], full[perm[size.n :]]
    pick = np.random.default_rng([seed, 1]).choice(len(held), size.held_out, replace=False)
    return X, held[pick]


def digest(*arrays: np.ndarray) -> str:
    h = hashlib.blake2b(digest_size=8)
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _status_kb(key: str) -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith(key + ":"):
                return int(line.split()[1])
    raise KeyError(key)


class _Memory:
    """Peak resident-set growth from just before set-up."""

    def __init__(self) -> None:
        gc.collect()
        self.base_kb = _status_kb("VmRSS")

    def growth_mb(self) -> float:
        return (_status_kb("VmHWM") - self.base_kb) / 1024.0


def _setup(X, ctx, size: Size, searchers=None):
    """Index build + ``warm()`` (+ searcher construction), ``size.setups``
    times; returns the median time at reference host speed and the last
    index and searchers."""
    times, index, made = [], None, []
    for _ in range(size.setups):
        for s in made:
            s.close()
        index = made = None
        scale = CALIBRATION_REF_S / calibrate()
        t0 = time.perf_counter()
        index = ExactRBC(seed=INDEX_SEED).build(X, ctx=ctx)
        index.warm(ctx)
        made = searchers(index) if searchers is not None else []
        times.append((time.perf_counter() - t0) * scale)
    return float(np.median(times)), index, made


def _engine_window(before) -> dict:
    now = operand_cache.stats.snapshot()
    return {
        "metrics.engine.prepared": now.n_prepared - before.n_prepared,
        "metrics.engine.hits": now.n_hits - before.n_hits,
        "metrics.engine.invalidated": now.n_invalidated - before.n_invalidated,
    }


def _common_lines(out: Outcome, setup_s: float, size: Size, rss_mb: float) -> None:
    """The lines every workload reports; call once all rows are checked."""
    out.line("setup_s", setup_s, "s", size.setups)
    out.line("rss_mb", rss_mb, "MB", 1)
    out.line("error_rate", out.failed / max(out.attempted, 1), "fraction",
             out.attempted)


# ----------------------------------------------------------- batch-1nn
def batch_1nn(seed: int, seconds: int, size: Size, ctx, trace: bool) -> Outcome:
    """Closed loop, one client: exact 1-NN of a held-out pool through
    ``ExactRBC.query`` at batch sizes 1, 64 and 512 on a warm index."""
    X, H = make_inputs(seed, size)
    P = H[: size.query_pool]
    out = Outcome(inputs=digest(X, P))
    mem = _Memory()
    setup_s, index, _ = _setup(X, ctx, size)
    batches = [min(b, len(P)) for b in BATCHES]
    step = batches[-1]
    #: slice -> host-speed scale measured just before it
    scale = {}

    def slices(first, n_slices, log=None, with_bf=False):
        """Cycle through the pool a slice of ``step`` queries at a time,
        each slice at every batch size, so all sizes answer the same
        queries."""
        records, bf_time = [], {b: 0.0 for b in batches}
        for done in range(n_slices):
            sl = first + done
            scale[sl] = CALIBRATION_REF_S / calibrate()
            base = (sl * step) % len(P)
            for b in batches:
                for lo in range(base, base + step, b):
                    q = P[lo : lo + b]
                    t0 = time.perf_counter()
                    if log is None:
                        d, i = index.query(q, 1, ctx=ctx)
                    else:
                        log.new_request()
                        d, i = log.call("batch.request", index.query, q, 1, ctx=ctx)
                    dt = time.perf_counter() - t0
                    cand = index.last_stats.candidates_examined
                    records.append((sl, b, lo, dt, d, i, cand))
                    if with_bf:
                        t0 = time.perf_counter()
                        if log is None:
                            bf_knn(q, X, "euclidean", 1, ctx=ctx)
                        else:
                            log.call("bf_knn", bf_knn, q, X, "euclidean", 1, ctx=ctx)
                        bf_time[b] += time.perf_counter() - t0
        return records, bf_time

    slices(0, 1, with_bf=trace)  # warm-up, untimed
    if not trace:
        # whole passes over the pool, so every query counts equally and a
        # seed measures the same calls however fast the host runs
        per_pass = -(-len(P) // step)
        n_slices = -(-int(np.ceil(seconds * size.slices_per_s)) // per_pass) * per_pass
        records, _ = slices(0, n_slices)
    else:
        # untraced and traced passes over the same slice alternate, so a
        # slow host phase hits both sides of the overhead ratio
        n_slices = max(1, seconds // 3)
        log = SpanLog()
        eng0 = operand_cache.stats.snapshot()
        records, bf_time, ratios, unchecked = [], {b: 0.0 for b in batches}, [], []
        for sl in range(n_slices):
            t0 = time.perf_counter()
            rec, _ = slices(sl, 1, with_bf=True)
            wall_plain = time.perf_counter() - t0
            unchecked += rec
            with traced(log, index):
                t0 = time.perf_counter()
                rec, bft = slices(sl, 1, log=log, with_bf=True)
                ratios.append((time.perf_counter() - t0) / wall_plain)
            records += rec
            for b in batches:
                bf_time[b] += bft[b]
        out.spans = log
    rss_mb = mem.growth_mb()

    oracle_sq = knn_oracle(P, X, 1)
    x_sq_max = float(sqnorms(X).max())
    if trace:
        for _sl, b, lo, _dt, d, i, _cand in unchecked:
            out.tally(check_rows(P[lo : lo + b], d, i, oracle_sq[lo : lo + b], X,
                                 x_sq_max=x_sq_max))
    # per slice and batch size: [correct rows, busy seconds, call latencies]
    per = {}
    for sl, b, lo, dt, d, i, _cand in records:
        bad = out.tally(
            check_rows(P[lo : lo + b], d, i, oracle_sq[lo : lo + b], X,
                       x_sq_max=x_sq_max)
        )
        acc = per.setdefault((sl, b), [0, 0.0, []])
        acc[0] += int((~bad).sum())
        acc[1] += dt * scale[sl]
        acc[2].append(dt * scale[sl])
    # times are at reference host speed; medians over slices keep a short
    # stall from moving the result
    qps = {
        b: float(np.median([g / t for (_, bb), (g, t, _) in per.items() if bb == b]))
        for b in batches
    }
    b1 = [lat for (_, bb), (_, _, lat) in per.items() if bb == batches[0]]
    p50 = float(np.median([np.percentile(lat, 50) for lat in b1])) * 1e3
    p99 = float(np.median([np.percentile(lat, 99) for lat in b1])) * 1e3
    _common_lines(out, setup_s, size, rss_mb)
    for b, name in zip(batches, BATCHES):
        out.line(f"qps_b{name}", qps[b], "q/s", step * n_slices)
    out.line("b1_call_p50_ms", p50, "ms", step * n_slices)
    out.line("b1_call_p99_ms", p99, "ms", step * n_slices)
    if not trace:
        out.metrics = {
            "setup_s": setup_s,
            "rss_mb": rss_mb,
            "qps": float(np.exp(np.mean(np.log(list(qps.values()))))),
            "p50_ms": p50,
            "tail_ms": p99,
        }
        return out

    tree = SpanTree(log.spans)
    vals = layers.exact_layer(tree, sum(r[6] for r in records))
    vals.update(_engine_window(eng0))
    for b, name in zip(batches, BATCHES):
        vals[f"parallel.bruteforce.qps_b{name}"] = step * n_slices / bf_time[b]
    vals["trace.overhead"] = float(np.median(ratios))
    vals["trace.unattributed_share"] = layers.unattributed_share(
        tree, ("batch.request",)
    )
    out.metrics = layers.complete(vals)
    return out


# --------------------------------------------------------- serve-hotkey
class SojournLog:
    """A stand-in for :class:`~repro.obs.slo.SLOMonitor` on the searcher's
    public ``slo=`` hook.  It records every served query's sojourn and
    never signals a breach, so the batcher behaves as with no monitor.
    Samples arrive in service order, which is arrival order because the
    batcher serves its queue first-in first-out."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def on_breach(self, callback) -> None:
        pass

    def observe(self, latency_s, now, *, queue_depth=None) -> None:
        self.samples.append(float(latency_s))

    def report(self) -> dict:
        return {"n_observed": len(self.samples)}


def _oracle_unique(Q, X, k) -> np.ndarray:
    """:func:`knn_oracle` computed once per distinct query (hot-key
    traffic repeats queries byte for byte)."""
    uq, inv = np.unique(Q, axis=0, return_inverse=True)
    return knn_oracle(uq, X, k)[inv.reshape(-1)]


def _goodput(report, bad: np.ndarray) -> float:
    """Correct answers per second of stream makespan."""
    makespan = report.n_queries / report.throughput_qps
    return int((~bad).sum()) / makespan


def serve_hotkey(seed: int, seconds: int, size: Size, ctx, trace: bool) -> Outcome:
    """Open loop: zipfian hot-key traffic replayed on the stream's virtual
    clock through a 4-shard cached server, at a nominal and an overload
    rate."""
    X, H = make_inputs(seed, size)
    rng = np.random.default_rng([seed, 2])
    pool = np.concatenate(
        [X[rng.choice(len(X), size.serve_db, replace=False)], H[: size.serve_held]]
    )
    n_nom = size.nominal_per_s * seconds
    n_over = size.overload_per_s * seconds
    legs = {}
    for leg, n, qps in (
        ("nominal", n_nom, size.nominal_qps),
        ("overload", n_over, size.overload_qps),
    ):
        tr = make_scenario(
            "zipfian", pool, n_queries=n, qps=qps, seed=int(rng.integers(2**31))
        )
        legs[leg] = (tr.queries, tr.arrivals)
    out = Outcome(inputs=digest(X, *(a for leg in legs.values() for a in leg)))

    def server(index):
        return ShardedStreamingSearcher(
            index, n_shards=4, cache=True, k=K_SERVE, ctx=ctx, slo=SojournLog()
        )

    def run_legs(servers, log=None):
        """Each leg on its own server, so both start with a cold cache."""
        reports = {}
        for (leg, (Q, arrivals)), s in zip(legs.items(), servers):
            with s:
                if log is None:
                    rep = s.search_stream(Q, arrival_times=arrivals)
                else:
                    log.new_request()
                    rep = log.call(
                        "serve.stream", s.search_stream, Q,
                        arrival_times=arrivals, attrs={"leg": leg},
                    )
            reports[leg] = (rep, np.asarray(s.slo.samples))
        return reports

    def servers(index):
        return [server(index) for _ in legs]

    mem = _Memory()
    setup_s, index, made = _setup(X, ctx, size, servers)
    # warm-up, untimed: a throwaway server replays the nominal leg's head
    with server(index) as warm:
        n_warm = max(1, n_nom // 8)
        Q, arrivals = legs["nominal"]
        warm.search_stream(Q[:n_warm], arrival_times=arrivals[:n_warm])
    t0 = time.perf_counter()
    reports = plain = run_legs(made)
    wall_plain = time.perf_counter() - t0
    if trace:
        made = servers(index)
        log = SpanLog()
        eng0 = operand_cache.stats.snapshot()
        with traced(log, index, caches=[s.cache for s in made]):
            t0 = time.perf_counter()
            reports = run_legs(made, log)
            wall_traced = time.perf_counter() - t0
        out.spans = log
    rss_mb = mem.growth_mb()

    bad = {}
    for leg, (Q, _) in legs.items():
        oracle_sq = _oracle_unique(Q, X, K_SERVE)
        if trace:
            first = plain[leg][0]
            out.tally(check_rows(Q, first.dist, first.idx, oracle_sq, X))
        rep, soj = reports[leg]
        bad[leg] = out.tally(check_rows(Q, rep.dist, rep.idx, oracle_sq, X))
        if soj.size != len(Q) or np.percentile(soj, 50) != rep.latency.p50_s:
            raise RuntimeError(f"{leg}: sojourn log does not match the stream report")
    nom, soj = reports["nominal"]
    soj = np.where(bad["nominal"], np.inf, soj)
    p50 = float(np.percentile(soj, 50, method="higher")) * 1e3
    p99 = float(np.percentile(soj, 99, method="higher")) * 1e3
    goodput = _goodput(nom, bad["nominal"])
    over = reports["overload"][0]
    overload_qps = _goodput(over, bad["overload"])

    _common_lines(out, setup_s, size, rss_mb)
    out.line("p50_ms", p50, "ms", nom.n_queries)
    out.line("p99_ms", p99, "ms", nom.n_queries)
    out.line("nominal_goodput_qps", goodput, "q/s", nom.n_queries)
    out.line("overload_qps", overload_qps, "q/s", over.n_queries)
    out.line("generator_lateness_ms", 0.0, "ms", nom.n_queries + over.n_queries)
    if not trace:
        out.metrics = {
            "setup_s": setup_s,
            "rss_mb": rss_mb,
            "qps": goodput,
            "p50_ms": p50,
            "tail_ms": p99,
        }
        return out

    tree = SpanTree(log.spans)
    n_served = n_nom + n_over
    vals = layers.serving_layers(tree, n_served)
    vals.update(_engine_window(eng0))
    # counters from the public reports come from the untraced pass, whose
    # batching the wrappers' overhead cannot shift
    nom, over = plain["nominal"][0], plain["overload"][0]
    vals.update(
        {
            "serving.batcher.mean_batch": nom.mean_batch,
            "serving.batcher.overload_mean_batch": over.mean_batch,
            "serving.batcher.deadline_flush_share": nom.deadline_flushes
            / max(nom.n_batches, 1),
            "serving.batcher.wait_p50_ms": nom.wait.p50_s * 1e3,
            "serving.batcher.wait_p99_ms": nom.wait.p99_s * 1e3,
            "serving.searcher.service_mean_ms": (
                nom.latency.mean_s - nom.wait.mean_s
            ) * 1e3,
        }
    )
    reps = [rep for rep, _ in plain.values()]
    hits = sum(r.cache_hits for r in reps)
    misses = sum(r.cache_misses for r in reps)
    shards = [
        [sh for r in reps for sh in r.per_shard if sh["shard"] == w]
        for w in range(len(reps[0].per_shard))
    ]
    busy = np.array([sum(sh["busy_s"] for sh in group) for group in shards])
    tasks = sum(sh["tasks"] for group in shards for sh in group)
    rounds = sum(r.rounds for r in reps)
    vals.update(
        {
            "serving.cache.hit_rate": hits / max(hits + misses, 1),
            "serving.cache.rejects": sum(r.cache_rejects for r in reps),
            "serving.sharded.fanout": tasks / max(rounds, 1),
            "serving.sharded.imbalance": busy.max() / busy.mean() if busy.mean() > 0 else 0.0,
            "serving.sharded.evals_per_query": sum(
                sh["evals"] for group in shards for sh in group
            ) / max(misses, 1),
            "trace.overhead": wall_traced / wall_plain,
            "trace.unattributed_share": layers.unattributed_share(
                tree, ("serve.stream",)
            ),
        }
    )
    out.metrics = layers.complete(vals)
    return out


# ---------------------------------------------------------------- churn
def churn(seed: int, seconds: int, size: Size, ctx, trace: bool) -> Outcome:
    """Closed loop, one client: 80% read batches (16 held-out queries,
    k=10, ``ExactRBC.query``), 10% ``insert`` of a held-out row, 10%
    ``delete`` of a random live row."""
    X, H = make_inputs(seed, size)
    R = H[: size.query_pool]
    I = H[-size.insert_pool :]
    out = Outcome(inputs=digest(X, R, I))

    def run_ops(index, n_ops, log=None):
        """The seed's first ``n_ops`` ops: the same seed replays the same
        op sequence and index versions whatever the host's speed."""
        rng = np.random.default_rng([seed, 3])
        live = list(range(len(X)))
        ops = []
        n_ins = 0
        after_write = False
        candidates = 0
        t_start = time.perf_counter()
        while len(ops) < n_ops and time.perf_counter() - t_start < CHURN_CAP_S:
            if len(ops) % CHURN_SEGMENT == 0:
                scale = CALIBRATION_REF_S / calibrate()
            u = rng.random()
            if u < 0.8:
                kind, arg = "read", rng.choice(len(R), size.read_batch, replace=False)
                call = (index.query, R[arg], K_SERVE)
                kw = {"ctx": ctx}
            elif u < 0.9:
                kind, arg = "insert", n_ins % len(I)
                call, kw = (index.insert, I[arg]), {}
            else:
                j = int(rng.integers(len(live)))
                kind, arg = "delete", live[j]
                call, kw = (index.delete, arg), {}
            t0 = time.perf_counter()
            try:
                if log is None:
                    res = call[0](*call[1:], **kw)
                else:
                    log.new_request()
                    res = log.call(
                        f"churn.{kind}", *call,
                        attrs={"after_write": after_write}, **kw,
                    )
            except Exception as exc:  # an op that raises counts as failed
                out.errors.append(f"{kind}: {exc!r}")
                ops.append((kind, arg, RAISED, (time.perf_counter() - t0) * scale))
                continue
            # op times are kept at reference host speed
            ops.append((kind, arg, res, (time.perf_counter() - t0) * scale))
            if kind == "read":
                candidates += index.last_stats.candidates_examined
                after_write = False
            else:
                after_write = True
                if kind == "insert":
                    n_ins += 1
                    live.append(res)
                else:
                    live[j] = live[-1]
                    live.pop()
        return ops, time.perf_counter() - t_start, candidates

    mem = _Memory()
    setup_s, index, _ = _setup(X, ctx, size)
    if not trace:
        ops, _, _ = run_ops(index, size.ops_per_s * seconds)
    else:
        n_ops = size.traced_ops_per_s * seconds
        plain_ops, wall_plain, _ = run_ops(index, n_ops)
        index = ExactRBC(seed=INDEX_SEED).build(X, ctx=ctx)
        index.warm(ctx)
        log = SpanLog()
        eng0 = operand_cache.stats.snapshot()
        with traced(log, index):
            ops, wall_traced, candidates = run_ops(index, n_ops, log)
        out.spans = log
    rss_mb = mem.growth_mb()

    def replay(ops):
        """Check an op log against a mirror of the live set; returns the
        read and write latencies.  The reads between two writes see one
        live set and share one oracle pass."""
        inserted = [I[arg] for kind, arg, res, _ in ops if kind == "insert" and res is not RAISED]
        X_all = np.concatenate([X, np.asarray(inserted).reshape(-1, X.shape[1])])
        x_sq = sqnorms(X_all)
        x_sq_max = float(x_sq.max())
        alive = np.zeros(len(X_all), dtype=bool)
        alive[: len(X)] = True
        next_gid = len(X)
        read_lat, write_lat, pending = [], [], []

        def check_pending():
            if not pending:
                return
            Q = np.concatenate([R[arg] for arg, _ in pending])
            oracle_sq = knn_oracle(Q, X_all, K_SERVE, alive=alive, x_sq=x_sq)
            for j, (arg, res) in enumerate(pending):
                rows = slice(j * size.read_batch, (j + 1) * size.read_batch)
                out.tally(check_rows(R[arg], res[0], res[1], oracle_sq[rows], X_all,
                                     alive=alive, x_sq_max=x_sq_max))
            pending.clear()

        for kind, arg, res, dt in ops:
            if res is RAISED:
                out.tally(np.ones(size.read_batch if kind == "read" else 1, dtype=bool))
                continue
            if kind == "read":
                pending.append((arg, res))
                read_lat.append(dt)
                continue
            check_pending()
            write_lat.append(dt)
            if kind == "insert":
                out.tally(np.array([res != next_gid]))
                alive[next_gid] = True
                next_gid += 1
            else:
                out.tally(np.array([not alive[arg]]))
                alive[arg] = False
        check_pending()
        return np.asarray(read_lat), np.asarray(write_lat)

    if trace:
        replay(plain_ops)
    read_lat, write_lat = replay(ops)

    # completed ops per second of op time, median over segments of
    # CHURN_SEGMENT ops (each timed after its own host-speed calibration)
    # so a short host stall does not move the result
    rates = []
    for lo in range(0, max(len(ops) - CHURN_SEGMENT, 0) + 1, CHURN_SEGMENT):
        seg = ops[lo : lo + CHURN_SEGMENT]
        rates.append(sum(op[2] is not RAISED for op in seg) / sum(op[3] for op in seg))
    ops_s = float(np.median(rates))
    _common_lines(out, setup_s, size, rss_mb)
    read_p50 = float(np.percentile(read_lat, 50)) * 1e3
    read_p95 = float(np.percentile(read_lat, 95)) * 1e3
    out.line("read_p50_ms", read_p50, "ms", read_lat.size)
    out.line("read_p95_ms", read_p95, "ms", read_lat.size)
    out.line("write_p90_ms", float(np.percentile(write_lat, 90)) * 1e3, "ms",
             write_lat.size)
    out.line("ops_s", ops_s, "ops/s", len(ops))
    if not trace:
        out.metrics = {
            "setup_s": setup_s,
            "rss_mb": rss_mb,
            "qps": ops_s,
            "p50_ms": read_p50,
            "tail_ms": read_p95,
        }
        return out

    tree = SpanTree(log.spans)
    vals = layers.exact_layer(tree, candidates)
    vals.update(layers.write_layer(tree))
    vals.update(_engine_window(eng0))
    vals["trace.overhead"] = wall_traced / wall_plain
    vals["trace.unattributed_share"] = layers.unattributed_share(
        tree, ("churn.read", "churn.insert", "churn.delete")
    )
    out.metrics = layers.complete(vals)
    return out


WORKLOADS = {
    "batch-1nn": batch_1nn,
    "serve-hotkey": serve_hotkey,
    "churn": churn,
}
