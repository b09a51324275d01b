"""Ablation — batch size: streaming vs batched queries.

Paper §3: "In the case where there is only a single query presented at a
time (e.g. a stream of queries), the distance computation step of BF(q,X)
has the structure of a matrix-vector multiplication."  Matvec parallelizes
(tiles over the database) but cannot amortize per-batch overheads or reuse
operands the way GEMM does, so throughput rises with batch size while
per-query latency does too.  This ablation maps that trade-off for brute
force and for the exact RBC on the 48-core model.
"""

from __future__ import annotations

from conftest import bench_once

from repro.baselines import BruteForceIndex
from repro.core import ExactRBC
from repro.data import load
from repro.eval import format_table, traced_query
from repro.runtime import ExecContext
from repro.simulator import AMD_48CORE

BATCHES = (1, 8, 64, 512)
TOTAL_QUERIES = 512


def run():
    X, Q = load("tiny8", scale=0.1, n_queries=TOTAL_QUERIES, max_n=20_000)
    rows = []
    for label, index, kwargs in [
        ("brute force", BruteForceIndex().build(X), dict(tile_cols=2048)),
        ("exact RBC", ExactRBC(seed=0).build(X, n_reps=500), {}),
    ]:
        for b in BATCHES:
            total = 0.0
            batches = 0
            for lo in range(0, TOTAL_QUERIES, b):
                run_ = traced_query(
                    index, Q[lo : lo + b], [AMD_48CORE], k=1,
                    ctx=ExecContext(**kwargs),
                )
                total += run_.sim_time(AMD_48CORE)
                batches += 1
            latency_ms = total / batches * 1e3
            throughput = TOTAL_QUERIES / total
            rows.append([label, b, latency_ms, throughput])
    return rows


def test_ablation_batching(benchmark, report):
    rows = bench_once(benchmark, run)
    report(
        "ablation_batching",
        format_table(
            ["algorithm", "batch size", "latency ms/batch",
             "throughput q/s"],
            rows,
            title=(
                "Ablation: batch size vs latency and throughput "
                "(48-core model, tiny8 analog)\n(single queries = matvec; "
                "batches = GEMM)"
            ),
        ),
    )
    by = {(r[0], r[1]): r for r in rows}
    for label in ("brute force", "exact RBC"):
        # batching monotonically raises throughput...
        tp = [by[(label, b)][3] for b in BATCHES]
        assert all(b >= a for a, b in zip(tp, tp[1:])), (label, tp)
        # ...at the price of batch latency
        assert by[(label, 512)][2] > by[(label, 1)][2]
        # and the big-batch regime gains at least 3x throughput
        assert tp[-1] > 3 * tp[0], (label, tp)
    # the RBC keeps its advantage in the streaming regime too
    assert by[("exact RBC", 1)][3] > by[("brute force", 1)][3]
