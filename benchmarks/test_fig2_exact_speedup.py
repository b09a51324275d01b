"""Figure 2 — speedup of exact search over brute force (48-core machine).

The paper's headline result: on a 48-core AMD server, the exact RBC search
beats already-fast parallel brute force by one to two orders of magnitude
across the Table-1 datasets.

Reproduction: both algorithms run for real (same distance evaluations as
the paper's algorithm would perform); their recorded operation traces are
replayed on the 48-core machine model (see DESIGN.md §1 for why wall-clock
on this 1-core host cannot be used).  Reported per dataset:

* ``work x`` — distance-evaluation reduction (hardware-independent);
* ``48-core x`` — simulated-time speedup on the AMD 6176SE model, the
  quantity Figure 2 plots;
* ``wall x`` — host wall-clock ratio, for reference only.

Expected shape: speedup > 1 everywhere, largest on the low-intrinsic-dim
datasets (robot, tiny4), smallest on the highest-dimensional (phy, tiny32).
"""

from __future__ import annotations

import time

from conftest import bench_once

from repro.baselines import BruteForceIndex
from repro.core import ExactRBC, standard_n_reps
from repro.data import load
from repro.eval import format_table, traced_query
from repro.runtime import ExecContext
from repro.simulator import AMD_48CORE

#: datasets and their (scale, cap): large enough for sqrt(n) to win,
#: small enough to run in minutes on one host core
WORKLOADS = [
    ("bio", 0.1, 20_000),
    ("cov", 0.1, 20_000),
    ("phy", 0.1, 10_000),
    ("robot", 0.1, 20_000),
    ("tiny4", 0.1, 20_000),
    ("tiny8", 0.1, 20_000),
    ("tiny16", 0.1, 20_000),
    ("tiny32", 0.1, 20_000),
]

#: the paper queries 10k points; 1000 is enough to saturate the 48-core
#: model's workers in every stage while keeping host runtime in minutes
N_QUERIES = 1000
MACHINES = [AMD_48CORE]
#: brute-force blocking: one pass over the database per query block (the
#: recorded trace subdivides each tile into row bands, so the machine
#: models still see abundant parallelism)
BF_GRAIN = ExecContext(tile_cols=2048, row_chunk=512)


def run_one(name: str, scale: float, max_n: int):
    X, Q = load(name, scale=scale, n_queries=N_QUERIES, max_n=max_n)
    n = X.shape[0]

    brute = BruteForceIndex().build(X)
    brute_run = traced_query(brute, Q, MACHINES, k=1, ctx=BF_GRAIN)

    rbc = ExactRBC(seed=0)
    t0 = time.perf_counter()
    rbc.build(X, n_reps=standard_n_reps(n, c=2.5))
    build_s = time.perf_counter() - t0
    rbc_run = traced_query(rbc, Q, MACHINES, k=1)

    # exactness is part of the claim: same answers as brute force
    assert abs(rbc_run.dist - brute_run.dist).max() < 1e-6

    return {
        "name": name,
        "n": n,
        "work_x": brute_run.evals / rbc_run.evals,
        "sim48_x": brute_run.sim_time(AMD_48CORE) / rbc_run.sim_time(AMD_48CORE),
        "wall_x": brute_run.wall_s / rbc_run.wall_s,
        "build_s": build_s,
        "evals_per_q": rbc_run.evals / N_QUERIES,
    }


def test_fig2_exact_speedup_48core(benchmark, report):
    results = bench_once(
        benchmark, lambda: [run_one(*w) for w in WORKLOADS]
    )
    rows = [
        [r["name"], r["n"], r["evals_per_q"], r["work_x"], r["sim48_x"],
         r["wall_x"], r["build_s"]]
        for r in results
    ]
    report(
        "fig2_exact_speedup",
        format_table(
            ["dataset", "n", "evals/query", "work x", "48-core x", "wall x",
             "build s"],
            rows,
            title=(
                "Figure 2: speedup of exact RBC search over brute force\n"
                "(simulated AMD 48-core; paper reports 5x-100x)"
            ),
        ),
    )
    by_name = {r["name"]: r for r in results}
    # shape assertions: RBC wins everywhere on the 48-core model...
    for r in results:
        assert r["sim48_x"] > 1.0, f"{r['name']}: no speedup"
    # ...dimensionality ordering holds within the tiny family...
    assert by_name["tiny4"]["work_x"] > by_name["tiny16"]["work_x"]
    assert by_name["tiny8"]["work_x"] > by_name["tiny32"]["work_x"]
    # ...and the easiest datasets reach ~an order of magnitude
    assert max(r["sim48_x"] for r in results) > 8.0
