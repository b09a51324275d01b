"""Figure 3 (Appendix C) — exact-search speedup vs number of representatives.

The exact search algorithm has a single parameter, n_r.  The paper sweeps
it over a wide range per dataset and shows the speedup (y, log scale) is
relatively stable in the parameter — the flat plateaus of Figure 3 — so no
careful tuning is required.

Reproduction: same sweep, speedup measured as the 48-core machine-model
time ratio against brute force.  The stability claim is asserted as: over
the middle of the sweep (2x-8x sqrt(n)), speedup stays within a 4x band
while n_r varies by 4x.
"""

from __future__ import annotations

from conftest import bench_once

from repro.baselines import BruteForceIndex
from repro.core import ExactRBC
from repro.data import load
from repro.eval import ascii_plot, format_table, traced_query
from repro.runtime import ExecContext
from repro.simulator import AMD_48CORE

WORKLOADS = [
    ("bio", 20_000),
    ("cov", 20_000),
    ("robot", 20_000),
    ("tiny4", 20_000),
    ("tiny8", 20_000),
    ("tiny32", 20_000),
]

N_QUERIES = 500
SWEEP = (1.0, 2.0, 4.0, 6.0, 8.0, 12.0)
MACHINES = [AMD_48CORE]
BF_GRAIN = ExecContext(tile_cols=2048, row_chunk=512)


def run_dataset(name: str, max_n: int):
    X, Q = load(name, scale=0.1, n_queries=N_QUERIES, max_n=max_n)
    n = X.shape[0]
    brute = BruteForceIndex().build(X)
    brute_run = traced_query(brute, Q, MACHINES, k=1, ctx=BF_GRAIN)
    series = []
    for frac in SWEEP:
        nr = max(1, int(frac * n**0.5))
        rbc = ExactRBC(seed=0, rep_scheme="exact").build(X, n_reps=nr)
        run = traced_query(rbc, Q, MACHINES, k=1)
        assert abs(run.dist - brute_run.dist).max() < 1e-6  # still exact
        series.append(
            (nr, brute_run.sim_time(AMD_48CORE) / run.sim_time(AMD_48CORE))
        )
    return name, n, series


def test_fig3_exact_nr_sweep(benchmark, report):
    results = bench_once(
        benchmark, lambda: [run_dataset(*w) for w in WORKLOADS]
    )
    rows = []
    for name, n, series in results:
        for nr, x in series:
            rows.append([name, n, nr, x])
    figure = ascii_plot(
        {name: [(nr, x) for nr, x in series] for name, n, series in results},
        logy=True,
        xlabel="number of representatives",
        ylabel="speedup",
        title="Figure 3 (reproduced): exact speedup vs n_reps",
        width=68,
        height=18,
    )
    report(
        "fig3_nr_sweep",
        figure
        + "\n\n"
        + format_table(
            ["dataset", "n", "n_reps", "48-core x"],
            rows,
            title=(
                "Figure 3 (Appendix C): exact-search speedup vs number of "
                "representatives\n(paper: log-scale y, speedup stable over "
                "a wide parameter range)"
            ),
        ),
    )
    for name, n, series in results:
        # stability claim over the sweep's middle (2x..8x sqrt(n))
        mid = [x for nr, x in series[1:5]]
        assert max(mid) / min(mid) < 4.0, f"{name}: unstable {mid}"
        assert max(x for _, x in series) > 1.5, f"{name}: never wins"
