"""Machine models: replay a search on the paper's hardware.

Run:  python examples/manycore_simulation.py

Every search in this package can record the operations it performs (dense
distance tiles, tree-reduce merges, branchy traversal steps) into a trace;
the machine models replay a trace on a parameterized device.  This example
reproduces the paper's three hardware stories in miniature:

  * 48-core server (Figure 2): RBC beats parallel brute force;
  * strong scaling: BF-structured search scales near-linearly in cores;
  * GPU (Table 2 / §3): divergent tree search loses to dense search.
"""

import numpy as np

from repro import BruteForceIndex, CoverTree, ExactRBC, ExecContext, OneShotRBC
from repro.data import manifold
from repro.simulator import (
    AMD_48CORE,
    DESKTOP_QUAD,
    TESLA_C2050,
    TraceRecorder,
    simulate,
    strong_scaling,
)

pool = manifold(20_500, 24, 3, seed=0)
X, Q = pool[:20_000], pool[20_000:]

# --------------------------------------------- record one trace per index
traces = {}
for name, index, kwargs in [
    ("brute force", BruteForceIndex().build(X), dict(tile_cols=2048)),
    ("exact RBC", ExactRBC(seed=0).build(X, n_reps=500), {}),
    ("one-shot RBC", OneShotRBC(seed=0, rep_scheme="exact").build(
        X, n_reps=500, s=500), {}),
    ("cover tree", CoverTree().build(X[:5_000]), {}),
]:
    rec = TraceRecorder()
    index.query(Q, 1, ctx=ExecContext(recorder=rec, **kwargs))
    traces[name] = rec.trace

# --------------------------------------------- replay on each machine
print(f"{'algorithm':>14} | {'48-core ms':>10} | {'quad ms':>8} | {'GPU ms':>8}")
for name, trace in traces.items():
    times = [
        simulate(trace, m).time_s * 1e3
        for m in (AMD_48CORE, DESKTOP_QUAD, TESLA_C2050)
    ]
    print(f"{name:>14} | {times[0]:>10.3f} | {times[1]:>8.3f} | {times[2]:>8.3f}")
print("(cover tree ran on a 4x smaller database and is still slowest on GPU:")
print(" branch divergence serializes its traversal — paper §3's argument)")

# --------------------------------------------- strong scaling
print(f"\nstrong scaling of the exact RBC trace on the AMD model:")
for cores, res in strong_scaling(traces["exact RBC"], AMD_48CORE, [1, 4, 16, 48]):
    print(
        f"  {cores:>2} cores: {res.time_s * 1e3:8.3f} ms  "
        f"(utilization {res.utilization:.0%})"
    )
