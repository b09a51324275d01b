"""Fast check of the benchmark itself (about ten seconds).

Runs every workload at a tiny size, untraced and traced, and checks that

* every metric named in ``BENCHMARK.json`` is emitted with its unit, and
  every name uses only ``[A-Za-z0-9_.-]``;
* the traced split shows the predicted bypasses: no ``ExactRBC.query`` on
  serve-hotkey, no cache or shard spans on batch-1nn and churn, inserts
  and deletes only on churn;
* planted wrong rows are counted by the oracle check;
* the same seed gives the same inputs and another seed different ones;
* an oversubscribed thread budget is refused.

Usage, from the repository root::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SERVE_ONLY = (
    "ProximityCache.lookup",
    "ProximityCache.admit",
    "merge_group_topk",
    "merge_topk",
    "dedupe_rows",
    "rescore_pairs@sharded",
    "serve.stream",
)


def check(cond: bool, msg: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {msg}")


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from host import configure_threads, thread_budget

    workers, _ = configure_threads()
    try:
        thread_budget(3, 2)
    except SystemExit:
        pass
    else:
        check(False, "an oversubscribed thread budget was accepted")

    import numpy as np

    from oracle import check_rows, knn_oracle
    from repro import ExecContext
    from repro.parallel.pool import executor_pool
    from workloads import TINY, WORKLOADS, Outcome, make_inputs

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    names = [w["name"] for w in spec["workloads"]] + list(e2e) + list(per_layer)
    for name in names:
        check(bool(NAME.match(name)), f"bad metric or workload name {name!r}")
    check(set(w["name"] for w in spec["workloads"]) == set(WORKLOADS),
          "BENCHMARK.json workloads differ from the benchmark's")

    ctx = ExecContext(executor="threads", n_workers=workers)
    try:
        for name, run in WORKLOADS.items():
            plain = run(0, 1, TINY, ctx, False)
            traced = run(0, 1, TINY, ctx, True)
            other = run(1, 1, TINY, ctx, False)
            for out, units in ((plain, e2e), (traced, per_layer)):
                check(out.failed == 0, f"{name}: {out.failed} rows failed the oracle")
                check(set(out.metrics) == set(units),
                      f"{name}: metrics {sorted(set(out.metrics) ^ set(units))} "
                      "differ from BENCHMARK.json")
                check(all(np.isfinite(v) for v in out.metrics.values()),
                      f"{name}: a metric is not finite")
            from layers import END_TO_END, PER_LAYER

            check(END_TO_END == e2e and PER_LAYER == per_layer,
                  "metric units differ from BENCHMARK.json")
            check(plain.inputs == traced.inputs,
                  f"{name}: one seed gave two different inputs")
            check(plain.inputs != other.inputs,
                  f"{name}: two seeds gave the same inputs")

            spans = {s["name"] for s in traced.spans.spans}
            if name == "serve-hotkey":
                check("ExactRBC.query" not in spans,
                      "serve-hotkey called ExactRBC.query")
                check("ProximityCache.lookup" in spans and "merge_topk" in spans,
                      "serve-hotkey shows no cache or shard spans")
            else:
                check(not spans & set(SERVE_ONLY),
                      f"{name} shows serving spans {sorted(spans & set(SERVE_ONLY))}")
                check("ExactRBC.query" in spans, f"{name} never called ExactRBC.query")
            writes = {"ExactRBC.insert", "ExactRBC.delete"}
            if name == "churn":
                check(writes <= spans, "churn shows no inserts or deletes")
            else:
                check(not spans & writes, f"{name} wrote to the index")
            print(f"selftest {name}: ok ({len(traced.spans.spans)} spans)")
    finally:
        executor_pool.shutdown()

    # planted wrong rows are counted
    X, H = make_inputs(0, TINY)
    Q = H[:8]
    D = ((X[None, :, :] - Q[:, None, :]) ** 2).sum(axis=2)
    idx = np.argsort(D, axis=1)[:, :3]
    dist = np.sqrt(np.take_along_axis(D, idx, axis=1))
    want = knn_oracle(Q, X, 3)
    out = Outcome()
    out.tally(check_rows(Q, dist, idx, want, X))
    check(out.failed == 0, "a correct answer failed the oracle check")
    far = idx.copy()
    far[5, 0] = int(np.argmax(D[5]))
    out.tally(check_rows(Q, dist, far, want, X))
    check(out.failed == 1 and out.attempted == 16,
          f"planted wrong row: {out.failed} of {out.attempted} rows counted")
    # a near miss: the 4th neighbour served as the 3rd, with its own distance
    near, near_d = idx.copy(), dist.copy()
    fourth = int(np.argsort(D[2])[3])
    near[2, 2], near_d[2, 2] = fourth, np.sqrt(D[2, fourth])
    out.tally(check_rows(Q, near_d, near, want, X))
    check(out.failed == 2 and out.attempted == 24,
          f"planted near miss: {out.failed} of {out.attempted} rows counted")
    print("selftest oracle: planted wrong rows counted (error_rate 2/24)")
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
