"""Repository benchmark: one command, three workloads, oracle-checked.

Usage (from the repository root)::

    python3 perfbench/run.py --workload batch-1nn --seed 0 --seconds 20 --trace 0

``--workload`` is ``batch-1nn``, ``serve-hotkey``, ``churn`` or ``all``.
With ``--trace 0`` the last stdout line carries the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` the per-layer metrics of a separate
traced run, whose spans are written to ``.perfbench_out/``.  Every line
before it names one metric with its unit, sample count and the oracle
result.  The program is imported from ``src/`` of the same checkout; the
command fails (exit 2, no result line) where there is none.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 0
WORKLOAD_NAMES = ("batch-1nn", "serve-hotkey", "churn")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds < 1:
        print("--seconds must be >= 1", file=sys.stderr)
        return 2
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {src / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    from host import configure_threads, fingerprint

    workers, blas = configure_threads()  # before numpy loads

    from layers import END_TO_END, PER_LAYER
    from repro import ExecContext
    from repro.parallel.pool import executor_pool
    from workloads import FULL, WORKLOADS

    host = fingerprint(ROOT, workers, blas)
    print("host " + json.dumps(host, sort_keys=True))
    print(f"seed {args.seed} (default {DEFAULT_SEED})")
    ctx = ExecContext(executor="threads", n_workers=workers)
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    units = PER_LAYER if args.trace else END_TO_END
    attempted = failed = 0
    metrics = {}
    try:
        for name in names:
            out = WORKLOADS[name](args.seed, args.seconds, FULL, ctx, bool(args.trace))
            attempted += out.attempted
            failed += out.failed
            oracle = f"oracle {out.attempted - out.failed}/{out.attempted} rows ok"
            print(f"{name} inputs {out.inputs}")
            for err in out.errors:
                print(f"{name} error {err}")
            for metric, value, unit, n in out.lines:
                print(f"{name} {metric} {value:.6g} {unit} n={n} {oracle}")
            for metric, value in out.metrics.items():
                print(f"{name} metric {metric} {value:.6g} {units[metric]}")
            if out.spans is not None:
                path = ROOT / ".perfbench_out" / f"spans-{name}-seed{args.seed}.jsonl"
                out.spans.save(path)
                print(f"{name} spans {len(out.spans.spans)} -> {path.relative_to(ROOT)}")
            metrics = out.metrics
    finally:
        executor_pool.shutdown()
    if args.workload == "all":
        # the one-line result describes a single workload
        return 0 if failed == 0 else 1
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
