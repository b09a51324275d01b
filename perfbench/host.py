"""Host fingerprint and the thread-budget check.

:func:`configure_threads` must run before numpy is imported: it pins the
BLAS thread count through the environment so that executor workers times
BLAS threads stays within the CPUs this process may use.
"""

from __future__ import annotations

import os
import platform
import sys
import time
from pathlib import Path

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def thread_budget(blas: int, cpus: int) -> int:
    """Executor workers for ``blas`` BLAS threads on ``cpus`` CPUs; raises
    ``SystemExit`` when even one worker would oversubscribe the host."""
    workers = max(1, cpus // max(blas, 1))
    if blas < 1 or workers * blas > cpus:
        raise SystemExit(
            f"executor workers ({workers}) x BLAS threads ({blas}) exceeds "
            f"nproc ({cpus}); lower OPENBLAS_NUM_THREADS"
        )
    return workers


def configure_threads() -> tuple[int, int]:
    """Pin BLAS threads (an already-set ``OPENBLAS_NUM_THREADS`` is kept,
    else 1) and return ``(executor workers, BLAS threads)``."""
    blas = int(os.environ.get("OPENBLAS_NUM_THREADS", "1"))
    for var in BLAS_ENV:
        os.environ[var] = str(blas)
    return thread_budget(blas, nproc()), blas


#: median :func:`calibrate` time on the 2-core reference host (seconds)
CALIBRATION_REF_S = 0.020


def calibrate() -> float:
    """Seconds this host takes for a fixed, program-independent mix of a
    small GEMM, a partition and small-array numpy calls in a Python loop.

    The host's speed drifts in phases (up to 2x, lasting seconds to
    minutes).  Timing this loop next to each unit of measured work and
    scaling the work's time by ``CALIBRATION_REF_S / calibrate()`` reports
    it at the reference host speed."""
    import numpy as np

    rng = np.random.default_rng(0)
    a, b = rng.random((64, 21)), rng.random((2000, 21))
    small = [rng.random(50) for _ in range(20)]
    t0 = time.perf_counter()
    for _ in range(20):
        np.argpartition(a @ b.T, 3, axis=1)
        for v in small:
            v.sum()
            np.sort(v)
            v[v > 0.5]
    return time.perf_counter() - t0


def _blas_info() -> tuple[str, int | None]:
    """BLAS library name/version and its live thread count (when the
    library exposes a getter)."""
    import ctypes

    import numpy as np

    cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    name = f"{cfg.get('name')} {cfg.get('version')}"
    threads = None
    libdir = cfg.get("lib directory")
    if libdir and Path(libdir).is_dir():
        for lib in sorted(Path(libdir).glob("lib*openblas*.so*")):
            try:
                handle = ctypes.CDLL(str(lib))
            except OSError:
                continue
            for sym in (
                "scipy_openblas_get_num_threads64_",
                "openblas_get_num_threads64_",
                "openblas_get_num_threads",
            ):
                getter = getattr(handle, sym, None)
                if getter is not None:
                    getter.restype = ctypes.c_int
                    getter.argtypes = []
                    threads = int(getter())
                    break
            if threads is not None:
                break
    return name, threads


def _git_commit(root: Path) -> str | None:
    """Commit of the checkout, read from ``.git`` without running git
    (a checkout exported without ``.git`` reports ``None``)."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def fingerprint(root: Path, workers: int, blas_threads: int) -> dict:
    import numpy as np

    blas, live_threads = _blas_info()
    return {
        "nproc": nproc(),
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": live_threads if live_threads is not None else blas_threads,
        "executor": "threads",
        "executor_workers": workers,
        "REPRO_KERNEL_BACKEND": os.environ.get("REPRO_KERNEL_BACKEND", "unset"),
        "calibration_ms": round(float(np.median([calibrate() for _ in range(5)])) * 1e3, 3),
        "calibration_ref_ms": CALIBRATION_REF_S * 1e3,
        "git_commit": _git_commit(root),
    }
