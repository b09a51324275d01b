"""Brute-force search as an index-shaped baseline.

This is the comparator for every speedup figure in the paper: on manycore
hardware brute force is "already quite fast because of the raw
computational power" (§7.2), so beating it is the meaningful test.  The
class simply wraps the brute-force primitive behind the same
``build``/``query`` interface as the RBC structures and the tree baselines,
so harness code treats all indexes uniformly.
"""

from __future__ import annotations

import numpy as np

from ..metrics import get_metric
from ..metrics.base import Metric
from ..parallel.bruteforce import bf_knn, bf_range
from ..runtime.context import ExecContext
from .base import Capabilities, Index

__all__ = ["BruteForceIndex"]


class BruteForceIndex(Index):
    """Exhaustive k-NN: one ``BF(Q, X)`` call per query batch."""

    CAPS = Capabilities(
        exact=True,
        range_queries=True,
        mutable=False,
        rescorable=True,
    )

    def __init__(
        self,
        metric: str | Metric = "euclidean",
    ) -> None:
        self.metric = get_metric(metric)
        self.X = None
        self.n = 0

    def build(
        self,
        X,
        *,
        ctx: ExecContext | None = None,
    ):
        """Store the database (no preprocessing)."""
        self.X = X
        self.n = self.metric.length(X)
        return self

    def query(
        self,
        Q,
        k: int = 1,
        *,
        ctx: ExecContext | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """``ctx`` reaches :func:`~repro.parallel.bruteforce.bf_knn` as is;
        benchmarks set the parallel grain the machine models schedule with
        its ``tile_cols``/``row_chunk``."""
        if self.X is None:
            raise RuntimeError("call build(X) first")
        return bf_knn(Q, self.X, self.metric, k=k, ctx=ctx)

    def range_query(
        self,
        Q,
        eps: float,
        *,
        ctx: ExecContext | None = None,
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        if self.X is None:
            raise RuntimeError("call build(X) first")
        return bf_range(
            Q, self.X, eps, self.metric, ctx=ctx
        )

    def memory_footprint(self) -> int:
        """Brute force stores nothing beyond the caller's database; the
        accounted bytes are the stored reference's payload (so the metrics
        registry can still compare resident set across backends)."""
        if self.X is None:
            raise RuntimeError("call build(X) first")
        if isinstance(self.X, np.ndarray):
            return int(self.X.nbytes)
        import sys

        return int(sum(sys.getsizeof(x) for x in self.X))
