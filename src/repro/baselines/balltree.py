"""Metric ball tree baseline (Omohundro 1989 / Yianilos 1993 lineage).

The paper cites metric ball trees as one of the two empirically strongest
classical structures (§2) and uses "metric trees" as the canonical example
of search whose interleaved, conditional structure resists parallelization
(§3).  This implementation works for any true metric — it only ever calls
``rho`` and applies the triangle inequality — so it doubles as the general-
metric tree baseline for the edit-distance and graph-metric scenarios.

Construction partitions each node's points between two far-apart pivots;
each node stores its pivot and covering radius, and queries prune subtrees
with ``d(q, pivot) - radius >= kth_best``.
"""

from __future__ import annotations

import heapq

import numpy as np

from ..metrics import get_metric
from ..metrics.base import Metric
from ..runtime.context import ExecContext
from ..simulator.trace import NULL_RECORDER, Op, TraceRecorder
from .base import Capabilities, Index

__all__ = ["BallTree"]


class _Node:
    __slots__ = ("pivot", "radius", "left", "right", "ids")

    def __init__(self, pivot: int, radius: float, left=None, right=None, ids=None):
        self.pivot = pivot
        self.radius = radius
        self.left = left
        self.right = right
        self.ids = ids  # leaf-only


class BallTree(Index):
    """Two-pivot metric ball tree with best-first exact k-NN queries."""

    CAPS = Capabilities(
        exact=True,
        rescorable=True,
    )

    def __init__(
        self,
        metric: str | Metric = "euclidean",
        *,
        leaf_size: int = 32,
        seed: int = 0,
    ) -> None:
        self.metric = get_metric(metric)
        if not getattr(self.metric, "is_true_metric", True):
            raise ValueError("ball trees require a true metric")
        if leaf_size < 1:
            raise ValueError("leaf_size must be >= 1")
        self.leaf_size = leaf_size
        self.rng = np.random.default_rng(seed)
        self.root: _Node | None = None
        self.X = None

    # -------------------------------------------------------------- build
    def build(
        self,
        X,
        *,
        ctx: ExecContext | None = None,
    ) -> "BallTree":
        recorder = NULL_RECORDER if ctx is None else ctx.recorder
        self.X = X
        n = self.metric.length(X)
        if n == 0:
            raise ValueError("database is empty")
        evals0 = self.metric.counter.n_evals
        with recorder.phase("balltree:build"):
            self.root = self._build(np.arange(n, dtype=np.int64))
            # the recursion's pivot sweeps are data-dependent within a
            # path; recorded as one sequential chain of the measured work
            recorder.record(
                Op(
                    kind="branchy",
                    flops=(self.metric.counter.n_evals - evals0)
                    * self.metric.flops_per_eval(self.metric.dim(X)),
                    bytes=8.0 * n * self.metric.dim(X),
                    vectorizable=False,
                    divergence=1.0,
                    tag="balltree:build",
                    chain=0,
                )
            )
        return self

    def _dists_from(self, pid: int, ids: np.ndarray) -> np.ndarray:
        p = self.metric.take(self.X, [pid])
        return self.metric.pairwise(p, self.metric.take(self.X, ids))[0]

    def _build(self, ids: np.ndarray) -> _Node:
        # pivot = point far from a random seed point (cheap 2-sweep
        # approximation of the diameter pair)
        seed = int(ids[self.rng.integers(ids.size)])
        d_seed = self._dists_from(seed, ids)
        pivot = int(ids[int(np.argmax(d_seed))])
        d_pivot = self._dists_from(pivot, ids)
        radius = float(d_pivot.max())

        if ids.size <= self.leaf_size:
            return _Node(pivot, radius, ids=ids)

        far = int(ids[int(np.argmax(d_pivot))])
        d_far = self._dists_from(far, ids)
        to_left = d_pivot <= d_far
        # degenerate partitions (duplicated points) fall back to a leaf
        if to_left.all() or not to_left.any():
            return _Node(pivot, radius, ids=ids)
        return _Node(
            pivot,
            radius,
            left=self._build(ids[to_left]),
            right=self._build(ids[~to_left]),
        )

    # -------------------------------------------------------------- query
    def query(
        self,
        Q,
        k: int = 1,
        *,
        ctx: ExecContext | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        recorder = NULL_RECORDER if ctx is None else ctx.recorder
        if self.root is None:
            raise RuntimeError("call build(X) first")
        if k < 1:
            raise ValueError("k must be >= 1")
        from ..parallel.bruteforce import _is_batch

        Qb = Q if _is_batch(self.metric, Q) else self.metric._as_batch(Q)
        m = self.metric.length(Qb)
        out_d = np.full((m, k), np.inf)
        out_i = np.full((m, k), -1, dtype=np.int64)
        with recorder.phase("balltree:query"):
            for i in range(m):
                d, idx = self._query_one(
                    self.metric.take(Qb, [i]), k, recorder, chain=i
                )
                out_d[i, : d.size] = d
                out_i[i, : idx.size] = idx
        return out_d, out_i

    def _query_one(self, q, k: int, recorder: TraceRecorder, chain: int = 0):
        dim = self.metric.dim(self.X)
        best: list[tuple[float, int]] = []
        # pivots of internal nodes also appear in a leaf below them, so
        # candidates can be offered twice; a point must occupy one slot
        offered: set[int] = set()

        def kth() -> float:
            return -best[0][0] if len(best) == k else np.inf

        def offer(d: float, pid: int) -> None:
            if d < kth() and pid not in offered:
                offered.add(pid)
                if len(best) == k:
                    heapq.heapreplace(best, (-d, pid))
                else:
                    heapq.heappush(best, (-d, pid))

        d_root = self.metric.pairwise(
            q, self.metric.take(self.X, [self.root.pivot])
        )[0, 0]
        offer(float(d_root), self.root.pivot)
        frontier = [(max(0.0, d_root - self.root.radius), 0, self.root)]
        tiebreak = 1
        while frontier and frontier[0][0] < kth():
            _, _, node = heapq.heappop(frontier)
            if node.ids is not None:
                D = self.metric.pairwise(q, self.metric.take(self.X, node.ids))[0]
                recorder.record(
                    Op(
                        kind="branchy",
                        flops=node.ids.size * self.metric.flops_per_eval(dim),
                        bytes=8.0 * node.ids.size * dim,
                        vectorizable=False,
                        divergence=1.0,
                        tag="balltree:leaf",
                        chain=chain,
                    )
                )
                for d, pid in zip(D, node.ids):
                    offer(float(d), int(pid))
                continue
            for child in (node.left, node.right):
                dc = self.metric.pairwise(
                    q, self.metric.take(self.X, [child.pivot])
                )[0, 0]
                recorder.record(
                    Op(
                        kind="branchy",
                        flops=self.metric.flops_per_eval(dim),
                        bytes=8.0 * dim,
                        vectorizable=False,
                        divergence=1.0,
                        tag="balltree:node",
                        chain=chain,
                    )
                )
                offer(float(dc), child.pivot)
                lb = max(0.0, float(dc) - child.radius)
                if lb < kth():
                    heapq.heappush(frontier, (lb, tiebreak, child))
                    tiebreak += 1

        pairs = sorted((-nd, pid) for nd, pid in best)
        return (
            np.array([p[0] for p in pairs]),
            np.array([p[1] for p in pairs], dtype=np.int64),
        )

    def memory_footprint(self) -> int:
        """Bytes for the tree: leaf id arrays plus per-node overhead
        (pivot id, radius, child slots)."""
        if self.root is None:
            raise RuntimeError("call build(X) first")
        total = 0

        def go(node: _Node) -> None:
            nonlocal total
            total += 64
            if node.ids is not None:
                total += node.ids.nbytes
            if node.left is not None:
                go(node.left)
            if node.right is not None:
                go(node.right)

        go(self.root)
        return int(total)
