"""kd-tree baseline.

The paper notes that "in very low-dimensional spaces, basic data structures
like kd-trees are extremely effective, hence the challenging cases are data
that is somewhat higher dimensional" (§7.1).  This implementation exists to
exhibit exactly that regime boundary in the benchmarks: it wins in 2-4
dimensions and degrades toward brute force as dimensionality grows.

Supports the Minkowski family (``l1``, ``l2``, ``linf``) where the
axis-aligned splitting-plane bound is valid: the distance from a query to
any point beyond the plane is at least the coordinate gap.
"""

from __future__ import annotations

import heapq

import numpy as np

from ..metrics import Chebyshev, Euclidean, Manhattan, get_metric
from ..metrics.base import Metric
from ..runtime.context import ExecContext
from ..simulator.trace import NULL_RECORDER, Op, TraceRecorder
from .base import Capabilities, Index

__all__ = ["KDTree"]

_SUPPORTED = (Euclidean, Manhattan, Chebyshev)

#: approximate per-node Python object overhead charged by memory_footprint
_NODE_BYTES = 64


class _Split:
    __slots__ = ("axis", "threshold", "left", "right")

    def __init__(self, axis: int, threshold: float, left, right) -> None:
        self.axis = axis
        self.threshold = threshold
        self.left = left
        self.right = right


class _Leaf:
    __slots__ = ("ids",)

    def __init__(self, ids: np.ndarray) -> None:
        self.ids = ids


class KDTree(Index):
    """Median-split kd-tree with branch-and-bound k-NN queries."""

    CAPS = Capabilities(
        exact=True,
        rescorable=True,
    )

    def __init__(
        self, metric: str | Metric = "euclidean", *, leaf_size: int = 32
    ) -> None:
        self.metric = get_metric(metric)
        if not isinstance(self.metric, _SUPPORTED):
            raise ValueError(
                "kd-tree pruning is only valid for l1/l2/linf metrics, got "
                f"{self.metric.name}"
            )
        if leaf_size < 1:
            raise ValueError("leaf_size must be >= 1")
        self.leaf_size = leaf_size
        self.root = None
        self.X: np.ndarray | None = None

    def build(
        self,
        X,
        *,
        ctx: ExecContext | None = None,
    ) -> "KDTree":
        recorder = NULL_RECORDER if ctx is None else ctx.recorder
        X = np.ascontiguousarray(np.atleast_2d(np.asarray(X, dtype=np.float64)))
        if X.shape[0] == 0:
            raise ValueError("database is empty")
        self.X = X
        with recorder.phase("kdtree:build"):
            self.root = self._build(np.arange(X.shape[0], dtype=np.int64), 0)
        return self

    def _build(self, ids: np.ndarray, depth: int):
        if ids.size <= self.leaf_size:
            return _Leaf(ids)
        pts = self.X[ids]
        # split the axis of largest spread at its median
        spread = pts.max(axis=0) - pts.min(axis=0)
        axis = int(np.argmax(spread))
        if spread[axis] == 0.0:  # all points identical: no useful split
            return _Leaf(ids)
        order = np.argsort(pts[:, axis], kind="stable")
        half = ids.size // 2
        threshold = float(pts[order[half], axis])
        left, right = ids[order[:half]], ids[order[half:]]
        return _Split(
            axis,
            threshold,
            self._build(left, depth + 1),
            self._build(right, depth + 1),
        )

    # -------------------------------------------------------------- query
    def query(
        self,
        Q,
        k: int = 1,
        *,
        ctx: ExecContext | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        if self.root is None:
            raise RuntimeError("call build(X) first")
        if k < 1:
            raise ValueError("k must be >= 1")
        recorder = NULL_RECORDER if ctx is None else ctx.recorder
        Q = np.atleast_2d(np.asarray(Q, dtype=np.float64))
        m = Q.shape[0]
        out_d = np.full((m, k), np.inf)
        out_i = np.full((m, k), -1, dtype=np.int64)
        with recorder.phase("kdtree:query"):
            for i in range(m):
                d, idx = self._query_one(Q[i : i + 1], k, recorder, chain=i)
                out_d[i, : d.size] = d
                out_i[i, : idx.size] = idx
        return out_d, out_i

    def _axis_gap_distance(self, gaps: list[tuple[int, float]]) -> float:
        """Lower bound on the metric distance given per-axis gaps to a cell."""
        if not gaps:
            return 0.0
        vals = [abs(g) for _, g in gaps]
        if isinstance(self.metric, Manhattan):
            return float(sum(vals))
        if isinstance(self.metric, Chebyshev):
            return float(max(vals))
        return float(np.sqrt(np.sum(np.square(vals))))

    def _query_one(self, q: np.ndarray, k: int, recorder: TraceRecorder, chain: int = 0):
        dim = self.X.shape[1]
        best: list[tuple[float, int]] = []  # max-heap via negatives

        def kth() -> float:
            return -best[0][0] if len(best) == k else np.inf

        # frontier of (lower_bound, tiebreak, node, per-axis gap dict)
        frontier = [(0.0, 0, self.root, {})]
        tiebreak = 1
        while frontier and frontier[0][0] < kth():
            _, _, node, gaps = heapq.heappop(frontier)
            if isinstance(node, _Leaf):
                D = self.metric.pairwise(q, self.X[node.ids])[0]
                recorder.record(
                    Op(
                        kind="branchy",
                        flops=node.ids.size * self.metric.flops_per_eval(dim),
                        bytes=8.0 * node.ids.size * dim,
                        vectorizable=False,
                        divergence=1.0,
                        tag="kdtree:leaf",
                        chain=chain,
                    )
                )
                for d, pid in zip(D, node.ids):
                    d = float(d)
                    if d < kth():
                        if len(best) == k:
                            heapq.heapreplace(best, (-d, int(pid)))
                        else:
                            heapq.heappush(best, (-d, int(pid)))
                continue
            qa = float(q[0, node.axis])
            near, far = (
                (node.left, node.right)
                if qa < node.threshold
                else (node.right, node.left)
            )
            # the near cell inherits the current bound; the far cell's gap
            # on this axis becomes |qa - threshold|
            heapq.heappush(
                frontier, (self._axis_gap_distance(list(gaps.items())), tiebreak, near, gaps)
            )
            tiebreak += 1
            far_gaps = dict(gaps)
            far_gaps[node.axis] = max(
                abs(qa - node.threshold), abs(far_gaps.get(node.axis, 0.0))
            )
            lb = self._axis_gap_distance(list(far_gaps.items()))
            if lb < kth():
                heapq.heappush(frontier, (lb, tiebreak, far, far_gaps))
                tiebreak += 1

        pairs = sorted((-nd, pid) for nd, pid in best)
        d = np.array([p[0] for p in pairs])
        idx = np.array([p[1] for p in pairs], dtype=np.int64)
        return d, idx

    def depth(self) -> int:
        """Maximum tree depth (diagnostics)."""

        def go(node) -> int:
            if isinstance(node, _Leaf):
                return 1
            return 1 + max(go(node.left), go(node.right))

        return go(self.root) if self.root is not None else 0

    def memory_footprint(self) -> int:
        """Bytes for the tree: leaf id arrays plus per-node object
        overhead (axis/threshold/child slots, ~``_NODE_BYTES`` each)."""
        if self.root is None:
            raise RuntimeError("call build(X) first")
        total = 0

        def go(node) -> None:
            nonlocal total
            if isinstance(node, _Leaf):
                total += node.ids.nbytes + _NODE_BYTES
                return
            total += _NODE_BYTES
            go(node.left)
            go(node.right)

        go(self.root)
        return int(total)
