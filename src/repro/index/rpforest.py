"""Random projection forest with exact candidate re-ranking.

*K-nearest Neighbor Search by Random Projection Forests* (PAPERS.md):
each tree recursively splits the data at the median of a random
projection; a query descends every tree, the candidate buffers of the
leaves it lands in are unioned across trees, and the union is re-ranked
exactly.  Recall grows with the number of trees while the re-rank cost
stays ``O(n_trees * leaf_size)`` per query.

The implementation is batched end to end: queries descend each tree as
index *groups* (one projection per node applied to the whole group at
once), candidate buffers are packed into one padded ``(m, width)`` id
block, and the final re-rank is a single
:func:`~repro.metrics.engine.refine_topk` call — the same exact float64
re-rank kernel the quantized RBC tier uses — followed by
:func:`~repro.parallel.reduce.dedupe_rows` to drop cross-tree duplicates.

Approximate by design (``capabilities().exact`` is ``False``): reported
distances are exact for the returned ids, but an id can be missed when no
tree routes the query to its leaf.
"""

from __future__ import annotations

import numpy as np

from ..core.stats import SearchStats
from ..metrics import get_metric
from ..metrics.base import VectorMetric
from ..metrics.engine import refine_topk
from ..parallel.bruteforce import _record_dist_tile
from ..parallel.reduce import EMPTY_IDX, dedupe_rows
from ..runtime.context import ExecContext
from ..simulator.trace import NULL_RECORDER
from .protocol import Capabilities, Index

__all__ = ["RPForest"]


class _Node:
    __slots__ = ("direction", "threshold", "left", "right", "ids")

    def __init__(self) -> None:
        self.direction: np.ndarray | None = None
        self.threshold: float = 0.0
        self.left: "_Node | None" = None
        self.right: "_Node | None" = None
        self.ids: np.ndarray | None = None  # leaf only


class RPForest(Index):
    """Forest of random-projection median-split trees."""

    CAPS = Capabilities(
        exact=False,
        range_queries=False,
        mutable=False,
        quantizable=False,
        rescorable=True,
        warmable=False,
        degradable=False,
    )

    def __init__(
        self,
        metric: str | VectorMetric = "euclidean",
        *,
        n_trees: int = 8,
        leaf_size: int = 64,
        seed: int = 0,
    ) -> None:
        self.metric = get_metric(metric)
        if not isinstance(self.metric, VectorMetric):
            raise ValueError(
                "RPForest projects raw coordinates; it requires a vector "
                f"metric, got {type(self.metric).__name__}"
            )
        if n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if leaf_size < 1:
            raise ValueError("leaf_size must be >= 1")
        self.n_trees = int(n_trees)
        self.leaf_size = int(leaf_size)
        self.seed = int(seed)
        self.X: np.ndarray | None = None
        self.n = 0
        self.trees: list[_Node] = []
        self._n_nodes = 0
        self.last_stats: SearchStats | None = None

    # ------------------------------------------------------------ build

    def build(
        self,
        X,
        *,
        ctx: ExecContext | None = None,
    ) -> "RPForest":
        recorder = NULL_RECORDER if ctx is None else ctx.recorder
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[0] == 0:
            raise ValueError("X must be a non-empty (n, d) matrix")
        self.X = X
        self.n = X.shape[0]
        self.trees = []
        self._n_nodes = 0
        rng = np.random.default_rng(self.seed)
        with recorder.phase("rpforest:build"):
            for _ in range(self.n_trees):
                self.trees.append(self._grow(np.arange(self.n), rng))
        return self

    def _grow(self, ids: np.ndarray, rng: np.random.Generator) -> _Node:
        node = _Node()
        self._n_nodes += 1
        if ids.size <= self.leaf_size:
            node.ids = ids
            return node
        d = self.X.shape[1]
        direction = rng.normal(size=d)
        direction /= np.linalg.norm(direction)
        proj = self.X[ids] @ direction
        thr = float(np.median(proj))
        left = proj <= thr
        # degenerate split (mass concentrated at the median): stop here
        if left.all() or not left.any():
            node.ids = ids
            return node
        node.direction = direction
        node.threshold = thr
        node.left = self._grow(ids[left], rng)
        node.right = self._grow(ids[~left], rng)
        return node

    def _require_built(self) -> None:
        if self.X is None:
            raise RuntimeError("call build(X) first")

    # ------------------------------------------------------------ query

    def _route(self, root: _Node, Qb: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Descend the whole query block through one tree.

        Returns ``(query_rows, leaf_ids)`` pairs — every query in
        ``query_rows`` reached the leaf holding ``leaf_ids``.
        """
        out: list[tuple[np.ndarray, np.ndarray]] = []
        stack: list[tuple[_Node, np.ndarray]] = [(root, np.arange(Qb.shape[0]))]
        while stack:
            node, rows = stack.pop()
            if rows.size == 0:
                continue
            if node.ids is not None:
                out.append((rows, node.ids))
                continue
            proj = Qb[rows] @ node.direction
            left = proj <= node.threshold
            stack.append((node.left, rows[left]))
            stack.append((node.right, rows[~left]))
        return out

    def query(
        self,
        Q,
        k: int = 1,
        *,
        ctx: ExecContext | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        self._require_built()
        if k < 1:
            raise ValueError("k must be >= 1")
        recorder = NULL_RECORDER if ctx is None else ctx.recorder
        Qb = np.atleast_2d(np.asarray(Q, dtype=np.float64))
        m = Qb.shape[0]
        if m == 0:
            self.last_stats = SearchStats()
            return np.full((0, k), np.inf), np.full((0, k), EMPTY_IDX, dtype=np.int64)
        with recorder.phase("rpforest:route"):
            parts: list[tuple[np.ndarray, np.ndarray]] = []
            for root in self.trees:
                parts.extend(self._route(root, Qb))
            counts = np.zeros(m, dtype=np.int64)
            for rows, leaf in parts:
                counts[rows] += leaf.size
            width = int(counts.max())
            cand = np.full((m, width), EMPTY_IDX, dtype=np.int64)
            fill = np.zeros(m, dtype=np.int64)
            for rows, leaf in parts:
                pos = fill[rows]
                cand[rows[:, None], pos[:, None] + np.arange(leaf.size)] = leaf
                fill[rows] += leaf.size
        with recorder.phase("rpforest:refine"):
            d, i = refine_topk(self.metric, Qb, self.X, cand, width)
            d, i = dedupe_rows(d, i, k)
            _record_dist_tile(
                recorder, self.metric, m, width, Qb.shape[1], "rpforest:refine"
            )
        # routing is projection-only (no metric evals); all metric work is
        # the exact re-rank, accounted as stage-2 candidate examination
        self.last_stats = SearchStats(
            n_queries=m,
            stage2_evals=int(counts.sum()),
            candidates_examined=int(counts.sum()),
        )
        return d, i

    # ------------------------------------------------------------ misc

    def memory_footprint(self) -> int:
        """Bytes for the forest structure: leaf id buffers (one copy of
        each id per tree) plus per-internal-node split planes."""
        self._require_built()
        d = self.X.shape[1]
        # every tree partitions all n ids across its leaves
        leaf_bytes = self.n_trees * self.n * 8
        node_bytes = self._n_nodes * (d * 8 + 8 + 2 * 8)
        return int(leaf_bytes + node_bytes)

    def depth(self) -> int:
        self._require_built()

        def go(node: _Node) -> int:
            if node.ids is not None:
                return 1
            return 1 + max(go(node.left), go(node.right))

        return max(go(root) for root in self.trees)

