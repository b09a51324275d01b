"""GNAT baseline (Brin, VLDB 1995).

Paper §2 calls out the GNAT as one of the two most relevant prior methods:
"The GNAT uses a simple space decomposition based on representatives from
the database, much as we do" — but with heuristic (not provable) intrinsic-
dimension behaviour and no parallel story.  Implementing it makes the
comparison concrete: like the RBC it picks split points and assigns each
point to its nearest one; unlike the RBC it recurses, and it prunes with
per-child *range tables* instead of a single radius.

Structure: each node holds ``m`` split points; every point of the node is
assigned to its nearest split point; for every ordered pair ``(i, j)`` the
node stores ``[min, max]`` of ``rho(p_i, x)`` over ``x`` in child ``j``.
Query pruning: child ``j`` can be discarded once some evaluated split
point ``p_i`` has ``rho(q, p_i) + r  <  min_ij`` or
``rho(q, p_i) - r > max_ij`` (no point of child ``j`` can lie within the
current search radius ``r``).
"""

from __future__ import annotations

import heapq

import numpy as np

from ..metrics import get_metric
from ..metrics.base import Metric
from ..runtime.context import ExecContext
from ..simulator.trace import NULL_RECORDER, Op, TraceRecorder
from .base import Capabilities, Index

__all__ = ["GNAT"]


class _Node:
    __slots__ = ("split_ids", "children", "ranges", "leaf_ids")

    def __init__(self) -> None:
        self.split_ids: np.ndarray | None = None  # (m,) global ids
        self.children: list["_Node"] = []
        #: ranges[i, j] = (min, max) of rho(split_i, x) over child j
        self.ranges: np.ndarray | None = None  # (m, m, 2)
        self.leaf_ids: np.ndarray | None = None


class GNAT(Index):
    """Geometric Near-neighbor Access Tree with exact k-NN queries."""

    CAPS = Capabilities(
        exact=True,
        rescorable=True,
    )

    def __init__(
        self,
        metric: str | Metric = "euclidean",
        *,
        arity: int = 8,
        leaf_size: int = 32,
        seed: int = 0,
    ) -> None:
        self.metric = get_metric(metric)
        if not getattr(self.metric, "is_true_metric", True):
            raise ValueError("GNAT pruning requires a true metric")
        if arity < 2:
            raise ValueError("arity must be >= 2")
        if leaf_size < 1:
            raise ValueError("leaf_size must be >= 1")
        self.arity = arity
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
    ) -> "GNAT":
        recorder = NULL_RECORDER if ctx is None else ctx.recorder
        self.X = X
        n = self.metric.length(X)
        if n == 0:
            raise ValueError("database is empty")
        evals0 = self.metric.counter.n_evals
        with recorder.phase("gnat:build"):
            self.root = self._build(np.arange(n, dtype=np.int64))
            recorder.record(
                Op(
                    kind="branchy",
                    flops=(self.metric.counter.n_evals - evals0)
                    * self.metric.flops_per_eval(self.metric.dim(X)),
                    bytes=8.0 * n * self.metric.dim(X),
                    vectorizable=False,
                    divergence=1.0,
                    tag="gnat:build",
                    chain=0,
                )
            )
        return self

    def _pick_splits(self, ids: np.ndarray, m: int) -> np.ndarray:
        """Greedy far-apart split points (Brin's heuristic): start from a
        random point, repeatedly add the point maximizing the minimum
        distance to the chosen set."""
        first = int(ids[self.rng.integers(ids.size)])
        chosen = [first]
        min_d = self.metric.pairwise(
            self.metric.take(self.X, [first]), self.metric.take(self.X, ids)
        )[0]
        while len(chosen) < m:
            nxt = int(ids[int(np.argmax(min_d))])
            if min_d.max() == 0.0:
                break  # all remaining points coincide with a split
            chosen.append(nxt)
            d = self.metric.pairwise(
                self.metric.take(self.X, [nxt]), self.metric.take(self.X, ids)
            )[0]
            np.minimum(min_d, d, out=min_d)
        return np.asarray(chosen, dtype=np.int64)

    def _build(self, ids: np.ndarray) -> _Node:
        node = _Node()
        if ids.size <= max(self.leaf_size, self.arity):
            node.leaf_ids = ids
            return node
        splits = self._pick_splits(ids, self.arity)
        m = splits.size
        if m < 2:
            node.leaf_ids = ids
            return node
        node.split_ids = splits
        rest = ids[~np.isin(ids, splits)]
        D = self.metric.pairwise(
            self.metric.take(self.X, splits), self.metric.take(self.X, rest)
        )  # (m, rest)
        owner = D.argmin(axis=0)
        node.ranges = np.empty((m, m, 2))
        node.ranges[:, :, 0] = np.inf
        node.ranges[:, :, 1] = 0.0
        members: list[np.ndarray] = []
        for j in range(m):
            sel = owner == j
            members.append(rest[sel])
            for i in range(m):
                if sel.any():
                    dij = D[i, sel]
                    node.ranges[i, j, 0] = dij.min()
                    node.ranges[i, j, 1] = dij.max()
                # the split point of child j belongs to the child region
                d_split = self.metric.pairwise(
                    self.metric.take(self.X, [splits[i]]),
                    self.metric.take(self.X, [splits[j]]),
                )[0, 0]
                node.ranges[i, j, 0] = min(node.ranges[i, j, 0], d_split)
                node.ranges[i, j, 1] = max(node.ranges[i, j, 1], d_split)
        node.children = [
            self._build(np.concatenate([[splits[j]], members[j]]))
            for j in range(m)
        ]
        return node

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
        with recorder.phase("gnat:query"):
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

        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.leaf_ids is not None:
                if node.leaf_ids.size == 0:
                    continue
                D = self.metric.pairwise(
                    q, self.metric.take(self.X, node.leaf_ids)
                )[0]
                recorder.record(
                    Op(
                        kind="branchy",
                        flops=node.leaf_ids.size
                        * self.metric.flops_per_eval(dim),
                        bytes=8.0 * node.leaf_ids.size * dim,
                        vectorizable=False,
                        divergence=1.0,
                        tag="gnat:leaf",
                        chain=chain,
                    )
                )
                for d, pid in zip(D, node.leaf_ids):
                    offer(float(d), int(pid))
                continue
            splits = node.split_ids
            d_split = self.metric.pairwise(
                q, self.metric.take(self.X, splits)
            )[0]
            recorder.record(
                Op(
                    kind="branchy",
                    flops=splits.size * self.metric.flops_per_eval(dim),
                    bytes=8.0 * splits.size * dim,
                    vectorizable=False,
                    divergence=1.0,
                    tag="gnat:node",
                    chain=chain,
                )
            )
            for i, pid in enumerate(splits):
                offer(float(d_split[i]), int(pid))
            # range-table pruning: child j survives only if, for every
            # split i, [rho(q,p_i) - r, rho(q,p_i) + r] intersects range_ij
            r = kth()
            alive = np.ones(splits.size, dtype=bool)
            for i in range(splits.size):
                lo = node.ranges[i, :, 0]
                hi = node.ranges[i, :, 1]
                alive &= (d_split[i] - r <= hi) & (d_split[i] + r >= lo)
            # visit nearer children first (better bound tightening)
            order = np.argsort(d_split)
            for j in order[::-1]:  # stack: push far ones first
                if alive[j]:
                    stack.append(node.children[j])

        pairs = sorted((-nd, pid) for nd, pid in best)
        return (
            np.array([p[0] for p in pairs]),
            np.array([p[1] for p in pairs], dtype=np.int64),
        )

    def depth(self) -> int:
        """Maximum node depth (diagnostics)."""

        def go(node) -> int:
            if not node.children:
                return 1
            return 1 + max(go(c) for c in node.children)

        return go(self.root) if self.root is not None else 0

    def memory_footprint(self) -> int:
        """Bytes for the tree: split ids, the per-node range tables
        (the dominant term), leaf id arrays, and per-node overhead."""
        if self.root is None:
            raise RuntimeError("call build(X) first")
        total = 0

        def go(node: _Node) -> None:
            nonlocal total
            total += 64
            if node.split_ids is not None:
                total += node.split_ids.nbytes
            if node.ranges is not None:
                total += node.ranges.nbytes
            if node.leaf_ids is not None:
                total += node.leaf_ids.nbytes
            for child in node.children:
                go(child)

        go(self.root)
        return int(total)
