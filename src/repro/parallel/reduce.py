"""Parallel-reduce building blocks for the comparison step of ``BF``.

The second step of the brute-force primitive compares distances and keeps
the nearest element(s); the paper plugs it into "the standard parallel-
reduce paradigm where comparisons are made according to an inverted binary
tree" (§3).  :func:`tree_reduce` implements exactly that shape — pairwise
merge rounds, each round's merges independent — and :func:`merge_topk` is
the associative merge operation on ``(distances, indices)`` candidate sets.

Candidate sets are padded with ``+inf`` distance / ``-1`` index so that
merging lists of uneven length is total; padding never displaces a real
candidate because real distances are finite.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import TypeVar

import numpy as np

__all__ = [
    "tree_reduce",
    "merge_topk",
    "topk_of_block",
    "merge_group_topk",
    "dedupe_rows",
    "EMPTY_IDX",
]

T = TypeVar("T")

#: index used for padding slots that hold no candidate
EMPTY_IDX = -1


def tree_reduce(
    items: Sequence[T],
    merge: Callable[[T, T], T],
    *,
    executor=None,
) -> T:
    """Reduce ``items`` with an inverted binary tree of ``merge`` calls.

    With an executor, each round's merges are submitted concurrently; the
    number of rounds is ``ceil(log2(len(items)))``.  ``merge`` must be
    associative (commutativity is not required: operand order is preserved).
    """
    if len(items) == 0:
        raise ValueError("cannot reduce zero items")
    level = list(items)
    while len(level) > 1:
        pairs = [(level[i], level[i + 1]) for i in range(0, len(level) - 1, 2)]
        carry = [level[-1]] if len(level) % 2 else []
        if executor is not None and len(pairs) > 1:
            merged = list(executor.map(lambda ab: merge(ab[0], ab[1]), pairs))
        else:
            merged = [merge(a, b) for a, b in pairs]
        level = merged + carry
    return level[0]


def topk_of_block(
    D: np.ndarray, k: int, col_offset: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row k smallest entries of a distance block.

    Returns ``(dist, idx)`` of shape ``(m, k)``, sorted ascending per row,
    padded with ``inf``/``EMPTY_IDX`` when the block has fewer than ``k``
    columns.  ``col_offset`` shifts returned indices into the caller's
    global column numbering.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    m, n = D.shape
    kk = min(k, n)
    if kk < n:
        part = np.argpartition(D, kk - 1, axis=1)[:, :kk]
    else:
        part = np.broadcast_to(np.arange(n), (m, n)).copy()
    pd = np.take_along_axis(D, part, axis=1)
    order = np.argsort(pd, axis=1, kind="stable")
    idx = np.take_along_axis(part, order, axis=1) + col_offset
    dist = np.take_along_axis(pd, order, axis=1)
    if kk < k:
        dist = np.pad(dist, ((0, 0), (0, k - kk)), constant_values=np.inf)
        idx = np.pad(idx, ((0, 0), (0, k - kk)), constant_values=EMPTY_IDX)
    return dist, idx.astype(np.int64, copy=False)


def merge_topk(
    a: tuple[np.ndarray, np.ndarray], b: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Associative merge of two ``(dist, idx)`` candidate sets.

    Both operands have shape ``(m, k)`` with rows sorted ascending; the
    result keeps the ``k`` overall-smallest per row, sorted.  This is the
    merge node of the inverted binary tree.
    """
    da, ia = a
    db, ib = b
    if da.shape != db.shape:
        raise ValueError(f"shape mismatch {da.shape} vs {db.shape}")
    k = da.shape[1]
    D = np.concatenate([da, db], axis=1)
    ids = np.concatenate([ia, ib], axis=1)
    order = np.argsort(D, axis=1, kind="stable")[:, :k]
    return np.take_along_axis(D, order, axis=1), np.take_along_axis(ids, order, axis=1)


def merge_group_topk(
    best_d: np.ndarray,
    best_i: np.ndarray,
    rows: np.ndarray,
    D: np.ndarray,
    cand_ids: np.ndarray,
    n_valid: np.ndarray | None = None,
) -> None:
    """Fold one group's distance block into the running per-query top-k.

    The grouped-scan step shared by the RBC searches: queries ``rows`` (an
    index array into ``best_d``/``best_i``) were scanned together against
    the candidate set ``cand_ids``, producing the dense block ``D`` of shape
    ``(len(rows), len(cand_ids))``.  The block's per-row top-k is selected,
    mapped to global ids, and merged into ``best_d[rows]``/``best_i[rows]``
    in place (``best_*`` have ``k`` columns; rows stay sorted ascending).

    ``n_valid`` supports ragged groups scanned as one padded block: row
    ``t`` only genuinely owns the first ``n_valid[t]`` columns, and the
    caller must have set the padded entries of ``D`` to ``+inf``.  Selected
    entries beyond a row's valid count are converted to ``inf``/``EMPTY_IDX``
    padding instead of being reported as candidates.
    """
    k = best_d.shape[1]
    d, li = topk_of_block(D, k)
    if n_valid is not None:
        invalid = li >= np.asarray(n_valid)[:, None]
        d = np.where(invalid, np.inf, d)
        li = np.where(invalid, EMPTY_IDX, li)
    gi = np.where(li >= 0, cand_ids[np.clip(li, 0, None)], EMPTY_IDX)
    best_d[rows], best_i[rows] = merge_topk((best_d[rows], best_i[rows]), (d, gi))


def dedupe_rows(
    d: np.ndarray, i: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Drop duplicate indices per sorted candidate row, keeping the nearest.

    Needed when candidate sources overlap (one-shot multi-probe lists,
    hierarchical levels, forest trees); freed slots are refilled with
    ``inf``/``EMPTY_IDX`` padding at the row tail.

    Fully vectorized.  A duplicate is any id already seen
    earlier in its row, so on rows sorted ascending by distance the kept
    copy is the nearest one (and for equal ids the earliest — i.e. the
    tie at the smaller distance — survives, same as the scan order of the
    original per-row loop).
    """
    m, w = d.shape
    out_d = np.full((m, k), np.inf)
    out_i = np.full((m, k), EMPTY_IDX, dtype=i.dtype)
    if w == 0:
        return out_d, out_i
    # a slot is a duplicate iff the same id occurs at an earlier column of
    # its row: stable-sort each row by id, compare neighbors, scatter the
    # verdicts back to the original column positions
    order = np.argsort(i, axis=1, kind="stable")
    si = np.take_along_axis(i, order, axis=1)
    dup_sorted = np.zeros((m, w), dtype=bool)
    dup_sorted[:, 1:] = si[:, 1:] == si[:, :-1]
    dup = np.zeros((m, w), dtype=bool)
    np.put_along_axis(dup, order, dup_sorted, axis=1)
    valid = (i != EMPTY_IDX) & ~dup
    # compact the survivors left: each keeps its rank among its row's
    # survivors as the output column, dropping everything past k
    pos = np.cumsum(valid, axis=1) - 1
    keep = valid & (pos < k)
    r, c = np.nonzero(keep)
    out_d[r, pos[r, c]] = d[r, c]
    out_i[r, pos[r, c]] = i[r, c]
    return out_d, out_i
