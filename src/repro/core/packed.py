"""Packed CSR-style storage for the RBC ownership lists.

The seed implementation stored each representative's list as a separate
``np.ndarray`` in a Python list.  Stage-2 kernels read *prefixes* of these
lists on every query batch, so the layout matters: packed storage keeps all
ids (and the aligned distances-to-representative) in two concatenated
arrays with an offset table, making every per-representative read a
contiguous slice — no pointer chasing, no per-list allocation, and a
natural backing layout for the pre-gathered candidate matrix the kernel
engine builds on top (one ``(total, d)`` block whose row ``t`` is the
database point ``ids[t]``).

Dynamic updates are supported in place: each list segment carries slack
capacity (grown geometrically, like the database append buffer), so
inserts shift only within a segment until it fills.  Mutators return
whether the *backing layout* changed, which callers use to invalidate
derived caches.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

__all__ = ["PackedLists"]


class PackedLists:
    """Concatenated ownership lists: ids + distances + offsets.

    List ``j`` occupies rows ``starts[j] : starts[j] + lengths[j]`` of the
    backing arrays; its *capacity* is ``starts[j+1] - starts[j]`` (slack
    lives at the segment tail).  Fresh builds are packed tight; slack
    appears only after updates grow a segment.
    """

    __slots__ = ("ids", "dists", "starts", "lengths", "version")

    def __init__(self, lists: Sequence, dists: Sequence) -> None:
        if len(lists) != len(dists):
            raise ValueError("lists and dists must align")
        #: monotone mutation stamp: bumped by every mutator so derived
        #: state (semantic-cache certificates, rank tables) built against
        #: one ownership layout can detect that it changed
        self.version = 0
        sizes = np.array([len(lst) for lst in lists], dtype=np.int64)
        self.starts = np.zeros(sizes.size + 1, dtype=np.int64)
        np.cumsum(sizes, out=self.starts[1:])
        total = int(self.starts[-1])
        self.ids = np.empty(total, dtype=np.int64)
        self.dists = np.empty(total, dtype=np.float64)
        for j, (l, d) in enumerate(zip(lists, dists)):
            lo, hi = self.starts[j], self.starts[j] + sizes[j]
            self.ids[lo:hi] = l
            self.dists[lo:hi] = d
        self.lengths = sizes

    # ------------------------------------------------------------- reading
    @property
    def n_lists(self) -> int:
        return int(self.lengths.size)

    @property
    def total(self) -> int:
        """Number of stored entries (excluding slack)."""
        return int(self.lengths.sum())

    @property
    def capacity(self) -> int:
        """Allocated entries in the backing arrays (including slack)."""
        return int(self.ids.size)

    @property
    def nbytes(self) -> int:
        """Allocated bytes, slack included."""
        return (
            self.ids.nbytes + self.dists.nbytes
            + self.starts.nbytes + self.lengths.nbytes
        )

    def size(self, j: int) -> int:
        return int(self.lengths[j])

    def span(self, j: int) -> tuple[int, int]:
        """``(lo, hi)`` row range of list ``j`` in the backing arrays."""
        lo = int(self.starts[j])
        return lo, lo + int(self.lengths[j])

    def row_owners(self) -> tuple[np.ndarray, np.ndarray]:
        """``(owner, live)`` per backing row: the list whose segment holds
        the row (slack included) and whether the row is a stored entry."""
        owner = np.repeat(np.arange(self.n_lists), np.diff(self.starts))
        live = np.arange(owner.size) - self.starts[owner] < self.lengths[owner]
        return owner, live

    def ids_of(self, j: int) -> np.ndarray:
        """List ``j``'s global ids — a contiguous view, never a copy."""
        lo, hi = self.span(j)
        return self.ids[lo:hi]

    def dists_of(self, j: int) -> np.ndarray:
        """List ``j``'s distances-to-representative — a contiguous view."""
        lo, hi = self.span(j)
        return self.dists[lo:hi]

    @property
    def id_views(self) -> "_SegmentSeq":
        return _SegmentSeq(self, self.ids_of)

    @property
    def dist_views(self) -> "_SegmentSeq":
        return _SegmentSeq(self, self.dists_of)

    # ------------------------------------------------------------ mutation
    def _grow(self, j: int, need: int) -> None:
        """Grow segment ``j``'s capacity to at least ``need`` (geometric)."""
        lo, cap_end = int(self.starts[j]), int(self.starts[j + 1])
        cap = cap_end - lo
        new_cap = max(int(need), 2 * cap, 4)
        delta = new_cap - cap
        self.ids = np.concatenate(
            [self.ids[:cap_end], np.zeros(delta, dtype=np.int64), self.ids[cap_end:]]
        )
        self.dists = np.concatenate(
            [self.dists[:cap_end], np.zeros(delta), self.dists[cap_end:]]
        )
        self.starts[j + 1 :] += delta

    def insert(self, j: int, pos: int, gid: int, dist: float) -> bool:
        """Insert one entry at ``pos`` within list ``j`` (keeps sort order).

        Returns ``True`` when the backing layout changed (segment grew),
        so callers know to invalidate anything derived from row numbers.
        """
        length = int(self.lengths[j])
        self.version += 1
        relayout = False
        if length + 1 > int(self.starts[j + 1]) - int(self.starts[j]):
            self._grow(j, length + 1)
            relayout = True
        lo = int(self.starts[j])
        self.ids[lo + pos + 1 : lo + length + 1] = self.ids[
            lo + pos : lo + length
        ].copy()
        self.dists[lo + pos + 1 : lo + length + 1] = self.dists[
            lo + pos : lo + length
        ].copy()
        self.ids[lo + pos] = gid
        self.dists[lo + pos] = dist
        self.lengths[j] = length + 1
        return relayout

    def delete_at(self, j: int, pos: int) -> None:
        """Remove the entry at ``pos`` of list ``j`` (leaves slack behind)."""
        self.version += 1
        lo, length = int(self.starts[j]), int(self.lengths[j])
        self.ids[lo + pos : lo + length - 1] = self.ids[
            lo + pos + 1 : lo + length
        ].copy()
        self.dists[lo + pos : lo + length - 1] = self.dists[
            lo + pos + 1 : lo + length
        ].copy()
        self.lengths[j] = length - 1

    def replace(self, j: int, new_ids: np.ndarray, new_dists: np.ndarray) -> bool:
        """Replace list ``j`` wholesale; returns ``True`` on relayout."""
        self.version += 1
        need = len(new_ids)
        relayout = False
        if need > int(self.starts[j + 1]) - int(self.starts[j]):
            self._grow(j, need)
            relayout = True
        lo = int(self.starts[j])
        self.ids[lo : lo + need] = new_ids
        self.dists[lo : lo + need] = new_dists
        self.lengths[j] = need
        return relayout

    def drop(self, j: int) -> None:
        """Remove list ``j`` entirely (representative deletion)."""
        self.version += 1
        lo, cap_end = int(self.starts[j]), int(self.starts[j + 1])
        self.ids = np.concatenate([self.ids[:lo], self.ids[cap_end:]])
        self.dists = np.concatenate([self.dists[:lo], self.dists[cap_end:]])
        width = cap_end - lo
        self.starts = np.concatenate(
            [self.starts[:j], self.starts[j + 1 :] - width]
        )
        self.lengths = np.delete(self.lengths, j)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PackedLists(n_lists={self.n_lists}, total={self.total}, "
            f"capacity={self.capacity})"
        )


class _SegmentSeq(Sequence):
    """Read-only sequence of per-list views over a :class:`PackedLists`.

    Presents the packed storage through the seed's ``list[np.ndarray]``
    interface (``index.lists[j]``, iteration, ``len``) without copying.
    """

    __slots__ = ("_packed", "_view")

    def __init__(self, packed: PackedLists, view) -> None:
        self._packed = packed
        self._view = view

    def __len__(self) -> int:
        return self._packed.n_lists

    def __getitem__(self, j):
        n = self._packed.n_lists
        if isinstance(j, (int, np.integer)):
            if j < 0:
                j += n
            if not 0 <= j < n:
                raise IndexError(f"list index {j} out of range for {n} lists")
            return self._view(int(j))
        if isinstance(j, slice):
            return [self._view(t) for t in range(*j.indices(n))]
        raise TypeError(f"list indices must be integers or slices, not {type(j)}")
