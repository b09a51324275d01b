"""Packed CSR-style storage for the RBC ownership lists.

The seed implementation stored each representative's list as a separate
``np.ndarray`` in a Python list.  Stage-2 kernels read *prefixes* of these
lists on every query batch, so the layout matters: packed storage keeps all
ids (and the aligned distances-to-representative) in two concatenated
arrays with an offset table, making every per-representative read a
contiguous slice — no pointer chasing, no per-list allocation.

The backing arrays are **row-aligned columns**: ``ids`` and ``dists`` are
the two every structure has, and an index attaches more that share the
row numbering — the pre-gathered candidate block (row ``t`` is the
database point ``ids[t]``), its compute-ready prepared forms and hoisted
norms, the Claim-2 trim key.  Every mutator moves every attached column
through the same code, so the scan-ready rows stay in step with the lists
and a write never forces a re-gather.

Dynamic updates edit segments in place: each list segment carries slack
capacity (grown geometrically, like the database append buffer), so an
insert or delete shifts only rows within one segment; the first insert
into a full segment copies the later rows once.  Slack rows hold each
column's *fill* value.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

__all__ = ["PackedLists"]

#: the columns every packed storage has; the rest are attached
_CORE = ("ids", "dists")


class PackedLists:
    """Concatenated ownership lists: row-aligned columns + offsets.

    List ``j`` occupies rows ``starts[j] : starts[j] + lengths[j]`` of the
    backing columns; its *capacity* is ``starts[j+1] - starts[j]`` (slack
    lives at the segment tail).  Fresh builds are packed tight; slack
    appears only after updates grow a segment.

    ``columns`` maps a name to an array whose axis 0 is the backing rows.
    :meth:`attach` adds one with its slack *fill* (a value, or a callable
    ``fill(j)`` for a per-segment value); an array attached under two
    names moves once.  :meth:`insert` takes the new rows of the attached
    columns in ``row``; :meth:`replace` works on ``ids``/``dists`` alone.
    """

    __slots__ = ("columns", "_fills", "starts", "lengths", "version")

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
        ids = np.empty(total, dtype=np.int64)
        list_dists = np.empty(total, dtype=np.float64)
        for j, (l, d) in enumerate(zip(lists, dists)):
            lo, hi = self.starts[j], self.starts[j] + sizes[j]
            ids[lo:hi] = l
            list_dists[lo:hi] = d
        self.lengths = sizes
        self.columns: dict = {"ids": ids, "dists": list_dists}
        self._fills: dict = {"ids": 0, "dists": 0.0}

    # ------------------------------------------------------------- reading
    @property
    def ids(self) -> np.ndarray:
        return self.columns["ids"]

    @property
    def dists(self) -> np.ndarray:
        return self.columns["dists"]

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
        return int(self.starts[-1])

    @property
    def nbytes(self) -> int:
        """Allocated bytes of every column and the offsets, slack
        included."""
        return (
            sum(arr.nbytes for arr, _ in self._arrays())
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

    def find(self, gid: int) -> tuple[np.ndarray, np.ndarray]:
        """``(lists, positions)`` of every stored entry holding ``gid``:
        one compare over the backing ids, slack rows ignored."""
        t = np.flatnonzero(self.ids == gid)
        j = np.searchsorted(self.starts, t, side="right") - 1
        pos = t - self.starts[j]
        stored = pos < self.lengths[j]
        return j[stored], pos[stored]

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

    # ------------------------------------------------------------- columns
    def attach(self, name, array: np.ndarray, fill) -> None:
        """Attach a row-aligned column (``len(array) == capacity``) that
        every mutator moves with the lists; ``fill`` is its slack value
        or a callable ``fill(j)`` giving segment ``j``'s."""
        if name in self.columns:
            raise ValueError(f"column {name!r} is already attached")
        if len(array) != self.capacity:
            raise ValueError(
                f"column {name!r} has {len(array)} rows, "
                f"the storage {self.capacity}"
            )
        self.columns[name] = array
        self._fills[name] = fill

    def detach_all(self) -> None:
        """Drop every attached column (``ids``/``dists`` stay)."""
        for name in [n for n in self.columns if n not in _CORE]:
            del self.columns[name]
            del self._fills[name]

    def _arrays(self) -> list[tuple[np.ndarray, list]]:
        """Each distinct backing array once, with the names it is
        attached under (an aliased array must move once, not twice)."""
        groups: dict = {}
        for name, arr in self.columns.items():
            groups.setdefault(id(arr), (arr, []))[1].append(name)
        return list(groups.values())

    def _fill(self, name, j: int):
        fill = self._fills[name]
        return fill(j) if callable(fill) else fill

    def _values(self, gid, dist, row) -> dict:
        values = {"ids": gid, "dists": dist, **(row or {})}
        missing = [n for n in self.columns if n not in values]
        if missing:
            raise ValueError(f"no new row given for columns {missing}")
        return values

    # ------------------------------------------------------------ mutation
    def _grow(self, j: int, need: int) -> None:
        """Grow segment ``j``'s capacity to at least ``need`` (geometric):
        one copy of every column, the new slack rows set to the fill."""
        lo, cap_end = int(self.starts[j]), int(self.starts[j + 1])
        cap = cap_end - lo
        delta = max(int(need), 2 * cap, 4) - cap
        for arr, names in self._arrays():
            grown = np.empty((len(arr) + delta,) + arr.shape[1:], dtype=arr.dtype)
            grown[:cap_end] = arr[:cap_end]
            grown[cap_end : cap_end + delta] = self._fill(names[0], j)
            grown[cap_end + delta :] = arr[cap_end:]
            for name in names:
                self.columns[name] = grown
        self.starts[j + 1 :] += delta

    def insert(
        self, j: int, pos: int, gid: int, dist: float, row: dict | None = None
    ) -> bool:
        """Insert one entry at ``pos`` within list ``j`` (keeps sort order);
        ``row`` holds the new row of every attached column.

        Returns ``True`` when the backing layout changed (segment grew):
        every column is then a new array.
        """
        values = self._values(gid, dist, row)
        length = int(self.lengths[j])
        self.version += 1
        relayout = False
        if length + 1 > int(self.starts[j + 1]) - int(self.starts[j]):
            self._grow(j, length + 1)
            relayout = True
        at, end = int(self.starts[j]) + pos, int(self.starts[j]) + length
        for arr, names in self._arrays():
            arr[at + 1 : end + 1] = arr[at:end]  # numpy buffers the overlap
            arr[at] = values[names[0]]
        self.lengths[j] = length + 1
        return relayout

    def delete_at(self, j: int, pos: int) -> None:
        """Remove the entry at ``pos`` of list ``j``; the vacated row at
        the segment's live end takes each column's fill."""
        self.version += 1
        at, end = int(self.starts[j]) + pos, int(self.starts[j]) + int(self.lengths[j])
        for arr, names in self._arrays():
            arr[at : end - 1] = arr[at + 1 : end]
            arr[end - 1] = self._fill(names[0], j)
        self.lengths[j] -= 1

    def replace(self, j: int, new_ids: np.ndarray, new_dists: np.ndarray) -> bool:
        """Replace list ``j`` wholesale (no columns may be attached);
        returns ``True`` on relayout."""
        values = self._values(new_ids, new_dists, None)
        self.version += 1
        need, length = len(new_ids), int(self.lengths[j])
        relayout = False
        if need > int(self.starts[j + 1]) - int(self.starts[j]):
            self._grow(j, need)
            relayout = True
        lo = int(self.starts[j])
        for arr, names in self._arrays():
            arr[lo : lo + need] = values[names[0]]
            if length > need:
                arr[lo + need : lo + length] = self._fill(names[0], j)
        self.lengths[j] = need
        return relayout

    def drop(self, j: int) -> None:
        """Remove list ``j`` entirely (representative deletion)."""
        self.version += 1
        lo, cap_end = int(self.starts[j]), int(self.starts[j + 1])
        for arr, names in self._arrays():
            kept = np.concatenate([arr[:lo], arr[cap_end:]])
            for name in names:
                self.columns[name] = kept
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
