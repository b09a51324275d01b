"""Packed CSR-style list storage: equivalence with the list-of-arrays model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ExactRBC, OneShotRBC
from repro.core.packed import PackedLists


def random_lists(rng, n_lists, max_len=12):
    lists, dists = [], []
    for _ in range(n_lists):
        size = int(rng.integers(0, max_len))
        lists.append(rng.integers(0, 1000, size=size).astype(np.int64))
        dists.append(np.sort(rng.random(size)))
    return lists, dists


def assert_matches_model(packed, lists, dists):
    assert packed.n_lists == len(lists)
    assert packed.total == sum(len(lst) for lst in lists)
    for j, (l, d) in enumerate(zip(lists, dists)):
        np.testing.assert_array_equal(packed.ids_of(j), l)
        np.testing.assert_array_equal(packed.dists_of(j), d)
        np.testing.assert_array_equal(packed.id_views[j], l)
        np.testing.assert_array_equal(packed.dist_views[j], d)
        assert packed.size(j) == len(l)
        lo, hi = packed.span(j)
        assert hi - lo == len(l)
    # every backing row names its segment; only stored entries are live
    owner, live = packed.row_owners()
    assert owner.size == live.size == packed.capacity
    for j in range(packed.n_lists):
        lo, hi = packed.span(j)
        assert (owner[lo : packed.starts[j + 1]] == j).all()
        assert live[lo:hi].all() and not live[hi : packed.starts[j + 1]].any()


def test_round_trip(rng):
    lists, dists = random_lists(rng, 17)
    packed = PackedLists(lists, dists)
    assert_matches_model(packed, lists, dists)
    # a fresh build is packed tight: zero slack
    assert packed.capacity == packed.total


def test_views_are_views_not_copies(rng):
    lists, dists = random_lists(rng, 5, max_len=8)
    lists[2] = np.arange(6, dtype=np.int64)
    dists[2] = np.linspace(0, 1, 6)
    packed = PackedLists(lists, dists)
    v = packed.ids_of(2)
    assert v.base is packed.ids
    packed.ids[packed.starts[2]] = 999
    assert v[0] == 999


def test_segment_seq_interface(rng):
    lists, dists = random_lists(rng, 6)
    packed = PackedLists(lists, dists)
    seq = packed.id_views
    assert len(seq) == 6
    np.testing.assert_array_equal(seq[-1], lists[-1])
    assert len(seq[1:4]) == 3
    with pytest.raises(IndexError):
        seq[6]
    with pytest.raises(TypeError):
        seq["nope"]
    # iteration works (Sequence protocol)
    assert sum(len(lst) for lst in seq) == packed.total


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_mutations_match_shadow_model(data):
    """Random insert/delete/replace/drop agree with a list-of-arrays shadow."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    n_lists = data.draw(st.integers(1, 6))
    lists, dists = random_lists(rng, n_lists, max_len=6)
    packed = PackedLists(lists, dists)
    shadow = [(l.copy(), d.copy()) for l, d in zip(lists, dists)]

    for _ in range(data.draw(st.integers(1, 25))):
        if not shadow:
            break
        op = data.draw(st.sampled_from(["insert", "delete", "replace", "drop"]))
        j = data.draw(st.integers(0, len(shadow) - 1))
        ids_j, d_j = shadow[j]
        if op == "insert":
            dist = float(rng.random())
            pos = int(np.searchsorted(d_j, dist))
            gid = int(rng.integers(0, 1000))
            packed.insert(j, pos, gid, dist)
            shadow[j] = (
                np.insert(ids_j, pos, gid),
                np.insert(d_j, pos, dist),
            )
        elif op == "delete":
            if ids_j.size == 0:
                continue
            pos = int(rng.integers(0, ids_j.size))
            packed.delete_at(j, pos)
            shadow[j] = (np.delete(ids_j, pos), np.delete(d_j, pos))
        elif op == "replace":
            size = int(rng.integers(0, 9))
            new_ids = rng.integers(0, 1000, size=size).astype(np.int64)
            new_d = np.sort(rng.random(size))
            packed.replace(j, new_ids, new_d)
            shadow[j] = (new_ids, new_d)
        else:
            packed.drop(j)
            del shadow[j]

    assert_matches_model(
        packed, [s[0] for s in shadow], [s[1] for s in shadow]
    )
    assert packed.capacity >= packed.total


def test_insert_growth_is_geometric(rng):
    """Appending n entries into one segment triggers O(log n) relayouts."""
    packed = PackedLists([np.empty(0, dtype=np.int64)], [np.empty(0)])
    relayouts = 0
    n = 500
    for t in range(n):
        relayouts += bool(packed.insert(0, t, t, float(t)))
    assert packed.size(0) == n
    np.testing.assert_array_equal(packed.ids_of(0), np.arange(n))
    assert relayouts <= int(np.log2(n)) + 2
    # slack is bounded by the geometric growth factor
    assert packed.capacity <= 2 * n + 4


def test_append_point_amortized_and_footprint(rng):
    """Database appends use a geometric buffer; footprint reports capacity."""
    X = rng.normal(size=(256, 4))
    index = ExactRBC(seed=0).build(X)
    base = index.memory_footprint()
    buffers = set()
    for _ in range(64):
        index.insert(rng.normal(size=4))
        buffers.add(id(index._X_buf))
    # 64 appends must reuse a handful of geometrically grown buffers,
    # not reallocate per insert
    assert len(buffers) <= 8
    assert index._X_buf.shape[0] >= index.n
    assert index.X.shape[0] == index.n
    after = index.memory_footprint()
    slack_rows = index._X_buf.shape[0] - index.n
    # the footprint reports allocated capacity: buffer slack rows count
    assert after >= slack_rows * index.X.itemsize * index.X.shape[1]
    assert after >= base


@pytest.mark.parametrize("cls", [ExactRBC, OneShotRBC])
def test_lists_api_preserved_after_build(cls, rng):
    """`index.lists` / `index.list_dists` still behave like the seed's lists."""
    X = rng.normal(size=(500, 6))
    index = cls(seed=0).build(X)
    assert len(index.lists) == index.n_reps
    total = 0
    for j in range(index.n_reps):
        lst, d = index.lists[j], index.list_dists[j]
        assert lst.shape == d.shape
        assert np.all(np.diff(d) >= 0)  # sorted by distance to rep
        total += lst.size
    assert total == index.packed.total


def test_attached_columns_move_with_the_lists(rng):
    """Attached columns follow every insert, delete and drop row for row;
    an aliased array moves once; slack rows hold each column's fill."""
    lists, dists = random_lists(rng, 5, max_len=6)
    packed = PackedLists(lists, dists)

    def rows_of(ids):
        return np.stack([ids, -ids], axis=1).astype(np.float64)

    block = rows_of(packed.ids)
    packed.attach("block", block, -1.0)
    packed.attach("alias", block, -1.0)  # the same array under a 2nd name
    packed.attach("owner", packed.row_owners()[0].astype(np.float64), lambda j: j)
    with pytest.raises(ValueError):
        packed.attach("short", np.zeros(packed.capacity + 1), 0.0)
    for _ in range(40):
        j = int(rng.integers(packed.n_lists))
        if rng.random() < 0.6 or packed.size(j) == 0:
            gid, dist = int(rng.integers(1000)), float(rng.random())
            pos = int(np.searchsorted(packed.dists_of(j), dist))
            row = {"block": rows_of(np.array([gid]))[0], "owner": float(j)}
            with pytest.raises(ValueError):
                packed.insert(j, pos, gid, dist, {"block": row["block"]})
            packed.insert(j, pos, gid, dist, {**row, "alias": row["block"]})
        else:
            packed.delete_at(j, int(rng.integers(packed.size(j))))
    packed.drop(0)
    cols = packed.columns
    assert cols["block"] is cols["alias"]
    owner, live = packed.row_owners()
    np.testing.assert_array_equal(cols["block"][live], rows_of(packed.ids[live]))
    # the drop renumbered the lists; the owner column keeps old numbers
    np.testing.assert_array_equal(cols["owner"], owner + 1)
    assert (cols["block"][~live] == -1.0).all()
    packed.detach_all()
    assert set(packed.columns) == {"ids", "dists"}
