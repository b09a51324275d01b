"""Writes patch the stage-2 operands in place of discarding them.

After every insert and delete the per-version state a read uses -- the
prepared candidate rows with their hoisted norms, the Claim-2 trim key, the
representative-position table and ``max_sqnorm`` -- must equal a
from-scratch rebuild of the same index state bit for bit, and every read
must match a direct ``q - x`` float64 oracle.  The sequences are seeded and
cover segment growth, deletes at a list's head and tail, representative
deletes, duplicate points and slack reuse.
"""

import copy
import gc
import weakref

import numpy as np
import pytest

from repro.core import ExactRBC, OneShotRBC
from repro.metrics import Mahalanobis, operand_cache
from repro.metrics.engine import Prepared
from repro.parallel.reduce import EMPTY_IDX
from repro.runtime import ExecContext

from .test_exact_partitions import assert_matches_oracle

F32 = ExecContext(dtype="float32")
DTYPES = ("float64", "float32")
K = 5


def rebuilt(index):
    """The same index state with every per-version operand discarded: the
    lists, database and radii are shared, ``_prep`` and the attached packed
    columns start empty, so every read rebuilds them from scratch."""
    twin = copy.copy(index)
    twin._prep = {}
    packed = copy.copy(index.packed)
    packed.columns, packed._fills = dict(packed.columns), dict(packed._fills)
    packed.detach_all()
    twin._packed = packed
    return twin


def assert_matches_rebuild(index, dtypes=DTYPES):
    """Patched stage-2 state == a ``_prep``-cleared rebuild, bit for bit
    (slack rows included)."""
    fresh = rebuilt(index)
    for dtype in dtypes:
        got, want = index._prepared_cands(dtype), fresh._prepared_cands(dtype)
        for field in Prepared.__slots__:
            g, w = getattr(got, field), getattr(want, field)
            assert (g is None) == (w is None), (dtype, field)
            if g is not None:
                np.testing.assert_array_equal(g, w, err_msg=f"{dtype} {field}")
    if isinstance(index, ExactRBC):
        np.testing.assert_array_equal(index._trim_key(), fresh._trim_key())
        for got, want in zip(index._rep_positions(), fresh._rep_positions()):
            np.testing.assert_array_equal(got, want)
        for dtype in dtypes:
            assert index._max_sqnorm(dtype) == fresh._max_sqnorm(dtype)
    return fresh


def assert_trim_key_layout(index):
    """The trim key stays sorted; slack rows hold ``j + 1j*inf``."""
    key = index._trim_key()
    assert (key[1:] >= key[:-1]).all()
    owner, live = index.packed.row_owners()
    slack = np.empty(int((~live).sum()), dtype=np.complex128)
    slack.real, slack.imag = owner[~live], np.inf
    np.testing.assert_array_equal(key[~live], slack)


def check_read(index, Q):
    """Every read: bit-identical to the rebuild in both dtypes, and right
    by the direct oracle over the points the search can reach."""
    fresh = assert_matches_rebuild(index)
    live = index.active_ids
    for ctx in (None, F32):
        if isinstance(index, ExactRBC):
            dist, idx = index.query(Q, k=K, ctx=ctx)
            want = fresh.query(Q, k=K, ctx=ctx)
            reach = live
        else:
            # every list probed: exact k-NN over the points the lists hold
            probes = index.n_reps
            dist, idx = index.query(Q, k=K, n_probes=probes, ctx=ctx)
            want = fresh.query(Q, k=K, n_probes=probes, ctx=ctx)
            stored = np.concatenate(list(index.lists))
            reach = np.unique(stored)
        np.testing.assert_array_equal(dist, want[0])
        np.testing.assert_array_equal(idx, want[1])
        assert np.isin(idx[idx >= 0], reach).all()
        local = np.where(idx >= 0, np.searchsorted(reach, idx), EMPTY_IDX)
        assert_matches_oracle(Q, index.X[reach], dist, local, K, label=str(ctx))


def warmed(cls, X, **kw):
    index = cls(seed=0, **kw).build(X)
    index.warm()
    index.warm(F32)
    return index


def non_rep(index, ids):
    """The first id of ``ids`` that is not a representative."""
    return int(next(g for g in ids if g not in set(index.rep_ids.tolist())))


@pytest.mark.parametrize("cls", [ExactRBC, OneShotRBC])
@pytest.mark.parametrize("seed", [0, 1])
def test_scripted_edge_writes(cls, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(1200, 5))
    Q = rng.normal(size=(12, 5))
    index = warmed(cls, X)
    packed = index.packed
    check_read(index, Q)

    # first insert into a tight list: the segment grows (one relayout)
    cap0 = packed.capacity
    index.insert(rng.normal(size=5))
    assert packed.capacity > cap0
    check_read(index, Q)

    # delete at a list's tail, then insert a copy of the deleted point: it
    # lands in the lists it left, reusing the vacated slack rows
    j = int(np.argmax(index.packed.lengths))
    gid = non_rep(index, index.lists[j][::-1])
    index.delete(gid)
    check_read(index, Q)
    cap = packed.capacity
    index.insert(index.X[gid].copy())
    assert packed.capacity == cap
    check_read(index, Q)

    # a duplicate of a representative sorts to the head of its list
    # (distance 0, inserted left of the representative); delete it there
    r = int(index.rep_ids[j]) if cls is ExactRBC else int(index.lists[j][0])
    gid = index.insert(index.X[r].copy())
    if cls is ExactRBC:
        assert index.lists[j][0] == gid
    check_read(index, Q)
    index.delete(gid)
    check_read(index, Q)

    # delete at a list's head: the representative itself
    index.delete(int(index.lists[j][0]))
    check_read(index, Q)
    # and writes after the representative delete patch the rebuilt state
    for _ in range(3):
        index.insert(rng.normal(size=5))
        index.delete(non_rep(index, index.active_ids[rng.permutation(index.n_active)]))
    check_read(index, Q)
    if cls is ExactRBC:
        assert_trim_key_layout(index)


@pytest.mark.parametrize("cls", [ExactRBC, OneShotRBC])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_write_read_sequence(cls, seed):
    rng = np.random.default_rng([seed, 7])
    X = rng.normal(size=(1000, 4))
    Q = rng.normal(size=(10, 4))
    index = warmed(cls, X)
    for _ in range(40):
        u = rng.random()
        if u < 0.35:
            index.insert(rng.normal(size=4))
        elif u < 0.45:
            # duplicate of a live point
            index.insert(index.X[int(rng.choice(index.active_ids))].copy())
        elif u < 0.85:
            index.delete(int(rng.choice(index.active_ids)))
        else:
            check_read(index, Q)
            if cls is ExactRBC:
                assert_trim_key_layout(index)
    check_read(index, Q)


@pytest.mark.parametrize("metric", ["cosine", "mahalanobis"])
def test_prepared_transforms_patch_bit_identically(metric):
    """Metrics whose prepared rows are not the source rows (angular norms,
    the Cholesky-transformed coordinates) patch bit-identically too."""
    rng = np.random.default_rng(3)
    X = rng.normal(size=(800, 5))
    if metric == "mahalanobis":
        metric = Mahalanobis(np.cov(X.T))
    index = ExactRBC(metric=metric, seed=0).build(X)
    index.warm()
    index.warm(F32)
    for _ in range(12):
        index.insert(rng.normal(size=5))
        index.delete(non_rep(index, index.active_ids[rng.permutation(index.n_active)]))
    fresh = assert_matches_rebuild(index)
    Q = rng.normal(size=(10, 5))
    for ctx in (None, F32):
        got, want = index.query(Q, k=K, ctx=ctx), fresh.query(Q, k=K, ctx=ctx)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])


def test_writes_leave_no_stale_operand_entries():
    """N writes leave at most one candidate-block operand-cache entry per
    dtype for the index, and the superseded candidate blocks are freed."""
    rng = np.random.default_rng(5)
    X = rng.normal(size=(900, 6))
    index = warmed(ExactRBC, X)

    def block():
        return index.packed.columns[("cands_src", "float64")]

    blocks = [weakref.ref(block())]
    for _ in range(20):
        index.insert(rng.normal(size=6))
        index.query(X[:4], k=3)
        index.query(X[:4], k=3, ctx=F32)
        index.delete(non_rep(index, index.active_ids[rng.permutation(index.n_active)]))
        blocks.append(weakref.ref(block()))
    gc.collect()
    superseded = [ref for ref in blocks if ref() is not None and ref() is not block()]
    assert len({id(ref()) for ref in blocks}) > 1  # segments grew
    assert not superseded, "a superseded candidate block is still pinned"
    with operand_cache._lock:
        mine = [
            key[2] for key, entry in operand_cache._entries.items()
            if any(entry.ref() is ref() is not None for ref in blocks)
        ]
    assert len(mine) == len(set(mine)) <= 2, mine
