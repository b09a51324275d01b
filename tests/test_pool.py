"""Executors and the resident thread-pool registry."""

import pytest

from repro.parallel import (
    SerialExecutor,
    ThreadExecutor,
    default_workers,
    get_executor,
)


def _square(x):
    return x * x


def test_serial_map_order():
    ex = SerialExecutor()
    assert ex.map(_square, range(5)) == [0, 1, 4, 9, 16]
    assert ex.n_workers == 1


def test_thread_map_order():
    with ThreadExecutor(3) as ex:
        assert ex.map(_square, range(20)) == [x * x for x in range(20)]
        assert ex.n_workers == 3


def test_default_workers_positive():
    assert default_workers() >= 1


def test_get_executor_specs():
    assert isinstance(get_executor(None), SerialExecutor)
    assert isinstance(get_executor("serial"), SerialExecutor)
    ex = get_executor("threads", 2)
    try:
        assert isinstance(ex, ThreadExecutor)
    finally:
        ex.close()
    inst = SerialExecutor()
    assert get_executor(inst) is inst
    with pytest.raises(ValueError):
        get_executor("gpu")
    with pytest.raises(ValueError):
        get_executor("processes")


# ------------------------------------------------- executor registry residency


def test_executor_pool_reuses_and_recreates():
    from repro.parallel import ExecutorPool

    pool = ExecutorPool()
    try:
        a = pool.get("threads", 2)
        assert pool.get("threads", 2) is a  # identical spec -> same pool
        assert pool.n_created == 1 and len(pool) == 1
        b = pool.get("threads", 3)
        assert b is not a  # different worker count -> different pool
        assert pool.n_created == 2
        a.shutdown()  # a resident pool killed out-of-band ...
        c = pool.get("threads", 2)
        assert c is not a  # ... is detected and replaced
        assert c.map(_square, [3]) == [9]
    finally:
        pool.shutdown()
    assert len(pool) == 0
    d = pool.get("threads", 2)  # usable again after shutdown
    try:
        assert d.map(_square, [4]) == [16]
    finally:
        pool.shutdown()


def test_executor_pool_rejects_serial_spec():
    from repro.parallel import ExecutorPool

    with pytest.raises(ValueError):
        ExecutorPool().get("serial", 1)


def test_resident_pool_close_is_noop():
    from repro.parallel import ExecutorPool

    pool = ExecutorPool()
    try:
        ex = pool.get("threads", 2)
        ex.close()  # callers' scope-exit close must not kill a resident pool
        assert ex.map(_square, [5]) == [25]
    finally:
        pool.shutdown()
