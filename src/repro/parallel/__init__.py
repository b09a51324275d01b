"""The brute-force primitive and its parallel machinery (paper §3)."""

from .blocking import Tile, choose_tile_cols, grid_tiles, row_chunks
from .bruteforce import bf_knn, bf_nn, bf_range
from .pool import (
    Executor,
    ExecutorPool,
    SerialExecutor,
    ThreadExecutor,
    default_workers,
    executor_pool,
    get_executor,
)
from .reduce import EMPTY_IDX, merge_topk, topk_of_block, tree_reduce
from .scheduler import lpt_assign, makespan, plan_row_chunks, static_assign

__all__ = [
    "Tile",
    "choose_tile_cols",
    "grid_tiles",
    "row_chunks",
    "bf_knn",
    "bf_nn",
    "bf_range",
    "Executor",
    "ExecutorPool",
    "SerialExecutor",
    "ThreadExecutor",
    "default_workers",
    "executor_pool",
    "get_executor",
    "EMPTY_IDX",
    "merge_topk",
    "topk_of_block",
    "tree_reduce",
    "lpt_assign",
    "makespan",
    "plan_row_chunks",
    "static_assign",
]
