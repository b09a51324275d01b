"""The brute-force primitive and its parallel machinery (paper §3)."""

from .blocking import Tile, choose_tile_cols, grid_tiles, row_chunks
from .bruteforce import (
    bf_knn,
    bf_nn,
    bf_range,
    register_resident_operands,
)
from .pool import (
    Executor,
    ExecutorPool,
    OperandStore,
    ProcessExecutor,
    SerialExecutor,
    SharedArray,
    ThreadExecutor,
    default_workers,
    executor_pool,
    get_executor,
    operand_store,
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
    "register_resident_operands",
    "Executor",
    "ExecutorPool",
    "OperandStore",
    "ProcessExecutor",
    "SerialExecutor",
    "SharedArray",
    "ThreadExecutor",
    "default_workers",
    "executor_pool",
    "get_executor",
    "operand_store",
    "EMPTY_IDX",
    "merge_topk",
    "topk_of_block",
    "tree_reduce",
    "lpt_assign",
    "makespan",
    "plan_row_chunks",
    "static_assign",
]
