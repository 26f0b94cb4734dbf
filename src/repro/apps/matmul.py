"""The naive matrix-multiplication case study (§6.1, §6.4, Fig 11).

"Each matrix multiplication is requested via a tuple, and that tuple
generates one row request tuple for each output row of the matrix.
Each row request tuple triggers a rule that loops over all the columns
of that row, and uses a nested loop with a summation reducer to
calculate the dot product results."  (§6)

Tables::

    table Matrix(int mat, int row, int col -> int value)   # §6.4's example
    table MultRequest(int a, int b, int c, int n) orderby (Req)
    table RowRequest(int c, int row) orderby (Row, par row)
    order Mat < Req < Row

The Matrix table uses the **native-arrays** Gamma optimisation (§6.4:
"we used a Java 2D array of integers for the gamma set of each
matrix") — a numpy-backed :class:`NativeArrayStore` here — and is
``-noDelta``/non-triggering, so "only one tuple per row of the output
matrix needs to go through the delta set".

Three inner-loop variants reproduce Fig 6's three JStar/Java bars:

* ``boxed`` — every element access goes through the Gamma store's
  per-element lookup (the XText 2.3 boxed-Integer code, 21.9 s);
* ``unboxed`` — rows are pulled into plain Python int lists once and
  the dot products loop over those (the hand-corrected primitive-int
  version, 8.1 s — comparable to naive Java);
* ``native`` — the row is one numpy mat-vec (what generated code could
  do with full native-array awareness; used for the big Fig 11 runs).

RowRequest tasks are mutually ``par``, so one all-minimums step runs
every row in parallel — the "embarrassingly parallel" structure with a
"high computation to communication ratio" behind Fig 11's near-linear
speedup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from repro.core import ExecOptions, Program, RunResult
from repro.core.tuples import TableHandle
from repro.gamma import NativeArrayStore

__all__ = ["MatMulHandles", "build_matmul_program", "run_matmul", "random_matrix"]

Variant = Literal["boxed", "unboxed", "native"]

#: per-multiply abstract work (drives Fig 11's virtual time)
_MUL_COST = {"boxed": 3.0, "unboxed": 1.0, "native": 0.08}


def random_matrix(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(-10, 11, size=(n, n), dtype=np.int64)


@dataclass
class MatMulHandles:
    program: Program
    Matrix: TableHandle
    MultRequest: TableHandle
    RowRequest: TableHandle


def build_matmul_program(
    a: np.ndarray,
    b: np.ndarray,
    variant: Variant = "unboxed",
) -> MatMulHandles:
    """Multiply ``a @ b`` (matrix ids: a=0, b=1, result c=2)."""
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise ValueError("square same-shape matrices required")
    n = a.shape[0]

    p = Program("matmul")
    Matrix = p.table("Matrix", "int mat, int row, int col -> int value", orderby=("Mat",))
    MultRequest = p.table("MultRequest", "int a, int b, int c, int n", orderby=("Req",))
    RowRequest = p.table("RowRequest", "int c, int row", orderby=("Row", "par row"))
    p.order("Mat", "Req", "Row")

    @p.foreach(MultRequest, unsafe=True)
    def load_and_split(ctx, req):
        """Load the operand matrices in bulk (native arrays) and put one
        RowRequest per output row."""
        store: NativeArrayStore = ctx.native(Matrix)  # type: ignore[assignment]
        store.bulk_set((0,), a)
        store.bulk_set((1,), b)
        ctx.charge(0.05 * 2 * n * n, "user_work")
        for row in range(req.n):
            ctx.put(RowRequest.new(req.c, row))

    @p.foreach(RowRequest, unsafe=True)
    def compute_row(ctx, rr):
        """One output row: n dot products (the §6 nested reducer loop).
        It puts nothing through the engine (native result writes) and
        only reads Mat < Row."""
        store: NativeArrayStore = ctx.native(Matrix)  # type: ignore[assignment]
        arr = store.array
        row = rr.row
        if variant == "native":
            out = arr[0, row, :] @ arr[1]
        elif variant == "unboxed":
            # primitive-int analogue: plain Python ints in lists
            a_row = arr[0, row, :].tolist()
            b_rows = [arr[1, k, :].tolist() for k in range(n)]
            out = [
                sum(a_row[k] * b_rows[k][col] for k in range(n))
                for col in range(n)
            ]
            out = np.array(out, dtype=np.int64)
        else:  # boxed: arithmetic on boxed scalars, as XText 2.3 generated.
            # Indexing a numpy array element-wise yields boxed np.int64
            # objects whose arithmetic pays the same allocate-and-unbox
            # tax as Java's Integer in the paper's inner loop.
            a_row = arr[0, row]
            b_mat = arr[1]
            out = np.zeros(n, dtype=np.int64)
            for col in range(n):
                acc = 0
                for k in range(n):
                    acc += a_row[k] * b_mat[k][col]
                out[col] = acc
        store.bulk_set((2, row), out)
        work = _MUL_COST[variant] * n * n
        ctx.charge(work, "user_work")
        # a dot-product row streams 2N^2 operand elements: ~2 % of its
        # work is memory-bandwidth-bound, the shared resource that
        # flattens Fig 11 beyond ~20 cores
        ctx.charge_shared("membw", 0.02 * work)

    p.put(MultRequest.new(0, 1, 2, n))
    return MatMulHandles(p, Matrix, MultRequest, RowRequest)


def run_matmul(
    a: np.ndarray,
    b: np.ndarray,
    options: ExecOptions | None = None,
    variant: Variant = "unboxed",
) -> tuple[RunResult, np.ndarray]:
    """Run the program; returns (result, the product matrix C)."""
    n = a.shape[0]
    handles = build_matmul_program(a, b, variant)
    opts = options or ExecOptions()
    opts = opts.with_(
        store_overrides={
            **dict(opts.store_overrides),
            "Matrix": lambda schema: NativeArrayStore(schema, (3, n, n)),
        }
    )
    result = handles.program.run(opts)
    store = result.require_database().store("Matrix")
    assert isinstance(store, NativeArrayStore)
    return result, store.array[2].copy()
