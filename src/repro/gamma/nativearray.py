"""Native-array Gamma stores (numpy-backed dense representations).

§6.4: "This is an example of a commonly-useful 'native-arrays' data
structure optimisation: tables that have integer keys and a single
dependent value, such as ``table Matrix(int mat, int row, int col ->
int value)``, can be efficiently implemented using Java arrays if the
keys have a limited range and are dense."

§6.6 adds the two-iteration variant used by the Median program: a
``double[2][100000000]`` indexed by ``iter modulo 2`` — a native array
*plus* a Gamma garbage-collection optimisation that retains only the
current and next iteration ("keeps only the 'current' and 'next' copies
of the iterations in a table").

We use numpy arrays as the Python analogue of Java primitive arrays:
unboxed storage, O(1) access, tiny per-element heap footprint (which is
what the GC-pressure model rewards — ``heap_tuples`` reports the number
of *objects*, near zero here).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.core.errors import SchemaError
from repro.core.query import Query
from repro.core.schema import TableSchema
from repro.core.tuples import JTuple
from repro.gamma.base import CostProfile, TableStore

__all__ = ["NativeArrayStore", "TwoIterationArrayStore"]

_DTYPES = {"int": np.int64, "float": np.float64, "bool": np.bool_}


def _split_schema(schema: TableSchema) -> tuple[tuple[int, ...], int]:
    """Validate 'int keys -> single numeric value' and return
    (key field positions, value field position)."""
    if not schema.has_key or len(schema.dep_indexes) != 1:
        raise SchemaError(
            f"native-array store needs 'int keys -> one value', "
            f"table {schema.name} does not match"
        )
    for i in schema.key_indexes:
        if schema.fields[i].type != "int":
            raise SchemaError(
                f"native-array store needs int keys; "
                f"{schema.name}.{schema.fields[i].name} is {schema.fields[i].type}"
            )
    vpos = schema.dep_indexes[0]
    if schema.fields[vpos].type not in _DTYPES:
        raise SchemaError(
            f"native-array store cannot hold {schema.fields[vpos].type} values"
        )
    return schema.key_indexes, vpos


class NativeArrayStore(TableStore):
    """Dense numpy array for ``int keys -> single value`` tables.

    ``shape`` gives the extent of each key dimension (keys must lie in
    ``range(shape[d])``).  A boolean presence mask provides exact set
    semantics and duplicate detection.
    """

    kind = "native-array"
    cost = CostProfile(
        insert_cost=0.25,
        lookup_cost=0.2,
        result_cost=0.1,
        # dense array traffic contends on memory bandwidth, not locks —
        # this resource is what flattens Fig 11 beyond ~20 cores.
        resource="membw",
        serial_fraction=0.03,
    )

    def __init__(self, schema: TableSchema, shape: tuple[int, ...]):
        super().__init__(schema)
        key_pos, vpos = _split_schema(schema)
        if len(shape) != len(key_pos):
            raise SchemaError(
                f"shape {shape} has {len(shape)} dims but {schema.name} "
                f"has {len(key_pos)} key fields"
            )
        self._key_pos = key_pos
        self._vpos = vpos
        dtype = _DTYPES[schema.fields[vpos].type]
        self.array = np.zeros(shape, dtype=dtype)
        self._present = np.zeros(shape, dtype=np.bool_)
        self._size = 0

    # -- direct numpy access (the whole point of the optimisation) --------

    def key_of(self, tup: JTuple) -> tuple[int, ...]:
        return tuple(tup.values[i] for i in self._key_pos)

    def _cell(self, key: tuple) -> tuple[int, ...] | None:
        """The cell of ``key``, or ``None`` where no in-bounds int key
        equals it (negative — numpy would wrap —, too large, NaN, 1.5)."""
        try:
            cell = tuple(map(int, key))
        except (TypeError, ValueError, OverflowError):
            return None
        if cell != key or not all(0 <= i < n for i, n in zip(cell, self.array.shape)):
            return None
        return cell

    def value_at(self, *key: int):
        if not bool(self._present[key]):
            return None
        return self.array[key].item()

    def bulk_set(self, plane_index: tuple, values: np.ndarray) -> int:
        """Vectorised regional insert: write a whole sub-array at once.

        This is the analogue of a generated inner loop writing a Java
        array directly; it bypasses per-tuple JTuple allocation, which
        is how rules with heavy numeric inner loops (MatrixMult, Median)
        avoid boxing.  Returns the number of elements written.
        """
        self.array[plane_index] = values
        was = self._present[plane_index]
        newly = int(np.size(values) - np.count_nonzero(was))
        self._present[plane_index] = True
        self._size += newly
        return int(np.size(values))

    # -- TableStore API -----------------------------------------------------

    def insert(self, tup: JTuple) -> bool:
        key = self._cell(self.key_of(tup))
        if key is None:
            raise SchemaError(f"{self.schema.name} key {tup.key()} outside {self.array.shape}")
        value = tup.values[self._vpos]
        if bool(self._present[key]):
            if self.array[key].item() == value:
                return False
            raise SchemaError(
                f"key conflict in native array {self.schema.name} at {key}"
            )
        self.array[key] = value
        self._present[key] = True
        self._size += 1
        return True

    def __contains__(self, tup: JTuple) -> bool:
        return self.lookup_key(self.key_of(tup)) == tup

    def __len__(self) -> int:
        return self._size

    def scan(self) -> Iterator[JTuple]:
        schema = self.schema
        for key in zip(*np.nonzero(self._present)):
            key = tuple(int(k) for k in key)
            vals: list = [None] * len(schema.fields)
            for pos, k in zip(self._key_pos, key):
                vals[pos] = k
            vals[self._vpos] = self.array[key].item()
            yield JTuple(schema, tuple(vals))

    def clear(self) -> None:
        self._present[...] = False
        self._size = 0

    def lookup_key(self, key: tuple) -> JTuple | None:
        key = self._cell(key)
        if key is None or not bool(self._present[key]):
            return None
        vals: list = [None] * len(self.schema.fields)
        for pos, k in zip(self._key_pos, key):
            vals[pos] = k
        vals[self._vpos] = self.array[key].item()
        return JTuple(self.schema, tuple(vals))

    def heap_tuples(self) -> int:
        # unboxed storage: a handful of array objects, not per-tuple heap
        return 0


class TwoIterationArrayStore(TableStore):
    """Median's ring store: ``double[2][N]`` indexed by ``iter % 2``.

    Schema must be ``(int iter, int index -> value)``.  Inserting a
    tuple for iteration *i* implicitly garbage-collects iteration
    *i - 2* (the plane is overwritten) — the paper's manual
    lifetime-hint GC of §5 step 4 combined with native arrays (§6.6).
    Queries may only touch the two retained iterations.
    """

    kind = "two-iteration-array"
    cost = CostProfile(
        insert_cost=0.25,
        lookup_cost=0.2,
        result_cost=0.1,
        resource="membw",
        serial_fraction=0.02,
    )

    def __init__(self, schema: TableSchema, length: int):
        super().__init__(schema)
        key_pos, vpos = _split_schema(schema)
        if len(key_pos) != 2:
            raise SchemaError(
                "TwoIterationArrayStore needs exactly (int iter, int index -> value)"
            )
        self._iter_pos, self._index_pos = key_pos
        self._vpos = vpos
        dtype = _DTYPES[schema.fields[vpos].type]
        self.length = length
        self.planes = np.zeros((2, length), dtype=dtype)
        self._plane_iter = [-1, -1]  # which iteration each plane holds
        self._counts = [0, 0]

    def plane_for(self, iteration: int, *, create: bool = True) -> np.ndarray | None:
        """The numpy row for an iteration (creating/recycling on demand)."""
        slot = iteration % 2
        if self._plane_iter[slot] != iteration:
            if not create:
                return None
            # recycle: drop whatever older iteration lived here
            self._plane_iter[slot] = iteration
            self._counts[slot] = 0
        return self.planes[slot]

    def bulk_set(self, iteration: int, start: int, values: np.ndarray) -> int:
        plane = self.plane_for(iteration)
        assert plane is not None
        plane[start : start + len(values)] = values
        self._counts[iteration % 2] = max(
            self._counts[iteration % 2], start + len(values)
        )
        return len(values)

    def note_written(self, iteration: int, upto: int) -> None:
        """Record that a rule wrote this iteration's plane directly up
        to index ``upto`` (the zero-copy variant of :meth:`bulk_set`)."""
        self.plane_for(iteration)
        self._counts[iteration % 2] = max(self._counts[iteration % 2], upto)

    def insert(self, tup: JTuple) -> bool:
        it = tup.values[self._iter_pos]
        idx = tup.values[self._index_pos]
        plane = self.plane_for(it)
        assert plane is not None
        plane[idx] = tup.values[self._vpos]
        self._counts[it % 2] = max(self._counts[it % 2], idx + 1)
        return True  # ring semantics: overwrite, no dedup bookkeeping

    def supports_checkpoint(self) -> bool:
        # ring semantics break the scan→insert round-trip contract
        # (inserts always overwrite, plane recycling depends on arrival
        # order); sessions over this store refuse to snapshot
        return False

    def _cell(self, it, idx) -> tuple[int, int] | None:
        """``(it, idx)`` as the ring holds it, or ``None`` where it holds
        no int key equal to it (another iteration, outside the written
        slice, NaN, 1.5)."""
        try:
            cell = int(it), int(idx)
        except (TypeError, ValueError, OverflowError):
            return None
        slot = cell[0] % 2
        if cell != (it, idx) or self._plane_iter[slot] != cell[0]:
            return None
        return cell if 0 <= cell[1] < self._counts[slot] else None

    def __contains__(self, tup: JTuple) -> bool:
        key = tup.values[self._iter_pos], tup.values[self._index_pos]
        return self.lookup_key(key) == tup

    def __len__(self) -> int:
        return sum(self._counts)

    def scan(self) -> Iterator[JTuple]:
        schema = self.schema
        for slot in (0, 1):
            it = self._plane_iter[slot]
            if it < 0:
                continue
            for idx in range(self._counts[slot]):
                vals: list = [None] * len(schema.fields)
                vals[self._iter_pos] = it
                vals[self._index_pos] = idx
                vals[self._vpos] = self.planes[slot][idx].item()
                yield JTuple(schema, tuple(vals))

    def clear(self) -> None:
        self._plane_iter = [-1, -1]
        self._counts = [0, 0]

    def lookup_key(self, key: tuple) -> JTuple | None:
        cell = self._cell(*key)
        if cell is None:
            return None
        it, idx = cell
        vals: list = [None] * len(self.schema.fields)
        vals[self._iter_pos] = it
        vals[self._index_pos] = idx
        vals[self._vpos] = self.planes[it % 2][idx].item()
        return JTuple(self.schema, tuple(vals))

    def heap_tuples(self) -> int:
        return 0
