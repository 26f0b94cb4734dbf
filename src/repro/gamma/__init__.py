"""Gamma data-structure backends (§1.4 "late commitment to data
structures" and the §5/§6 data-structure experiments).

The public surface is the :class:`~repro.gamma.base.TableStore`
interface — ``insert``, ``__contains__``, ``__len__``, ``scan``,
``clear`` and optionally ``prepare``, the one read (an access path
resolved per query shape); ``select`` is derived from it — the
:class:`~repro.gamma.base.StoreRegistry` factory mechanism, and the
concrete backends:

============================  ==============================================
backend                        Java analogue in the paper
============================  ==============================================
:class:`TreeSetStore`          ``TreeSet`` (sequential default)
:class:`ConcurrentSkipListStore` ``ConcurrentSkipListSet`` (parallel default)
:class:`HashKeyStore`          ``HashMap`` keyed table
:class:`HashIndexStore`        ``HashSet`` / ``ConcurrentHashMap`` index
:class:`ArrayOfHashSetsStore`  the custom month-array PvWatts store (§6.2)
:class:`NativeArrayStore`      Java 2-D primitive arrays (§6.4)
:class:`TwoIterationArrayStore` ``double[2][N]`` Median store (§6.6)
============================  ==============================================

On top of any backend, :class:`IndexedStore` maintains the secondary
indexes of an :class:`IndexSpec` plan — derived statically from the
program's rules by :func:`plan_indexes` (``ExecOptions(index_mode=
"auto")``) or given explicitly per table.
"""

from repro.gamma.base import CostProfile, StoreFactory, StoreRegistry, TableStore
from repro.gamma.hashindex import ArrayOfHashSetsStore, HashIndexStore, HashKeyStore
from repro.gamma.indexed import IndexedStore, IndexingRegistry
from repro.gamma.indexplan import (
    AccessPattern,
    IndexSpec,
    collect_access_patterns,
    plan_indexes,
    spec_for_pattern,
)
from repro.gamma.nativearray import NativeArrayStore, TwoIterationArrayStore
from repro.gamma.skiplist import SkipListMap, SkipListSet
from repro.gamma.treeset import ConcurrentSkipListStore, TreeSetStore

__all__ = [
    "CostProfile",
    "StoreFactory",
    "StoreRegistry",
    "TableStore",
    "SkipListMap",
    "SkipListSet",
    "TreeSetStore",
    "ConcurrentSkipListStore",
    "HashKeyStore",
    "HashIndexStore",
    "ArrayOfHashSetsStore",
    "NativeArrayStore",
    "TwoIterationArrayStore",
    "IndexedStore",
    "IndexingRegistry",
    "IndexSpec",
    "AccessPattern",
    "collect_access_patterns",
    "plan_indexes",
    "spec_for_pattern",
]
