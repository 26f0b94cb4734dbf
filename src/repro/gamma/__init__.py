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

The two ordered stores — and the Delta tree's ``seq`` levels — sit on
one ``sortedcontainers.SortedDict``, a dict for point probes beside a
sorted key list for ordered scans; they differ only in cost profile.
"""

from repro._lazy import lazy_exports
from repro.gamma.base import CostProfile, StoreFactory, StoreRegistry, TableStore
from repro.gamma.hashindex import ArrayOfHashSetsStore, HashIndexStore, HashKeyStore
from repro.gamma.treeset import ConcurrentSkipListStore, TreeSetStore

# numpy loads with the first native-array store, not with the engine
__getattr__, __dir__ = lazy_exports(
    __name__, {"nativearray": ("NativeArrayStore", "TwoIterationArrayStore")}
)

__all__ = [
    "CostProfile",
    "StoreFactory",
    "StoreRegistry",
    "TableStore",
    "TreeSetStore",
    "ConcurrentSkipListStore",
    "HashKeyStore",
    "HashIndexStore",
    "ArrayOfHashSetsStore",
    "NativeArrayStore",
    "TwoIterationArrayStore",
]
