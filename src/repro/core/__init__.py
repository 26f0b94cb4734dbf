"""The JStar language runtime — the paper's primary contribution.

Public API::

    from repro.core import Program, ExecOptions, Lit, Seq, Par

    p = Program("ship")
    Ship = p.table("Ship", "int frame -> int x, int y, int dx, int dy",
                   orderby=("Int", "seq frame"))

    @p.foreach(Ship)
    def move_right(ctx, s):
        if s.x < 400:
            ctx.put(Ship.new(s.frame + 1, s.x + 150, s.y, s.dx, s.dy))

    p.put(Ship.new(0, 10, 10, 150, 0))
    result = p.run(ExecOptions(strategy="forkjoin", threads=8))
"""

from repro.core.database import Database, InsertOutcome
from repro.core.delta import Delete, DeltaTree, Insert
from repro.core.kernel import FeedReport, RunResult
from repro.core.errors import (
    AdmissionWarning,
    BackpressureError,
    CausalityError,
    EngineError,
    EngineWarning,
    FrameTooLargeError,
    JStarError,
    KeyInvariantError,
    OrderingError,
    ProgramError,
    OverloadedError,
    ProtocolError,
    RetractionError,
    RuleError,
    SchemaError,
    ServiceError,
    StratificationError,
    StratificationWarning,
    TenantClosedError,
    TenantLimitError,
    UnknownFieldError,
    UnknownProgramError,
    UnknownTableError,
    UnknownTenantError,
    UnknownVerbError,
    UnsafeOperationError,
)
from repro.core.ordering import (
    Lit,
    OrderDecls,
    Par,
    Seq,
    Timestamp,
    compare_timestamps,
)
from repro.core.program import ExecOptions, Program, RetentionHint
from repro.core.query import Query, QueryKind, build_query
from repro.core.reducers import (
    CountReducer,
    FnReducer,
    MaxReducer,
    MinReducer,
    Reducer,
    Statistics,
    StatisticsAcc,
    SumReducer,
    reduce_all,
    scan,
    tree_reduce,
)
from repro.core.rules import Rule, RuleContext
from repro.core.schema import Field, TableSchema
from repro.core.session import EngineSession, causal_chunks, causal_sort
from repro.core.tuples import JTuple, TableHandle

__all__ = [
    "Program",
    "ExecOptions",
    "RetentionHint",
    "EngineSession",
    "FeedReport",
    "causal_sort",
    "causal_chunks",
    "RunResult",
    "TableSchema",
    "TableHandle",
    "Field",
    "JTuple",
    "Rule",
    "RuleContext",
    "Query",
    "QueryKind",
    "build_query",
    "Database",
    "InsertOutcome",
    "DeltaTree",
    "Insert",
    "Delete",
    "Lit",
    "Seq",
    "Par",
    "OrderDecls",
    "Timestamp",
    "compare_timestamps",
    "Reducer",
    "SumReducer",
    "CountReducer",
    "MinReducer",
    "MaxReducer",
    "Statistics",
    "StatisticsAcc",
    "FnReducer",
    "reduce_all",
    "scan",
    "tree_reduce",
    "JStarError",
    "SchemaError",
    "UnknownTableError",
    "UnknownFieldError",
    "OrderingError",
    "ProgramError",
    "KeyInvariantError",
    "CausalityError",
    "RetractionError",
    "StratificationError",
    "StratificationWarning",
    "RuleError",
    "EngineError",
    "EngineWarning",
    "AdmissionWarning",
    "UnsafeOperationError",
    "ServiceError",
    "ProtocolError",
    "FrameTooLargeError",
    "UnknownVerbError",
    "UnknownProgramError",
    "UnknownTenantError",
    "TenantClosedError",
    "BackpressureError",
    "TenantLimitError",
    "OverloadedError",
]
