"""Exception taxonomy for the JStar runtime.

The paper distinguishes several classes of program error:

* schema errors (bad table declarations, unknown fields),
* key-invariant violations (a primary key mapped to two different
  dependent values — the ``->`` invariant of §3),
* causality violations (a rule tried to "change the past", §4),
* stratification errors (the static prover could not show a rule is
  consistent with the declared causality ordering — the paper surfaces
  these as SMT warnings / ``Stratification error`` messages, §6.2).

All runtime errors derive from :class:`JStarError` so callers can catch
the whole family at once.
"""

from __future__ import annotations


class JStarError(Exception):
    """Base class for all errors raised by the JStar runtime."""


class SchemaError(JStarError):
    """A table or field declaration is malformed or inconsistent."""


class UnknownTableError(SchemaError):
    """A rule or query referenced a table that was never declared."""


class UnknownFieldError(SchemaError):
    """A tuple or query referenced a field not present in the schema."""


class ProgramError(JStarError):
    """A program's declarations contradict each other — raised at
    ``freeze()``, before any state exists (e.g. a rule's ``meta=``
    override that does not cover the sites its body performs)."""


class OrderingError(JStarError):
    """The ``order`` declarations are inconsistent (cyclic), or two
    timestamps were compared that the program's orderings leave
    structurally incomparable (e.g. a literal against a value)."""


class KeyInvariantError(JStarError):
    """Two tuples with the same primary key but different dependent
    values were put into a table (violates the ``->`` invariant)."""


class CausalityError(JStarError):
    """A rule violated the law of causality at runtime: it put a tuple
    into the past, or made a negative/aggregate query about the
    present/future (§4)."""


class StratificationError(JStarError):
    """The static causality check could not prove that a rule respects
    the declared ordering.  Mirrors the paper's ``Stratification
    error`` message (§6.2)."""


class StratificationWarning(UserWarning):
    """Non-fatal variant: the prover failed but execution continues.

    The paper "strongly recommends" fixing the program but does not
    refuse to run it; strict mode upgrades this to
    :class:`StratificationError`.
    """


class RuleError(JStarError):
    """A rule body raised, or used the context incorrectly (e.g. called
    ``put`` after the rule finished)."""


class EngineError(JStarError):
    """Internal engine invariant broken, or the engine was driven
    incorrectly (e.g. ``run`` called twice)."""


class WorkerLostError(EngineError):
    """A distributed worker process went away mid-protocol (EOF or a
    broken pipe on its control channel).  Names the dead node and the
    in-flight superstep/attempt epoch so recovery logs are actionable;
    the coordinator catches it for crash recovery and only lets it
    escape when the cluster cannot make progress (e.g. a worker that
    dies during the spawn handshake)."""

    def __init__(self, node: int, step: int | None = None, attempt: int | None = None):
        where = ""
        if step is not None:
            where = f" during step {step}"
            if attempt is not None:
                where += f" (attempt {attempt})"
        super().__init__(f"worker {node} was lost{where}")
        self.node = node
        self.step = step
        self.attempt = attempt


class RetractionError(EngineError):
    """A ``Delete`` event could not be honoured: the tuple was never
    inserted as a base fact, names a derived tuple, or retraction was
    not enabled (``ExecOptions(retraction=True)``).  The session stays
    open and usable after the error."""


class EngineWarning(UserWarning):
    """The engine adjusted an execution option the caller asked for
    (e.g. ``metering="off"`` forced back on by a virtual-time
    strategy).  Always recorded as a note on the run's statistics; additionally *warned* when
    ``causality_check="strict"`` so strict runs never silently diverge
    from their requested configuration."""


class AdmissionWarning(EngineWarning):
    """A tuple fed into an open session carried a timestamp strictly
    below the completed high-water mark and was quarantined instead of
    admitted (``ExecOptions.admission="warn"``; strict mode raises
    :class:`CausalityError` instead).  Admitting it would violate the
    causality law: negative/aggregate answers already computed for
    regions below the high-water mark could be invalidated (§4)."""


class ServiceError(JStarError):
    """Base class for errors raised by the multi-tenant session service
    (:mod:`repro.serve`).  Each subclass carries a stable wire ``code``
    and a ``retryable`` flag; the service maps them onto structured
    error responses (``{"code", "message", "retryable"}``) so clients
    can distinguish *backpressure* (retry the same request later,
    nothing was mutated) from *protocol or semantic* failures (fix the
    request).  The taxonomy is the serving-side analogue of the engine
    error classes above."""

    code = "service"
    retryable = False


class ProtocolError(ServiceError):
    """The frame or request was malformed: bad length prefix, invalid
    JSON, a non-object payload, or missing required fields."""

    code = "protocol"


class FrameTooLargeError(ProtocolError):
    """A frame exceeded the service's ``max_frame_bytes``.  Not
    retryable as-is: the client must split the batch."""

    code = "frame-too-large"


class UnknownVerbError(ProtocolError):
    """The request named a verb the service does not speak."""

    code = "unknown-verb"


class UnknownProgramError(ServiceError):
    """``open`` named a program absent from the service registry."""

    code = "unknown-program"


class UnknownTenantError(ServiceError):
    """A verb addressed a tenant with no live session and no durable
    snapshot (never opened, or closed and reaped)."""

    code = "unknown-tenant"


class TenantClosedError(ServiceError):
    """The tenant's session was closed; open a fresh tenant id."""

    code = "closed"


class BackpressureError(ServiceError):
    """The service refused the request to protect itself; nothing was
    admitted or mutated.  Always retryable: the same request is valid
    later, when load has drained."""

    code = "backpressure"
    retryable = True


class TenantLimitError(BackpressureError):
    """``open`` refused: the session table is at ``max_tenants``."""

    code = "tenant-limit"


class OverloadedError(BackpressureError):
    """``feed`` refused: admitting the batch would push the in-flight
    feed bytes over ``max_inflight_bytes``."""

    code = "overloaded"


class UnsafeOperationError(JStarError):
    """Side-effecting operation attempted outside an ``unsafe`` rule.

    The paper bans mutable state and side effects in ordinary rules;
    system rules (CSV reading, printing) must be declared unsafe
    (footnote 1 of §1.2).
    """


class DisruptorError(JStarError):
    """Misuse of the disruptor substrate (overrun, double start, ...)."""


class SolverError(JStarError):
    """The causality prover was given a malformed obligation."""
