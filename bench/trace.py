"""Outside-in tracer: ``perf_counter_ns`` wrappers installed on the
runtime's entry points from the benchmark process, nothing under
``src/`` edited.

A span is one call of a wrapped entry point.  Its *self time* is its
duration minus the time its child spans cover, so the self times of all
spans plus the region's own remainder add up to the region's wall (on
one thread).  Every span name also counts calls and one or two work
units (tuples, rows, bytes), measured at the same boundary.

Wrappers are class or module attributes replaced before the kernel is
built; the runtime caches bound methods at construction, so installing
after that would miss them.  Spans inside forked mesh workers are
recorded in the workers and lost with them: the mesh leg reports
coordinator spans plus outer numbers only.  The codegen tier bypasses
``RuleContext`` and the prepared selects, so traced repetitions run the
scalar tier.
"""

from __future__ import annotations

import asyncio
import threading
from contextlib import contextmanager
from time import perf_counter_ns as _now
from typing import Any, Callable

__all__ = ["Tracer", "REGION"]

#: the root span: what the timed region spent outside every wrapper
REGION = "bench.region"


class _ThreadState:
    __slots__ = ("child", "acc")

    def __init__(self) -> None:
        self.child = 0
        #: span name -> [self_ns, calls, units, aux]
        self.acc: dict[str, list[int]] = {}


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        #: id(task) -> [child_ns, depth] for spans that await
        self._tasks: dict[int, list[int]] = {}
        self._undo: list[tuple[Any, str, Any]] = []
        self._region: dict[str, list[int]] = {}

    # -- accounting ----------------------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._local.st
        except AttributeError:
            st = self._local.st = _ThreadState()
            with self._lock:
                self._states.append(st)
            return st

    def _sync(self, fn: Callable, name: str, units: Callable | None = None) -> Callable:
        state = self._state

        def traced(*args, **kw):
            st = state()
            outer = st.child
            st.child = 0
            t0 = _now()
            try:
                out = fn(*args, **kw)
            finally:
                dt = _now() - t0
                rec = st.acc.get(name)
                if rec is None:
                    rec = st.acc[name] = [0, 0, 0, 0]
                rec[0] += dt - st.child
                rec[1] += 1
                st.child = outer + dt
            if units is not None:
                units(rec, args, out)
            return out

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__wrapped__ = fn
        return traced

    def _async(self, fn: Callable, name: str, units: Callable | None = None) -> Callable:
        """Span around a coroutine.  Children are tracked per task (a
        thread-local would mix the tasks sharing the loop thread); only
        other ``_async`` spans count as its children."""
        state = self._state
        tasks = self._tasks

        async def traced(*args, **kw):
            key = id(asyncio.current_task())
            slot = tasks.get(key)
            if slot is None:
                slot = tasks[key] = [0, 0]
            outer = slot[0]
            slot[0] = 0
            slot[1] += 1
            t0 = _now()
            try:
                out = await fn(*args, **kw)
            finally:
                dt = _now() - t0
                st = state()
                rec = st.acc.get(name)
                if rec is None:
                    rec = st.acc[name] = [0, 0, 0, 0]
                rec[0] += dt - slot[0]
                rec[1] += 1
                slot[0] = outer + dt
                slot[1] -= 1
                if slot[1] == 0:
                    del tasks[key]
            if units is not None:
                units(rec, args, out)
            return out

        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    @contextmanager
    def region(self):
        """The timed region as the root span.  Only what the wrappers
        record between entry and exit counts (set-up, other legs and
        oracle runs go through the same wrappers); the region's own
        self time is what no wrapper covered."""
        st = self._state()
        base = self._raw_totals()
        st.child = 0
        t0 = _now()
        try:
            yield
        finally:
            dt = _now() - t0
            for name, rec in self._raw_totals().items():
                before = base.get(name, (0, 0, 0, 0))
                acc = self._region.setdefault(name, [0, 0, 0, 0])
                for i in range(4):
                    acc[i] += rec[i] - before[i]
            root = self._region.setdefault(REGION, [0, 0, 0, 0])
            root[0] += dt - st.child
            root[1] += 1
            root[2] += dt
            st.child = 0

    def _raw_totals(self) -> dict[str, list[int]]:
        out: dict[str, list[int]] = {}
        with self._lock:
            states = list(self._states)
        for st in states:
            for name, rec in st.acc.items():
                tot = out.setdefault(name, [0, 0, 0, 0])
                for i in range(4):
                    tot[i] += rec[i]
        return out

    def totals(self) -> dict[str, list[int]]:
        """Span name -> ``[self_ns, calls, units, aux]`` recorded inside
        the region, over all threads; the region itself is ``REGION``
        with its wall in ``units``."""
        return self._region

    # -- installation --------------------------------------------------------

    def _patch(self, owner: Any, attr: str, new: Any) -> None:
        # vars() keeps classmethod/staticmethod wrappers intact for uninstall
        old = vars(owner)[attr] if attr in vars(owner) else getattr(owner, attr)
        self._undo.append((owner, attr, old))
        setattr(owner, attr, new)

    def wrap(self, owner: Any, attr: str, name: str, units: Callable | None = None) -> None:
        self._patch(owner, attr, self._sync(getattr(owner, attr), name, units))

    def wrap_async(self, owner: Any, attr: str, name: str, units: Callable | None = None) -> None:
        self._patch(owner, attr, self._async(getattr(owner, attr), name, units))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def install(self, *groups: str) -> None:
        for group in groups:
            getattr(self, "_install_" + group)()

    def _install_engine(self) -> None:
        """Delta, Gamma, ordering, rules, plan, kernel and session: the
        layers every single-process workload goes through."""
        from repro.core.database import Database
        from repro.core.delta import DeltaTree
        from repro.core.kernel import StepKernel
        from repro.core.program import Program
        from repro.core.rules import Rule, RuleContext
        from repro.core.session import EngineSession
        from repro.gamma.base import PreparedSelect, TableStore
        from repro.plan.cache import PlanCache

        self.wrap(DeltaTree, "pop_min_class", "core.delta.pop", _units_len_out)
        self.wrap(DeltaTree, "insert", "core.delta.insert", _units_delta_insert)
        self.wrap(DeltaTree, "insert_batch", "core.delta.insert", _units_delta_batch)
        self.wrap(DeltaTree, "remove", "core.delta.remove")
        self.wrap(Database, "insert", "gamma.insert", _units_one)
        self.wrap(Database, "insert_batch", "gamma.insert", _units_len_arg1)
        # retraction removes through the store objects, not the Database
        for cls in (TableStore, *_subclasses(TableStore)):
            if "remove" in vars(cls):
                self.wrap(cls, "remove", "gamma.remove")
        self.wrap(Database, "__contains__", "gamma.contains")
        self.wrap(Database, "select", "gamma.select", _units_len_out)
        self.wrap(Database, "timestamp", "core.ordering.timestamp")
        self.wrap(RuleContext, "put", "core.rules.put")
        for verb in ("get", "get_uniq", "exists", "absent", "get_min", "count", "reduce"):
            self.wrap(RuleContext, verb, "core.rules.query")
        self.wrap(Program, "freeze", "plan.freeze")
        self.wrap(PlanCache, "lookup", "plan.lookup")
        self.wrap(StepKernel, "__init__", "plan.kernel_build")
        self.wrap(StepKernel, "feed", "core.kernel.step")
        self.wrap(StepKernel, "drain", "core.kernel.step")
        self.wrap(EngineSession, "feed", "core.session.feed", _units_admitted)
        self.wrap(EngineSession, "settle", "core.session.settle")
        self.wrap(EngineSession, "close", "core.session.close")
        self.wrap(EngineSession, "snapshot", "core.session.snapshot")

        # planned queries reach the stores through PreparedSelect.run
        # (an instance attribute) and rule bodies through Rule.body, so
        # the constructors hand out wrapped callables
        sync = self._sync
        select_init = PreparedSelect.__init__
        rule_init = Rule.__init__

        def prepared_init(self, run, *args, **kw):
            select_init(self, sync(run, "gamma.select", _units_len_out), *args, **kw)

        def traced_rule_init(self, trigger, body, *args, **kw):
            rule_init(self, trigger, body, *args, **kw)
            self.body = sync(body, "core.rules.body")

        self._patch(PreparedSelect, "__init__", prepared_init)
        self._patch(Rule, "__init__", traced_rule_init)

    def _install_csvio(self) -> None:
        import repro.apps.pvwatts as pvwatts

        # the app binds read_region by name at import; patch that binding
        self.wrap(pvwatts, "read_region", "csvio.read", _units_csv)

    def _install_dist(self) -> None:
        """Coordinator side of the mesh.  Workers are forked from this
        process and inherit the wrappers, but their spans die with them."""
        import repro.dist.procrun as procrun
        from repro.dist.transport import PipeChannel

        self.wrap(procrun.ProcessShardRuntime, "__init__", "plan.kernel_build")
        self.wrap(procrun.ProcessShardRuntime, "run", "dist.procrun.coord")
        self.wrap(procrun.ProcessShardRuntime, "_start_workers", "dist.procrun.spawn")
        self.wrap(procrun, "wait_readable", "dist.procrun.coord_wait")
        self.wrap(PipeChannel, "recv_bytes", "dist.procrun.coord_wait")

    def _install_serve(self) -> None:
        """Service side, for a service running in this process."""
        import repro.serve.protocol as protocol
        import repro.serve.service as service
        import repro.serve.tenant as tenant
        from repro.serve.tenant import TenantSession

        # decode = frame read minus the wait for bytes; the client reads
        # through protocol.read_frame, which keeps the unwrapped binding
        self.wrap_async(service, "read_frame_with_size", "serve.protocol.decode", _units_frame)
        self.wrap_async(asyncio.StreamReader, "readexactly", "net.recv_wait")
        self.wrap(tenant, "decode_events", "serve.protocol.decode_events")
        # both sides encode through one function; responses carry "ok"
        encode = protocol.encode_frame
        traced_encode = self._sync(encode, "serve.protocol.encode")
        self._patch(
            protocol,
            "encode_frame",
            lambda obj: traced_encode(obj) if "ok" in obj else encode(obj),
        )
        self.wrap(TenantSession, "feed", "serve.tenant.feed")
        self.wrap(TenantSession, "settle", "serve.tenant.settle")
        self.wrap(TenantSession, "checkpoint", "serve.tenant.checkpoint")
        self.wrap(TenantSession, "create", "serve.tenant.open")
        self.wrap(TenantSession, "close", "serve.tenant.close")


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


# -- unit counters: (rec, args, out) -> None; rec = [ns, calls, units, aux]


def _units_one(rec, args, out) -> None:
    rec[2] += 1


def _units_len_out(rec, args, out) -> None:
    rec[2] += len(out)


def _units_len_arg1(rec, args, out) -> None:
    rec[2] += len(args[1])


def _units_delta_insert(rec, args, out) -> None:
    rec[2] += 1
    rec[3] += 1 if out else 0  # aux = accepted


def _units_delta_batch(rec, args, out) -> None:
    rec[2] += len(out)
    rec[3] += sum(out)


def _units_admitted(rec, args, out) -> None:
    rec[2] += out.admitted


def _units_csv(rec, args, out) -> None:
    rec[2] += out  # records
    rec[3] += args[2] - args[1]  # region bytes


def _units_frame(rec, args, out) -> None:
    if out is not None:
        rec[2] += out[1]  # body bytes
