"""The worker-mesh backend of the sharded tier —
``ExecOptions(strategy="processes")``.

Where :class:`~repro.dist.engine.DistEngine` *prices* a cluster, this
module runs one: N OS worker processes (:mod:`repro.dist.worker`), each
owning the Gamma shards its :class:`~repro.dist.placement.PlacementMap`
assigns it.  What runs is the one step loop — an ordinary
:class:`~repro.core.session.EngineSession` over a
:class:`~repro.core.kernel.StepKernel` whose phase B is the sharded
tier (:class:`~repro.dist.superstep.ShardedExecutor`): class order,
duplicate verdicts and phase C are the kernel's, fire nodes and the
(batch index, rule) record order the tier's — so output, table sizes
and the semantic trace are byte-identical to a sequential run (§1.3
across *machines*, not just strategies).  This module implements only
the backend contract, over two planes:

* a **control plane** — one coordinator↔worker channel per worker
  (:mod:`~repro.dist.transport`: a duplex pipe, or length-prefixed TCP
  so workers can live on other hosts) carrying step frames, done
  records, membership, and recovery.  Every tuple travels here, once
  each way: a put rides the firing worker's done record to the
  coordinator (phase C needs its values), and the step frame of the
  class that later pops it carries it, by value, to its owners;
* a **peer plane** — a direct worker↔worker mesh carrying the reads of
  other shards, a batch of probes per ``q`` frame and its rows per
  ``a`` frame; the coordinator never touches a query.

``execute`` turns a planned class into one step frame per worker,
``{step, attempt, insert: [(table, values)…], fire: [(idx, pos)…]}`` —
phase-A inserts for the slice the worker owns, fire assignments
indexing into them — and gathers the done records.  Step frame and read
exchange are once per iteration: nothing is shipped per derived fact,
nor per probe a rule's read plan predicts (EXPERIMENTS.md, "Benchmark
anomaly 2" and "4").

Crash recovery (DESIGN.md §5.3 has the protocol): the kernel's Gamma is
the control replica, and it holds the class being fired — phase A
precedes phase B, as on one node.  When a worker dies mid-step,
``execute`` aborts the step on the survivors, re-forks and re-meshes
the lost node, bootstraps it from its slice of the replica and re-sends
the same frames under a new attempt epoch.  A worker's phase A is
idempotent, a completed step is replayed from a reply cache
(at-most-once rule execution), and one that had not completed
exchanges again — what an aborted attempt fetched is dropped with it.
Every done record carries a counter snapshot; a crashed incarnation's
last one is folded into its replacement's totals, so ``format_nodes``
survives recovery.
"""

from __future__ import annotations

import os
import pickle
import signal
import time
from multiprocessing import get_context

from repro.core.errors import EngineError, WorkerLostError
from repro.core.kernel import RunResult
from repro.core.program import ExecOptions, Program
from repro.core.session import EngineSession
from repro.dist.network import sum_counters
from repro.dist.placement import PlacementMap
from repro.dist.superstep import sharded_kernel
from repro.dist.transport import (
    PeerListener,
    PipeChannel,
    resolve_transport,
    wait_readable,
)
from repro.dist.worker import program_fingerprint, worker_entry

__all__ = ["ProcessShardRuntime", "run_sharded"]

#: forks attempted per node before the spawn handshake gives up
_SPAWN_TRIES = 3


class _Worker:
    """Coordinator-side handle for one worker process."""

    __slots__ = ("node", "proc", "channel", "incarnation", "peer_addr")

    def __init__(self, node: int, proc, channel, incarnation: int):
        self.node = node
        self.proc = proc
        self.channel = channel
        self.incarnation = incarnation
        self.peer_addr = None


class ProcessShardRuntime:
    """One multiprocess sharded run: the worker processes and the wire
    behind the step kernel's sharded tier."""

    def __init__(
        self,
        program: Program,
        options: ExecOptions | None = None,
        *,
        n_workers: int | None = None,
        placements: dict | PlacementMap | None = None,
        fault_kill: tuple[int, int] | None = None,
        fault_die_on_serve: tuple[int, int] | None = None,
        transport: str | None = None,
    ):
        self.program = program
        if options is None:
            options = ExecOptions()
        self.n_nodes = n_workers if n_workers is not None else options.threads
        if self.n_nodes < 1:
            raise EngineError("the process runtime needs at least one worker")
        self.transport = resolve_transport(transport)
        self.kernel = sharded_kernel(program, options, placements, self.n_nodes, self)
        self.tier = self.kernel.executor
        self.options = self.kernel.options
        self.placements = self.tier.placements
        self.stats = self.kernel.stats
        self._fingerprint = program_fingerprint(program)
        self._fault_kill = fault_kill
        self._killed = False
        self._epoch = 1
        self._recoveries: dict[int, int] = {}
        self.workers: list[_Worker] = []
        self._by_chan: dict = {}
        self._ctx = get_context("fork")
        self._ctl_listener: PeerListener | None = None
        #: node -> counter block of its most recent done record, the
        #: carry-forward source when that incarnation crashes
        self._last_counters: dict[int, bytes] = {}
        #: node -> the last counter block of each crashed incarnation
        self._carry: dict[int, list[bytes]] = {}
        self._conf = {
            "check_mode": self.options.causality_check,
            "traced": self.options.trace,
            "transport": self.transport,
            "fault_serve_die": fault_die_on_serve,
        }

    # -- worker management ---------------------------------------------------

    def _fork(self, node: int, incarnation: int) -> _Worker:
        conf = {**self._conf, "incarnation": incarnation}
        parent_conn = child_conn = None
        if self.transport == "tcp":
            if self._ctl_listener is None:
                self._ctl_listener = PeerListener("tcp", tag="ctl")
            control = ("tcp", self._ctl_listener.address)
        else:
            parent_conn, child_conn = self._ctx.Pipe()
            control = ("pipe", child_conn)
        proc = self._ctx.Process(
            target=worker_entry,
            args=(node, self.n_nodes, control, self.program, self.placements, conf),
            daemon=True,
        )
        proc.start()
        if child_conn is None:
            return _Worker(node, proc, None, incarnation)  # it dials our listener
        # the child's end must live only in the child, or its death
        # would never read as EOF on our side
        child_conn.close()
        return _Worker(node, proc, PipeChannel(parent_conn), incarnation)

    def _reap(self, w: _Worker) -> None:
        if w.channel is not None:
            w.channel.close()
        if w.proc.is_alive():
            w.proc.terminate()
        w.proc.join(timeout=10)

    def _spawn(self, node: int, incarnation: int = 0) -> _Worker:
        """Fork a worker and complete the hello handshake under a
        bounded wait: a worker that hangs before its hello frame is
        terminated and re-forked, and only after ``_SPAWN_TRIES`` forks
        does the runtime give up with a clear error."""
        timeout = float(os.environ.get("DIST_HELLO_TIMEOUT", "30"))
        for attempt in range(_SPAWN_TRIES):
            w = self._fork(node, incarnation)
            hello = self._await_hello(w, timeout)
            if hello is not None:
                if hello.get("t") != "hello" or hello.get("node") != node:
                    raise EngineError(f"worker {node}: bad handshake {hello!r}")
                if hello.get("fingerprint") != self._fingerprint:
                    raise EngineError(
                        f"worker {node} is running a different program "
                        "(fingerprint mismatch in the bootstrap handshake)"
                    )
                w.peer_addr = hello["peer_addr"]
                return w
            self._reap(w)
            self.stats.note(
                "worker.respawned",
                f"worker {node} did not complete its hello handshake within "
                f"{timeout:g}s; terminated and re-forked",
                str(node),
            )
        raise EngineError(
            f"worker {node} never completed the spawn handshake: "
            f"{_SPAWN_TRIES} forks hung before their hello frame "
            f"(timeout {timeout:g}s each)"
        )

    def _await_hello(self, w: _Worker, timeout: float) -> dict | None:
        """The worker's first frame, or None when it hung past the
        bounded wait.  Under tcp the worker dials our listener first,
        so the wait covers both the connect-back and the frame."""
        if self.transport == "tcp":
            ch = self._ctl_listener.accept(timeout=timeout)
            if ch is None:
                return None
            w.channel = ch
        if not w.channel.poll(timeout):
            return None
        msg = self._recv(w)
        if msg.get("t") == "error":
            raise EngineError(
                f"worker {w.node} failed during startup: "
                f"{msg['error']}\n{msg['traceback']}"
            )
        return msg

    def _expect_mesh(self, w: _Worker) -> None:
        msg = self._recv(w)
        while msg.get("t") != "mesh":
            if msg.get("t") == "error":
                raise EngineError(
                    f"worker {w.node} failed while meshing: "
                    f"{msg['error']}\n{msg['traceback']}"
                )
            msg = self._recv(w)

    def _start_workers(self) -> None:
        # append as we go: a handshake failure on node k must still let
        # the teardown path reap nodes < k
        for node in range(self.n_nodes):
            self.workers.append(self._spawn(node))
        self._by_chan = {w.channel: w for w in self.workers}
        # mesh: worker i dials every j < i and accepts every j > i
        for w in self.workers:
            self._send(
                w,
                {
                    "t": "peers",
                    "connect": {
                        p.node: p.peer_addr for p in self.workers if p.node < w.node
                    },
                    "await": [p.node for p in self.workers if p.node > w.node],
                },
            )
        for w in self.workers:
            self._expect_mesh(w)

    def _replace_worker(self, node: int) -> None:
        w = self.workers[node]
        # fold the crashed incarnation's last-reported counters into the
        # node's carry so the final report keeps its traffic
        snap = self._last_counters.pop(node, None)
        if snap is not None:
            self._carry.setdefault(node, []).append(snap)
        self._reap(w)
        fresh = self._spawn(node, incarnation=w.incarnation + 1)
        self.workers[node] = fresh
        self._by_chan = {v.channel: v for v in self.workers}
        # the replacement dials every survivor; survivors accept it from
        # their poll loops before the retry step reaches them
        self._send(
            fresh,
            {
                "t": "peers",
                "connect": {
                    p.node: p.peer_addr for p in self.workers if p.node != node
                },
                "await": [],
            },
        )
        self._expect_mesh(fresh)
        tables: dict[str, list] = {}
        for name, store in self.kernel.db.stores.items():
            rows = []
            for t in store.scan():
                home = self.placements.home_of(t, self.n_nodes)
                if home is None or home == node:
                    rows.append(list(t.values))
            if rows:
                tables[name] = rows
        self._send(fresh, {"t": "bootstrap", "tables": tables})

    def _terminate_all(self) -> None:
        for w in self.workers:
            self._reap(w)
        if self._ctl_listener is not None:
            self._ctl_listener.close()
            self._ctl_listener = None

    # -- framing --------------------------------------------------------------

    def _send(self, w: _Worker, msg: dict) -> None:
        data = pickle.dumps(msg, protocol=pickle.HIGHEST_PROTOCOL)
        try:
            w.channel.send_bytes(data)
        except (BrokenPipeError, ConnectionResetError, OSError):
            raise WorkerLostError(w.node, self.kernel.steps or None, self._epoch) from None

    def _recv(self, w: _Worker) -> dict:
        try:
            data = w.channel.recv_bytes()
        except (EOFError, ConnectionResetError, OSError):
            raise WorkerLostError(w.node, self.kernel.steps or None, self._epoch) from None
        return pickle.loads(data)

    # -- the run ---------------------------------------------------------------

    def run(self) -> RunResult:
        t0 = time.perf_counter()
        session = EngineSession(self.program, _kernel=self.kernel)
        # read each rule body once, before the fork: every worker's
        # shard derives its read plans from the analysis it inherits
        for rule in self.program.rules:
            rule.analysis()
        try:
            self._start_workers()
            with session:
                session.feed(self.program.initial_puts, source="<init>")
                session.settle()
                nodes = self._finish()
        except BaseException:
            self._terminate_all()
            raise
        if self._ctl_listener is not None:
            self._ctl_listener.close()
            self._ctl_listener = None
        result = session.result
        # the session timed its own feed and settle; a sharded run's
        # wall also covers spawning, meshing and reaping the workers
        result.wall_time = time.perf_counter() - t0
        result.nodes = nodes
        return result

    # -- the backend contract ----------------------------------------------------

    def execute(self, step: int, plan: list) -> dict[int, list[dict]]:
        """Broadcast the planned class and gather its done records,
        re-forking lost workers and retrying the step until one attempt
        completes on every node."""
        if (
            self._fault_kill is not None
            and not self._killed
            and self._fault_kill[1] == step
        ):
            # injected failure (tests): SIGKILL the target at superstep
            # start, reap it so the broadcast hits a closed channel
            self._killed = True
            victim = self.workers[self._fault_kill[0]]
            os.kill(victim.proc.pid, signal.SIGKILL)
            victim.proc.join(timeout=10)
        frames = self._build_frames(step, plan)
        deaths = 0
        while True:
            try:
                return self._attempt(step, frames)
            except WorkerLostError as exc:
                deaths += 1
                if deaths > 2 * self.n_nodes:
                    raise EngineError(
                        f"step {step} could not complete: workers kept dying "
                        f"({deaths} deaths); last lost node {exc.node}"
                    ) from exc
                self._recover(exc.node)

    # -- step frames, attempts, recovery ---------------------------------------

    def _build_frames(self, step: int, plan: list) -> list[dict]:
        """One step frame per worker: the phase-A inserts of the slice
        it owns, by value, and fire assignments as (batch index,
        position in that insert list)."""
        inserts: list[list] = [[] for _ in range(self.n_nodes)]
        fires: list[list] = [[] for _ in range(self.n_nodes)]
        for idx, (tup, dup, node) in enumerate(plan):
            row = (tup.schema.name, tuple(tup.values))
            for o in self.placements.owners_of(tup, self.n_nodes):
                if o == node and not dup:
                    fires[o].append((idx, len(inserts[o])))
                inserts[o].append(row)
        return [
            {"t": "step", "step": step, "insert": inserts[n], "fire": fires[n]}
            for n in range(self.n_nodes)
        ]

    def _attempt(self, step: int, frames: list[dict]) -> dict:
        epoch = self._epoch
        for w in self.workers:
            self._send(w, {**frames[w.node], "attempt": epoch})
        records: dict[int, list] = {}
        done: set[int] = set()
        chans = [w.channel for w in self.workers]
        while len(done) < self.n_nodes:
            for ch in wait_readable(chans):
                w = self._by_chan[ch]
                msg = self._recv(w)
                t = msg["t"]
                if t == "done":
                    if msg["attempt"] != epoch:
                        continue  # stale reply from before a recovery
                    done.add(w.node)
                    self._last_counters[w.node] = msg["counters"]
                    for idx, entries in msg["records"]:
                        records[idx] = entries
                elif t == "error":
                    # a deterministic failure inside a rule: re-raise
                    # here instead of looping through crash recovery
                    raise EngineError(
                        f"worker {w.node} failed: {msg['error']}\n{msg['traceback']}"
                    )
        return records

    def _recover(self, node: int) -> None:
        """Bring a lost node back from the control replica and abort the
        in-flight attempt on the survivors."""
        self._epoch += 1
        self._recoveries[node] = self._recoveries.get(node, 0) + 1
        self.stats.note(
            "worker.restarted",
            f"worker {node} died during step {self.kernel.steps}; restarted from "
            "the control replica",
            str(node),
        )
        dead = [node]
        aborted: set[int] = set()
        while dead:
            n = dead.pop()
            aborted.discard(n)
            self._replace_worker(n)
            for w in self.workers:
                if w.node == n or w.node in aborted:
                    continue
                try:
                    self._send(
                        w, {"t": "abort", "step": self.kernel.steps, "attempt": self._epoch}
                    )
                    aborted.add(w.node)
                except WorkerLostError:
                    self._epoch += 1
                    self._recoveries[w.node] = self._recoveries.get(w.node, 0) + 1
                    dead.append(w.node)

    # -- teardown --------------------------------------------------------------

    def _finish(self) -> list[dict]:
        for w in self.workers:
            self._send(w, {"t": "finish"})
        nodes: list[dict] = []
        shard_sizes: dict[str, list[int]] = {
            name: [0] * self.n_nodes for name in self.tier.schemas
        }
        for w in self.workers:
            msg = self._recv(w)
            while msg.get("t") != "bye":  # drain stragglers (stale dones)
                msg = self._recv(w)
            for name, size in msg["table_sizes"].items():
                shard_sizes[name][w.node] = size
            # workers only observe queries; fires/puts/output were
            # counted here from the merged records
            self.stats.merge_state(msg["stats"])
            nodes.append(
                {
                    "node": w.node,
                    "fires": self.tier.node_fires[w.node],
                    "puts": self.tier.node_puts[w.node],
                    **sum_counters([msg["counters"], *self._carry.get(w.node, ())]),
                    "recovered": self._recoveries.get(w.node, 0),
                }
            )
            w.proc.join(timeout=10)
            w.channel.close()
        self.tier.check_shards(shard_sizes)
        return nodes


def run_sharded(
    program: Program,
    options: ExecOptions | None = None,
    *,
    n_workers: int | None = None,
    placements: dict | PlacementMap | None = None,
    fault_kill: tuple[int, int] | None = None,
    fault_die_on_serve: tuple[int, int] | None = None,
    transport: str | None = None,
) -> RunResult:
    """Run ``program`` on real worker processes and return the merged
    :class:`~repro.core.kernel.RunResult` (its ``nodes`` field carries
    the per-node compute/traffic summaries, control and peer planes
    separately).

    ``transport`` picks the wire (``pipe`` or ``tcp``; default honours
    the ``DIST_TRANSPORT`` environment variable).  ``fault_kill=(node,
    step)`` SIGKILLs one worker at the start of one superstep;
    ``fault_die_on_serve=(node, step)`` makes a worker die with a peer
    query in flight (between request and reply) — the crash-recovery
    test hooks.  The result's ``meter`` is empty: the mesh measures real
    wire traffic, not virtual time.
    """
    return ProcessShardRuntime(
        program,
        options,
        n_workers=n_workers,
        placements=placements,
        fault_kill=fault_kill,
        fault_die_on_serve=fault_die_on_serve,
        transport=transport,
    ).run()
