"""The shard worker process of :class:`~repro.dist.procrun.ProcessShardRuntime`.

One worker = one OS process owning the Gamma shards its
:class:`~repro.dist.placement.PlacementMap` assigns it, a thin loop
around the single-node machinery: its shard is a
:class:`~repro.dist.superstep.Shard` — the database, plan cache and
routed access paths the cost model's shards have — and it fires through
:func:`~repro.dist.superstep.fire_records`, like every backend.

The workers form a **peer mesh**: every worker holds a direct
:mod:`~repro.dist.transport` channel to every other, and one kind of
traffic travels on it — a ``q`` frame, the batch of probes one shard
asks one owner (``Shard``'s ``fetch``: a class's whole exchange, or a
single read no plan predicted), and its ``a`` frame, the rows, which the
owner's shard ``serve``s.  A worker blocked on an answer keeps serving
incoming queries, which keeps the all-to-all exchange deadlock-free
without threads and without coordinator hops.  Tuples do not travel
here: a put goes home in the done record, and comes back by value in
the step frame of the class that pops it.

A ``q`` frame is tagged with its superstep and **ready-gated**: one for
step N that beats the receiver's own phase-A insert for N is deferred,
whole, until that insert lands — the barrier a read needs before it may
see a shard.

The coordinator drives supersteps over the control channel:
``bootstrap`` (load the owned slice of the control replica), ``step``
(phase-A inserts by value, fire assignments), ``abort`` (another worker
died mid-step: unwind and await the retry), ``finish`` (report shard
sizes + stats and exit).  A worker mutates nothing but its own shard;
effects travel back as records.  The reply to each executed step is
cached and a retried step replays it: at-most-once rule execution per
worker per step, which keeps ``unsafe`` rules safe under recovery.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import time
import traceback
from collections import deque
from functools import partial

from repro.core.errors import EngineError
from repro.core.program import Program
from repro.core.tuples import JTuple
from repro.dist.network import pack_counters
from repro.dist.placement import PlacementMap
from repro.dist.superstep import Probes, Shard, fire_records
from repro.dist.transport import (
    Channel,
    PeerListener,
    PipeChannel,
    SocketChannel,
    connect_channel,
    wait_readable,
)
from repro.exec.metering import NULL_METER
from repro.stats.collector import StatsCollector

__all__ = ["ShardWorker", "program_fingerprint", "worker_entry"]

_dumps = partial(pickle.dumps, protocol=pickle.HIGHEST_PROTOCOL)


def program_fingerprint(program: Program) -> str:
    """Stable digest of a program's schemas + rule set, used in the
    coordinator/worker handshake: a forked worker must be running the
    very program the coordinator is stepping."""
    h = hashlib.sha1()
    for name in sorted(program.schemas()):
        schema = program.schemas()[name]
        h.update(name.encode())
        for f in schema.fields:
            h.update(f"{f.name}:{f.type}".encode())
    for rule in program.rules:
        h.update(rule.name.encode())
        h.update(rule.trigger.schema.name.encode())
    return h.hexdigest()


class _StepAborted(Exception):
    """Raised out of a firing when the coordinator aborts the step
    (another worker died); the step will be re-broadcast."""


class ShardWorker:
    """One worker process: a shard of Gamma, a mesh endpoint, and the
    firing loop."""

    def __init__(
        self,
        node: int,
        n_nodes: int,
        channel: Channel,
        program: Program,
        placements: PlacementMap,
        conf: dict,
    ):
        self.node = node
        self.channel = channel
        self.program = program
        self.transport: str = conf.get("transport", "pipe")
        self.incarnation: int = conf.get("incarnation", 0)
        self._fault_serve_die = conf.get("fault_serve_die")
        self.shard = Shard(
            program,
            placements,
            node,
            n_nodes,
            self.fetch,
            conf["check_mode"],
            conf["traced"],
        )
        self.db = self.shard.db
        self.schemas = program.schemas()
        #: this node's counters (``repro.dist.network.NODE_COUNTERS``):
        #: the shard counts its reads, the worker its two wires
        self.counters = self.shard.counters
        self._qid = 0
        self._attempt = 0
        self._applied = 0  # latest step whose phase A landed in Gamma
        # -- mesh state -------------------------------------------------------
        self.listener = PeerListener(self.transport, tag=f"w{node}")
        self.peers: dict[int, SocketChannel] = {}
        self._peer_of: dict[SocketChannel, int] = {}
        #: queries read off the mesh but not yet served
        self._inbox: deque = deque()
        #: queries for a step whose phase A has not landed yet
        self._deferred: deque = deque()
        #: qid -> [(responder node, rows)] for the in-flight query
        self._answers: dict[str, list] = {}
        #: (step number, cached reply) of the last executed step — the
        #: at-most-once replay buffer for crash-recovery retries
        self._cache: tuple[int, dict] | None = None

    # -- control framing (real byte counts, not simulated ones) ---------------

    def _count(self, plane: str, way: str, n_bytes: int) -> None:
        """One frame of ``n_bytes`` ``sent`` / ``recv`` on the control
        (``""``) or the ``peer_`` plane."""
        self.counters[plane + "msgs"] += 1
        self.counters[f"{plane}bytes_{way}"] += n_bytes

    def _send(self, msg: dict) -> None:
        data = _dumps(msg)
        self.channel.send_bytes(data)
        self._count("", "sent", len(data))

    def _recv(self) -> dict:
        data = self.channel.recv_bytes()
        self._count("", "recv", len(data))
        return pickle.loads(data)

    # -- mesh plumbing ---------------------------------------------------------

    def _register_peer(self, node: int, ch: SocketChannel) -> None:
        old = self.peers.get(node)
        if old is not None and old is not ch:
            self._peer_of.pop(old, None)
            old.close()
        self.peers[node] = ch
        self._peer_of[ch] = node

    def _drop_peer(self, ch: SocketChannel) -> None:
        node = self._peer_of.pop(ch, None)
        if node is not None and self.peers.get(node) is ch:
            del self.peers[node]
        ch.close()

    def _accept_peer(self) -> None:
        ch = self.listener.accept(timeout=30.0)
        if ch is None:
            return
        data = ch.recv_bytes()
        self._count("peer_", "recv", len(data))
        hello = pickle.loads(data)
        if hello.get("t") != "peer-hello":
            ch.close()
            return
        self._register_peer(hello["node"], ch)

    def _connect_mesh(self, connect: dict, await_nodes: list) -> None:
        """Dial the given peers, then accept until every awaited peer
        has dialled us.  A dial that fails is skipped: the peer is dead
        and the coordinator will orchestrate its replacement (which
        dials *us*)."""
        hello = _dumps({"t": "peer-hello", "node": self.node, "incarnation": self.incarnation})
        for j in sorted(connect):
            try:
                ch = connect_channel(connect[j])
                ch.send_bytes(hello)
            except (OSError, EOFError):
                continue
            self._count("peer_", "sent", len(hello))
            self._register_peer(j, ch)
        while any(j not in self.peers for j in await_nodes):
            self._accept_peer()

    def _peer_send(self, node: int, data: bytes) -> bool:
        ch = self.peers.get(node)
        if ch is None:
            return False
        try:
            ch.send_with_drain(data, lambda: self._pump(0.01))
        except (OSError, EOFError):
            # dead peer: drop the channel and let the coordinator's
            # recovery protocol sort the membership out
            self._drop_peer(ch)
            return False
        self._count("peer_", "sent", len(data))
        return True

    def _pump(self, timeout: float | None, control: bool = False) -> bool:
        """Read one round of ready mesh traffic (see :meth:`_pump_one`;
        a replacement peer dialling in is accepted), waiting on the
        control channel too when ``control``.  True when anything was
        handled — under ``control``, when a coordinator message is
        ready."""
        chans = [self.listener, *self.peers.values()]
        ready = wait_readable(chans + [self.channel] if control else chans, timeout)
        for ch in ready:
            if ch is self.listener:
                self._accept_peer()
            elif ch is not self.channel:
                self._pump_one(ch)
        return self.channel in ready if control else bool(ready)

    def _pump_one(self, ch: SocketChannel) -> None:
        """Read one mesh frame.  Answers are absorbed immediately;
        queries go to the inbox (they are only *served* from safe
        points, never mid-send)."""
        try:
            data = ch.recv_bytes()
        except (EOFError, ConnectionResetError, OSError):
            self._drop_peer(ch)
            return
        self._count("peer_", "recv", len(data))
        msg = pickle.loads(data)
        if msg["t"] == "a":
            self._answers.setdefault(msg["qid"], []).append((msg["node"], msg["rows"]))
        elif msg["t"] == "q":
            self._inbox.append((ch, msg))

    def _await_control(self, timeout: float | None) -> bool:
        """Serve the inbox, then wait for traffic on the control channel
        or the mesh and handle the mesh's share.  True when a
        coordinator message is ready — read it only after the mesh: a
        re-forked peer must be re-registered before the retry step whose
        queries we will route to it."""
        self._service_inbox()
        return self._pump(timeout, control=True)

    def _service_inbox(self) -> None:
        """Serve every inbox query whose step is ready; queries that
        outran our own phase-A insert stay deferred (ready-gating)."""
        while self._inbox:
            ch, msg = self._inbox.popleft()
            if msg["step"] > self._applied:
                self._deferred.append((ch, msg))
            else:
                self._serve_peer(ch, msg)

    def _flush_deferred(self) -> None:
        self._inbox.extendleft(reversed(self._deferred))
        self._deferred.clear()
        self._service_inbox()

    # -- main loop -----------------------------------------------------------

    def run(self) -> None:
        self._send(
            {
                "t": "hello",
                "node": self.node,
                "incarnation": self.incarnation,
                "fingerprint": program_fingerprint(self.program),
                "peer_addr": self.listener.address,
            }
        )
        while True:
            msg = self._next_control()
            t = msg["t"]
            if t == "step":
                self._step(msg)
            elif t == "peers":
                self._connect_mesh(msg["connect"], msg["await"])
                self._send({"t": "mesh", "node": self.node})
            elif t == "bootstrap":
                self.db.load_tables(msg["tables"])
            elif t == "abort":
                pass  # nothing in flight at the main loop
            elif t == "finish":
                self._finish()
                return
            else:
                raise EngineError(f"worker {self.node}: unknown message {t!r}")

    def _next_control(self) -> dict:
        """Block for the next coordinator message, servicing the mesh
        while idle."""
        while not self._await_control(None):
            pass
        return self._recv()

    # -- superstep -----------------------------------------------------------

    def _step(self, msg: dict) -> None:
        step = msg["step"]
        self._attempt = msg["attempt"]
        self._answers.clear()
        if self._cache is not None and self._cache[0] == step:
            # crash-recovery retry of a step this worker already ran:
            # replay the cached records, do not re-execute (rules with
            # unsafe I/O must run at most once per worker per step)
            payload = self._cache[1]
        else:
            # rebuilt against this process's schema objects
            owned = [JTuple(self.schemas[t], tuple(vals)) for t, vals in msg["insert"]]
            if owned:
                # phase A: land this shard's slice of the minimal class;
                # duplicate outcomes are fine (retried steps re-insert)
                self.db.insert_batch(owned, frozenset())
            self._applied = max(self._applied, step)
            self._flush_deferred()
            try:
                self.shard.exchange([owned[pos] for _idx, pos in msg["fire"]])
                records = [
                    (idx, fire_records(self.shard, owned[pos], NULL_METER))
                    for idx, pos in msg["fire"]
                ]
            except _StepAborted:
                return  # partial work discarded; the retry re-executes
            payload = {"t": "done", "step": step, "records": records}
            self._cache = (step, payload)
        # fixed width, because when a done record is sent relative to a
        # peer's query is a matter of timing, and a pickled int grows a
        # byte at 256 and at 65 536 — the record's size, and with it the
        # control plane's byte count, must not depend on either
        self._send(
            {**payload, "attempt": self._attempt, "counters": pack_counters(self.counters)}
        )

    # -- the shard's one outside read ------------------------------------------

    def fetch(self, asks: dict[int, Probes]) -> dict[int, list]:
        """Send each owner its probes — one ``q`` frame each, pickled
        once where owners are asked the same — and gather one ``a``
        frame from each.  While blocked on an answer the worker keeps
        serving incoming queries, which keeps the all-to-all exchange
        deadlock-free.  A dead responder is waited out: its death also
        severs its coordinator channel, so an abort is on its way."""
        self._qid += 1
        qid = f"{self.node}:{self.incarnation}:{self._qid}"
        # a read is made while firing: the step is the one just applied
        head = {"t": "q", "qid": qid, "node": self.node, "step": self._applied}
        last = data = None
        for owner, probes in asks.items():
            if data is None or probes != last:
                last = probes
                data = _dumps({**head, "attempt": self._attempt, "probes": probes})
            self.counters["remote_queries"] += 1
            self._peer_send(owner, data)
        got: dict[int, list] = {}
        while len(got) < len(asks):
            got.update(self._answers.pop(qid, ()))
            if len(got) < len(asks) and self._await_control(1.0):
                cmsg = self._recv()
                if cmsg["t"] == "abort":
                    raise _StepAborted()
                raise EngineError(
                    f"worker {self.node}: unexpected {cmsg['t']!r} while "
                    f"awaiting query {qid}"
                )
        return got

    def _serve_peer(self, ch: SocketChannel, msg: dict) -> None:
        if (
            self._fault_serve_die is not None
            and self.incarnation == 0
            and self.node == self._fault_serve_die[0]
            and msg["step"] >= self._fault_serve_die[1]
        ):
            # injected failure (tests): die with the query in flight,
            # between the peer's request and our reply
            os._exit(1)
        rows = self.shard.serve(msg["probes"])
        node = self._peer_of.get(ch)
        # counted once answered: a requester that dropped off took its
        # q frame's other three counts with it
        if node is not None and self._peer_send(
            node, _dumps({"t": "a", "qid": msg["qid"], "node": self.node, "rows": rows})
        ):
            self.counters["queries_served"] += 1

    # -- teardown ------------------------------------------------------------

    def _finish(self) -> None:
        # queries were counted on the plans that served them
        stats = StatsCollector()
        stats.absorb_planned(self.shard.plans.plans())
        self._send(
            {
                "t": "bye",
                "node": self.node,
                "table_sizes": self.db.table_sizes(),
                "stats": stats.to_state(),
                "counters": pack_counters(self.counters),
            }
        )
        for ch in list(self.peers.values()):
            ch.close()
        self.listener.close()
        self.channel.close()


def _maybe_hang_for_test(node: int) -> None:
    """Spawn-handshake fault injection: ``DIST_HANG_HELLO=node:dir:k``
    makes the first ``k`` incarnations of ``node`` hang before their
    hello frame (each hang drops a marker file in ``dir``), so tests
    can drive the coordinator's bounded hello wait and fork retry."""
    spec = os.environ.get("DIST_HANG_HELLO")
    if not spec:
        return
    target, marker_dir, count = spec.split(":")
    if node != int(target):
        return
    if len(os.listdir(marker_dir)) >= int(count):
        return
    with open(os.path.join(marker_dir, f"hang-{os.getpid()}"), "w"):
        pass
    time.sleep(3600)


def worker_entry(
    node: int,
    n_nodes: int,
    control,
    program: Program,
    placements: PlacementMap,
    conf: dict,
) -> None:
    """Process entry point (fork start method: everything is inherited,
    nothing is pickled).  ``control`` is ``("pipe", Connection)`` or
    ``("tcp", address)`` — under tcp the worker dials the coordinator's
    listener, so it could live on another host.  A failing rule is
    reported to the coordinator as an ``error`` message so deterministic
    failures surface once instead of looping through crash recovery."""
    channel: Channel | None = None
    try:
        _maybe_hang_for_test(node)
        kind, endpoint = control
        if kind == "pipe":
            channel = PipeChannel(endpoint)
        else:
            channel = connect_channel(endpoint)
        ShardWorker(node, n_nodes, channel, program, placements, conf).run()
    except (EOFError, BrokenPipeError, ConnectionResetError, KeyboardInterrupt):
        pass  # coordinator went away; just exit
    except BaseException as exc:  # noqa: BLE001 — must cross the wire
        try:
            if channel is not None:
                channel.send_bytes(
                    pickle.dumps(
                        {
                            "t": "error",
                            "node": node,
                            "error": repr(exc),
                            "traceback": traceback.format_exc(),
                        }
                    )
                )
        except OSError:
            pass
    finally:
        if channel is not None:
            channel.close()
