"""Pluggable wire transports for the multiprocess shard runtime.

The runtime (:mod:`repro.dist.procrun` / ``worker``) has two planes
and both are pluggable:

* the **control channel** (coordinator ↔ worker: step frames carrying
  each class's inserts by value, done records carrying its puts,
  membership) is a :class:`PipeChannel` under the ``pipe`` transport or
  a length-prefixed :class:`SocketChannel` under ``tcp``;
* the **peer mesh** (worker ↔ worker: batches of probes and their
  rows, nothing else) is always socket-based — ``AF_UNIX`` under ``pipe`` (same
  host, pipe-like semantics, connectable after fork, which a raw pipe
  is not) and loopback ``AF_INET`` under ``tcp``.  A re-forked worker
  can therefore rejoin the mesh by *connecting*, which is what makes
  crash recovery work without pre-allocating N×N pipes.

Socket framing reuses the :mod:`repro.serve.protocol` discipline — a
4-byte big-endian unsigned length followed by that many payload bytes —
so a TCP worker on another host speaks the same frame grammar as the
session service.  Bodies here are pickles, not JSON, and the frame
ceiling is sized for a whole class's step frame rather than a client
request.

The transport is chosen per run (``run_sharded(transport=...)``) or via
the ``DIST_TRANSPORT`` environment variable, which is how CI runs the
whole differential matrix over both transports without editing tests.
A third value, ``model``, is no wire: it selects the cost-model backend
(:mod:`repro.dist.engine`, in-process shards priced on a network model).
"""

from __future__ import annotations

import os
import select
import socket
import struct
import tempfile
from typing import Callable, Sequence

from repro.core.errors import EngineError

__all__ = [
    "TRANSPORTS",
    "MAX_FRAME_BYTES",
    "Channel",
    "PipeChannel",
    "SocketChannel",
    "PeerListener",
    "connect_channel",
    "resolve_transport",
    "wait_readable",
]

#: same header discipline as ``repro.serve.protocol.HEADER``
HEADER = struct.Struct(">I")

#: ceiling on one frame — a step frame carries a whole class's inserts
#: and a done record its put-set, so this is far above the service
#: protocol's request ceiling
MAX_FRAME_BYTES = 512 * 1024 * 1024

TRANSPORTS = ("pipe", "tcp", "model")


def resolve_transport(transport: str | None) -> str:
    """Pick the wire transport: an explicit argument wins, then the
    ``DIST_TRANSPORT`` environment variable, then ``pipe``."""
    t = transport if transport is not None else os.environ.get("DIST_TRANSPORT", "pipe")
    if t not in TRANSPORTS:
        raise EngineError(
            f"unknown dist transport {t!r}: expected one of {', '.join(TRANSPORTS)}"
        )
    return t


class Channel:
    """Duplex message channel: whole frames in, whole frames out.

    Both implementations raise ``EOFError`` when the far side is gone
    (clean close) and let ``OSError``/``ConnectionResetError`` escape
    for dirtier endings — the callers treat every one of those as a
    lost endpoint."""

    def send_bytes(self, data: bytes) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def recv_bytes(self) -> bytes:  # pragma: no cover - interface
        raise NotImplementedError

    def poll(self, timeout: float = 0.0) -> bool:  # pragma: no cover - interface
        raise NotImplementedError

    def fileno(self) -> int:  # pragma: no cover - interface
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - interface
        raise NotImplementedError


class PipeChannel(Channel):
    """A :func:`multiprocessing.Pipe` connection behind the Channel
    interface (the PR 5 control wire, unchanged)."""

    __slots__ = ("conn",)

    def __init__(self, conn):
        self.conn = conn

    def send_bytes(self, data: bytes) -> None:
        self.conn.send_bytes(data)

    def recv_bytes(self) -> bytes:
        return self.conn.recv_bytes()

    def poll(self, timeout: float = 0.0) -> bool:
        return self.conn.poll(timeout)

    def fileno(self) -> int:
        return self.conn.fileno()

    def close(self) -> None:
        try:
            self.conn.close()
        except OSError:
            pass


class SocketChannel(Channel):
    """Length-prefixed frames over a stream socket (UNIX or TCP)."""

    __slots__ = ("sock",)

    def __init__(self, sock: socket.socket):
        sock.setblocking(True)
        if sock.family == socket.AF_INET:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        # the mesh exchanges storms of small frames between peers that
        # are both busy firing; generous buffers keep sends off the
        # slow full-buffer path (the kernel clamps to its own ceiling)
        for opt in (socket.SO_SNDBUF, socket.SO_RCVBUF):
            try:
                sock.setsockopt(socket.SOL_SOCKET, opt, 1 << 22)
            except OSError:
                pass
        self.sock = sock

    def send_bytes(self, data: bytes) -> None:
        if len(data) > MAX_FRAME_BYTES:
            raise EngineError(
                f"frame of {len(data)} bytes exceeds the transport ceiling"
            )
        self.sock.sendall(HEADER.pack(len(data)) + data)

    def send_with_drain(self, data: bytes, drain: Callable[[], None]) -> None:
        """Send one frame, servicing ``drain()`` whenever the send
        buffer is full.

        An all-to-all exchange can deadlock two blocking senders whose
        receive buffers are both full of each other's frames; draining
        incoming traffic while waiting for buffer space breaks the
        cycle without threads."""
        if len(data) > MAX_FRAME_BYTES:
            raise EngineError(
                f"frame of {len(data)} bytes exceeds the transport ceiling"
            )
        payload = memoryview(HEADER.pack(len(data)) + data)
        self.sock.setblocking(False)
        try:
            while payload:
                try:
                    sent = self.sock.send(payload)
                    payload = payload[sent:]
                except (BlockingIOError, InterruptedError):
                    drain()
                    # short poll: AF_UNIX only reports writability once
                    # the buffer is half-drained, so waiting for the
                    # edge can oversleep the actual free space by far
                    select.select([], [self.sock], [], 0.002)
        finally:
            self.sock.setblocking(True)

    def recv_bytes(self) -> bytes:
        head = self._read_exact(HEADER.size)
        (n,) = HEADER.unpack(head)
        if n > MAX_FRAME_BYTES:
            raise EngineError(f"incoming frame of {n} bytes exceeds the ceiling")
        return self._read_exact(n)

    def _read_exact(self, n: int) -> bytes:
        buf = bytearray()
        while len(buf) < n:
            chunk = self.sock.recv(n - len(buf))
            if not chunk:
                raise EOFError("peer closed the connection")
            buf.extend(chunk)
        return bytes(buf)

    def poll(self, timeout: float = 0.0) -> bool:
        r, _, _ = select.select([self.sock], [], [], timeout)
        return bool(r)

    def fileno(self) -> int:
        return self.sock.fileno()

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


#: a connectable endpoint: ("unix", path) or ("tcp", (host, port))
Address = tuple


class PeerListener:
    """A listening endpoint other cluster members connect to.

    Every worker owns one (its mesh accept point); under ``tcp`` the
    coordinator owns one too (workers connect their control channel
    back through it).  The backlog covers a whole mesh connecting at
    once."""

    __slots__ = ("sock", "address", "_dir")

    def __init__(self, transport: str, tag: str = "peer"):
        self._dir = None
        if transport == "tcp":
            s = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            s.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            s.bind(("127.0.0.1", 0))
            s.listen(128)
            self.address: Address = ("tcp", s.getsockname())
        else:
            self._dir = tempfile.mkdtemp(prefix=f"jstar-{tag}-")
            path = os.path.join(self._dir, "peer.sock")
            s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            s.bind(path)
            s.listen(128)
            self.address = ("unix", path)
        self.sock = s

    def accept(self, timeout: float | None = None) -> SocketChannel | None:
        """Accept one connection; ``None`` when ``timeout`` expires."""
        if timeout is not None:
            r, _, _ = select.select([self.sock], [], [], timeout)
            if not r:
                return None
        conn, _addr = self.sock.accept()
        return SocketChannel(conn)

    def fileno(self) -> int:
        return self.sock.fileno()

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass
        if self._dir is not None:
            try:
                os.unlink(os.path.join(self._dir, "peer.sock"))
                os.rmdir(self._dir)
            except OSError:
                pass


def connect_channel(address: Address, timeout: float = 30.0) -> SocketChannel:
    """Dial a :class:`PeerListener` address and return the channel."""
    kind, addr = address
    if kind == "tcp":
        s = socket.create_connection(tuple(addr), timeout=timeout)
        s.settimeout(None)
    else:
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        s.settimeout(timeout)
        s.connect(addr)
        s.settimeout(None)
    return SocketChannel(s)


def wait_readable(channels: Sequence, timeout: float | None = None) -> list:
    """Block until at least one of ``channels`` is readable and return
    the ready subset.  Accepts anything with a ``fileno()`` — pipe
    channels, socket channels, and listeners mix freely."""
    if not channels:
        return []
    r, _, _ = select.select(list(channels), [], [], timeout)
    return r
