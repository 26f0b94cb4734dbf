"""What a node of a sharded run counts.

§2 stage 3 leaves "how the communication should be implemented" to the
architecture hints.  The cost model prices an exchange on the
interconnect constants (:class:`~repro.simcore.machine.StepTraffic`);
:data:`NODE_COUNTERS` is the *real* counterpart, and the one
declaration of what a node of a sharded run counts: a mesh worker
(:mod:`repro.dist.worker`) counts actual pickled bytes and messages on
its coordinator channel (step frames in, done records out — every tuple
travels here) *and* on its peer mesh (``q`` / ``a`` frames: batches of
probes and their rows), so the network columns of a distributed
``run_report`` are measured traffic; a shard counts its reads of other
shards under the same names on either backend.  Workers snapshot their
counters into every ``done`` record as one fixed-width block: a record's
size does not depend on how far a counter has run, so byte counts
repeat exactly.
"""

from __future__ import annotations

import struct
from typing import Iterable, Mapping

__all__ = ["NODE_COUNTERS", "pack_counters", "sum_counters"]

#: what one node counts -> its ``format_nodes`` column.  The names are
#: the keys of a ``RunResult.nodes`` entry and of ``Shard.counters``, in
#: the order a worker packs them and the report prints them
NODE_COUNTERS = {
    "queries_served": "served",         # q frames answered
    "remote_queries": "remote q",       # q frames sent (cost model: round trips priced)
    "probes_remote": "probes",          # (read, answering node) pairs
    "probes_planned": "planned",        # ... of which a class's exchange held
    "msgs": "msgs",                     # control plane, both directions
    "bytes_sent": "sent B",
    "bytes_recv": "recv B",
    "peer_msgs": "peer msgs",           # peer plane, both directions
    "peer_bytes_sent": "peer sent B",
    "peer_bytes_recv": "peer recv B",
}

#: the block a done record and a bye carry: one unsigned 64-bit word per
#: counter
_BLOCK = struct.Struct(f">{len(NODE_COUNTERS)}Q")


def pack_counters(counters: Mapping[str, int]) -> bytes:
    return _BLOCK.pack(*(counters[name] for name in NODE_COUNTERS))


def sum_counters(blocks: Iterable[bytes]) -> dict[str, int]:
    """The named sum of packed blocks — a node's final block plus the
    last one of each incarnation that crashed."""
    columns = zip(*map(_BLOCK.unpack, blocks))
    return dict(zip(NODE_COUNTERS, map(sum, columns)))
