"""Virtual time survives a restore.

Every virtual-time strategy — ``sequential``, ``forkjoin`` and the
sharded cost model (``processes`` on ``transport="model"``) — keeps its
account on one :class:`~repro.simcore.machine.Machine` and snapshots it
through one state path.  A session snapshotted (through JSON) after its
first settle and restored must finish with the account an
uninterrupted session reaches: the same report, field for field, and
the same virtual time.
"""

from __future__ import annotations

import json

import pytest

from repro.apps.shortestpath import GraphSpec, build_shortestpath_program
from repro.core import ExecOptions
from repro.core.session import EngineSession, causal_chunks
from repro.dist import sharded_backend
from repro.simcore import MachineReport

LEGS = {
    "sequential": ExecOptions(),
    "forkjoin-4": ExecOptions(strategy="forkjoin", threads=4),
    "model-2": ExecOptions(strategy="processes", threads=2),
}


def _backend(program, options: ExecOptions):
    """The cost model for a sharded leg; None lets the options decide."""
    if options.strategy == "processes":
        return sharded_backend(program, options, transport="model")
    return None


def _run(options: ExecOptions, restore: bool):
    """Shortest path fed in three causal chunks, settled after each;
    with ``restore``, snapshotted through JSON after the first settle
    and finished on a restored session."""
    program = build_shortestpath_program(GraphSpec(60, 120, seed=3)).program
    session = EngineSession(program, options, _backend(program, options))
    chunks = causal_chunks(session.database, program.initial_puts, 3)
    session.open()
    session.feed(chunks[0])
    session.settle()
    if restore:
        doc = json.loads(json.dumps(session.snapshot()))
        session.close()
        twin = build_shortestpath_program(GraphSpec(60, 120, seed=3)).program
        session = EngineSession.restore(doc, twin, options, _backend(twin, options))
        chunks = causal_chunks(session.database, twin.initial_puts, 3)
    for chunk in chunks[1:]:
        session.feed(chunk)
        session.settle()
    return session.close()


@pytest.mark.parametrize("leg", sorted(LEGS))
def test_account_survives_a_restore(leg):
    straight = _run(LEGS[leg], restore=False)
    restored = _run(LEGS[leg], restore=True)
    assert isinstance(straight.report, MachineReport)
    assert straight.virtual_time > 0.0
    assert vars(restored.report) == vars(straight.report)
    assert restored.virtual_time == straight.virtual_time
    assert restored.output == straight.output
