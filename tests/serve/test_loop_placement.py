"""Where the service runs its work: engine work on the event loop's
thread, blocking disk writes on the write pool, and a long settle in
slices that let other connections' requests through."""

from __future__ import annotations

import asyncio
import os
import sys
import threading

from repro.core import Program
from repro.serve import ProgramRegistry, ServiceClient
from tests.serve._progs import running_service


def _chain(fired: list, depth: int) -> Program:
    """``Link(n)`` puts ``Link(n + 1)`` up to ``depth``: one step per
    link, and every firing records the thread it ran on."""
    p = Program("chain")
    Link = p.table("Link", "int n", orderby=("Link", "seq n"))

    @p.foreach(Link)
    def extend(ctx, link):
        fired.append(threading.get_ident())
        if link.n < depth:
            ctx.put(Link.new(link.n + 1))

    return p


def _registry(fired: list, depth: int) -> ProgramRegistry:
    registry = ProgramRegistry()
    registry.register("chain", lambda: _chain(fired, depth))
    return registry


def test_rule_bodies_run_on_the_loop_thread_and_fsync_off_it(tmp_path, monkeypatch):
    fired, synced = [], []
    fsync = os.fsync

    def recorded(fd):
        synced.append(threading.get_ident())
        return fsync(fd)

    monkeypatch.setattr(os, "fsync", recorded)

    async def go() -> int:
        async with running_service(_registry(fired, 8), data_dir=tmp_path) as svc:
            async with await ServiceClient.connect("127.0.0.1", svc.port) as c:
                await c.open("t", "chain")
                for start in (0, 100):  # a compaction, then a log line
                    await c.feed("t", [["+", "Link", [start]]])
                    await c.settle("t")
                assert (await c.stats("t"))["log_bytes"] > 0
                await c.close("t")
        return threading.get_ident()

    loop_thread = asyncio.run(go())
    assert len(fired) == 10 and set(fired) == {loop_thread}
    assert synced and loop_thread not in synced


def test_a_request_is_answered_while_another_tenant_settles():
    """With the switch interval at 1 us every slice of a settle is one
    step, so a ping sent once the settle has started is answered long
    before its last step; a settle run whole on the loop would answer it
    only after every step."""
    depth = 200
    fired: list = []

    async def go() -> tuple[int, dict]:
        async with running_service(_registry(fired, depth)) as svc:
            deep = await ServiceClient.connect("127.0.0.1", svc.port)
            light = await ServiceClient.connect("127.0.0.1", svc.port)
            async with deep, light:
                await deep.open("deep", "chain")
                await deep.feed("deep", [["+", "Link", [0]]])
                settle = asyncio.create_task(deep.settle("deep"))
                while not fired:
                    await asyncio.sleep(0)
                await light.ping()
                return len(fired), await settle

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        answered_at, settled = asyncio.run(go())
    finally:
        sys.setswitchinterval(interval)
    assert settled["steps"] == depth + 1 and len(fired) == depth + 1
    assert answered_at < depth // 2, answered_at
