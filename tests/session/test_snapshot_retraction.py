"""Snapshot round-trips of retraction sessions.

A checkpoint taken mid-stream — after deletes have run, with support
counts, retracted-base records and pending rederivations live — must
restore into a session whose continued feeding is byte-identical to the
uninterrupted run.  The support index is the new state of snapshot v2;
these tests prove it serialises completely (support counts, firing
read/put/query footprints, keyed output) and that version/option
mismatches are refused rather than silently mis-restored.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.core import (
    Delete,
    EngineError,
    EngineSession,
    ExecOptions,
    Program,
    causal_chunks,
)
from repro.core.snapshot import SNAPSHOT_VERSION


def _sensor_fixture():
    from repro.apps.sensors import build_sensor_stream

    handles, events = build_sensor_stream(n_ticks=12, n_sensors=4)
    with handles.program.session(ExecOptions(strategy="sequential")) as probe:
        chunks = causal_chunks(probe.database, events, 2)
    return handles, chunks


def _dijkstra_fixture():
    p = Program("dijkstra-snap")
    Edge = p.table("Edge", "int src, int dst, int value", orderby=("Edge",))
    Estimate = p.table(
        "Estimate", "int vertex, int distance", orderby=("Int", "seq distance", "Estimate")
    )
    Done = p.table(
        "Done", "int vertex -> int distance", orderby=("Int", "seq distance", "Done")
    )
    p.order("Edge", "Int")
    p.order("Estimate", "Done")

    @p.foreach(Estimate, assume_stratified=True)
    def dijkstra(ctx, dist):
        if (
            ctx.get_uniq(Done, vertex=dist.vertex, ranges={"distance": {"lt": dist.distance}})
            is None
        ):
            ctx.println(f"shortest path to {dist.vertex} is {dist.distance}")
            ctx.put(Done.new(dist.vertex, dist.distance))
            for edge in ctx.get(Edge, dist.vertex):
                if ctx.get_uniq(Done, vertex=edge.dst) is None:
                    ctx.put(Estimate.new(edge.dst, dist.distance + edge.value))

    return p, Edge, Estimate


OPTS = ExecOptions(strategy="sequential", retraction=True)


def test_sensor_checkpoint_after_deletes_resumes_byte_identical():
    handles, (c1, c2) = _sensor_fixture()
    victims = [c1[3], c1[7]]
    late = handles.Reading.new(20, 9, 777)

    # uninterrupted reference
    with handles.program.session(OPTS) as s:
        s.feed(c1)
        s.settle()
        s.feed([Delete(victims[0])])
        s.settle()
        s.feed(c2 + [Delete(victims[1]), late])
        s.settle()
        full = s.close()

    # checkpoint after the first delete, restore, continue
    with handles.program.session(OPTS) as s1:
        s1.feed(c1)
        s1.settle()
        s1.feed([Delete(victims[0])])
        s1.settle()
        payload = s1.snapshot()
    # the document must actually serialise (JSON round-trip)
    payload = json.loads(json.dumps(payload))
    assert payload["support"] is not None
    s2 = EngineSession.restore(payload, handles.program, OPTS)
    s2.feed(c2 + [Delete(victims[1]), late])
    s2.settle()
    resumed = s2.close()

    assert resumed.output_text() == full.output_text()
    assert resumed.table_sizes == full.table_sizes
    assert resumed.stats.retractions == full.stats.retractions
    assert resumed.stats.rederivations == full.stats.rederivations


def test_dijkstra_checkpoint_mid_repair_state_resumes_byte_identical():
    """Checkpoint while retracted-base records and support counts carry
    real history (a deleted edge, a rederived frontier), then keep
    deleting after restore — the DRed paths must survive the trip."""
    p, Edge, Estimate = _dijkstra_fixture()
    edges = [
        Edge.new(0, 1, 1),
        Edge.new(0, 2, 4),
        Edge.new(1, 2, 1),
        Edge.new(1, 3, 5),
        Edge.new(2, 3, 1),
    ]

    def run(session_steps):
        with p.session(OPTS) as s:
            s.feed(edges + [Estimate.new(0, 0)])
            s.settle()
            s.feed([Delete(edges[0])])
            s.settle()
            if session_steps == "full":
                s.feed([Delete(edges[1])])
                s.settle()
                return s.close(), None
            return None, s.snapshot()

    full, _ = run("full")
    _, payload = run("checkpoint")
    payload = json.loads(json.dumps(payload))
    s2 = EngineSession.restore(payload, p, OPTS)
    s2.feed([Delete(edges[1])])
    s2.settle()
    resumed = s2.close()
    assert resumed.output_text() == full.output_text()
    assert resumed.table_sizes == full.table_sizes


def test_snapshot_support_section_shape():
    p, Edge, Estimate = _dijkstra_fixture()
    with p.session(OPTS) as s:
        s.feed([Edge.new(0, 1, 1), Estimate.new(0, 0)])
        s.settle()
        s.feed([Delete(Edge.new(0, 1, 1))])
        s.settle()
        s.feed([Edge.new(0, 1, 2)])  # re-assert with a new weight
        s.settle()
        payload = s.snapshot()
    sup = payload["support"]
    assert payload["version"] == SNAPSHOT_VERSION
    assert sup["next_fid"] >= len(sup["firings"])
    # the deleted-then-reasserted edge is base again, not retracted
    base = {tuple(e[1]) for e in sup["base"] if e[0] == "Edge"}
    assert (0, 1, 2) in base
    retracted = {tuple(e[1]) for e in sup["retracted_base"]}
    assert (0, 1, 1) in retracted
    # firings carry their query footprints
    assert any(f["queries"] for f in sup["firings"])


def test_restore_refuses_version_mismatch():
    """Snapshots from before retraction support (v1) — or any other
    version — are refused with a precise error, not mis-restored."""
    handles, (c1, _c2) = _sensor_fixture()
    with handles.program.session(OPTS) as s:
        s.feed(c1)
        s.settle()
        payload = s.snapshot()
    old = dict(payload)
    old["version"] = 1
    with pytest.raises(EngineError, match="version 1 is not the supported"):
        EngineSession.restore(old, handles.program, OPTS)


def test_restore_refuses_retraction_option_mismatch():
    handles, (c1, _c2) = _sensor_fixture()
    with handles.program.session(OPTS) as s:
        s.feed(c1)
        s.settle()
        payload = s.snapshot()
    with pytest.raises(EngineError, match="retraction state disagrees"):
        EngineSession.restore(
            payload, handles.program, ExecOptions(strategy="sequential")
        )

    with handles.program.session(ExecOptions(strategy="sequential")) as s2:
        s2.feed(c1)
        s2.settle()
        plain = s2.snapshot()
    with pytest.raises(EngineError, match="retraction state disagrees"):
        EngineSession.restore(plain, handles.program, OPTS)


def test_non_retraction_snapshot_roundtrip_still_works():
    """v2 without a support section is the plain-session format; the
    round-trip of an ordinary session is unchanged."""
    handles, (c1, c2) = _sensor_fixture()
    plain = ExecOptions(strategy="sequential")
    with handles.program.session(plain) as s:
        s.feed(c1)
        s.settle()
        payload = json.loads(json.dumps(s.snapshot()))
    assert payload["support"] is None
    s2 = EngineSession.restore(payload, handles.program, plain)
    s2.feed(c2)
    s2.settle()
    resumed = s2.close()

    with handles.program.session(plain) as s3:
        s3.feed(c1)
        s3.settle()
        s3.feed(c2)
        s3.settle()
        full = s3.close()
    assert resumed.output_text() == full.output_text()
    assert resumed.table_sizes == full.table_sizes


def test_restore_rebuilds_footprint_index_and_trigger_timestamps():
    """Snapshot → restore → 10 more delete/insert rounds: the footprint
    index and the cached trigger timestamps are derived state, rebuilt
    by ``register_restored`` and never written into the document, so
    the resumed session repairs exactly like the uninterrupted one."""
    p, Edge, Estimate = _dijkstra_fixture()
    rng = random.Random(13)
    n = 40
    live = {}
    for v in range(1, n):  # spanning tree, both directions, then chords
        u = rng.randrange(v)
        live[(u, v)] = live[(v, u)] = rng.randint(1, 9)
    while len(live) < 3 * n:
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b and (a, b) not in live:
            live[(a, b)] = rng.randint(1, 9)
    initial = [Edge.new(a, b, w) for (a, b), w in live.items()]
    rounds = []
    for _ in range(16):
        evs = []
        for key in rng.sample(sorted(live), 2):
            evs.append(Delete(Edge.new(*key, live.pop(key))))
        while len(evs) < 4:
            a, b = rng.randrange(n), rng.randrange(n)
            if a != b and (a, b) not in live:
                live[(a, b)] = rng.randint(1, 9)
                evs.append(Edge.new(a, b, live[(a, b)]))
        rounds.append(evs)

    def play(session, some_rounds):
        for evs in some_rounds:
            session.feed(evs)
            session.settle()

    full_session = EngineSession(p, OPTS).open()
    full_session.feed(initial + [Estimate.new(0, 0)])
    full_session.settle()
    play(full_session, rounds)
    full_records = len(full_session.kernel._support)
    full = full_session.close()
    assert full.stats.grown_doomed > 0  # the rounds exercise the repair

    s1 = EngineSession(p, OPTS).open()
    s1.feed(initial + [Estimate.new(0, 0)])
    s1.settle()
    play(s1, rounds[:6])
    payload = json.loads(json.dumps(s1.snapshot()))
    s1.close()
    # derived state stays out of the document: format unchanged
    assert set(payload["support"]) == {
        "next_fid", "base", "retracted_base", "refire", "firings",
    }
    assert all(
        set(f) == {
            "fid", "rule", "rule_index", "trigger", "reads", "puts",
            "lines", "native", "queries",
        }
        for f in payload["support"]["firings"]
    )
    # a document written before the repair counters existed still loads
    for key in ("grown_checks", "grown_candidates", "grown_doomed"):
        del payload["stats"][key]

    s2 = EngineSession.restore(payload, p, OPTS)
    sup = s2.kernel._support
    assert sup.footprints and len(sup) == len(payload["support"]["firings"])
    assert all(
        rec.trigger_ts == s2.kernel.db.timestamp(rec.trigger)
        for rec in sup.firings.values()
    )
    play(s2, rounds[6:])
    assert len(sup) == full_records
    resumed = s2.close()
    assert resumed.output_text() == full.output_text()
    assert resumed.table_sizes == full.table_sizes
    assert resumed.stats.retractions == full.stats.retractions
    assert resumed.stats.rederivations == full.stats.rederivations


# -- the codegen leg -----------------------------------------------------------

CODEGEN = OPTS.with_(execution="codegen")


def test_codegen_writes_the_scalar_document_and_resumes_from_either():
    """The codegen tier's firing records are the scalar tier's: both
    write the same support and stats sections, and a checkpoint of
    either restores into either and finishes byte-identical."""
    p, Edge, Estimate = _dijkstra_fixture()
    edges = [
        Edge.new(0, 1, 1),
        Edge.new(0, 2, 4),
        Edge.new(1, 2, 1),
        Edge.new(1, 3, 5),
        Edge.new(2, 3, 1),
    ]
    head = [edges + [Estimate.new(0, 0)], [Delete(edges[0])], [Edge.new(0, 3, 2)]]
    tail = [[Delete(edges[1])], [Edge.new(0, 1, 1)]]

    def play(session, batches):
        for batch in batches:
            session.feed(batch)
            session.settle()

    docs = {}
    for name, opts in (("scalar", OPTS), ("codegen", CODEGEN)):
        with p.session(opts.with_(metering="off")) as s:
            play(s, head)
            assert s.kernel.executor.name == name
            docs[name] = json.loads(json.dumps(s.snapshot()))
    for section in ("support", "stats", "tables", "output", "delta"):
        assert docs["codegen"][section] == docs["scalar"][section], section

    with p.session(OPTS) as s:
        play(s, head + tail)
        full = s.close()
    for doc in docs.values():
        for opts in (OPTS, CODEGEN):
            s2 = EngineSession.restore(doc, p, opts.with_(metering="off"))
            play(s2, tail)
            resumed = s2.close()
            assert resumed.output_text() == full.output_text()
            assert resumed.table_sizes == full.table_sizes
            assert resumed.stats.retractions == full.stats.retractions
            assert resumed.stats.rederivations == full.stats.rederivations
