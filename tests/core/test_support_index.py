"""The SupportIndex footprint index behind grown-result invalidation.

Two claims, both about *which firings* the repair path looks at, never
about how long it takes:

* **index ≡ linear scan** — for Hypothesis-generated firing sets and
  newcomers, the firings ``SupportIndex._invalidate_grown`` dooms through
  the footprint index are exactly those a brute-force scan over every
  live firing dooms (the reference lives here, not in ``src/``), and
  unregistering everything leaves every index map empty;
* **scaling, as a count** — on the session-fed Dijkstra churn program
  the candidates examined per new Gamma tuple stay a small constant as
  the graph grows, while the repair itself (steps, retractions,
  rederivations) is unchanged from the pre-index code.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Delete, EngineSession, ExecOptions, Program
from repro.core.ordering import compare_timestamps
from repro.core.query import Query, QueryKind
from repro.core.support import FiringRecord

OPTS = ExecOptions(strategy="sequential", retraction=True)

# -- property: the indexed path dooms what a full scan dooms --------------------


def _footprint_program():
    p = Program("footprints")
    tables = [
        p.table(name, "any a, any b, int c, int t", orderby=("seq t",))
        for name in ("T", "U")
    ]
    trig = p.table("Trig", "int id, int t", orderby=("seq t",))
    return p, tables, trig


#: 1 / 1.0 / True collide (equal, same hash); the rest do not
VALUES = [0, 1, 1.0, True, 2, "x"]
#: what a query may bind a column to: the same pool plus an unhashable
EQ_VALUES = VALUES + [[1]]
WHERES = [None, lambda t: t.c % 2 == 0, lambda t: t.a == t.b]
RANGES = [
    {},
    {2: (1, 3, True, True)},
    {2: (None, 2, True, False)},
    {2: (2, None, False, True)},
]

newcomers = st.tuples(
    st.integers(0, 1),  # table
    st.sampled_from(VALUES),
    st.sampled_from(VALUES),
    st.integers(0, 4),
    st.integers(0, 6),
)
queries = st.tuples(
    st.integers(0, 1),  # table
    st.dictionaries(st.integers(0, 1), st.sampled_from(EQ_VALUES), max_size=2),
    st.sampled_from(RANGES),
    st.sampled_from(WHERES),
)
firings = st.tuples(
    st.integers(0, 6),  # trigger timestamp
    st.lists(queries, max_size=4),
    st.lists(newcomers, max_size=2),  # tuples the firing read
)


def _reference_doomed(sup, db, tup):
    """Brute force over every live firing — the pre-index algorithm."""
    ts = db.timestamp(tup)
    doomed = []
    for fid in sorted(sup.firings):
        rec = sup.firings[fid]
        if tup in rec.reads or tup == rec.trigger:
            continue
        if compare_timestamps(ts, db.timestamp(rec.trigger)) >= 0:
            continue
        if any(q.schema is tup.schema and q.matches(tup) for q in rec.queries):
            doomed.append(fid)
    return doomed


@settings(max_examples=150, deadline=None)
@given(st.lists(firings, max_size=12), st.lists(newcomers, min_size=1, max_size=8))
def test_indexed_invalidation_dooms_exactly_what_a_linear_scan_dooms(
    firing_specs, newcomer_specs
):
    p, tables, Trig = _footprint_program()
    session = EngineSession(p, OPTS).open()
    k = session.kernel
    sup, db = k._support, k.db
    new = lambda spec: tables[spec[0]].new(*spec[1:])  # noqa: E731

    for i, (trig_t, query_specs, read_specs) in enumerate(firing_specs):
        trigger = Trig.new(i, trig_t)
        rec = FiringRecord("rule", 0, trigger, db.timestamp(trigger))
        for table, eq, ranges, where in query_specs:
            rec.note_query(
                Query(tables[table].schema, eq, ranges, where, QueryKind.NEGATIVE),
                [],
            )
        for spec in read_specs:
            rec.reads[new(spec)] = None
        sup.register(rec)

    seeded: list[list[int]] = []
    sup._over_delete = lambda seeds, seed_fids=(): seeded.append(list(seed_fids))
    candidates = 0
    for spec in newcomer_specs:
        tup = new(spec)
        seeded.clear()
        sup._invalidate_grown(tup, db.timestamp(tup))
        got = seeded[0] if seeded else []
        assert got == _reference_doomed(sup, db, tup)
        # the probe never looks at more firings than there are
        assert k.stats.grown_candidates - candidates <= len(sup)
        candidates = k.stats.grown_candidates
    assert k.stats.grown_checks == len(newcomer_specs)

    # the native-taint view of the same index: every firing that queried
    assert sup.query_fids("T") | sup.query_fids("U") == {
        fid for fid, rec in sup.firings.items() if rec.queries
    }
    # no accretion: every map is empty once every firing is gone
    for fid in list(sup.firings):
        sup.unregister(fid)
    for name in ("firings", "live", "triggered", "readers", "support",
                 "footprints", "native_users"):
        assert not getattr(sup, name), name


# -- scaling guard: candidates per check, as a count ---------------------------


def _churn_program():
    """The ``dijkstra_churn`` benchmark program (same 12-line rule)."""
    p = Program("dijkstra-churn")
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
            ctx.put(Done.new(dist.vertex, dist.distance))
            for edge in ctx.get(Edge, dist.vertex):
                if ctx.get_uniq(Done, vertex=edge.dst) is None:
                    ctx.put(Estimate.new(edge.dst, dist.distance + edge.value))

    return p, Edge, Estimate


def _churn(n_vertices: int, rounds: int = 12):
    rng = random.Random(0x5EED)
    live: dict[tuple[int, int], int] = {}
    for v in range(1, n_vertices):  # spanning tree, both directions
        u = rng.randrange(v)
        live[(u, v)] = live[(v, u)] = rng.randint(1, 10)
    while len(live) < 3 * n_vertices:
        a, b = rng.randrange(n_vertices), rng.randrange(n_vertices)
        if a != b and (a, b) not in live:
            live[(a, b)] = rng.randint(1, 10)
    p, Edge, Estimate = _churn_program()
    session = EngineSession(
        p, ExecOptions(strategy="sequential", retraction=True, metering="off")
    ).open()
    session.feed([Edge.new(a, b, w) for (a, b), w in live.items()] + [Estimate.new(0, 0)])
    session.settle()
    for _ in range(rounds):
        events = [
            Delete(Edge.new(*key, live.pop(key))) for key in rng.sample(sorted(live), 2)
        ]
        while len(events) < 4:
            a, b = rng.randrange(n_vertices), rng.randrange(n_vertices)
            if a != b and (a, b) not in live:
                live[(a, b)] = rng.randint(1, 10)
                events.append(Edge.new(a, b, live[(a, b)]))
        session.feed(events)
        session.settle()
    stats = session.stats
    session.close()
    return stats


#: n_vertices -> (steps, retractions, rederivations), pinned from the
#: code before the footprint index: same repair, found faster
PRE_INDEX_COUNTS = {100: (520, 794, 214), 400: (482, 1103, 424)}


def test_candidates_per_check_do_not_grow_with_the_graph():
    ratio = {}
    for n in (100, 400):
        stats = _churn(n)
        assert (stats.steps, stats.retractions, stats.rederivations) == PRE_INDEX_COUNTS[n]
        assert stats.grown_doomed > 0
        ratio[n] = stats.grown_candidates / stats.grown_checks
        assert ratio[n] <= 8
    # a linear scan would read ~4x here (firings scale with vertices)
    assert ratio[400] <= ratio[100] * 1.5


def test_run_report_states_candidates_per_check():
    from repro.stats import run_report

    p, Edge, Estimate = _churn_program()
    session = EngineSession(p, OPTS).open()
    session.feed([Edge.new(0, 1, 1), Edge.new(1, 2, 1), Estimate.new(0, 0)])
    session.settle()
    session.feed([Delete(Edge.new(0, 1, 1))])
    session.settle()
    result = session.close()
    st_ = result.stats
    assert st_.as_dict()["grown_checks"] == st_.grown_checks > 0
    assert (
        f"{st_.grown_candidates / st_.grown_checks:.2f} candidate firings per check"
        in run_report(result)
    )


def test_counters_stay_zero_without_retraction():
    p, Edge, Estimate = _churn_program()
    with p.session(ExecOptions(strategy="sequential")) as session:
        session.feed([Edge.new(0, 1, 1), Estimate.new(0, 0)])
    stats = session.result.stats
    assert (stats.grown_checks, stats.grown_candidates, stats.grown_doomed) == (0, 0, 0)
