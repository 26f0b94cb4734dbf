"""Property-based retraction testing: random interleaved insert/delete
scripts, with the single invariant that matters —

    incremental settle  ==  from-scratch rerun on the surviving facts

checked on both output text and Gamma table sizes.  Hypothesis owns the
script shape (which facts, insert/delete interleaving, where the settle
boundaries fall), so shrinking reports a minimal diverging script.

Two programs: the sensors stream (aggregate/negative queries, counting
repair) and the in-test dijkstra rule (recursive derivation, DRed
repair).  Scripts are generated *valid by construction* — inserts pick
keys not currently asserted (re-asserting a retracted key with a new
value is allowed and exercised), deletes pick currently-live facts.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Delete, ExecOptions, Program

# -- script generation ---------------------------------------------------------

N_TICKS = 5
N_SENSORS = 3


@st.composite
def sensor_scripts(draw):
    """A list of feed batches of Insert/Delete events over the
    (tick, sensor) key grid, valid by construction."""
    live: dict[tuple[int, int], int] = {}  # key -> generation
    gen = 0
    events = []
    n_events = draw(st.integers(min_value=1, max_value=24))
    for _ in range(n_events):
        dead = [
            (t, s)
            for t in range(N_TICKS)
            for s in range(N_SENSORS)
            if (t, s) not in live
        ]
        do_delete = live and (not dead or draw(st.booleans()))
        if do_delete:
            key = draw(st.sampled_from(sorted(live)))
            events.append(("delete", key, live.pop(key)))
        else:
            key = draw(st.sampled_from(dead))
            gen += 1
            live[key] = gen
            events.append(("insert", key, gen))
    # settle boundaries: each event may close a batch
    batches, cur = [], []
    for ev in events:
        cur.append(ev)
        if draw(st.booleans()):
            batches.append(cur)
            cur = []
    if cur:
        batches.append(cur)
    return batches


def _value(key, gen):
    """Deterministic reading value; generation-dependent so re-asserting
    a retracted key carries a *different* value (a true update)."""
    t, s = key
    return 40 + 9 * t + 5 * s + 17 * gen


def _materialise(Reading, batches):
    """Script -> concrete event batches + the surviving fact list."""
    fact = lambda key, gen: Reading.new(key[0], key[1], _value(key, gen))  # noqa: E731
    out, live = [], {}
    for batch in batches:
        evs = []
        for op, key, gen in batch:
            if op == "insert":
                live[key] = gen
                evs.append(fact(key, gen))
            else:
                live.pop(key, None)
                evs.append(Delete(fact(key, gen)))
        out.append(evs)
    survivors = [fact(k, g) for k, g in sorted(live.items())]
    return out, survivors


def _assert_equivalent(program, batches, survivors):
    inc_opts = ExecOptions(strategy="sequential", retraction=True)
    with program.session(inc_opts) as s:
        for batch in batches:
            s.feed(batch)
            s.settle()
        inc = s.close()
    with program.session(ExecOptions(strategy="sequential")) as s2:
        s2.feed(survivors)
        scr = s2.close()
    assert inc.output_text() == scr.output_text()
    assert inc.table_sizes == scr.table_sizes


# -- sensors -------------------------------------------------------------------


def _sensor_program():
    from repro.apps.sensors import build_sensor_stream

    handles, _events = build_sensor_stream(n_ticks=N_TICKS, n_sensors=N_SENSORS)
    return handles.program, handles.Reading


_SENSORS = _sensor_program()


@settings(max_examples=40, deadline=None)
@given(script=sensor_scripts())
def test_sensor_scripts_incremental_equals_scratch(script):
    program, Reading = _SENSORS
    batches, survivors = _materialise(Reading, script)
    _assert_equivalent(program, batches, survivors)


# -- dijkstra (recursive: DRed repair under random scripts) --------------------


def _dijkstra_program():
    p = Program("dijkstra-props")
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


_DIJKSTRA = _dijkstra_program()
N_VERTS = 4


@st.composite
def edge_scripts(draw):
    """Insert/delete scripts over the directed edges of a 4-vertex
    graph (weights generation-dependent, so re-asserted edges change)."""
    live: dict[tuple[int, int], int] = {}
    gen = 0
    events = []
    pairs = [(a, b) for a in range(N_VERTS) for b in range(N_VERTS) if a != b]
    n_events = draw(st.integers(min_value=1, max_value=16))
    for _ in range(n_events):
        dead = [p for p in pairs if p not in live]
        do_delete = live and (not dead or draw(st.booleans()))
        if do_delete:
            key = draw(st.sampled_from(sorted(live)))
            events.append(("delete", key, live.pop(key)))
        else:
            key = draw(st.sampled_from(dead))
            gen += 1
            live[key] = gen
            events.append(("insert", key, gen))
    batches, cur = [], []
    for ev in events:
        cur.append(ev)
        if draw(st.booleans()):
            batches.append(cur)
            cur = []
    if cur:
        batches.append(cur)
    return batches


def _edge_weight(key, gen):
    return 1 + (key[0] + 2 * key[1] + 3 * gen) % 7


@settings(max_examples=40, deadline=None)
@given(script=edge_scripts())
def test_dijkstra_scripts_incremental_equals_scratch(script):
    p, Edge, Estimate = _DIJKSTRA
    origin = Estimate.new(0, 0)
    fact = lambda key, gen: Edge.new(key[0], key[1], _edge_weight(key, gen))  # noqa: E731
    batches, live = [], {}
    for i, batch in enumerate(script):
        evs = []
        if i == 0:
            evs.append(origin)
        for op, key, gen in batch:
            if op == "insert":
                live[key] = gen
                evs.append(fact(key, gen))
            else:
                live.pop(key, None)
                evs.append(Delete(fact(key, gen)))
        batches.append(evs)
    survivors = [origin] + [fact(k, g) for k, g in sorted(live.items())]
    _assert_equivalent(p, batches, survivors)


# -- the codegen leg -----------------------------------------------------------
#
# The same scripts through the codegen tier's recording drivers: equal
# to the scratch recompute, and to the scalar run down to the support
# index's firing ids.


def _assert_codegen_equivalent(program, batches, survivors):
    def incremental(execution):
        opts = ExecOptions(strategy="sequential", retraction=True, execution=execution)
        with program.session(opts) as s:
            for batch in batches:
                s.feed(batch)
                s.settle()
            sup = s.kernel._support
            return s.close(), sorted(sup.firings), s.kernel.executor.name

    (scalar, fids_s, _), (codegen, fids_c, tier) = incremental("scalar"), incremental("codegen")
    with program.session(ExecOptions(strategy="sequential")) as s2:
        s2.feed(survivors)
        scr = s2.close()
    assert tier == "codegen"
    assert codegen.output_text() == scalar.output_text() == scr.output_text()
    assert codegen.table_sizes == scalar.table_sizes == scr.table_sizes
    assert fids_c == fids_s


@settings(max_examples=40, deadline=None)
@given(script=sensor_scripts())
def test_sensor_scripts_codegen_equals_scalar_and_scratch(script):
    program, Reading = _SENSORS
    batches, survivors = _materialise(Reading, script)
    _assert_codegen_equivalent(program, batches, survivors)


@settings(max_examples=40, deadline=None)
@given(script=edge_scripts())
def test_dijkstra_scripts_codegen_equals_scalar_and_scratch(script):
    p, Edge, Estimate = _DIJKSTRA
    origin = Estimate.new(0, 0)
    fact = lambda key, gen: Edge.new(key[0], key[1], _edge_weight(key, gen))  # noqa: E731
    batches, live = [], {}
    for i, batch in enumerate(script):
        evs = [origin] if i == 0 else []
        for op, key, gen in batch:
            if op == "insert":
                live[key] = gen
                evs.append(fact(key, gen))
            else:
                live.pop(key, None)
                evs.append(Delete(fact(key, gen)))
        batches.append(evs)
    survivors = [origin] + [fact(k, g) for k, g in sorted(live.items())]
    _assert_codegen_equivalent(p, batches, survivors)
