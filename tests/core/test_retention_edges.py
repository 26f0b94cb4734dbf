"""Edge cases of ``Engine._apply_retention`` (§5 step 4).

The happy path — keep the last N generations, prune the rest — is
covered by ``tests/core/test_extensions.py``.  These tests pin down the
boundaries: hints on tables that never reach Gamma, retention firing
during initialisation before any engine step runs, interaction with
negative queries that observe the discards, and indexed stores staying
consistent through retention discards.
"""

from __future__ import annotations

from repro.core import ExecOptions, Program, RetentionHint


class TestNoGammaRetention:
    """A hint on a ``-noGamma`` table must be a no-op, not a crash: the
    store exists but never receives tuples, so there is nothing to
    scan, no max to track, and nothing to discard."""

    def _program(self):
        p = Program("nogamma-retention")
        T = p.table("T", "int gen, int i", orderby=("Int", "seq gen", "par i"))
        Out = p.table("Out", "int gen", orderby=("Out",))

        @p.foreach(T, assume_stratified=True)
        def advance(ctx, t):
            if t.i == 0:
                ctx.put(Out.new(t.gen))
            if t.gen < 5:
                ctx.put(T.new(t.gen + 1, t.i))

        for i in range(3):
            p.put(T.new(0, i))
        return p

    def test_hint_on_nogamma_table_is_noop(self):
        r = self._program().run(
            ExecOptions(
                no_gamma=frozenset({"T"}),
                retention={"T": RetentionHint("gen", keep_last=2)},
            )
        )
        assert r.table_sizes["T"] == 0
        assert r.stats.tables["T"].gamma_discarded == 0
        # the run itself is unaffected: all 6 generations produced
        assert r.table_sizes["Out"] == 6

    def test_same_outputs_as_without_hint(self):
        base = ExecOptions(no_gamma=frozenset({"T"}))
        with_hint = base.with_(retention={"T": RetentionHint("gen", keep_last=2)})
        assert (
            self._program().run(base).table_sizes
            == self._program().run(with_hint).table_sizes
        )


class TestInitOnlyRetention:
    """With every table ``-noDelta``, the whole program cascades inside
    the initial-puts task: zero engine steps ever run, yet lifetime
    hints must still prune Gamma (the engine applies retention once
    after initialisation)."""

    def _run(self, retention):
        p = Program("init-only")
        T = p.table("T", "int gen", orderby=("T",))

        @p.foreach(T, assume_stratified=True)
        def advance(ctx, t):
            if t.gen < 7:
                ctx.put(T.new(t.gen + 1))

        p.put(T.new(0))
        return p.run(
            ExecOptions(no_delta=frozenset({"T"}), retention=retention)
        )

    def test_zero_steps(self):
        r = self._run({})
        assert r.steps == 0
        assert r.table_sizes["T"] == 8

    def test_retention_fires_without_any_step(self):
        r = self._run({"T": RetentionHint("gen", keep_last=3)})
        assert r.steps == 0
        assert r.table_sizes["T"] == 3
        remaining = {t.gen for t in r.database.store("T").scan()}
        assert remaining == {5, 6, 7}
        assert r.stats.tables["T"].gamma_discarded == 5


class TestDiscardsObservedByNegativeQuery:
    """A rule firing after a prune must see the discarded tuples as
    *absent*: retention feeds straight into negative-query semantics
    (the bounded-memory sensors pattern)."""

    def _run(self, retention, index_mode="off", indexes=None):
        p = Program("observe-discards")
        Tick = p.table("Tick", "int gen", orderby=("Int", "seq gen", "Tick"))
        Probe = p.table("Probe", "int gen", orderby=("Int", "seq gen", "Probe"))
        Seen = p.table("Seen", "int gen, bool old_visible", orderby=("Out",))
        p.order("Tick", "Probe")

        @p.foreach(Tick, assume_stratified=True)
        def tick(ctx, t):
            ctx.put(Probe.new(t.gen))
            if t.gen < 6:
                ctx.put(Tick.new(t.gen + 1))

        @p.foreach(Probe, assume_stratified=True)
        def probe(ctx, pr):
            # negative query two generations back: with keep_last=2 the
            # tuple was discarded by the time this fires
            old = ctx.get_uniq(Tick, gen=pr.gen - 2)
            ctx.put(Seen.new(pr.gen, old is not None))

        p.put(Tick.new(0))
        return p.run(
            ExecOptions(
                retention=retention,
                index_mode=index_mode,
                indexes=indexes or {},
            )
        )

    @staticmethod
    def _visibility(result) -> dict[int, bool]:
        return {
            t.gen: t.old_visible
            for t in result.database.store("Seen").scan()
        }

    def test_without_hint_history_visible(self):
        vis = self._visibility(self._run({}))
        assert vis == {g: g >= 2 for g in range(7)}

    def test_discards_turn_negative_queries_absent(self):
        vis = self._visibility(
            self._run({"Tick": RetentionHint("gen", keep_last=2)})
        )
        # generation g probes g-2, which retention has already pruned
        assert vis == {g: False for g in range(7)}

    def test_indexed_store_sees_the_same_discards(self):
        """Retention discards must be withdrawn from secondary indexes
        too — a stale index entry would make the pruned tuple visible
        again (opaque rule bodies hide the query from the planner, so
        the index is requested explicitly)."""
        from repro.gamma import IndexSpec, IndexedStore

        hint = {"Tick": RetentionHint("gen", keep_last=2)}
        plain = self._run(hint)
        indexed = self._run(
            hint,
            index_mode="explicit",
            indexes={"Tick": (IndexSpec(("gen",)),)},
        )
        store = indexed.database.store("Tick")
        assert isinstance(store, IndexedStore)
        assert store.index_usage()["hash(gen)"] > 0
        assert self._visibility(indexed) == self._visibility(plain)
        assert indexed.output_text() == plain.output_text()
        assert indexed.table_sizes == plain.table_sizes


class TestRetentionFreesMemory:
    """The paper's memory knobs (§5.1 ``-noGamma``, §5 step 4 lifetime
    hints) are only worth turning if what they drop is really gone:
    nothing the engine holds may keep a discarded tuple alive."""

    @staticmethod
    def _held_tuples(kernel) -> int:
        """Distinct tuples reachable from the kernel's own containers.
        The program (its rules and their closures are the caller's) and
        the stats histories are not the engine's tuple storage; code
        objects are walked through their closure cells only."""
        import gc
        import types

        from repro.core.tuples import JTuple

        seen = {id(kernel.program), id(kernel.stats)}
        stack, held = [kernel], 0
        while stack:
            obj = stack.pop()
            if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
                continue
            seen.add(id(obj))
            if isinstance(obj, JTuple):
                held += 1
            elif isinstance(obj, types.MethodType):
                stack.append(obj.__self__)
            elif isinstance(obj, types.FunctionType):
                stack.extend(c.cell_contents for c in obj.__closure__ or ())
            else:
                stack.extend(gc.get_referents(obj))
        return held

    def test_bounded_sensors_hold_no_more_than_gamma_and_delta(self):
        from repro.apps.sensors import build_sensor_stream
        from repro.core import causal_chunks

        handles, events = build_sensor_stream(n_ticks=600, n_sensors=8)
        options = ExecOptions(retention={"Reading": RetentionHint("tick", 2)})
        with handles.program.session(options) as session:
            for chunk in causal_chunks(session.database, events, 20):
                session.feed(chunk)
                session.settle()
            k = session.kernel
            stored = k.db.total_tuples() + len(k.delta)
            assert k.stats.tables["Reading"].gamma_discarded > 4000
            assert stored < 500
            # 64: the high-water class, a step's results in flight
            assert self._held_tuples(k) <= stored + 64
