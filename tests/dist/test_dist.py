"""Tests for the distributed execution substrate (§2 stage 3)."""

from __future__ import annotations

import pytest

from repro.core import ExecOptions, Program
from repro.core.errors import EngineError
from repro.dist import (
    NetModel,
    OnNode,
    Partitioned,
    PlacementMap,
    Replicated,
    StepTraffic,
    check_locality,
    run_sharded,
)
from repro.dist.placement import _stable_hash


def model(program, n=4, placements=None, **options):
    """``program`` on the cost-model backend: ``n`` nodes under
    ``placements``."""
    opts = ExecOptions(threads=n, placements=placements or {}, **options)
    return run_sharded(program, opts, transport="model")


def shard_sizes(result, table) -> list[int]:
    return [nd["tables"][table] for nd in result.nodes]


def node_total(result, key) -> int:
    return sum(nd[key] for nd in result.nodes)


class TestPlacement:
    def test_stable_hash_deterministic(self):
        assert _stable_hash("abc") == _stable_hash("abc")
        assert _stable_hash(42) == 42
        assert _stable_hash(True) == 1

    def test_partitioned_home(self):
        p = Program()
        T = p.table("T", "int k -> int v")
        part = Partitioned("k")
        t = T.new(10, 1)
        assert part.home(t, 4) == 10 % 4
        assert part.home_for_value(10, 4) == part.home(t, 4)

    def test_placement_map_defaults(self):
        p = Program()
        Keyed = p.table("Keyed", "int k -> int v")
        NoKey = p.table("NoKey", "str s, int n")
        Strs = p.table("Strs", "str a, str b")
        pm = PlacementMap(p.schemas())
        assert pm["Keyed"] == Partitioned("k")
        assert pm["NoKey"] == Partitioned("n")  # first int field
        assert isinstance(pm["Strs"], Replicated)
        del Keyed, NoKey, Strs

    def test_placement_map_validates(self):
        p = Program()
        p.table("T", "int k -> int v")
        with pytest.raises(Exception):
            PlacementMap(p.schemas(), {"T": Partitioned("nope")})
        with pytest.raises(EngineError, match="unknown tables"):
            PlacementMap(p.schemas(), {"Ghost": Replicated()})

    def test_on_node_validation(self):
        with pytest.raises(EngineError):
            OnNode(-1)

    def test_home_of(self):
        p = Program()
        T = p.table("T", "int k -> int v")
        pm = PlacementMap(p.schemas(), {"T": Replicated()})
        assert pm.home_of(T.new(1, 1), 4) is None


class TestNetwork:
    def test_batching_same_pair(self):
        tr = StepTraffic(NetModel(latency=10, per_tuple=2))
        tr.send(0, 1, 3)
        tr.send(0, 1, 2)
        assert tr.batches == {(0, 1): 5}
        assert tr.messages() == 1
        assert tr.tuples_moved() == 5
        # one latency + 5 marshalled tuples, charged at both NICs
        assert tr.comm_time(2) == pytest.approx(10 + 2 * 5)

    def test_self_send_free(self):
        tr = StepTraffic(NetModel())
        tr.send(1, 1, 5)
        assert tr.messages() == 0 and tr.comm_time(2) == 0.0

    def test_remote_query_round_trip(self):
        net = NetModel(latency=10, per_result=1)
        tr = StepTraffic(net)
        tr.remote_query(0, 1, 4)
        assert tr.messages() == 2
        assert tr.comm_time(2) == pytest.approx(2 * 10 + 4)

    def test_busiest_nic_bounds(self):
        tr = StepTraffic(NetModel(latency=10, per_tuple=0))
        tr.send(0, 1, 1)
        tr.send(0, 2, 1)
        tr.send(0, 3, 1)
        assert tr.comm_time(4) == pytest.approx(30)  # node 0 sends all three


def counter_program(limit=6):
    p = Program("dist-counter")
    T = p.table("T", "int t -> int v", orderby=("Int", "seq t"))
    Log = p.table("Log", "int t, int v", orderby=("Out", "seq t"))
    p.order("Int", "Out")

    @p.foreach(T)
    def step(ctx, t):
        ctx.println(f"t={t.t} v={t.v}")
        ctx.put(Log.new(t.t, t.v))
        if t.t < limit:
            ctx.put(T.new(t.t + 1, t.v * 2))

    p.put(T.new(0, 1))
    return p


def remote_probe_program():
    """Go(2) probes Data(3): a query binding a foreign partition value.
    Returns the program and the dict the probe rule records into."""
    p = Program("remote")
    Data = p.table("Data", "int k -> int v", orderby=("A", "seq k"))
    Go = p.table("Go", "int g", orderby=("B", "seq g"))
    p.order("A", "B")
    seen = {}

    @p.foreach(Go)
    def probe(ctx, g):
        row = ctx.get_uniq(Data, k=g.g + 1)
        seen[g.g] = row.v if row else None
        ctx.println(f"probe {g.g} -> {row.v if row else None}")

    for k in range(6):
        p.put(Data.new(k, k * 10))
    p.put(Go.new(2))
    return p, seen


def broadcast_program():
    """One rule reads all 8 Data rows with no partition binding and
    prints them in the order the query returned them."""
    p = Program("bcast")
    Data = p.table("Data", "int k, int v", orderby=("A",))
    Go = p.table("Go", "int g", orderby=("B",))
    p.order("A", "B")
    got = {}

    @p.foreach(Go)
    def agg(ctx, g):
        rows = ctx.get(Data)  # no partition binding
        got["n"] = len(rows)
        ctx.println(",".join(str(t.k) for t in rows))

    for k in range(8):
        p.put(Data.new(k, k))
    p.put(Go.new(0))
    return p, got


class TestDistEngine:
    def test_output_identical_to_single_node(self):
        ref = counter_program().run().output
        for nodes in (1, 2, 4, 7):
            r = model(counter_program(), nodes)
            assert r.output == ref, nodes

    def test_deterministic(self):
        a = model(counter_program(), 3)
        b = model(counter_program(), 3)
        assert a.output == b.output and a.virtual_time == b.virtual_time
        assert a.nodes == b.nodes

    def test_partitioned_shards_disjoint_and_complete(self):
        r = model(counter_program(), 4)
        assert sum(shard_sizes(r, "T")) == 7
        assert sum(shard_sizes(r, "Log")) == 7

    def test_replicated_everywhere(self):
        p = counter_program()
        r = model(p, 3, {"Log": Replicated()})
        assert shard_sizes(r, "Log") == [7, 7, 7]

    def test_on_node_pins(self):
        r = model(counter_program(), 3, {"Log": OnNode(2)})
        assert shard_sizes(r, "Log") == [0, 0, 7]

    def test_engine_single_use(self):
        from repro.core.session import EngineSession
        from repro.dist import DistEngine

        p = counter_program()
        backend = DistEngine(p, ExecOptions(threads=2))
        s = EngineSession(p, backend.options, backend)
        s.run()
        with pytest.raises(EngineError, match="closed"):
            s.run()

    def test_max_steps(self):
        with pytest.raises(EngineError, match="max_steps"):
            model(counter_program(limit=50), 2, max_steps=5)

    def test_remote_queries_counted(self):
        """A query binding a foreign partition value must travel."""
        p, seen = remote_probe_program()
        r = model(p, 3, {"Data": Partitioned("k"), "Go": Partitioned("g")})
        assert seen == {2: 30}
        # Go(2) fires on node 2; Data(3) lives on node 0: remote
        assert node_total(r, "remote_queries") >= 1

    def test_unbound_partition_field_broadcasts(self):
        p, got = broadcast_program()
        r = model(p, 4, {"Data": Partitioned("k")})
        assert got["n"] == 8  # gather returns everything
        assert node_total(r, "remote_queries") >= 3  # asked every other shard

    def test_comm_time_grows_with_scatter(self):
        """Partitioning the Log table somewhere other than its producer
        forces traffic; replicating it forces more."""
        base = model(counter_program(), 4)
        repl = model(counter_program(), 4, {"Log": Replicated()})
        assert repl.report.tuples_moved >= base.report.tuples_moved
        assert repl.report.comm >= base.report.comm

    def test_imbalance_metric(self):
        compute = [nd["compute"] for nd in model(counter_program(), 2).nodes]
        assert max(compute) * len(compute) / sum(compute) >= 1.0

    def test_invalid_nodes(self):
        with pytest.raises(EngineError):
            model(counter_program(), 0)


def _elsewhere(ctx):
    """Body analysis refuses a rule that hands its context away: what
    the helper does with it cannot be read off the rule."""


class TestLocalityCheck:
    def test_copartitioned_query_is_local(self):
        from repro.lang import compile_source

        src = """
        table Reading(int tick, int sensor -> int value)
            orderby (Int, seq tick, Reading, par sensor)
        put new Reading(0, 0, 5)
        foreach (Reading r) {
          val prev = get uniq? Reading(r.tick - 1, r.sensor)
          println(prev == null)
        }
        """
        p = compile_source(src)
        findings = check_locality(p, {"Reading": Partitioned("sensor")})
        assert [f.verdict for f in findings] == ["local"]
        assert "co-partitioned" in findings[0].detail

    def test_bound_but_not_copartitioned_routes(self):
        from repro.lang import compile_source

        src = """
        table Reading(int tick, int sensor -> int value)
            orderby (Int, seq tick, Reading, par sensor)
        put new Reading(0, 0, 5)
        foreach (Reading r) {
          val other = get uniq? Reading(r.tick, r.sensor + 1)
          println(other == null)
        }
        """
        p = compile_source(src)
        findings = check_locality(p, {"Reading": Partitioned("sensor")})
        assert findings[0].verdict == "routed"

    def test_unbound_partition_field_broadcasts(self):
        from repro.lang import compile_source

        src = """
        table Edge(int src, int dst, int w) orderby (Edge)
        table Go(int g) orderby (Go)
        order Edge < Go
        put new Go(0)
        foreach (Go g) {
          for (e : get Edge([w > 0])) { println(e.src) }
        }
        """
        p = compile_source(src)
        findings = check_locality(p, {"Edge": Partitioned("src")})
        assert findings[0].verdict == "broadcast"

    def test_replicated_is_local(self):
        from repro.lang import compile_source

        src = """
        table Config(int k -> int v) orderby (Conf)
        table Go(int g) orderby (Go)
        order Conf < Go
        put new Go(0)
        foreach (Go g) { println(get uniq? Config(0) == null) }
        """
        p = compile_source(src)
        findings = check_locality(p, {"Config": Replicated()})
        assert findings[0].verdict == "local"

    def test_rule_without_meta_is_unknown(self):
        p = Program()
        T = p.table("T", "int t", orderby=("Int", "seq t"))

        @p.foreach(T)
        def opaque(ctx, t):
            _elsewhere(ctx)  # analysis refuses: the context escapes

        findings = check_locality(p)
        assert findings[0].verdict == "unknown"

    def test_meta_less_rule_names_trigger_table(self):
        p = Program()
        T = p.table("T", "int t", orderby=("Int", "seq t"))

        @p.foreach(T)
        def opaque(ctx, t):
            _elsewhere(ctx)

        findings = check_locality(p)
        assert findings[0].table == "T"  # not the old "?"
        assert "context escapes" in findings[0].detail  # the refusal reason

    def test_rule_without_queries_has_no_findings(self):
        p = Program()
        T = p.table("T", "int t", orderby=("Int", "seq t"))

        @p.foreach(T)
        def quiet(ctx, t): ...

        assert check_locality(p) == []

    def test_observed_shapes_classify_meta_less_rules(self):
        p = Program("observed")
        Data = p.table("Data", "int k -> int v", orderby=("A", "seq k"))
        Go = p.table("Go", "int g", orderby=("B", "seq g"))
        p.order("A", "B")

        @p.foreach(Go)
        def probe(ctx, g):
            ctx.get(Data, k=g.g)      # binds the partition field
            ctx.get(Data)             # full scan -> broadcast
            _elsewhere(ctx)           # refused statically: observed shapes classify it

        p.put(Data.new(0, 1))
        p.put(Go.new(0))
        result = p.run()
        findings = check_locality(
            p, {"Data": Partitioned("k")}, observed=result.stats
        )
        probe_findings = [f for f in findings if f.rule == "probe"]
        # one finding per observed query shape, real table names
        assert {f.table for f in probe_findings} == {"Data"}
        assert {f.verdict for f in probe_findings} == {"routed", "broadcast"}
        assert all(f.table != "?" for f in findings)

    def test_observed_replicated_and_pinned(self):
        p = Program("observed2")
        Cfg = p.table("Cfg", "int k -> int v", orderby=("A", "seq k"))
        Go = p.table("Go", "int g", orderby=("B", "seq g"))
        p.order("A", "B")

        @p.foreach(Go)
        def peek(ctx, g):
            ctx.get(Cfg, k=0)
            _elsewhere(ctx)

        p.put(Cfg.new(0, 1))
        p.put(Go.new(0))
        result = p.run()
        f_repl = check_locality(p, {"Cfg": Replicated()}, observed=result.stats)
        assert [f.verdict for f in f_repl if f.rule == "peek"] == ["local"]
        f_pin = check_locality(p, {"Cfg": OnNode(1)}, observed=result.stats)
        assert [f.verdict for f in f_pin if f.rule == "peek"] == ["routed"]


class TestOnNodePinValidation:
    def test_out_of_range_pin_rejected_at_map_construction(self):
        p = Program()
        p.table("T", "int k -> int v")
        with pytest.raises(EngineError, match=r"node 5.*4 node"):
            PlacementMap(p.schemas(), {"T": OnNode(5)}, n_nodes=4)

    def test_boundary_pin_rejected(self):
        p = Program()
        p.table("T", "int k -> int v")
        with pytest.raises(EngineError, match=r"node 4.*0\.\.3"):
            PlacementMap(p.schemas(), {"T": OnNode(4)}, n_nodes=4)

    def test_out_of_range_pin_rejected_at_run_start(self):
        with pytest.raises(EngineError, match=r"'Log'.*node 5.*4 node"):
            model(counter_program(), 4, {"Log": OnNode(5)})

    def test_home_of_never_wraps(self):
        p = Program()
        T = p.table("T", "int k -> int v")
        pm = PlacementMap(p.schemas(), {"T": OnNode(5)})  # size unknown yet
        with pytest.raises(EngineError, match="node 5"):
            pm.home_of(T.new(1, 1), 4)

    def test_in_range_pin_still_works(self):
        r = model(counter_program(), 4, {"Log": OnNode(3)})
        assert shard_sizes(r, "Log") == [0, 0, 0, 7]


class TestExecKnobSurfacing:
    """A single-node knob handed to the cost model composes through the
    one step loop or refuses before any state exists — the generated
    matrix in ``tests/core/test_exec_options_refusals.py`` walks every
    row; nothing is dropped with a note any more."""

    def test_unsupported_knobs_refuse(self):
        for eo in (
            ExecOptions(no_delta=frozenset({"Log"})),
            ExecOptions(no_gamma=frozenset({"Log"})),
        ):
            p = counter_program()
            with pytest.raises(
                EngineError, match="invalid ExecOptions: strategy='processes', no_"
            ):
                run_sharded(p, eo.with_(threads=2), transport="model")
            assert not p._frozen

    def test_exec_options_alone_decide_check_mode_and_max_steps(self):
        """A sharded run once carried a second options type with its own
        ``causality_check`` and ``max_steps``, merged under a precedence
        that ran "off" + strict as off; now ``ExecOptions`` is the one
        source, and ``run_sharded`` takes no knob of its own."""
        from repro.core import CausalityError

        with pytest.raises(TypeError):
            run_sharded(counter_program(), max_steps=5)

        def backwards():
            p = Program()
            T = p.table("T", "int t", orderby=("Int", "seq t"))

            @p.foreach(T)
            def back(ctx, t):
                if t.t == 1:
                    ctx.put(T.new(0))

            p.put(T.new(1))
            return p

        for mode in ("warn", "strict"):
            with pytest.raises(CausalityError):
                model(backwards(), 2, causality_check=mode)
        r = model(backwards(), 2, causality_check="off")
        assert sum(shard_sizes(r, "T")) == 2

    def test_honoured_knobs_fold_in(self):
        with pytest.raises(EngineError, match="max_steps"):
            model(counter_program(limit=50), 2, max_steps=5)

    def test_default_exec_options_are_silent(self):
        r = model(counter_program(), 2)
        assert r.stats.notes == []
