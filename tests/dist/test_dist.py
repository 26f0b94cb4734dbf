"""Tests for the distributed execution substrate (§2 stage 3)."""

from __future__ import annotations

import pytest

from repro.core import ExecOptions, Program
from repro.core.errors import EngineError
from repro.dist import (
    DistOptions,
    NetModel,
    OnNode,
    Partitioned,
    PlacementMap,
    Replicated,
    StepTraffic,
    check_locality,
    run_distributed,
)
from repro.dist.placement import _stable_hash


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
            r = run_distributed(counter_program(), n_nodes=nodes)
            assert r.output == ref, nodes

    def test_deterministic(self):
        a = run_distributed(counter_program(), n_nodes=3)
        b = run_distributed(counter_program(), n_nodes=3)
        assert a.output == b.output and a.elapsed == b.elapsed
        assert a.shard_sizes == b.shard_sizes

    def test_partitioned_shards_disjoint_and_complete(self):
        r = run_distributed(counter_program(), n_nodes=4)
        assert r.table_total("T") == 7
        assert r.table_total("Log") == 7

    def test_replicated_everywhere(self):
        p = counter_program()
        r = run_distributed(p, n_nodes=3, placements={"Log": Replicated()})
        assert r.shard_sizes["Log"] == [7, 7, 7]

    def test_on_node_pins(self):
        r = run_distributed(
            counter_program(), n_nodes=3, placements={"Log": OnNode(2)}
        )
        assert r.shard_sizes["Log"] == [0, 0, 7]

    def test_engine_single_use(self):
        from repro.dist import DistEngine

        e = DistEngine(counter_program(), DistOptions(n_nodes=2))
        e.run()
        with pytest.raises(EngineError, match="once"):
            e.run()

    def test_max_steps(self):
        with pytest.raises(EngineError, match="max_steps"):
            run_distributed(
                counter_program(limit=50),
                n_nodes=2,
                exec_options=ExecOptions(max_steps=5),
            )

    def test_remote_queries_counted(self):
        """A query binding a foreign partition value must travel."""
        p, seen = remote_probe_program()
        r = run_distributed(
            p,
            n_nodes=3,
            placements={"Data": Partitioned("k"), "Go": Partitioned("g")},
        )
        assert seen == {2: 30}
        # Go(2) fires on node 2; Data(3) lives on node 0: remote
        assert r.remote_queries >= 1

    def test_unbound_partition_field_broadcasts(self):
        p, got = broadcast_program()
        r = run_distributed(p, n_nodes=4, placements={"Data": Partitioned("k")})
        assert got["n"] == 8  # gather returns everything
        assert r.remote_queries >= 3  # asked every other shard

    def test_comm_time_grows_with_scatter(self):
        """Partitioning the Log table somewhere other than its producer
        forces traffic; replicating it forces more."""
        base = run_distributed(counter_program(), n_nodes=4)
        repl = run_distributed(
            counter_program(), n_nodes=4, placements={"Log": Replicated()}
        )
        assert repl.tuples_moved >= base.tuples_moved
        assert repl.comm_time >= base.comm_time

    def test_imbalance_metric(self):
        r = run_distributed(counter_program(), n_nodes=2)
        assert r.imbalance >= 1.0

    def test_invalid_nodes(self):
        with pytest.raises(EngineError):
            DistOptions(n_nodes=0)


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
            run_distributed(
                counter_program(), n_nodes=4, placements={"Log": OnNode(5)}
            )

    def test_home_of_never_wraps(self):
        p = Program()
        T = p.table("T", "int k -> int v")
        pm = PlacementMap(p.schemas(), {"T": OnNode(5)})  # size unknown yet
        with pytest.raises(EngineError, match="node 5"):
            pm.home_of(T.new(1, 1), 4)

    def test_in_range_pin_still_works(self):
        r = run_distributed(
            counter_program(), n_nodes=4, placements={"Log": OnNode(3)}
        )
        assert r.shard_sizes["Log"] == [0, 0, 0, 7]


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
                run_distributed(p, n_nodes=2, exec_options=eo)
            assert not p._frozen

    def test_exec_options_alone_decide_check_mode_and_max_steps(self):
        """``DistOptions`` used to carry its own ``causality_check`` and
        ``max_steps``, merged with ``exec_options``' under a precedence
        that ran "off" + strict as off and could not say "warn" over
        strict."""
        from dataclasses import fields

        from repro.core import CausalityError

        assert [f.name for f in fields(DistOptions)] == [
            "n_nodes",
            "placements",
            "net",
            "exec_options",
        ]
        with pytest.raises(TypeError):
            DistOptions(causality_check="off")
        with pytest.raises(TypeError):
            run_distributed(counter_program(), max_steps=5)

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
                run_distributed(
                    backwards(), n_nodes=2, exec_options=ExecOptions(causality_check=mode)
                )
        r = run_distributed(
            backwards(), n_nodes=2, exec_options=ExecOptions(causality_check="off")
        )
        assert r.table_total("T") == 2

    def test_honoured_knobs_fold_in(self):
        eo = ExecOptions(max_steps=5)
        with pytest.raises(EngineError, match="max_steps"):
            run_distributed(counter_program(limit=50), n_nodes=2, exec_options=eo)

    def test_default_exec_options_are_silent(self):
        r = run_distributed(
            counter_program(), n_nodes=2, exec_options=ExecOptions()
        )
        assert r.stats.notes == []
