"""The full ExecOptions refusal matrix, pinned to one canonical
message format:

    invalid ExecOptions: knob=value[, knob=value...] -- reason

Every refusal names the *values* of every offending knob, so a refusal
seen in a log — or relayed through the session service as a structured
``engine`` error — identifies the misconfiguration without a repro.

The execution-tier half of the matrix is *generated* from the one
registry (:mod:`repro.core.executors.registry`): every ``REFUSALS`` row
— the sharded tier's (``strategy="processes"``) among them — must
refuse before any engine state exists, every ``DOWNGRADES`` row must
run byte-identical to scalar with its note, and the option table in
``docs/LANGUAGE.md`` must carry exactly one row per registry row.  The
sharded entry point (``run_sharded``, on the mesh or the cost model)
normalises whatever options it is handed to that tier, so the same rows
decide for it: every single-node knob either composes — byte-identical
to the sequential run — or refuses with no worker forked.  Nothing in
this file forks."""

from __future__ import annotations

import multiprocessing
import re
from dataclasses import fields, is_dataclass
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.apps.ship import build_ship_program
from repro.core import EngineError, ExecOptions
from repro.core.executors.registry import DOWNGRADES, EXECUTION_TIERS, REFUSALS
from repro.core.kernel import StepKernel
from repro.core.program import RetentionHint
from repro.dist import Replicated, run_sharded
from repro.exec.chaos import FaultPlan
from repro.gamma import HashKeyStore
from repro.simcore import NO_GC
from repro.trace import trace_diff

CANONICAL = re.compile(r"^invalid ExecOptions: \S.* -- \S.*$")


def _shown(value) -> str:
    """A knob value as a test id shows it: a class by its name, a
    dataclass by the fields it sets away from its defaults."""
    if isinstance(value, type):
        return value.__name__
    if isinstance(value, dict):
        return "{" + ",".join(f"{k}:{_shown(v)}" for k, v in sorted(value.items())) + "}"
    if isinstance(value, frozenset):
        return "{" + ",".join(sorted(value)) + "}"
    if is_dataclass(value):
        try:
            base = type(value)()
        except TypeError:  # no default instance: every field is set
            base = None
        set_ = [
            f"{f.name}={_shown(getattr(value, f.name))}"
            for f in fields(value)
            if base is None or getattr(value, f.name) != getattr(base, f.name)
        ]
        return f"{type(value).__name__}({','.join(set_)})"
    return str(value)


def _knob_id(kwargs: dict) -> str:
    """A test id built from the knob values alone, so deleting a row of
    a table renames no other test."""
    return "-".join(f"{k}={_shown(v)}" for k, v in sorted(kwargs.items())) or "default"

#: (kwargs, fragments that must appear in the message)
MATRIX = [
    (dict(strategy="warp"),
     ["strategy='warp'", "unknown strategy",
      "sequential, forkjoin, threads, chaos, processes"]),
    (dict(causality_check="maybe"),
     ["causality_check='maybe'", "off, warn, strict"]),
    (dict(threads=0), ["threads=0", ">= 1"]),
    (dict(strategy="threads", threads=-2), ["threads=-2"]),
    (dict(metering="sometimes"),
     ["metering='sometimes'", "metering"]),
    (dict(admission="lax"),
     ["admission='lax'", "strict, warn"]),
    (dict(chaos_seed=7),
     ["strategy='sequential'", "chaos_seed=7", "'chaos' strategy"]),
    (dict(fault_plan=FaultPlan(raise_prob=0.5)),
     ["strategy='sequential'", "fault_plan=", "'chaos' strategy"]),
    (dict(strategy="chaos", fault_plan="not-a-plan"),
     ["fault_plan='not-a-plan'", "must be a FaultPlan"]),
    (dict(strategy="chaos", fault_plan=FaultPlan(raise_prob=0.5),
          no_delta=frozenset({"T"})),
     ["fault_plan=", "no_delta=['T']",
      "-noDelta tables make tasks non-redeliverable"]),
    (dict(retraction=True, no_delta=frozenset({"T"})),
     ["retraction=True", "no_delta=['T']", "fully tracked state"]),
    (dict(retraction=True, no_gamma=frozenset({"U"})),
     ["retraction=True", "no_gamma=['U']", "fully tracked state"]),
    (dict(retraction=True, retention={"T": RetentionHint("gen", 2)}),
     ["retraction=True", "retention=['T']", "retention hints"]),
    (dict(retraction=True, strategy="processes"),
     ["retraction=True", "strategy='processes'", "multiprocess"]),
    (dict(execution="vectorized"),
     ["execution='vectorized'", "valid modes: scalar, codegen"]),
    # the deleted tier is an unknown mode like any other
    (dict(execution="columnar"),
     ["execution='columnar'", "valid modes: scalar, codegen"]),
]


@pytest.mark.parametrize(
    "kwargs, fragments", MATRIX, ids=[_knob_id(kwargs) for kwargs, _ in MATRIX]
)
def test_refusal_names_offending_knobs_in_canonical_format(kwargs, fragments):
    with pytest.raises(EngineError) as err:
        ExecOptions(**kwargs)
    message = str(err.value)
    assert CANONICAL.match(message), message
    for fragment in fragments:
        assert fragment in message, (fragment, message)


def test_refusals_are_catchable_as_engine_errors():
    # the service maps these to the 'engine' wire code; the class must
    # stay in the EngineError branch of the taxonomy
    from repro.serve.protocol import error_code

    with pytest.raises(EngineError) as err:
        ExecOptions(strategy="warp")
    assert error_code(err.value) == ("engine", False)


#: Each id names the row's knobs in at most 17 characters, so the full
#: test name stays unique when cut to 100 characters.
VALID = [
    pytest.param(dict(), id="default"),
    pytest.param(dict(strategy="forkjoin", threads=4), id="forkjoin"),
    pytest.param(dict(strategy="chaos", chaos_seed=3), id="chaos-seed"),
    pytest.param(
        dict(strategy="chaos", fault_plan=FaultPlan(raise_prob=0.2)), id="chaos-faultplan"
    ),
    pytest.param(dict(retraction=True), id="retraction"),
    pytest.param(
        dict(retraction=True, strategy="threads", threads=2), id="retract-threads"
    ),
    pytest.param(dict(retention={"T": RetentionHint("gen", 2)}), id="retention"),
    pytest.param(dict(execution="scalar"), id="scalar"),
    pytest.param(dict(execution="scalar", metering="off"), id="scalar-meter-off"),
    pytest.param(dict(execution="codegen"), id="codegen"),
    pytest.param(dict(execution="codegen", metering="off"), id="codegen-meter-off"),
    # not refused: non-sequential strategies downgrade to scalar at
    # run time with a note rather than refusing up front
    pytest.param(
        dict(execution="codegen", strategy="chaos", chaos_seed=3), id="codegen-chaos"
    ),
    pytest.param(
        dict(execution="codegen", strategy="forkjoin", threads=2), id="codegen-forkjoin"
    ),
    pytest.param(
        dict(execution="codegen", strategy="threads", threads=2), id="codegen-threads"
    ),
    pytest.param(dict(execution="codegen", trace=True), id="codegen-trace"),
]


@pytest.mark.parametrize("kwargs", VALID)
def test_valid_option_combinations_are_accepted(kwargs):
    assert ExecOptions(**kwargs)


def test_removed_plan_cache_option_is_not_a_field():
    with pytest.raises(TypeError):
        ExecOptions(plan_cache=False)


@pytest.mark.parametrize(
    "knob", ["coalesce_steps", "collect_stats", "task_granularity", "gc_model"]
)
def test_removed_knob_is_not_a_field(knob):
    with pytest.raises(TypeError):
        ExecOptions(**{knob: True})
    assert len(fields(ExecOptions)) == 17


# -- registry resolution: one table decides the kernel's tier ----------------


def _tiny_program():
    from repro.core import Program

    p = Program("tiny")
    T = p.table("T", "int x", orderby=("T",))

    @p.foreach(T)
    def echo(ctx, t):
        ctx.println(f"x={t.x}")

    p.put(T.new(1))
    return p


#: (options, resolved tier, fragment of the downgrade note or None)
RESOLUTION = [
    (dict(), "scalar", None),
    (dict(execution="scalar"), "scalar", None),
    (dict(execution="codegen"), "codegen", None),
    (dict(execution="codegen", strategy="threads", threads=2),
     "scalar", "execution='codegen' ignored"),
    (dict(execution="codegen", trace=True),
     "scalar", "emit no trace events"),
]


@pytest.mark.parametrize(
    "kwargs, tier, note", RESOLUTION, ids=[_knob_id(kwargs) for kwargs, _, _ in RESOLUTION]
)
def test_registry_resolves_executor_and_notes_downgrades(kwargs, tier, note):
    kernel = StepKernel(_tiny_program(), ExecOptions(**kwargs))
    assert kernel.executor.name == tier
    ignored = [n.text for n in kernel.stats.note_records if n.code == "codegen.ignored"]
    if note is None:
        assert ignored == []
    else:
        assert len(ignored) == 1 and note in ignored[0], ignored


# -- the generated half: one test per registry row ---------------------------

#: single-knob deviations from the default options.  A registry row is
#: exercised with every entry that trips it, and fails when none does —
#: extend the pool when adding a row.
KNOB_POOL = [
    dict(retraction=True),
    dict(strategy="processes"),
    dict(strategy="threads", threads=2),
    dict(strategy="forkjoin", threads=2),
    dict(strategy="chaos", chaos_seed=3),
    dict(trace=True),
    dict(metering="off"),
]

#: one deviation per ExecOptions knob a caller might hand a sharded run:
#: every knob the distributed runtimes used to drop with a "does not
#: support ...; knob ignored" note, and the ones they honoured
SHARDED_KNOBS = [
    dict(strategy="forkjoin"),
    dict(threads=3),
    dict(no_delta=frozenset({"Ship"})),
    dict(no_gamma=frozenset({"Ship"})),
    dict(calib=NO_GC),  # virtual-time calibration: no shard consumes it
    dict(retention={"Ship": RetentionHint("frame", 2)}),
    dict(store_overrides={"Ship": HashKeyStore}),
    dict(metering="off"),
    dict(trace=True),
    dict(admission="warn"),
    dict(strategy="chaos", chaos_seed=3),
    dict(strategy="chaos", fault_plan=FaultPlan(raise_prob=0.2)),
    dict(max_steps=10_000),
    dict(causality_check="strict"),
    dict(causality_check="off"),
    dict(retraction=True),
    dict(execution="codegen"),
    dict(placements={"Ship": Replicated()}),
]

_DEFAULTS = {f.name: getattr(ExecOptions(), f.name) for f in fields(ExecOptions)}


def _probe(kwargs: dict) -> SimpleNamespace:
    """The options as a plain namespace: refusal predicates can be
    asked about them without building (and so refusing) ExecOptions."""
    return SimpleNamespace(**{**_DEFAULTS, **kwargs})


def _selecting(tier: str) -> dict:
    """The option that selects a registry tier: an ``execution`` value,
    or ``strategy="processes"`` for the sharded tier."""
    return {"execution" if tier in EXECUTION_TIERS else "strategy": tier}


def _refusal_rows_tripped(kwargs: dict) -> list[int]:
    probe = _probe(kwargs)
    return [
        i
        for i, (tier, offending, _reason) in enumerate(REFUSALS)
        if tier in (probe.execution, probe.strategy) and offending(probe)
    ]


def _downgrade_row_applied(kwargs: dict) -> int | None:
    """Index of the DOWNGRADES row that decides these options (the
    first applicable one), or None when the tier arms / refuses."""
    if kwargs.get("execution", "scalar") == "scalar" or _refusal_rows_tripped(kwargs):
        return None
    kernel = StepKernel(_tiny_program(), ExecOptions(**kwargs))
    for i, (tier, applies, _note) in enumerate(DOWNGRADES):
        if tier == kwargs["execution"] and applies(kernel):
            return i
    return None


def _tripping(row: int) -> list[dict]:
    """The pool entries, on the row's tier, that trip REFUSALS[row]."""
    tier = REFUSALS[row][0]
    return [
        kwargs
        for knobs in KNOB_POOL + SHARDED_KNOBS
        if row in _refusal_rows_tripped(kwargs := {**_selecting(tier), **knobs})
    ]


def _row_id(row: int) -> str:
    """A REFUSALS row's test id: the knobs its refusal names."""
    tripping = _tripping(row)
    if not tripping:
        return REFUSALS[row][0] + ":untripped"
    return "-".join(sorted(REFUSALS[row][1](_probe(tripping[0]))))


@pytest.mark.parametrize("row", range(len(REFUSALS)), ids=_row_id)
def test_every_refusal_row_refuses_before_engine_state(row):
    tier, offending, reason = REFUSALS[row]
    tripping = _tripping(row)
    assert tripping, f"no KNOB_POOL / SHARDED_KNOBS entry trips REFUSALS[{row}]"
    for kwargs in tripping:
        with pytest.raises(EngineError) as err:
            ExecOptions(**kwargs)
        message = str(err.value)
        assert CANONICAL.match(message), message
        assert reason in message
        for name, value in offending(_probe(kwargs)).items():
            assert f"{name}={value!r}" in message, (name, message)
        # the run/session entry points build their options first, so
        # the refusal fires with the program not even frozen
        p, _ = build_ship_program()
        for entry in (p.run, p.session):
            with pytest.raises(EngineError, match="invalid ExecOptions"):
                entry(**kwargs)
        assert not p._frozen


# -- the sharded entry points: compose or refuse, nothing dropped -------------


@pytest.mark.parametrize("knobs", SHARDED_KNOBS, ids=[_knob_id(k) for k in SHARDED_KNOBS])
def test_sharded_entry_points_compose_or_refuse(knobs):
    """``run_sharded`` normalises the options it is handed through
    ``with_(strategy="processes")`` on both backends: what that refuses,
    it refuses — same message, program not frozen, no worker forked —
    and what it accepts runs byte-identical to the sequential engine,
    with nothing noted as ignored."""
    handed = ExecOptions(**knobs)
    try:
        handed.with_(strategy="processes")
    except EngineError as exc:
        refusal = str(exc)
    else:
        refusal = None
    p, _ = build_ship_program()
    if refusal is None:
        ref = build_ship_program()[0].run()
        got = run_sharded(p, handed, transport="model")
        assert got.output == ref.output
        assert got.table_sizes == ref.table_sizes
        assert got.steps == ref.steps
        assert got.stats.notes == []
        return
    assert CANONICAL.match(refusal), refusal
    for transport in (None, "model"):
        with pytest.raises(EngineError) as err:
            run_sharded(p, handed, transport=transport)
        assert str(err.value) == refusal
    assert not p._frozen
    assert multiprocessing.active_children() == []


def _deciding(row: int) -> list[dict]:
    """The pool entries, on the row's tier, that DOWNGRADES[row] decides."""
    tier = DOWNGRADES[row][0]
    return [
        kwargs
        for knobs in KNOB_POOL
        if _downgrade_row_applied(kwargs := dict(execution=tier, **knobs)) == row
    ]


def _downgrade_id(row: int) -> str:
    """A DOWNGRADES row's test id: the first pool entry it decides."""
    deciding = _deciding(row)
    return _knob_id(deciding[0]) if deciding else DOWNGRADES[row][0] + ":undecided"


@pytest.mark.parametrize("row", range(len(DOWNGRADES)), ids=_downgrade_id)
def test_every_downgrade_row_runs_identical_to_scalar_with_its_note(row):
    tier, _applies, note = DOWNGRADES[row]
    deciding = _deciding(row)
    assert deciding, f"no KNOB_POOL entry makes DOWNGRADES[{row}] decide a run"
    for kwargs in deciding:
        kernel = StepKernel(build_ship_program()[0], ExecOptions(**kwargs))
        assert kernel.executor.name == "scalar"
        got = build_ship_program()[0].run(ExecOptions(**kwargs))
        assert note(kernel) in got.stats.notes
        ref = build_ship_program()[0].run(
            ExecOptions(**{**kwargs, "execution": "scalar"})
        )
        assert got.output_text() == ref.output_text()
        assert got.table_sizes == ref.table_sizes
        if kwargs.get("trace"):
            assert trace_diff(ref.trace, got.trace) is None


# -- docs/LANGUAGE.md carries exactly the registry's rows --------------------


def _doc_table_rows() -> list[tuple[dict, str]]:
    """(options parsed from the first code span, behaviour cell) per
    row of the combination table under "## Execution tiers"."""
    text = (Path(__file__).parents[2] / "docs" / "LANGUAGE.md").read_text()
    section = text.split("## Execution tiers", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if not line.startswith("|") or cells[0] in ("combination", "---"):
            continue
        span = re.search(r"`([^`]+)`", cells[0]).group(1)
        rows.append((eval(f"dict({span})"), cells[1]))  # noqa: S307 - our own doc
    return rows


def test_language_doc_table_has_one_row_per_registry_row():
    refused, downgraded = [], []
    for kwargs, behaviour in _doc_table_rows():
        if behaviour.startswith("refused"):
            tripped = _refusal_rows_tripped(kwargs)
            assert len(tripped) == 1, (kwargs, tripped)
            refused.append(tripped[0])
        else:
            assert behaviour.startswith("downgrades"), behaviour
            downgraded.append(_downgrade_row_applied(kwargs))
    assert sorted(refused) == list(range(len(REFUSALS)))
    assert sorted(downgraded) == list(range(len(DOWNGRADES)))
