"""Event-driven sensor monitoring — the §3 idioms in one program.

§3: "Event-driven programming with external input tuples fits
elegantly into this framework — the input tuples are added to the
Delta Set, and can then trigger various rules before being stored into
a table."  And footnote 8: "The kosher way of printing is to put
Println tuples into the Delta Set, so that the printing side effects
take place when those tuples are removed from the Delta Set, which
follows the causality ordering.  This also allows one to define an
output sorting order for the Println tuples."

The program: a stream of ``Reading(tick, sensor, value)`` tuples (the
external events).  A rule compares each reading with the same sensor's
previous tick and raises an ``Alert``; alerts become ``Println`` tuples
whose orderby sorts output by tick then sensor — so the printed log is
deterministic and causally ordered *no matter how the input arrived or
how many cores ran the rules*.

Old readings are dead after one tick, so the program is the natural
customer for a :class:`~repro.core.RetentionHint` (§5 step 4): with
``retention={"Reading": RetentionHint("tick", 2)}`` the Gamma heap
stays bounded by two ticks however long the stream runs — the ablation
benchmark quantifies the GC relief.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import ExecOptions, Program, RetentionHint, RunResult
from repro.core.tuples import TableHandle

__all__ = [
    "SensorHandles",
    "build_sensor_program",
    "build_sensor_stream",
    "sensor_events",
    "run_sensors",
    "run_sensors_streaming",
]


@dataclass
class SensorHandles:
    program: Program
    Reading: TableHandle
    Alert: TableHandle
    Println: TableHandle


def build_sensor_program(
    n_ticks: int = 50,
    n_sensors: int = 8,
    spike_factor: float = 2.0,
    seed: int = 5,
) -> SensorHandles:
    """Build the monitoring program over a synthetic event stream."""
    p = Program("sensors")
    Reading = p.table(
        "Reading",
        "int tick, int sensor -> int value",
        orderby=("Int", "seq tick", "Reading", "par sensor"),
    )
    Alert = p.table(
        "Alert",
        "int tick, int sensor -> int value, int previous",
        orderby=("Int", "seq tick", "Alert", "par sensor"),
    )
    # the Out stratum is *interleaved per tick* (first level "Int", like
    # the inputs), not ordered after the whole stream: tick t's log
    # lines leave Delta before tick t+1's readings, which is what lets a
    # session settle mid-stream and still produce the single-shot log
    # byte-for-byte — the printed order is (tick, sensor) either way
    Println = p.table(
        "Println",
        "int tick, int sensor -> str text",
        orderby=("Int", "seq tick", "Out", "seq sensor"),
    )
    p.order("Int", "Out")
    p.order("Reading", "Alert", "Out")

    @p.foreach(Reading)
    def detect_spike(ctx, r):
        # reads the strictly-previous tick: a negative/aggregate-safe region
        prev = ctx.get_uniq(Reading, tick=r.tick - 1, sensor=r.sensor)
        if prev is not None and r.value > spike_factor * max(1, prev.value):
            ctx.put(Alert.new(r.tick, r.sensor, r.value, prev.value))

    @p.foreach(Alert)
    def report(ctx, a):
        # the kosher println: emit a Println tuple; the Out literal and
        # its (tick, sensor) orderby define the output sorting order
        ctx.put(
            Println.new(
                a.tick, a.sensor,
                f"tick {a.tick}: sensor {a.sensor} spiked {a.previous} -> {a.value}",
            )
        )

    @p.foreach(Println, unsafe=True)
    def emit(ctx, line):
        # side effect happens when the tuple leaves the Delta set —
        # i.e. in Println's causal output order (footnote 8)
        ctx.println(line.text)

    # the external event stream, deliberately shuffled
    for ev in sensor_events(Reading, n_ticks, n_sensors, spike_factor, seed):
        p.put(ev)
    return SensorHandles(p, Reading, Alert, Println)


def build_sensor_stream(
    n_ticks: int = 50,
    n_sensors: int = 8,
    spike_factor: float = 2.0,
    seed: int = 5,
) -> tuple[SensorHandles, list]:
    """The streaming variant: the same program with *no* initial puts,
    plus the (shuffled) event stream as a list — the caller owns the
    input and feeds it through an :class:`~repro.core.EngineSession`."""
    handles = build_sensor_program(n_ticks=0, n_sensors=n_sensors,
                                   spike_factor=spike_factor, seed=seed)
    events = sensor_events(handles.Reading, n_ticks, n_sensors, spike_factor, seed)
    return handles, events


def sensor_events(
    Reading: TableHandle,
    n_ticks: int,
    n_sensors: int,
    spike_factor: float = 2.0,
    seed: int = 5,
) -> list:
    """The synthetic event stream, in shuffled arrival order."""
    rng = np.random.default_rng(seed)
    base = rng.integers(50, 100, size=n_sensors)
    events = []
    for tick in range(n_ticks):
        for sensor in range(n_sensors):
            value = int(base[sensor] + rng.integers(-5, 6))
            if rng.random() < 0.04:
                value = int(value * (spike_factor + 0.5))
            events.append(Reading.new(tick, sensor, value))
    order = rng.permutation(len(events))
    return [events[int(i)] for i in order]


def run_sensors(
    n_ticks: int = 50,
    n_sensors: int = 8,
    options: ExecOptions | None = None,
    bounded_memory: bool = False,
    seed: int = 5,
) -> RunResult:
    """Run the monitor; ``bounded_memory=True`` adds the retention hint
    that keeps only the last two ticks of readings in Gamma."""
    handles = build_sensor_program(n_ticks, n_sensors, seed=seed)
    opts = options or ExecOptions()
    if bounded_memory:
        opts = opts.with_(
            retention={**dict(opts.retention), "Reading": RetentionHint("tick", 2)}
        )
    return handles.program.run(opts)


def run_sensors_streaming(
    n_ticks: int = 50,
    n_sensors: int = 8,
    options: ExecOptions | None = None,
    bounded_memory: bool = False,
    seed: int = 5,
    chunks: int = 5,
) -> RunResult:
    """The session-API twin of :func:`run_sensors`: the event stream
    arrives in ``chunks`` causally-aligned feeds with a ``settle()``
    after each — a long-running monitor absorbing traffic in bursts.
    The cumulative result is byte-identical to the single-shot run."""
    from repro.core import causal_chunks

    handles, events = build_sensor_stream(n_ticks, n_sensors, seed=seed)
    opts = options or ExecOptions()
    if bounded_memory:
        opts = opts.with_(
            retention={**dict(opts.retention), "Reading": RetentionHint("tick", 2)}
        )
    with handles.program.session(opts) as s:
        for chunk in causal_chunks(s.database, events, chunks):
            s.feed(chunk)
            s.settle()
    return s.result
