"""The per-layer metric table: every name, its unit, and how tracer
spans turn into it.  Layer = module name under ``src/repro``."""

from __future__ import annotations

from bench.trace import REGION

__all__ = ["PER_LAYER", "SPANS", "span_metrics"]

#: span name -> (``*_ms`` key, sibling count key, count "calls" or "units")
SPANS: dict[str, tuple[str, str, str]] = {
    "core.delta.pop": ("core.delta.pop_ms", "core.delta.pop_calls", "calls"),
    "core.delta.insert": ("core.delta.insert_ms", "core.delta.insert_tuples", "units"),
    "core.delta.remove": ("core.delta.remove_ms", "core.delta.remove_calls", "calls"),
    "gamma.insert": ("gamma.insert_ms", "gamma.insert_tuples", "units"),
    "gamma.select": ("gamma.select_ms", "gamma.select_calls", "calls"),
    "gamma.remove": ("gamma.remove_ms", "gamma.remove_calls", "calls"),
    "gamma.contains": ("gamma.contains_ms", "gamma.contains_calls", "calls"),
    "core.ordering.timestamp": ("core.ordering.timestamp_ms", "core.ordering.timestamp_calls", "calls"),
    "core.rules.put": ("core.rules.put_ms", "core.rules.put_calls", "calls"),
    "core.rules.query": ("core.rules.query_ms", "core.rules.query_calls", "calls"),
    "core.rules.body": ("core.rules.body_ms", "core.rules.body_calls", "calls"),
    "core.kernel.step": ("core.kernel.step_ms", "core.kernel.step_calls", "calls"),
    "plan.freeze": ("plan.freeze_ms", "plan.freeze_calls", "calls"),
    "plan.kernel_build": ("plan.kernel_build_ms", "plan.kernel_build_calls", "calls"),
    "plan.lookup": ("plan.lookup_ms", "plan.lookup_calls", "calls"),
    "csvio.read": ("csvio.read_ms", "csvio.read_records", "units"),
    "core.session.feed": ("core.session.feed_ms", "core.session.feed_tuples", "units"),
    "core.session.settle": ("core.session.settle_ms", "core.session.settle_calls", "calls"),
    "core.session.close": ("core.session.close_ms", "core.session.close_calls", "calls"),
    "core.session.snapshot": ("core.session.snapshot_ms", "core.session.snapshot_calls", "calls"),
    "dist.procrun.coord": ("dist.procrun.coord_ms", "dist.procrun.coord_calls", "calls"),
    "dist.procrun.coord_wait": ("dist.procrun.coord_wait_ms", "dist.procrun.coord_wait_calls", "calls"),
    "dist.procrun.spawn": ("dist.procrun.spawn_ms", "dist.procrun.spawn_calls", "calls"),
    "serve.protocol.decode": ("serve.protocol.decode_ms", "serve.protocol.decode_frames", "calls"),
    "serve.protocol.decode_events": (
        "serve.protocol.decode_events_ms",
        "serve.protocol.decode_events_calls",
        "calls",
    ),
    "serve.protocol.encode": ("serve.protocol.encode_ms", "serve.protocol.encode_frames", "calls"),
    "serve.tenant.open": ("serve.tenant.open_ms", "serve.tenant.open_calls", "calls"),
    "serve.tenant.feed": ("serve.tenant.feed_ms", "serve.tenant.feed_calls", "calls"),
    "serve.tenant.settle": ("serve.tenant.settle_ms", "serve.tenant.settle_calls", "calls"),
    "serve.tenant.checkpoint": ("serve.tenant.checkpoint_ms", "serve.tenant.checkpoints", "calls"),
    "serve.tenant.close": ("serve.tenant.close_ms", "serve.tenant.close_calls", "calls"),
}

_DERIVED = {
    # measured at the span boundaries
    "core.delta.dup_ratio": "ratio",
    "core.delta.class_width_mean": "count",
    "gamma.rows_per_select": "count",
    "csvio.bytes_per_s": "1/s",
    "bench.untraced_ms": "ms",
    "bench.trace_coverage": "ratio",
    # outer numbers: results, stats collectors, rusage, the stats verb
    "gamma.heap_tuples": "count",
    "core.kernel.steps": "count",
    "plan.codegen_build_ms": "ms",
    "plan.codegen_refused_rules": "count",
    "core.support.retractions": "count",
    "core.support.rederivations": "count",
    "core.support.rederive_ratio": "ratio",
    "core.support.records_end": "ratio",
    "dist.procrun.steps": "count",
    "dist.transport.peer_msgs": "count",
    "dist.transport.peer_bytes": "count",
    "dist.transport.coord_bytes": "count",
    "dist.transport.msgs_per_step": "count",
    "dist.worker.cpu_s": "s",
    "dist.worker.idle_ratio": "ratio",
    "dist.worker.fire_skew": "ratio",
    "dist.pickle_us_per_tuple": "us",
    "serve.tenant.checkpoint_bytes": "count",
    "serve.service.wait_ms": "ms",
    "serve.service.rejections": "count",
    "serve.client.retries": "count",
    # runner-level
    "bench.trace_overhead": "ratio",
    "bench.calibration_s": "s",
    "bench.nproc": "count",
    "bench.failed_ops": "ratio",
    "bench.steal_share": "ratio",
    "src.lines.core": "count",
    "src.lines.plan": "count",
    "src.lines.gamma": "count",
    "src.lines.dist": "count",
    "src.lines.serve": "count",
    "src.lines.exec": "count",
    "src.lines.stats": "count",
}

#: every per-layer metric name -> unit
PER_LAYER: dict[str, str] = {}
for _ms, _count, _ in SPANS.values():
    PER_LAYER[_ms] = "ms"
    PER_LAYER[_count] = "count"
PER_LAYER.update(_DERIVED)


def span_metrics(totals: dict[str, list[int]]) -> dict[str, float]:
    """Tracer totals (``name -> [self_ns, calls, units, aux]``) as
    per-layer metrics, derived ratios included."""
    out: dict[str, float] = {}
    for span, (ms_key, count_key, which) in SPANS.items():
        ns, calls, units, _aux = totals.get(span, (0, 0, 0, 0))
        out[ms_key] = ns / 1e6
        out[count_key] = units if which == "units" else calls

    def get(span):
        return totals.get(span, (0, 0, 0, 0))

    _ns, calls, units, accepted = get("core.delta.insert")
    out["core.delta.dup_ratio"] = (units - accepted) / units if units else 0.0
    _ns, calls, units, _ = get("core.delta.pop")
    out["core.delta.class_width_mean"] = units / calls if calls else 0.0
    _ns, calls, units, _ = get("gamma.select")
    out["gamma.rows_per_select"] = units / calls if calls else 0.0
    ns, _calls, _units, nbytes = get("csvio.read")
    out["csvio.bytes_per_s"] = nbytes / (ns / 1e9) if ns else 0.0
    # coverage counts every reported span, over all threads: on the
    # single-threaded workloads it is the share of the region's wall
    # the wrappers account for; with the service in-process it is the
    # busy share of the service's threads
    _self_ns, _calls, total_ns, _ = get(REGION)
    covered = sum(get(span)[0] for span in SPANS)
    out["bench.untraced_ms"] = (total_ns - covered) / 1e6
    out["bench.trace_coverage"] = covered / total_ns if total_ns else 0.0
    return out
