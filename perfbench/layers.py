"""Per-layer metrics: their names, what they should move, and span extraction.

The traced run records the span tree that :mod:`repro.obs` emits, with one
``bench.call`` span that the benchmark opens around every call it makes into
the library.  :func:`call_layers` turns that tree into milliseconds of *self
time* per call for each layer below.  Extraction never requires a span to
exist: a stage that a later change renames or deletes simply reads 0 and is
listed as absent, and its time shows up in ``unattributed_ms`` (the part of
the call no recognised span covers), so totals still add up.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any

#: The span the benchmark wraps around each library call.
CALL_SPAN = "bench.call"

#: Span name -> per-layer timing metric it is booked to (self time).
#: ``route.plan_ms`` is the whole plan stage: ``route.compile`` and its
#: ``route.plan`` / ``route.lower`` children (minus the cache probe).
SPAN_LAYER: dict[str, str] = {
    "route.setup": "route.setup_ms",
    "route.compile": "route.plan_ms",
    "route.plan": "route.plan_ms",
    "route.lower": "route.plan_ms",
    "cache.probe": "cache.probe_ms",
    "engine.execute": "engine.execute_ms",
    "engine.verify": "engine.verify_ms",
    "engine.trace": "engine.trace_ms",
    "metrics.bounds": "metrics.bounds_ms",
    "metrics.summarise": "metrics.summarise_ms",
    "fault.inject": "fault.inject_ms",
    "route.reroute": "route.reroute_ms",
}

#: Timing layers of the routing pipeline, reported per call.  Unsuffixed
#: they are batch-mixed's single routes; suffixed, its stacks (``.32x32``)
#: and its degraded routes (``.degraded``).
PIPELINE_TIMINGS: tuple[str, ...] = (
    "route.setup_ms",
    "route.plan_ms",
    "cache.probe_ms",
    "engine.execute_ms",
    "engine.verify_ms",
    "engine.trace_ms",
    "metrics.bounds_ms",
    "metrics.summarise_ms",
    "unattributed_ms",
)

#: The four batch-mixed stacks: (d, g, B).
BATCH_SHAPES: tuple[tuple[int, int, int], ...] = (
    (32, 32, 64),
    (64, 64, 64),
    (16, 64, 64),
    (128, 128, 8),
)


#: Suffix of the batch-mixed cycle's degraded-route calls.
DEGRADED = "degraded"


def shape_name(d: int, g: int) -> str:
    return f"{d}x{g}"


# Per-layer metric -> (unit, better, [(workload, end-to-end metric it should
# move)]).  An empty list marks a metric predicted to move nothing end to end
# (the engine stages, about 1% of a route), a simulated statistic that must
# not move at all, or a validity check.  Every kind of call takes about a
# sixth of a batch-mixed cycle, so halving one kind's time moves that
# workload's cycle by about 8%.
_BATCH = [
    ("batch-mixed", "latency_p50_ms"),
    ("batch-mixed", "throughput_routes_per_s"),
]
_SERVE = [("serve-hot", "latency_p50_ms")]
_NOTHING: list[tuple[str, str]] = []
_ENGINE = ("engine.execute_ms", "engine.verify_ms", "engine.trace_ms")

LAYERS: dict[str, tuple[str, str, list[tuple[str, str]]]] = {}
for _suffix in ["", *(f".{shape_name(_d, _g)}" for _d, _g, _b in BATCH_SHAPES), f".{DEGRADED}"]:
    for _name in PIPELINE_TIMINGS:
        LAYERS[_name + _suffix] = ("ms", "lower", _NOTHING if _name in _ENGINE else _BATCH)
LAYERS.update({
    "cache.hits": ("count", "higher", _BATCH + _SERVE),
    "cache.misses": ("count", "lower", _BATCH + _SERVE),
    "cache.hit_ratio": ("ratio", "higher", _BATCH + _SERVE),
    "batch.per_element_frac": ("ratio", "lower", _BATCH),
    "fault.inject_ms": ("ms", "lower", _BATCH),
    "route.reroute_ms": ("ms", "lower", _BATCH),
    "fault.overhead_ratio_mean": ("ratio", "lower", _NOTHING),
    "fault.total_slots_mean": ("count", "lower", _NOTHING),
    "serve.queue_wait_ms": ("ms", "lower", _SERVE),
    "serve.batch_assembly_ms": ("ms", "lower", _SERVE),
    "serve.route_ms": ("ms", "lower", _SERVE),
    "serve.respond_ms": ("ms", "lower", _SERVE),
    "serve.mean_batch_size": ("count", "higher", _SERVE),
    "serve.wire_codec_ms": ("ms", "lower", _SERVE),
    "loadgen.late_ms_p99": ("ms", "lower", _NOTHING),
    "trace_overhead_frac": ("ratio", "lower", _NOTHING),
})
del _suffix, _name


def _self_ns(spans: list[dict[str, Any]]) -> dict[int, int]:
    """Span id -> duration minus the durations of its direct children."""
    own = {span["span_id"]: span["dur_ns"] for span in spans}
    for span in spans:
        parent = span["parent_id"]
        if parent in own:
            own[parent] -= span["dur_ns"]
    return own


def call_layers(spans: list[dict[str, Any]]) -> dict[str | None, dict[str, Any]]:
    """Per-call layer times, grouped by the ``shape`` attribute of each call.

    Returns ``{shape: {"calls", "per_element_calls", "spans_seen", <timing
    metric>: ms per call}}`` where ``shape`` is the ``bench.call`` span's
    ``shape`` attribute (``None`` when the call has none).  Every timing
    metric of :data:`PIPELINE_TIMINGS` plus the fault stages is present;
    ``spans_seen`` is the set of recognised layer metrics that had at least
    one span, so callers can report the others as absent.
    """
    by_id = {span["span_id"]: span for span in spans}
    own = _self_ns(spans)

    def enclosing_call(span: dict[str, Any]) -> int | None:
        while span["name"] != CALL_SPAN:
            span = by_id.get(span["parent_id"])
            if span is None:
                return None
        return span["span_id"]

    groups: dict[str | None, dict[str, Any]] = {}
    totals: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    per_element: set[int] = set()
    for span in spans:
        call = enclosing_call(span)
        if call is None or span["span_id"] == call:
            continue
        layer = SPAN_LAYER.get(span["name"])
        if layer is not None:
            totals[call][layer] += own[span["span_id"]]
        if span["name"] == "session.route" and span["parent_id"] == call:
            per_element.add(call)
    for span in spans:
        if span["name"] != CALL_SPAN:
            continue
        shape = span["attrs"].get("shape")
        group = groups.setdefault(shape, {
            "calls": 0, "per_element_calls": 0, "spans_seen": set(),
            "_ns": defaultdict(int),
        })
        group["calls"] += 1
        group["per_element_calls"] += span["span_id"] in per_element
        named = 0
        for layer, ns in totals.get(span["span_id"], {}).items():
            group["_ns"][layer] += ns
            group["spans_seen"].add(layer)
            named += ns
        group["_ns"]["unattributed_ms"] += span["dur_ns"] - named
    for group in groups.values():
        ns = group.pop("_ns")
        for layer in (*PIPELINE_TIMINGS, "fault.inject_ms", "route.reroute_ms"):
            group[layer] = ns.get(layer, 0) / 1e6 / group["calls"]
    return groups
