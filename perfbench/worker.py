"""One benchmark workload, run in its own process.

    PYTHONPATH=src python3 perfbench/worker.py --workload batch-mixed \\
        --seed 1 --seconds 20 --mode run

``--mode setup`` stops where the timed phase would start and reports only
the instant it got there; ``--mode run`` measures end-to-end metrics with
tracing off; ``--mode trace`` turns the span tracer on for every other latency
sample and reports per-layer metrics.  The last line of standard
output is one JSON object.  ``perfbench/run.py`` is the command that spawns
this and prints the benchmark's result.

Every routing call states the fastest existing path in full
(:data:`FAST_PATH`) and keeps the default cache policy and bounds, so a later
change of the library defaults cannot show up as a speed-up.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback

import numpy as np

from common import (
    FAST_PATH,
    WORKLOADS,
    host_slowness,
    peak_rss_mb,
    percentile,
    rng_streams,
)
from layers import (
    BATCH_SHAPES,
    CALL_SPAN,
    DEGRADED,
    LAYERS,
    PIPELINE_TIMINGS,
    call_layers,
    shape_name,
)

#: The single-coupler fault of the degraded routes.
FAULT = "c1.2,onset=1"

#: The degraded routes' simulated statistics are averaged over this many
#: calls (the first ones of the run, whose inputs the seed fixes), so they
#: stay bit-identical whatever the speed of the program.
FAULT_STATS_CALLS = 64

#: The single and degraded routes' shape (n = 1024).
D = G = 32

#: Calls of each kind per cycle.  Sized from per-call medians measured on a
#: 2-vCPU host (single route 4.8 ms, degraded route 55 ms, stacks 32x32
#: 33 ms, 64x64 256 ms, 16x64 503 ms, 128x128 106 ms) so that each kind takes
#: about a sixth of a ~3-s cycle: halving the time of any one kind moves the
#: cycle by about 8%.
SINGLE_CALLS = 100
DEGRADED_CALLS = 9
STACK_CALLS = {"32x32": 15, "64x64": 2, "16x64": 1, "128x128": 5}

#: Repetitions of each probe of ``host_slowness`` after a block of calls.
PROBE_REPS = 5

#: One stack row in this many is from the shape's hot pool.
HOT_SHARE = 4

#: Rows of each warm-up stack: enough to reach every code path of the shape
#: (the batch dispatch depends on the shape alone) without making set-up
#: mostly routing.
WARM_ROWS = 2


def check_slots(metrics) -> int:
    return int(metrics.slots == metrics.theorem2_bound)


class BatchMixed:
    """A closed loop with one caller over a warm :class:`repro.api.Session`.

    One latency sample is a cycle of every in-process routing path:
    :data:`SINGLE_CALLS` ``Session.route`` calls on fresh permutations, the
    ``Session.route_batch`` calls of :data:`STACK_CALLS` on each stack of
    :data:`BATCH_SHAPES`, and :data:`DEGRADED_CALLS` ``Session.route_degraded``
    calls under :data:`FAULT`.  A quarter of each stack's rows is that shape's
    hot pool, in a new order on every call; the rest are fresh.  The cycle is
    the latency sample because per-call times fall into one mode per kind of
    call, and a median over them lands between two modes.  Single and
    degraded routes ride in the cycle rather than in workloads of their own:
    alone, their run medians follow the host's speed too closely to gate on
    (see README.md).
    """

    def __init__(self, seed: int):
        from repro.api import RunConfig, Session
        from repro.faults import FaultSpec

        self.session = Session(RunConfig(**FAST_PATH))
        self.spec = FaultSpec.parse(FAULT)
        self.fault_reports: list[tuple[float, int]] = []
        pool_rng = np.random.default_rng([seed, 2])
        self.hot = {
            (d, g): np.stack([pool_rng.permutation(d * g) for _ in range(b // HOT_SHARE)])
            for d, g, b in BATCH_SHAPES
        }
        self.rng, warm_rng = rng_streams(seed)
        self.inputs_s = 0.0
        for _shape, call, _routes, _check in self.cycle(warm_rng, warm=True):
            call()

    def close(self) -> None:
        pass

    # -- the calls --------------------------------------------------------------

    def check_degraded(self, report) -> int:
        if len(self.fault_reports) < FAULT_STATS_CALLS:
            self.fault_reports.append((report.overhead_ratio, report.total_slots))
        return int(report.delivered and report.overhead_ratio <= 2)

    def stack(self, rng, d: int, g: int, b: int) -> np.ndarray:
        n = d * g
        hot = self.hot[(d, g)][: b // HOT_SHARE]
        stack = np.empty((b, n), dtype=np.int64)
        stack[: len(hot)] = hot[rng.permutation(len(hot))]
        stack[len(hot):] = rng.permuted(np.tile(np.arange(n), (b - len(hot), 1)), axis=1)
        return stack[rng.permutation(b)]

    def cycle(self, rng, warm: bool = False):
        """Yield ``(shape, call, routes, check)`` for each call of one cycle.

        Each call's inputs are built before it is yielded, so outside its
        timing.  ``warm`` makes one call of each kind, on small stacks.
        """
        session = self.session
        for _ in range(1 if warm else SINGLE_CALLS):
            pi = rng.permutation(D * G)
            yield None, lambda pi=pi: session.route(pi, d=D, g=G), 1, check_slots
        for d, g, b in BATCH_SHAPES:
            for _ in range(1 if warm else STACK_CALLS[shape_name(d, g)]):
                rows = WARM_ROWS if warm else b
                stack = self.stack(rng, d, g, rows)
                yield (
                    shape_name(d, g),
                    lambda stack=stack, d=d, g=g: session.route_batch(stack, d=d, g=g),
                    rows,
                    lambda ms, rows=rows: sum(check_slots(m) for m in ms[:rows]),
                )
        for _ in range(1 if warm else DEGRADED_CALLS):
            pi = rng.permutation(D * G)
            yield (
                DEGRADED,
                lambda pi=pi: session.route_degraded(pi, d=D, g=G, faults=self.spec),
                1,
                self.check_degraded,
            )

    # -- the timed phase ----------------------------------------------------------

    def measure(self, seconds: float, trace: bool) -> dict:
        from repro.obs import Tracer, get_tracer, set_tracer

        tracer = Tracer()
        cache_before = self.session.cache_stats()
        # (traced, seconds in calls, the same scaled by the host's slowness,
        # all calls ok) per cycle.
        cycles: list[tuple[bool, float, float, bool]] = []
        slowness: list[float] = []
        attempted = failed = verified = 0
        start = time.perf_counter()
        index = 0
        try:
            # At least one traced and one untraced cycle, however short the run.
            while time.perf_counter() - start < seconds or index < 2:
                traced = trace and index % 2 == 0
                index += 1
                set_tracer(tracer if traced else None)
                cycle_s = scaled_s = block_s = 0.0
                cycle_ok, block = True, None
                for shape, call, routes, check in self.cycle(self.rng):
                    if shape != block:
                        # A block of calls of one kind ends: scale it by the
                        # host's slowness measured right after it.
                        if block_s:
                            slowness.append(host_slowness(PROBE_REPS))
                            scaled_s += block_s / slowness[-1]
                        block, block_s = shape, 0.0
                    attempted += routes
                    t0 = time.perf_counter()
                    try:
                        with get_tracer().span(CALL_SPAN, shape=shape):
                            result = call()
                    except Exception:
                        traceback.print_exc(file=sys.stderr)
                        result = None
                    elapsed = time.perf_counter() - t0
                    cycle_s += elapsed
                    block_s += elapsed
                    if result is None:
                        failed += routes
                        cycle_ok = False
                        continue
                    good = check(result)
                    verified += good
                    failed += routes - good
                slowness.append(host_slowness(PROBE_REPS))
                scaled_s += block_s / slowness[-1]
                cycles.append((traced, cycle_s, scaled_s, cycle_ok))
        finally:
            set_tracer(None)
        plain_ms = [s * 1e3 for traced, s, _scaled, ok in cycles if ok and not traced]
        scaled_ms = [s * 1e3 for traced, _s, s, ok in cycles if ok and not traced]
        busy_s = sum(s for _traced, s, _scaled, _ok in cycles)
        scaled_busy_s = sum(s for _traced, _s, s, _ok in cycles)
        out = {
            "attempted": attempted,
            "failed": failed,
            "diagnostics": {
                "samples": len(plain_ms),
                "host_slowness": float(np.median(slowness)),
                "unscaled_latency_p50_ms": percentile(plain_ms, 50),
                "unscaled_throughput_routes_per_s": verified / busy_s,
            },
        }
        if not trace:
            out["metrics"] = {
                "latency_p50_ms": percentile(scaled_ms, 50),
                "throughput_routes_per_s": verified / scaled_busy_s,
                "peak_rss_mb": peak_rss_mb(),
            }
            return out
        traced_ms = [s * 1e3 for traced, _s, s, ok in cycles if ok and traced]
        layers, seen = self.layer_metrics(call_layers(tracer.finished()))
        cache_after = self.session.cache_stats()
        hits = cache_after["hits"] - cache_before["hits"]
        misses = cache_after["misses"] - cache_before["misses"]
        layers["cache.hits"] = hits
        layers["cache.misses"] = misses
        layers["cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        layers["trace_overhead_frac"] = float(np.mean(traced_ms) / np.mean(scaled_ms))
        out["metrics"] = layers
        out["absent"] = sorted(name for name in self.expected_layers() if name not in seen)
        return out

    # -- per-layer reporting -----------------------------------------------------

    @staticmethod
    def expected_layers() -> list[str]:
        """Timing layers whose spans the cycle's calls should emit."""
        stages = [name for name in PIPELINE_TIMINGS if name != "unattributed_ms"]
        return [
            *stages,
            *(f"{name}.{shape_name(d, g)}" for d, g, _b in BATCH_SHAPES for name in stages),
            f"route.plan_ms.{DEGRADED}", "fault.inject_ms", "route.reroute_ms",
        ]

    def layer_metrics(self, groups: dict) -> tuple[dict[str, float], set[str]]:
        single = groups.get(None, {})
        layers = {name: single.get(name, 0.0) for name in PIPELINE_TIMINGS}
        seen = set(single.get("spans_seen", ()))
        calls = per_element = 0
        for suffix in [*(shape_name(d, g) for d, g, _b in BATCH_SHAPES), DEGRADED]:
            group = groups.get(suffix, {})
            for name in PIPELINE_TIMINGS:
                layers[f"{name}.{suffix}"] = group.get(name, 0.0)
            seen |= {f"{name}.{suffix}" for name in group.get("spans_seen", ())}
            if suffix != DEGRADED:
                calls += group.get("calls", 0)
                per_element += group.get("per_element_calls", 0)
        layers["batch.per_element_frac"] = per_element / calls if calls else 0.0
        degraded = groups.get(DEGRADED, {})
        layers["fault.inject_ms"] = degraded.get("fault.inject_ms", 0.0)
        layers["route.reroute_ms"] = degraded.get("route.reroute_ms", 0.0)
        seen |= set(degraded.get("spans_seen", ()))
        if self.fault_reports:
            ratios, slots = zip(*self.fault_reports)
            layers["fault.overhead_ratio_mean"] = float(np.mean(ratios))
            layers["fault.total_slots_mean"] = float(np.mean(slots))
        return layers, seen


def make_workload(name: str, seed: int, seconds: float):
    if name == "serve-hot":
        from loadgen import ServeHot

        return ServeHot(seed, seconds)
    return BatchMixed(seed)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = parser.parse_args(argv)
    workload = make_workload(args.workload, args.seed, args.seconds)
    try:
        ready = time.monotonic()
        out = {"ready_mono": ready, "inputs_s": workload.inputs_s}
        if args.mode != "setup":
            out.update(workload.measure(args.seconds, trace=args.mode == "trace"))
            if args.mode == "trace":
                metrics = out["metrics"]
                out["metrics"] = {name: float(metrics.get(name, 0.0)) for name in LAYERS}
    finally:
        workload.close()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
