"""Routing metrics: slot counts, bound ratios, coupler utilisation.

These helpers wrap "route the permutation, simulate the schedule, verify
delivery, and summarise" into one call, so experiments never accidentally
report slot counts of schedules that were not actually validated end to end.

The supported entry point is :meth:`repro.api.session.Session.route`.  (The
``measure_routing`` free function deprecated in 1.1 was removed in 1.2, per
the one-release timeline.)
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.obs import get_tracer
from repro.pops.engine import BatchedSimulator, ScheduleCache
from repro.pops.simulator import POPSSimulator
from repro.pops.topology import POPSNetwork
from repro.routing.lower_bounds import (
    best_known_lower_bound,
    best_known_lower_bound_stack,
)
from repro.routing.permutation_router import (
    PermutationRouter,
    theorem2_slot_bound,
)
from repro.utils.validation import check_permutation_array, check_permutation_stack

__all__ = [
    "RoutingMetrics",
    "routing_cache_key",
    "routing_cache_key_batch",
    "slots_vs_bound",
    "coupler_utilisation",
]


@dataclass(frozen=True)
class RoutingMetrics:
    """Summary of one verified permutation routing."""

    d: int
    g: int
    n: int
    slots: int
    theorem2_bound: int
    lower_bound: int
    couplers_used_total: int
    mean_coupler_utilisation: float

    @property
    def meets_theorem2_bound(self) -> bool:
        """True iff the measured slot count equals Theorem 2's guarantee."""
        return self.slots == self.theorem2_bound

    @property
    def optimality_ratio(self) -> float:
        """Measured slots divided by the best applicable lower bound (inf if no bound)."""
        if self.lower_bound == 0:
            return float("inf")
        return self.slots / self.lower_bound

    def to_dict(self) -> dict[str, Any]:
        """All fields plus the derived properties, as a JSON-ready dict.

        An infinite ``optimality_ratio`` (no applicable lower bound) encodes
        as ``None`` — strict JSON has no ``Infinity``.
        """
        from repro.api.serialize import to_jsonable

        ratio = self.optimality_ratio
        return {
            "d": self.d,
            "g": self.g,
            "n": self.n,
            "slots": self.slots,
            "theorem2_bound": self.theorem2_bound,
            "lower_bound": self.lower_bound,
            "couplers_used_total": to_jsonable(self.couplers_used_total),
            "mean_coupler_utilisation": to_jsonable(self.mean_coupler_utilisation),
            "meets_theorem2_bound": self.meets_theorem2_bound,
            "optimality_ratio": to_jsonable(ratio),
        }


def routing_cache_key(
    backend: str, network: POPSNetwork, pi: Sequence[int]
) -> tuple[str, int, int, bytes]:
    """Compiled-schedule cache key for routing ``pi`` on ``network``.

    Sound because the router is deterministic: ``(backend, d, g,
    permutation)`` fully determines the schedule.  The permutation is folded
    into a 16-byte blake2b digest rather than stored as an n-length tuple, so
    keys stay small even at n in the tens of thousands.

    This tuple is also the *persistent* identity of a compiled plan: the
    on-disk :class:`~repro.pops.plan_store.PlanStore` addresses its blobs by
    a digest of exactly this key (see
    :func:`repro.pops.plan_store.plan_key_digest`), so its stability across
    processes, platforms and Python versions is part of the contract —
    changing its shape invalidates every warm store and requires a
    ``STORE_SCHEMA_VERSION`` bump.
    """
    digest = hashlib.blake2b(
        np.asarray(pi, dtype=np.int64).tobytes(), digest_size=16
    ).digest()
    return (backend, network.d, network.g, digest)


def routing_cache_key_batch(
    backend: str, network: POPSNetwork, pis
) -> tuple[str, int, int, str, int, bytes]:
    """Compiled-batch cache key for routing a ``(B, n)`` permutation stack.

    The digest covers the whole stack in order, so two batches share an entry
    only when they contain the same permutations in the same positions.  The
    ``"batch"`` tag and the batch size keep the key space disjoint from
    :func:`routing_cache_key` — ``(1, n)`` and ``(n,)`` arrays have identical
    bytes, and a ``CompiledScheduleBatch`` must never be returned where a
    ``CompiledSchedule`` is expected.  Like the single-permutation key, this
    tuple doubles as the plan's persistent identity in the on-disk
    :class:`~repro.pops.plan_store.PlanStore`; the same stability contract
    applies.
    """
    stack = np.ascontiguousarray(np.asarray(pis, dtype=np.int64))
    digest = hashlib.blake2b(stack.tobytes(), digest_size=16).digest()
    return (backend, network.d, network.g, "batch", stack.shape[0], digest)


def _measure_routing_batch(
    network: POPSNetwork,
    pis,
    *,
    router_backend: str = "konig",
    verify: bool = True,
    sim_backend: str = "reference",
    use_cache: bool = True,
    cache: ScheduleCache | None = None,
) -> list[RoutingMetrics]:
    """Batched :func:`_measure_routing` over a ``(B, n)`` permutation stack.

    On the batched/auto engines the whole stack takes the megabatch pipeline —
    one batched route, one batched execution, one batched verification, one
    compiled batch trace — and entry ``b`` of the result is bit-identical
    (field by field, including dtypes) to ``_measure_routing(network,
    pis[b], ...)``.  Every shape takes it, ``d < g`` included: with the
    cache-blocked Euler split the padded batch plan builders beat the
    per-element loop there too (~200 vs ~360 ms for a ``16x64`` stack of 64
    on a 2-vCPU host).
    Other engines fall back to the per-element loop, so the function is safe
    for any registered backend; only the batched path changes cache
    granularity (one batch-level entry under :func:`routing_cache_key_batch`
    instead of ``B`` per-permutation entries).
    """
    tracer = get_tracer()
    images = check_permutation_stack(pis, network.n)
    if sim_backend not in ("batched", "auto"):
        return [
            _measure_routing(
                network,
                images[b].tolist(),
                router_backend=router_backend,
                verify=verify,
                sim_backend=sim_backend,
                use_cache=use_cache,
                cache=cache,
            )
            for b in range(images.shape[0])
        ]

    with tracer.span(
        "session.route_batch", d=network.d, g=network.g, n=network.n,
        batch=int(images.shape[0]),
    ):
        with tracer.span("route.setup"):
            router = PermutationRouter(
                network, backend=router_backend, verify=verify
            )
            cache_key = (
                routing_cache_key_batch(router_backend, network, images)
                if use_cache
                else None
            )
            engine = BatchedSimulator(network)
        with tracer.span("route.compile"):
            batch = router.route_compiled_batch(
                images, cache_key=cache_key, cache=cache, validate=False
            )
        with tracer.span("engine.execute"):
            locations = engine.execute_batch(batch)
        with tracer.span("engine.verify"):
            engine.verify_locations_batch(batch, locations)
        with tracer.span("engine.trace"):
            trace = engine.compiled_trace_batch(batch)
        with tracer.span("metrics.bounds"):
            lower = best_known_lower_bound_stack(network, images, validate=False)
            bound = theorem2_slot_bound(network.d, network.g)
        with tracer.span("metrics.summarise"):
            utilisation = trace.mean_coupler_utilisation(network.n_couplers)
            return [
                RoutingMetrics(
                    d=network.d,
                    g=network.g,
                    n=network.n,
                    slots=batch.n_slots,
                    theorem2_bound=bound,
                    lower_bound=int(lower[b]),
                    couplers_used_total=trace.total_packets_moved,
                    mean_coupler_utilisation=utilisation,
                )
                for b in range(batch.n_batch)
            ]


def _measure_routing(
    network: POPSNetwork,
    pi: Sequence[int],
    *,
    router_backend: str = "konig",
    verify: bool = True,
    sim_backend: str = "reference",
    use_cache: bool = True,
    cache: ScheduleCache | None = None,
) -> RoutingMetrics:
    """Route ``pi`` with the universal router, simulate, verify, and summarise.

    The implementation behind :meth:`repro.api.session.Session.route`.
    ``router_backend`` selects the edge-colouring backend of the router;
    ``sim_backend`` selects the simulator engine (any name registered in
    :data:`repro.api.registry.SIM_ENGINES`).  On compiled engines the trace
    stays compiled (integer arrays; statistics are numpy reductions — both
    trace representations yield identical metrics, so no materialisation
    happens here), and, with ``use_cache``, the lowered
    schedule is memoised in ``cache`` (the process-wide cache when ``None``)
    under ``(router backend, d, g, permutation)`` — sound because the router
    is deterministic — so repeated measurements of the same permutation skip
    lowering.  Hits come from re-measuring the same permutation in one
    process: repeated sweeps with the same seed, named families, benchmark
    loops.  A single sweep of *fresh* random permutations is all misses by
    design (no sound key could collapse distinct permutations), which the
    ``--cache-stats`` counters make visible; the cache's byte bound keeps
    that case cheap.
    """
    tracer = get_tracer()
    with tracer.span("session.route", d=network.d, g=network.g, n=network.n):
        if sim_backend in ("batched", "auto"):
            # Array-native fast path: the router emits the compiled-schedule
            # arrays directly (bit-identical to routing object-level and
            # lowering, so metrics and cache entries are unchanged), the batched
            # engine executes them, and no per-packet Python objects are built.
            # A permutation plan is always a consuming schedule, so "auto"
            # resolves to the batched engine without probing.  The cache key
            # covers the plan stage: a hit skips route construction entirely.
            with tracer.span("route.setup"):
                router = PermutationRouter(
                    network, backend=router_backend, verify=verify
                )
                images = check_permutation_array(pi, network.n)
                cache_key = (
                    routing_cache_key(router_backend, network, images)
                    if use_cache
                    else None
                )
                engine = BatchedSimulator(network)
            with tracer.span("route.compile"):
                compiled = router.route_compiled(
                    images, cache_key=cache_key, cache=cache
                )
            with tracer.span("engine.execute"):
                locations = engine.execute(compiled)
            with tracer.span("engine.verify"):
                engine.verify_locations(compiled, locations)
            slots = compiled.n_slots
            with tracer.span("engine.trace"):
                trace = engine.compiled_trace(compiled)
        else:
            with tracer.span("route.setup"):
                router = PermutationRouter(
                    network, backend=router_backend, verify=verify
                )
                simulator = POPSSimulator(network, backend=sim_backend)
            with tracer.span("route.compile"):
                plan = router.route(pi)
            with tracer.span("engine.execute"):
                # Every engine except the reference one gets the cache key:
                # the reference engine has no compile step to memoise, while
                # plugin engines registered in SIM_ENGINES may cache compiled
                # artefacts exactly like "batched".
                cache_key = (
                    routing_cache_key(router_backend, network, plan.permutation)
                    if use_cache and sim_backend != "reference"
                    else None
                )
                result = simulator.route_and_verify(
                    plan.schedule, plan.packets, cache_key=cache_key, cache=cache
                )
            slots = plan.n_slots
            trace = result.trace
        with tracer.span("metrics.bounds"):
            bound = theorem2_slot_bound(network.d, network.g)
            lower = best_known_lower_bound(network, pi)
        with tracer.span("metrics.summarise"):
            return RoutingMetrics(
                d=network.d,
                g=network.g,
                n=network.n,
                slots=slots,
                theorem2_bound=bound,
                lower_bound=lower,
                couplers_used_total=trace.total_packets_moved,
                mean_coupler_utilisation=trace.mean_coupler_utilisation(
                    network.n_couplers
                ),
            )


def slots_vs_bound(network: POPSNetwork, slots: int) -> float:
    """Ratio of measured slots to Theorem 2's bound for ``network``."""
    return slots / theorem2_slot_bound(network.d, network.g)


def coupler_utilisation(network: POPSNetwork, pi: Sequence[int], backend: str = "konig") -> float:
    """Mean fraction of couplers busy per slot for the routed permutation."""
    return _measure_routing(network, pi, router_backend=backend).mean_coupler_utilisation
