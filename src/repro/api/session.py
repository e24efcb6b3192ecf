"""The :class:`Session` facade: one config, one cache, one RNG lineage.

A session binds a validated :class:`~repro.api.config.RunConfig` to the
resources a run needs — a compiled-schedule cache and a deterministic seed
lineage — and exposes the reproduction's capabilities as methods::

    from repro.api import RunConfig, Session

    session = Session(RunConfig(router_backend="euler", seed=7))
    metrics = session.route(pi, d=8, g=4)          # one verified routing
    sweep = session.sweep([(32, 32)])              # sharded Theorem 2 sweep
    result = session.experiment("E4")              # any registered experiment
    reports = session.run_all()                    # everything, sorted by id

Every simulator engine, router backend and experiment is resolved through the
registries in :mod:`repro.api.registry`, so components registered by user
code are first-class citizens here.  (The deprecated free functions —
``measure_routing``, ``run_theorem2_sweep``, … — were removed in 1.2; the
session methods are the only entry points.)
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.api.config import RunConfig
from repro.api.registry import EXPERIMENTS, ensure_experiments
from repro.exceptions import ConfigurationError
from repro.pops.engine import ScheduleCache
from repro.pops.packet import Packet
from repro.pops.schedule import RoutingSchedule
from repro.pops.simulator import POPSSimulator, SimulationResult
from repro.pops.topology import POPSNetwork
from repro.utils.rng import resolve_rng

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.analysis.experiments import ExperimentResult
    from repro.analysis.metrics import RoutingMetrics

__all__ = ["Session", "derive_trial_seeds"]


def derive_trial_seeds(seed: int, trials: int) -> np.ndarray:
    """Deterministic per-trial seeds derived from one root seed.

    This is the single seed lineage of the whole API: sharded sweeps slice
    this array into whole-batch worker tasks, and experiments derive their
    per-section seeds the same way, so any unit of work can run in any
    process and still sample exactly what the serial run would.  Returns a
    ``(trials,)`` int64 array; the drawn values are unchanged from the
    historical list form (``.tolist()`` recovers it exactly — note the
    entries of the *array* are ``np.int64`` and must be converted back to
    Python ints before re-seeding :func:`repro.utils.rng.resolve_rng`).
    """
    rng = resolve_rng(seed)
    return np.fromiter(
        (rng.randrange(2**31) for _ in range(trials)),
        dtype=np.int64,
        count=trials,
    )


class Session:
    """Facade owning one schedule cache and one seed lineage.

    Parameters
    ----------
    config:
        The run configuration; defaults to ``RunConfig()``.
    cache:
        Compiled-schedule cache to use.  By default the session owns a fresh
        :class:`~repro.pops.engine.ScheduleCache` sized by the config; pass
        :func:`repro.pops.engine.schedule_cache` to share the process-wide
        cache (the deprecation shims do, preserving their historical
        behaviour).  With ``config.plan_store_path`` set, the session-owned
        cache is built with the persistent
        :class:`~repro.pops.plan_store.PlanStore` at that path attached as
        its disk tier (a caller-provided ``cache`` is taken as-is — its
        tiering is the caller's decision).
    """

    def __init__(
        self, config: RunConfig | None = None, *, cache: ScheduleCache | None = None
    ):
        if config is None:
            config = RunConfig()
        if not isinstance(config, RunConfig):
            raise TypeError(
                f"config must be a RunConfig or None, got {type(config).__name__}"
            )
        self.config = config
        if cache is not None:
            self.cache = cache
        else:
            store = None
            if config.plan_store_path is not None:
                from repro.pops.plan_store import PlanStore

                store = PlanStore(config.plan_store_path)
            self.cache = ScheduleCache(
                max_entries=config.cache_max_entries,
                max_bytes=config.cache_max_bytes,
                store=store,
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Session(config={self.config!r})"

    # -- component factories ------------------------------------------------

    def sim_backend(self, default: str = "reference") -> str:
        """The configured simulator engine, or ``default`` when unset."""
        return self.config.resolved_sim_backend(default)

    def simulator(
        self, network: POPSNetwork, *, default_backend: str = "reference"
    ) -> POPSSimulator:
        """A simulator for ``network`` using the configured engine."""
        return POPSSimulator(network, backend=self.sim_backend(default_backend))

    def trial_seeds(self, trials: int, seed: int | None = None) -> np.ndarray:
        """Per-trial seeds from the session lineage (root: ``config.seed``)."""
        root = self.config.seed if seed is None else seed
        return derive_trial_seeds(root, trials)

    def cache_stats(self) -> dict[str, int]:
        """Hit/miss/entry counters of the session's schedule cache.

        With a plan store configured the dict additionally carries the
        ``disk_hits`` / ``disk_misses`` counters of the persistent tier
        (kept separate from the memory counters, never summed).
        """
        return self.cache.stats()

    # -- capabilities -------------------------------------------------------

    def route(
        self,
        pi: Sequence[int],
        *,
        network: POPSNetwork | None = None,
        d: int | None = None,
        g: int | None = None,
        verify: bool = True,
    ) -> RoutingMetrics:
        """Route ``pi`` with the universal router; simulate, verify, summarise.

        The target network is given either as ``network=`` or as ``d=``/``g=``.
        Router backend, simulator engine, cache policy and trace mode all come
        from the session config; compiled schedules are memoised in the
        session's cache.

        The call is span-instrumented: when a tracer is installed via
        :func:`repro.obs.set_tracer` (the CLI's ``--profile``/``--trace-out``
        do this), it emits a ``session.route`` root span with
        ``route.setup``/``cache.probe``/``engine.*``/``metrics.*`` children;
        with the default :data:`repro.obs.NULL_TRACER` the instrumentation
        is a no-op (<1% of a warm route, see ``benchmarks/bench_obs.py``).
        """
        from repro.analysis.metrics import _measure_routing

        if network is None:
            if d is None or g is None:
                raise ConfigurationError(
                    "route() needs either network= or both d= and g="
                )
            network = POPSNetwork(d, g)
        return _measure_routing(
            network,
            pi,
            router_backend=self.config.router_backend,
            verify=verify,
            sim_backend=self.sim_backend("reference"),
            use_cache=self.config.cache_policy == "on",
            cache=self.cache,
        )

    def route_batch(
        self,
        pis,
        *,
        network: POPSNetwork | None = None,
        d: int | None = None,
        g: int | None = None,
        verify: bool = True,
    ) -> list[RoutingMetrics]:
        """Route a ``(B, n)`` permutation stack on the megabatch pipeline.

        The batched twin of :meth:`route`: on the batched/auto engines the
        whole stack is routed, executed, verified and summarised in one
        batched pass, and entry ``b`` of the returned list is bit-identical
        to ``route(pis[b])``.  Other engines measure element by element, so
        the method is safe under any configured backend.  Configuration
        (router backend, engine, cache policy) comes from the session; on the
        batched path the cache holds one batch-level entry per stack.

        Every shape, ``d < g`` included, takes the batched path on the
        batched engines: the cache-blocked Euler split makes the padded batch
        plan builders beat the per-element loop everywhere (bit-identical
        results either way — see ``_measure_routing_batch``).

        Span-instrumented like :meth:`route`, under a ``session.route_batch``
        root (one span tree for the whole stack on the batched path).
        """
        from repro.analysis.metrics import _measure_routing_batch

        if network is None:
            if d is None or g is None:
                raise ConfigurationError(
                    "route_batch() needs either network= or both d= and g="
                )
            network = POPSNetwork(d, g)
        return _measure_routing_batch(
            network,
            pis,
            router_backend=self.config.router_backend,
            verify=verify,
            sim_backend=self.sim_backend("reference"),
            use_cache=self.config.cache_policy == "on",
            cache=self.cache,
        )

    def route_compiled(
        self,
        pi: Sequence[int],
        *,
        network: POPSNetwork | None = None,
        d: int | None = None,
        g: int | None = None,
        verify: bool = True,
    ):
        """Compile the Theorem 2 plan for ``pi`` straight to schedule arrays.

        The array-native routing front end
        (:meth:`~repro.routing.permutation_router.PermutationRouter.
        route_compiled`): returns the
        :class:`~repro.pops.engine.CompiledSchedule` ready for the batched
        engines, bit-identical to routing object-level and compiling, with
        no intermediate per-packet Python objects for the array router
        backends (``"konig-array"`` / ``"euler-array"``; other backends fall
        back transparently).  With the cache policy ``"on"`` the plan is
        memoised in the session cache under the deterministic-router key, so
        re-routing a seen permutation skips construction entirely.
        """
        from repro.analysis.metrics import routing_cache_key
        from repro.routing.permutation_router import PermutationRouter

        if network is None:
            if d is None or g is None:
                raise ConfigurationError(
                    "route_compiled() needs either network= or both d= and g="
                )
            network = POPSNetwork(d, g)
        router = PermutationRouter(
            network, backend=self.config.router_backend, verify=verify
        )
        cache_key = (
            routing_cache_key(self.config.router_backend, network, pi)
            if self.config.cache_policy == "on"
            else None
        )
        return router.route_compiled(pi, cache_key=cache_key, cache=self.cache)

    def route_degraded(
        self,
        pi: Sequence[int],
        *,
        network: POPSNetwork | None = None,
        d: int | None = None,
        g: int | None = None,
        faults,
    ):
        """Route ``pi`` under fault injection and recover online.

        The fault-tolerance pipeline
        (:func:`repro.faults.route_with_recovery`): the clean Theorem 2 plan
        executes on the batched engine with ``faults`` (a
        :class:`~repro.faults.FaultSpec`) injected; if the schedule drives
        failed hardware inside the fault window, the residual traffic is
        re-solved over the surviving couplers and verified delivered on the
        degraded topology.  Returns a
        :class:`~repro.faults.FaultRecoveryReport` comparing total slots
        (executed before the fault + reroute) against the clean ``2⌈d/g⌉``
        bound.  Span-instrumented (``fault.inject``, ``route.reroute``).
        """
        from repro.faults import FaultSpec, route_with_recovery

        if not isinstance(faults, FaultSpec):
            raise ConfigurationError(
                f"faults must be a FaultSpec, got {type(faults).__name__}"
            )
        if network is None:
            if d is None or g is None:
                raise ConfigurationError(
                    "route_degraded() needs either network= or both d= and g="
                )
            network = POPSNetwork(d, g)
        return route_with_recovery(
            network, pi, faults, router_backend=self.config.router_backend
        )

    def simulate(
        self,
        schedule: RoutingSchedule,
        packets: list[Packet],
        *,
        cache_key: Hashable | None = None,
        verify: bool = False,
    ) -> SimulationResult:
        """Execute ``schedule`` on the configured engine and return the result.

        The result's trace representation follows ``config.trace_mode``:
        ``"compiled"`` keeps whatever the engine produced (integer-array
        traces from compiled engines), ``"materialized"`` expands compiled
        traces to per-slot dict objects eagerly.  ``verify=True`` additionally
        asserts every packet reached its destination.

        Pass ``cache_key`` to memoise the compiled schedule in the
        session-owned cache; the caller asserts the key fully determines
        ``(schedule, packets)`` — the contract of
        :meth:`repro.pops.engine.BatchedSimulator.compile`.  No key is
        derived automatically because arbitrary schedules, unlike the
        deterministic router's, have no sound generic key.  A set cache
        policy of ``"off"`` drops the key.
        """
        from repro.pops.trace import CompiledTrace

        if self.config.cache_policy == "off":
            cache_key = None
        simulator = self.simulator(schedule.network)
        result = simulator.run(
            schedule, packets, cache_key=cache_key, cache=self.cache
        )
        if verify:
            result.verify_permutation_delivery(packets)
        if self.config.trace_mode == "materialized" and isinstance(
            result.trace, CompiledTrace
        ):
            result.trace = result.trace.materialize()
        return result

    def experiment(self, experiment_id: str, **overrides: Any) -> ExperimentResult:
        """Run one registered experiment (``E1``..``E9``) under this session.

        ``overrides`` are forwarded to the experiment runner (sizes, trial
        counts, seeds — whatever the runner parameterises); everything else
        comes from the session config.  Unknown ids raise
        :class:`~repro.exceptions.ConfigurationError` listing the registered
        experiments.
        """
        ensure_experiments()
        runner = EXPERIMENTS.get(experiment_id)
        return runner(self, **overrides)

    def sweep(
        self, configs: Sequence[tuple[int, int]] | None = None
    ) -> ExperimentResult:
        """The Theorem 2 sweep over ``configs``, fanned across workers.

        Shard size, worker count, cache statistics, trials and seed all come
        from the session config (``shard_trials``, ``workers``,
        ``cache_stats``, ``trials``, ``seed``).
        """
        if configs is None:
            return self.experiment("E1p")
        return self.experiment("E1p", configs=configs)

    def run_all(self) -> dict[str, ExperimentResult]:
        """Run every registered experiment, sorted by id."""
        ensure_experiments()
        return {
            experiment_id: self.experiment(experiment_id)
            for experiment_id in sorted(EXPERIMENTS.names())
        }
