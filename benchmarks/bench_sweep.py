"""Megabatch sweep benchmarks: route→simulate over ``(B, n)`` permutation stacks.

The batch-axis refactor makes the sweep loop a single pipeline invocation:
``Session.route_batch`` lowers a whole ``(B, n)`` permutation stack onto one
shared CSR slot structure, executes every element in one batched engine pass,
and computes lower bounds as stack reductions.  This module measures that
megabatch path against the per-trial loop it replaced — ``Session.route``
once per permutation, the loop the Theorem 2 sweep ran before the refactor —
and asserts a >= 3.4x routes/sec speedup floor at n >= 1024, B >= 64.  The
floor was 5x when the refactor landed; it was re-baselined when the single
route stopped building per-element ``Packet`` objects, which made the loop
side ~1.46x faster (paired median on one host) while the megabatch side
kept its rate.  The new floor is the old one divided by that loop speedup,
rounded down, so the megabatch must still clear the old loop by 5x.  The
floor is asserted on the square d = g = 32 shape; the d > g round-plan shape
(d = 64, g = 16) is measured and recorded without a floor (the per-trial
loop there spends proportionally more time in the shared round-plan kernel,
which batching cannot amortise away).

Results are also recorded through the shared ``bench_emit`` fixture, so::

    pytest benchmarks/bench_sweep.py --json BENCH_sweep.json

writes the machine-readable perf trajectory artefact.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.analysis.metrics import routing_cache_key_batch
from repro.api import RunConfig, Session
from repro.obs.stats import interleaved_minima
from repro.pops.engine import BatchedSimulator, ScheduleCache
from repro.pops.topology import POPSNetwork
from repro.routing.permutation_router import PermutationRouter, theorem2_slot_bound
from repro.utils.permutations import random_permutation

#: Both shapes sit at the floor's n = 1024: the square d = g case (two-slot
#: plans) and the d > g case (round plans with 2⌈d/g⌉ slots).
SWEEP_SHAPES = [(32, 32), (64, 16)]
SHAPE_IDS = [f"d{d}g{g}" for d, g in SWEEP_SHAPES]

#: Stack height the floor asserts; "B >= 64" in the acceptance criterion.
BATCH = 64

#: The array backend the floor asserts (the headline kernel, as in
#: ``bench_router_compiled.py``).
FLOOR_BACKEND = "euler-array"


def _workload(d: int, g: int, n_batch: int = BATCH):
    network = POPSNetwork(d, g)
    rng = random.Random(1201)
    pis = np.stack(
        [
            np.asarray(random_permutation(network.n, rng), dtype=np.int64)
            for _ in range(n_batch)
        ]
    )
    return network, pis


@pytest.mark.parametrize("d,g", SWEEP_SHAPES, ids=SHAPE_IDS)
def test_sweep_megabatch(benchmark, d, g):
    """Megabatch pipeline: one stack in, every element routed and verified."""
    network, pis = _workload(d, g)
    router = PermutationRouter(network, backend=FLOOR_BACKEND)
    engine = BatchedSimulator(network)

    def run():
        batch = router.route_compiled_batch(pis)
        engine.verify_locations_batch(batch, engine.execute_batch(batch))
        return batch

    batch = benchmark(run)
    assert batch.n_slots == theorem2_slot_bound(d, g)


@pytest.mark.parametrize("d,g", SWEEP_SHAPES, ids=SHAPE_IDS)
def test_sweep_per_trial(benchmark, d, g):
    """The loop the megabatch path replaced: route and verify one at a time."""
    network, pis = _workload(d, g)
    router = PermutationRouter(network, backend=FLOOR_BACKEND)
    engine = BatchedSimulator(network)

    def run():
        for b in range(pis.shape[0]):
            compiled = router.route_compiled(pis[b])
            engine.verify_locations(compiled, engine.execute(compiled))

    benchmark(run)


@pytest.mark.parametrize("d,g", SWEEP_SHAPES, ids=SHAPE_IDS)
def test_route_compiled_batch_cache(benchmark, d, g):
    """A re-swept stack served from the batch-level plan cache."""
    network, pis = _workload(d, g)
    cache = ScheduleCache()
    router = PermutationRouter(network, backend=FLOOR_BACKEND)
    key = routing_cache_key_batch(FLOOR_BACKEND, network, pis)
    router.route_compiled_batch(pis, cache_key=key, cache=cache)  # prime
    batch = benchmark(
        lambda: router.route_compiled_batch(pis, cache_key=key, cache=cache)
    )
    assert batch.n_batch == BATCH
    assert cache.stats()["hits"] >= 1


@pytest.mark.parametrize(
    "d,g,floor", [(32, 32, 3.4), (64, 16, None)], ids=SHAPE_IDS
)
def test_megabatch_sweep_speedup_floor(bench_emit, d, g, floor):
    """``Session.route_batch`` must beat the per-trial session loop >= 3.4x.

    Both sides run the full sweep pipeline the Theorem 2 experiment uses —
    validation, ``euler-array`` routing, batched execution, delivery
    verification, lower bounds, metrics — over the same 64 permutations of
    n = 1024, cache off.  The loop side feeds ``Session.route`` plain Python
    lists, exactly as the pre-refactor sweep did (and lists are the *faster*
    per-trial representation here: the propositions' Python predicates slow
    down on numpy int64 scalars).  The outputs are asserted equal here and
    pinned bit-identical per element by ``tests/test_megabatch.py``, so the
    ratio measures batching alone.

    The floor applies to the square d = g shape only; the d > g round-plan
    shape is recorded without assertion (see the module docstring).  A
    wall-clock assertion is deliberate — the speedup floor is this PR's
    acceptance criterion, so it runs by default rather than behind the
    ``slow`` marker (the CI benchmark-smoke step executes it).  Because CI
    runs single-core where a noisy-neighbour tick can shave ~10% off either
    minimum, the measurement interleaves both pipelines, takes best-of
    minima, and retries up to three times keeping the best ratio; the
    steady-state ratio (~4.1-4.3x on a 2-vCPU host) sits close enough to the
    floor that one unlucky attempt must not fail the build.
    """
    network, pis = _workload(d, g)
    trials = [pis[b].tolist() for b in range(pis.shape[0])]
    # Cache off so the measurement is the uncached end-to-end sweep (the
    # batch-level cache path is timed separately above).
    config = RunConfig(
        router_backend=FLOOR_BACKEND, sim_backend="batched", cache_policy="off"
    )
    loop_session = Session(config)
    batch_session = Session(config)

    assert batch_session.route_batch(pis, network=network) == [
        loop_session.route(pi, network=network) for pi in trials
    ]

    def run_loop():
        for pi in trials:
            loop_session.route(pi, network=network)

    def run_batch():
        batch_session.route_batch(pis, network=network)

    best_loop, best_batch, best_speedup = float("inf"), float("inf"), 0.0
    attempts = 3 if floor is not None else 1
    for _ in range(attempts):
        t_loop, t_batch = interleaved_minima(run_loop, run_batch)
        speedup = t_loop / t_batch
        if speedup > best_speedup:
            best_loop, best_batch, best_speedup = t_loop, t_batch, speedup
        if floor is None or best_speedup >= floor:
            break

    loop_routes = pis.shape[0] / best_loop
    batch_routes = pis.shape[0] / best_batch
    print(
        f"\nn={network.n} B={pis.shape[0]}: per-trial {best_loop * 1e3:.3f} ms "
        f"({loop_routes:.0f} routes/s), megabatch {best_batch * 1e3:.3f} ms "
        f"({batch_routes:.0f} routes/s), speedup {best_speedup:.1f}x"
    )
    bench_emit(
        "megabatch_sweep_vs_per_trial",
        d=d,
        g=g,
        n=network.n,
        n_batch=pis.shape[0],
        backend=FLOOR_BACKEND,
        per_trial_seconds=best_loop,
        batch_seconds=best_batch,
        per_trial_routes_per_second=loop_routes,
        batch_routes_per_second=batch_routes,
        speedup=best_speedup,
        floor=floor,
    )
    if floor is not None:
        assert best_speedup >= floor, (
            f"megabatch sweep only {best_speedup:.1f}x faster than the "
            f"per-trial loop at n={network.n}, B={pis.shape[0]} "
            f"(floor is {floor}x)"
        )
