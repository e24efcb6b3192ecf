"""Helpers shared by the benchmark's workloads."""

from __future__ import annotations

import gc
import resource
import time

import numpy as np

#: Router backend and simulator engine of every call the benchmark makes.
FAST_PATH = {"router_backend": "euler-array", "sim_backend": "batched"}

#: The workloads, each run in its own process.
WORKLOADS = ("batch-mixed", "serve-hot")


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def tail_percentiles(samples_ms: list[float]) -> dict[str, float]:
    """p90 / p99 where at least ten samples lie beyond them."""
    out = {}
    for q in (90, 99):
        if len(samples_ms) * (100 - q) / 100 >= 10:
            out[f"latency_p{q}_ms"] = percentile(samples_ms, q)
    return out


def peak_rss_mb() -> float:
    """This process's peak resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def rng_streams(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    """(timed-phase stream, warm-up stream), both fixed by ``seed``."""
    return np.random.default_rng([seed, 0]), np.random.default_rng([seed, 1])



#: Median seconds of the two probes of :func:`host_slowness` on the host the
#: benchmark was built on (2-vCPU KVM guest, Python 3.11.7, numpy 2.4.6).
PROBE_NOMINAL_S = (0.60e-3, 1.40e-3)

_PROBE_RNG = np.random.default_rng(5)
_PROBE_KEYS = [int(key) for key in _PROBE_RNG.integers(0, 4096, 4000)]
_PROBE_VALUES = _PROBE_RNG.permutation(16384)
_PROBE_INDEX = _PROBE_RNG.integers(0, 16384, 16384)


def _interpreter_probe() -> float:
    t0 = time.perf_counter()
    counts: dict[int, int] = {}
    for key in _PROBE_KEYS:
        counts[key] = counts.get(key, 0) + 1
    sorted(counts.items(), key=lambda item: item[1])
    return time.perf_counter() - t0


def _numpy_probe() -> float:
    t0 = time.perf_counter()
    gathered = _PROBE_VALUES[np.argsort(_PROBE_VALUES, kind="stable")][_PROBE_INDEX]
    np.bincount(gathered % 97)
    np.cumsum(gathered)
    return time.perf_counter() - t0


def host_slowness(reps: int = 10) -> float:
    """How slowly the host runs right now, against :data:`PROBE_NOMINAL_S`.

    On a shared host the same code runs up to ~50% slower for seconds to
    minutes at a time.  This times two fixed probes that are no part of the
    program, ``reps`` times each with the garbage collector off: interpreter
    work (counting 4000 keys in a dict, then sorting it) and numpy work (a
    stable argsort, a gather, a bincount and a cumsum over 16384 ints).  It
    returns the mean of their medians, each as a share of its nominal time:
    1.0 is the nominal speed, 1.3 is 30% slower.  Dividing a time measured
    next to it by this factor removes most of the host's swing.
    """
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        interp = float(np.median([_interpreter_probe() for _ in range(reps)]))
        numeric = float(np.median([_numpy_probe() for _ in range(reps)]))
    finally:
        if gc_was_enabled:
            gc.enable()
    return (interp / PROBE_NOMINAL_S[0] + numeric / PROBE_NOMINAL_S[1]) / 2
