"""Serving benchmarks: dynamic batching under open-loop Poisson load.

The serving daemon (``pops-repro serve``) exists to feed live, one-at-a-time
traffic onto the megabatch kernels: requests arriving within the batching
window that share a routing shape are coalesced into one
``Session.route_batch`` call.  This module measures that mechanism end to
end — a real daemon subprocess, real sockets, the open-loop Poisson load
generator — and asserts a floor: under concurrent load at n = 1024
(d = g = 32), the batching daemon must sustain >= 2.1x the routes/sec of the
*same* daemon with the batching window disabled (``--batch-window-ms 0``,
every request routed singly).  The floor was 3x until the single route
stopped building per-element ``Packet`` objects, which made the window-0
daemon ~1.39x faster (paired median on one host) while the batching daemon
kept its rate; the new floor is the old one divided by that speedup,
rounded down, so the batching daemon must still clear the old window-0
daemon by 3x.

The load is open-loop: arrival times are pre-drawn from an exponential
distribution and fired at wall-clock instants, so a saturated server cannot
slow down the offered rate (as closed-loop measurement would let it).  The
offered rate is set well above the single-route capacity of the reference
machine (~450 routes/s at n = 1024), putting the window-0 daemon firmly into
saturation; its sustained rate is then its capacity, and the ratio measures
what dynamic batching buys.

Results are recorded through the shared ``bench_emit`` fixture::

    pytest benchmarks/bench_serve.py --json BENCH_serve.json
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from contextlib import contextmanager

import pytest

from repro.serve import ServeClient
from repro.serve.loadgen import run_poisson_load

#: The floor shape: n = 1024, the square d = g case of the megabatch floor.
D = G = 32

#: Offered Poisson rate (routes/sec): ~6x the single-route capacity of the
#: reference machine, so the window-0 control arm is saturated.
RATE = 3000.0

#: Requests per measurement pass (~0.3 s of offered arrivals).
N_REQUESTS = 600

#: Concurrent client connections; also the ceiling on achievable batch size
#: (one outstanding request per connection).
CONNECTIONS = 32

#: The batching window of the treatment arm.
WINDOW_MS = 5.0

#: The floor: batching daemon >= 2.1x window-0 daemon, routes/sec.
FLOOR = 2.1


@contextmanager
def serve_daemon(tmp_path, batch_window_ms: float):
    """A real ``pops-repro serve`` subprocess; yields its bound port.

    SIGTERM on exit and asserts the clean-drain exit status, so every
    benchmark pass also exercises the daemon's full lifecycle.
    """
    port_file = tmp_path / f"port-{batch_window_ms}"
    # A retry reuses this path; a stale file from the previous daemon must
    # not be read as the new daemon's port.
    port_file.unlink(missing_ok=True)
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing else src + os.pathsep + existing
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--port-file", str(port_file),
            "--batch-window-ms", str(batch_window_ms),
            "--max-batch", str(CONNECTIONS),
            "--max-queue", "4096",
            "--format", "json",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
    )
    try:
        deadline = time.perf_counter() + 30.0
        port = None
        while time.perf_counter() < deadline:
            if port_file.exists() and port_file.read_text().strip():
                port = int(port_file.read_text().strip())
                break
            if process.poll() is not None:
                raise RuntimeError(f"daemon died at startup: {process.communicate()}")
            time.sleep(0.02)
        if port is None:
            raise RuntimeError("daemon never wrote its port file")
        yield port
        process.send_signal(signal.SIGTERM)
        _stdout, stderr = process.communicate(timeout=60.0)
        assert process.returncode == 0, stderr
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate()


def _warmup(port: int, n_requests: int = 8) -> None:
    """Prime the daemon (imports, first-compile effects) before timing."""
    run_poisson_load(
        "127.0.0.1", port, rate=10_000.0, n_requests=n_requests,
        d=D, g=G, seed=7, connections=4,
    )


def _measure(port: int, seed: int):
    report = run_poisson_load(
        "127.0.0.1", port, rate=RATE, n_requests=N_REQUESTS,
        d=D, g=G, seed=seed, connections=CONNECTIONS,
    )
    assert report.completed == N_REQUESTS, (
        f"load run lost requests: {report.to_dict()}"
    )
    return report


def test_serve_dynamic_batching_speedup_floor(bench_emit, tmp_path):
    """The batching daemon must sustain >= 2.1x the window-0 daemon's rate.

    Both arms are the same daemon binary, same shape (n = 1024, d = g = 32),
    same offered load (open-loop Poisson at ~6x single-route capacity over
    32 connections); the only difference is ``--batch-window-ms`` (5 vs 0).
    Responses are bit-identical either way (the megabatch contract), so the
    ratio isolates dynamic batching.  As with the other wall-clock floors,
    the measurement retries up to three times keeping the best ratio, so a
    noisy-neighbour tick on the CI runner cannot fail the build; the
    steady-state ratio sits near 2.6x on a 2-vCPU host (~575 vs ~220
    routes/s).
    """
    best = None
    best_speedup = 0.0
    for attempt in range(3):
        with serve_daemon(tmp_path, WINDOW_MS) as port:
            _warmup(port)
            batched = _measure(port, seed=100 + attempt)
            with ServeClient("127.0.0.1", port) as client:
                stats = client.stats()
        telemetry = stats["telemetry"]
        # Dynamic batching must actually have coalesced under this load.
        assert telemetry["batched_requests"] > 0, telemetry["batch_size_histogram"]
        assert any(
            int(size) >= 2 for size in telemetry["batch_size_histogram"]
        ), telemetry["batch_size_histogram"]

        with serve_daemon(tmp_path, 0.0) as port:
            _warmup(port)
            single = _measure(port, seed=100 + attempt)

        speedup = (
            batched.achieved_routes_per_second / single.achieved_routes_per_second
        )
        if speedup > best_speedup:
            best_speedup = speedup
            best = (batched, single, telemetry)
        if best_speedup >= FLOOR:
            break

    batched, single, telemetry = best
    print(
        f"\nn={batched.n} rate={RATE:.0f}/s x{N_REQUESTS}: "
        f"window {WINDOW_MS:.0f} ms -> {batched.achieved_routes_per_second:.0f} "
        f"routes/s (p50 {batched.latency_p50_ms:.1f} ms, "
        f"p99 {batched.latency_p99_ms:.1f} ms), "
        f"window 0 -> {single.achieved_routes_per_second:.0f} routes/s "
        f"(p50 {single.latency_p50_ms:.1f} ms, p99 {single.latency_p99_ms:.1f} ms), "
        f"speedup {best_speedup:.1f}x"
    )
    bench_emit(
        "serve_dynamic_batching_vs_window0",
        d=D,
        g=G,
        n=batched.n,
        offered_rate=RATE,
        n_requests=N_REQUESTS,
        connections=CONNECTIONS,
        batch_window_ms=WINDOW_MS,
        batched_routes_per_second=batched.achieved_routes_per_second,
        batched_p50_ms=batched.latency_p50_ms,
        batched_p99_ms=batched.latency_p99_ms,
        max_batch_size_seen=batched.max_batch_size_seen,
        batch_size_histogram=telemetry["batch_size_histogram"],
        window0_routes_per_second=single.achieved_routes_per_second,
        window0_p50_ms=single.latency_p50_ms,
        window0_p99_ms=single.latency_p99_ms,
        speedup=best_speedup,
        floor=FLOOR,
    )
    assert best_speedup >= FLOOR, (
        f"dynamic batching sustained only {best_speedup:.2f}x the window-0 "
        f"daemon ({batched.achieved_routes_per_second:.0f} vs "
        f"{single.achieved_routes_per_second:.0f} routes/s); floor is {FLOOR}x"
    )


@pytest.mark.parametrize("rate", [250.0, 1000.0, 3000.0])
def test_serve_latency_at_rate(bench_emit, tmp_path, rate):
    """Informational arrival-rate sweep: latency percentiles per offered rate.

    Below capacity the daemon tracks the offered rate and p50 stays near the
    single-route service time; past saturation queueing dominates and the
    sustained rate plateaus at capacity.  No floor — this records the
    latency/throughput trajectory for the perf artefact.
    """
    with serve_daemon(tmp_path, WINDOW_MS) as port:
        _warmup(port)
        report = run_poisson_load(
            "127.0.0.1", port, rate=rate, n_requests=300,
            d=D, g=G, seed=int(rate), connections=CONNECTIONS,
        )
    assert report.completed == 300
    print(
        f"\noffered {rate:.0f}/s -> achieved "
        f"{report.achieved_routes_per_second:.0f}/s, p50 "
        f"{report.latency_p50_ms:.1f} ms, p99 {report.latency_p99_ms:.1f} ms, "
        f"max batch {report.max_batch_size_seen}"
    )
    bench_emit(
        "serve_latency_at_rate",
        d=D,
        g=G,
        n=report.n,
        offered_rate=rate,
        batch_window_ms=WINDOW_MS,
        achieved_routes_per_second=report.achieved_routes_per_second,
        latency_p50_ms=report.latency_p50_ms,
        latency_p95_ms=report.latency_p95_ms,
        latency_p99_ms=report.latency_p99_ms,
        max_batch_size_seen=report.max_batch_size_seen,
    )
