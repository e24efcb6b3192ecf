"""serve-hot: an open-loop Poisson load against ``python -m repro serve``.

The daemon runs in its own process; this process is the one load generator.
It holds :data:`CONNECTIONS` connections (no more than the two cores the
benchmark is sized for) and sends each request at its *due* time on
connection ``i % CONNECTIONS`` without waiting for earlier answers, so a stall
in the daemon cannot hold back later sends.  Latency is measured from the due
time, which charges a stall to every request it delays; how late the sender
itself ran is reported separately.  The median latency is divided by the
host's mean slowness, probed in the idle gaps of the run (see
:data:`PROBE_GAP_S`).  Answers are checked against an in-process
``Session.route`` of the same permutation after the timed phase.
"""

from __future__ import annotations

import json
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from common import FAST_PATH, host_slowness, percentile, rng_streams, tail_percentiles
from repro.serve import protocol

ROOT = Path(__file__).resolve().parent.parent

#: Offered load, requests per second: well below the ~250/s that two
#: connections sustain, so the daemon keeps up and latency is not backlog.
RATE = 100.0
CONNECTIONS = 2
D = G = 32
#: Permutations in the hot pool; every other request (on average) is hot.
HOT_POOL = 16
HOT_SHARE = 0.5
#: Latency limit of ``slo_met_frac``, above the p99 at :data:`RATE`.
SLO_MS = 50.0
WARMUP_REQUESTS = 10
#: The generator times the host's slowness (``common.host_slowness`` with
#: one repetition, a few ms) at most once per :data:`PROBE_EVERY_S`, and
#: only while no request is in flight and the next one is due at least
#: :data:`PROBE_GAP_S` later, so the probe neither slows the daemon nor delays
#: a send.  It polls every :data:`POLL_S` for the answers in flight.
PROBE_GAP_S = 0.008
PROBE_EVERY_S = 0.05
POLL_S = 0.001
SOCKET_TIMEOUT_S = 10.0
START_TIMEOUT_S = 60.0


def daemon_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of a running process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for pid {pid}")


def check_served(session, pis, responses) -> list[bool]:
    """Which answers are correct: ``ok``, not degraded, and with ``metrics``
    equal to ``session.route(pi).to_dict()`` for the same ``pi``.

    ``pis`` is a list of ``(key, pi)``; permutations that share a key (the hot
    pool) are routed locally once.  A missing answer (``None``) is wrong.
    """
    expected: dict = {}
    correct = []
    for (key, pi), response in zip(pis, responses):
        if not response or not response.get("ok") or response.get("degraded"):
            correct.append(False)
            continue
        if key not in expected:
            expected[key] = session.route(pi, d=D, g=G).to_dict()
        correct.append(response.get("metrics") == expected[key])
    return correct


def _stage_means(before: dict, after: dict) -> dict[str, float]:
    """Per-stage mean ms over the requests answered between two snapshots."""
    means = {}
    for stage, summary in after["telemetry"]["stages"].items():
        prior = before["telemetry"]["stages"].get(stage, {"count": 0, "mean_ms": 0.0})
        count = summary["count"] - prior["count"]
        if count > 0:
            total = summary["mean_ms"] * summary["count"] - prior["mean_ms"] * prior["count"]
            means[stage] = total / count
    return means


class ServeHot:
    """Daemon in a child process, load from this one."""

    def __init__(self, seed: int, seconds: float):
        t0 = time.perf_counter()
        rng, warm_rng = rng_streams(seed)
        n = D * G
        count = max(int(RATE * seconds), 2 * CONNECTIONS)
        # Poisson arrivals conditioned on exactly ``count`` in ``seconds``.
        self.due = np.sort(rng.uniform(0.0, seconds, count))
        self.hot = np.stack([rng.permutation(n) for _ in range(HOT_POOL)])
        self.hot_index = np.where(
            rng.random(count) < HOT_SHARE, rng.integers(HOT_POOL, size=count), -1
        )
        fresh = int((self.hot_index < 0).sum())
        self.fresh = rng.permuted(np.tile(np.arange(n, dtype=np.int16), (fresh, 1)), axis=1)
        self.fresh_row = np.cumsum(self.hot_index < 0) - 1
        warm = [warm_rng.permutation(n) for _ in range(WARMUP_REQUESTS * CONNECTIONS)]
        self.inputs_s = time.perf_counter() - t0

        self.proc: subprocess.Popen | None = None
        self.socks: list[socket.socket] = []
        try:
            self._start_daemon()
            for c, sock in enumerate(self.socks):
                for pi in warm[c::CONNECTIONS]:
                    self._call(sock, self._route_request(pi))
        except BaseException:
            self.close()
            raise

    # -- daemon lifecycle -----------------------------------------------------

    def _start_daemon(self) -> None:
        # The daemon prints the port it bound as its first line of output.
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--port", "0", "--format", "json",
                "--backend", FAST_PATH["router_backend"],
                "--sim-backend", FAST_PATH["sim_backend"],
            ],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], START_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError("daemon did not start listening in time")
        port = json.loads(line)["listening"]["port"]
        for _ in range(CONNECTIONS):
            sock = socket.create_connection(("127.0.0.1", port), timeout=SOCKET_TIMEOUT_S)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.socks.append(sock)

    def close(self) -> None:
        """Close the connections, stop the daemon and wait for it to exit."""
        for sock in self.socks:
            sock.close()
        self.socks = []
        if self.proc is not None:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
            try:
                # Reading its output to the end lets it print its summary.
                self.proc.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.communicate()
            self.proc = None

    # -- requests -------------------------------------------------------------

    def _route_request(self, pi) -> dict:
        return {"op": "route", "pi": pi.tolist(), "d": D, "g": G}

    def _call(self, sock: socket.socket, request: dict) -> dict:
        protocol.send_frame(sock, request)
        response = protocol.recv_frame(sock)
        if response is None:
            raise ConnectionError("daemon closed the connection")
        return response

    def _stats(self) -> dict:
        return self._call(self.socks[0], {"op": "stats"})["stats"]

    def request_pi(self, i: int) -> tuple[tuple, np.ndarray]:
        """``(key, pi)`` of request ``i``; hot requests share their pool key."""
        if self.hot_index[i] >= 0:
            return ("hot", int(self.hot_index[i])), self.hot[self.hot_index[i]]
        return ("fresh", i), self.fresh[self.fresh_row[i]]

    # -- the timed phase --------------------------------------------------------

    def measure(self, seconds: float, trace: bool) -> dict:
        from repro.api import RunConfig, Session

        count = len(self.due)
        sent_at = np.full(count, np.nan)
        answered_at = np.full(count, np.nan)
        responses: list[dict | None] = [None] * count
        # Answers per connection, each counted only by its receiver thread.
        answered_per_conn = [0] * CONNECTIONS
        slowness: list[float] = []
        before = self._stats()

        def receive(c: int) -> None:
            sock = self.socks[c]
            for i in range(c, count, CONNECTIONS):
                try:
                    frame = protocol.recv_frame(sock)
                except (OSError, protocol.FrameError):
                    return  # the rest of this connection's requests fail
                if frame is None:
                    return
                answered_at[i] = time.perf_counter()
                responses[i] = frame
                answered_per_conn[c] += 1

        receivers = [
            threading.Thread(target=receive, args=(c,), daemon=True)
            for c in range(CONNECTIONS)
        ]
        for thread in receivers:
            thread.start()
        start = time.perf_counter() + 0.01
        last_probe = start
        for i in range(count):
            due = start + self.due[i]
            while True:
                now = time.perf_counter()
                wait = due - now
                if wait <= 0:
                    break
                if wait > PROBE_GAP_S and now - last_probe > PROBE_EVERY_S:
                    if sum(answered_per_conn) == i:
                        # The daemon and the receivers are idle: time the host.
                        slowness.append(host_slowness(1))
                        last_probe = now
                    else:
                        # Poll for the answers still in flight.
                        time.sleep(min(wait - PROBE_GAP_S, POLL_S))
                    continue
                time.sleep(wait)
            sent_at[i] = time.perf_counter()
            try:
                protocol.send_frame(
                    self.socks[i % CONNECTIONS],
                    self._route_request(self.request_pi(i)[1]),
                )
            except (OSError, protocol.FrameError):
                sent_at[i] = np.nan
        for thread in receivers:
            thread.join(timeout=SOCKET_TIMEOUT_S * 2)
        after = self._stats()
        rss = daemon_peak_rss_mb(self.proc.pid)
        self.close()
        if not slowness:  # a run too short to find an idle gap
            slowness.append(host_slowness(1))

        session = Session(RunConfig(**FAST_PATH))
        correct = np.array(check_served(
            session, [self.request_pi(i) for i in range(count)], responses
        ))
        due_at = start + self.due
        latency_ms = (answered_at - due_at) * 1e3
        ok_ms = latency_ms[correct]
        late_ms = (sent_at - due_at)[~np.isnan(sent_at)] * 1e3
        shed = sum(
            1 for r in responses
            if r and not r.get("ok") and r["error"]["code"] == protocol.ERR_QUEUE_FULL
        )
        answered = int((~np.isnan(answered_at)).sum())
        # The host flips between a fast and a slow speed many times a
        # second; the mean of the probes spread over the run is the share of
        # time it ran slow, and the median latency follows that share.
        host = float(np.mean(slowness))
        diagnostics = {
            "probes": len(slowness),
            "host_slowness": host,
            "unscaled_latency_p50_ms": percentile(ok_ms, 50),
            "samples": int(correct.sum()),
            **tail_percentiles(list(ok_ms)),
            "slo_ms": SLO_MS,
            "slo_met_frac": float((ok_ms <= SLO_MS).sum() / count),
            "offered_rate": RATE,
            "sent": int((~np.isnan(sent_at)).sum()),
            "answered": answered,
            "shed": shed,
            "loadgen_late_ms_p99": percentile(late_ms, 99),
        }
        out = {
            "attempted": count,
            "failed": int(count - correct.sum()),
            "diagnostics": diagnostics,
        }
        if not trace:
            out["metrics"] = {
                "latency_p50_ms": percentile(ok_ms, 50) / host,
                "throughput_routes_per_s": float(
                    correct.sum() / (np.nanmax(answered_at) - start)
                ),
                "peak_rss_mb": rss,
            }
            return out

        stages = _stage_means(before, after)
        sizes_before = before["telemetry"]["batch_size_histogram"]
        sizes = {
            int(size): n - sizes_before.get(size, 0)
            for size, n in after["telemetry"]["batch_size_histogram"].items()
        }
        batches = sum(sizes.values())
        hits = after["cache"]["hits"] - before["cache"]["hits"]
        misses = after["cache"]["misses"] - before["cache"]["misses"]
        round_trip_ms = (answered_at - sent_at) * 1e3
        layers = {
            f"serve.{stage}_ms": stages.get(stage, 0.0)
            for stage in ("queue_wait", "batch_assembly", "route", "respond")
        }
        layers.update({
            "serve.mean_batch_size": (
                sum(size * n for size, n in sizes.items()) / batches if batches else 0.0
            ),
            "serve.wire_codec_ms": float(np.nanmean(round_trip_ms)) - sum(stages.values()),
            "cache.hits": hits,
            "cache.misses": misses,
            "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "loadgen.late_ms_p99": diagnostics["loadgen_late_ms_p99"],
        })
        out["metrics"] = layers
        # The daemon has no tracing switch, so its tracing overhead is not
        # measured here.
        out["absent"] = sorted([
            "trace_overhead_frac",
            *(
                f"serve.{stage}_ms"
                for stage in ("queue_wait", "batch_assembly", "route", "respond")
                if stage not in stages
            ),
        ])
        return out
