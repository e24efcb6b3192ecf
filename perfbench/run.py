"""The benchmark: run one workload, check its answers, print its metrics.

    python3 perfbench/run.py --workload batch-mixed --seed 1 --seconds 30 --trace 0

Run it from the repository root.  The workload runs in its own process
(``perfbench/worker.py``) against the library in ``src/``.  With
``--trace 0`` it reports the end-to-end metrics with tracing off; ``setup_s``
is the median over :data:`SETUP_SAMPLES` processes that each set up from
scratch, each scaled by the host's slowness (``common.host_slowness``)
measured just before it.  With ``--trace 1`` it reports the per-layer metrics of
``perfbench/layers.py`` from one traced run.  The output is a readable report
followed, as the last line, by one JSON object::

    {"correct": true, "attempted": 7000, "failed": 0,
     "metrics": {"latency_p50_ms": {"value": 3.9, "unit": "ms"}, ...}}

Exits with code 2, printing no result, when the library's sources are not
next to the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from common import WORKLOADS, host_slowness
from layers import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: End-to-end metric -> unit; every workload reports each of them.
END_TO_END = {
    "latency_p50_ms": "ms",
    "throughput_routes_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

#: Processes that set up from scratch per run (the measured one included).
SETUP_SAMPLES = 5

#: Wall-clock budget of the whole command.
BUDGET_S = 170.0


class BenchError(RuntimeError):
    pass


def spawn(workload: str, seed: int, seconds: float, mode: str, deadline: float) -> dict:
    """Run one worker process; its result, plus its measured ``setup_s``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    command = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
    ]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(deadline - spawned, 1.0),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} {mode} ran out of time") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} {mode} exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready_mono"] - spawned - result["inputs_s"]
    return result


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + BUDGET_S
    if trace:
        result = spawn(workload, seed, seconds, "trace", deadline)
        units = {name: unit for name, (unit, _better, _moves) in LAYERS.items()}
    else:
        # Each set-up is scaled by the host's slowness measured just before it.
        setups, scaled = [], []
        for i in range(SETUP_SAMPLES):
            slowness = host_slowness()
            mode = "run" if i == SETUP_SAMPLES - 1 else "setup"
            result = spawn(workload, seed, seconds, mode, deadline)
            setups.append(result["setup_s"])
            scaled.append(result["setup_s"] / slowness)
        result["metrics"]["setup_s"] = statistics.median(scaled)
        result["diagnostics"]["unscaled_setup_s"] = statistics.median(setups)
        units = END_TO_END
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": result["metrics"][name], "unit": unit}
            for name, unit in units.items()
        },
        "diagnostics": result["diagnostics"],
        "absent": result.get("absent", []),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library sources at {SRC}", file=sys.stderr)
        return 2
    try:
        report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(f"{args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for name, metric in report["metrics"].items():
        print(f"  {name:<34} {metric['value']:>14.6g} {metric['unit']}")
    for name, value in report["diagnostics"].items():
        print(f"  ({name:<32} {value:>14.6g})")
    if report["absent"]:
        print(f"  absent spans, reported as 0: {', '.join(report['absent'])}")
    print(f"  attempted {report['attempted']}, failed {report['failed']}")
    print(json.dumps({
        key: report[key] for key in ("correct", "attempted", "failed", "metrics")
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
