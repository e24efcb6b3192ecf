"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/steadiness.py --seeds 101-110 --seconds 20 \\
        [--workloads serve-hot] [--out perfbench/results/x.json]

Runs ``perfbench/run.py --trace 0`` once per seed and workload, one after the
other, and prints per end-to-end metric the median and the spread: the
distance between the first and third quartile (``statistics.quantiles`` with
``n=4``) as a share of the median; also for the unscaled times and the
host's slowness that the report prints.  Run it from the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

DIAGNOSTIC = re.compile(r"^\s+\(((?:unscaled_|host_)\w+)\s+(\S+)\)$")


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def spread(values: list[float]) -> tuple[float, float]:
    """(median, IQR as a share of the median)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, (q3 - q1) / median


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(HERE))
    from common import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="e.g. 101-110")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--out", default=None, help="write the values as JSON here")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {
        "seconds": args.seconds,
        "seeds": seeds,
        "host": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "machine": platform.machine(),
        },
        "workloads": {},
    }
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} failed", file=sys.stderr)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            # The unscaled times and the host's slowness, from the report lines.
            for line in proc.stdout.splitlines():
                match = DIAGNOSTIC.match(line)
                if match:
                    values.setdefault(match[1], []).append(float(match[2]))
        summary = {}
        for name, series in values.items():
            median, share = spread(series)
            summary[name] = {"values": series, "median": median, "spread": share}
            print(
                f"{workload:<15} {name:<24} median {median:>11.5g} "
                f"spread {share:6.3f} (bound {bounds.get(name, float('nan')):.2f})",
                flush=True,
            )
        report["workloads"][workload] = summary
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
