"""Smoke tests of the benchmark itself.

    python -m pytest perfbench -q

A one-second run of every workload in both modes must emit every metric that
``BENCHMARK.json`` names; a corrupted served answer must count as failed; a
span that disappears must be reported, not crash the extraction; and the
command must refuse to run where the library's sources are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from layers import LAYERS, call_layers
from common import WORKLOADS
from run import END_TO_END

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=180,
    )


def test_benchmark_json_matches_the_code():
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == END_TO_END
    assert {
        m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]
    } == {name: (unit, better) for name, (unit, better, _moves) in LAYERS.items()}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    section = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_corrupted_served_answer_counts_as_failed():
    import numpy as np

    from common import FAST_PATH
    from loadgen import D, G, check_served
    from repro.api import RunConfig, Session

    session = Session(RunConfig(**FAST_PATH))
    rng = np.random.default_rng(3)
    pis = [(("fresh", i), rng.permutation(D * G)) for i in range(5)]
    answers = [
        {"ok": True, "metrics": session.route(pi, d=D, g=G).to_dict()}
        for _key, pi in pis
    ]
    answers[1]["metrics"]["lower_bound"] += 1
    answers[2] = {"ok": False, "error": {"code": "queue-full", "message": ""}}
    answers[3] = None
    assert check_served(session, pis, answers) == [True, False, False, False, True]


def _span(span_id, parent, name, dur, **attrs):
    return {"name": name, "span_id": span_id, "parent_id": parent, "tid": 0,
            "ts_ns": 0, "dur_ns": dur, "attrs": attrs}


def test_missing_spans_are_absent_and_time_stays_accounted():
    # metrics.bounds was "deleted": its time lands in unattributed_ms.
    spans = [
        _span(3, 2, "route.plan", 4_000_000),
        _span(2, 1, "route.compile", 5_000_000),
        _span(4, 1, "renamed.stage", 3_000_000),
        _span(1, 0, "session.route", 9_000_000),
        _span(0, None, "bench.call", 10_000_000, shape=None),
        _span(5, None, "orphan", 1_000_000),
    ]
    groups = call_layers(spans)
    group = groups[None]
    assert group["calls"] == 1
    assert group["route.plan_ms"] == pytest.approx(5.0)
    assert group["metrics.bounds_ms"] == 0.0
    assert group["unattributed_ms"] == pytest.approx(5.0)
    assert "metrics.bounds_ms" not in group["spans_seen"]
    assert group["per_element_calls"] == 1


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("batch-mixed", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
