"""Smoke test of the end-to-end benchmark; tier-1 does not collect it.

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_smoke.py -q

Runs ``run.py --smoke`` twice with one seed on ``edge-miss`` and
``fleet-faults``, untraced and traced.  Every metric ``BENCHMARK.json``
names must appear with its unit, and the metrics that are functions of
the seed's frames alone (simulated times, counts, accuracy) must repeat
exactly.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = ("edge-miss", "fleet-faults")
#: Metrics that no clock moves.
REPEATABLE = {
    "accuracy",
    "gate.exit_share",
    "edge.trunk.rows_per_call",
    "sched.queue_wait_ms_p50",
    "transport.attempts_per_miss",
    "transport.retry_share",
    "codec.wire_bytes_per_miss",
    "wasm.plan_cache_hit_ratio",
    "request.count",
    "failed_share",
    "sim_frame_ms_p50",
    "sim_frame_ms_p99",
} | {m["name"] for m in SPEC["per_layer"] if m["name"].endswith(".calls")}


def _smoke() -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "3"]
    for name in WORKLOADS:
        cmd += ["--workload", name]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def runs():
    return _smoke(), _smoke()


def test_every_metric_reported_with_its_unit(runs):
    for result in runs:
        assert result["correct"] and result["failed"] == 0
        for workload in WORKLOADS:
            for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
                got = result["metrics"][f"{workload}/{metric['name']}"]
                assert got["unit"] == metric["unit"], (workload, metric["name"])


def test_repeatable_metrics_identical_across_runs(runs):
    first, second = runs
    for workload in WORKLOADS:
        for name in REPEATABLE:
            key = f"{workload}/{name}"
            assert first["metrics"][key] == second["metrics"][key], key
