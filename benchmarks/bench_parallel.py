"""Parallel edge benchmark → ``BENCH_parallel.json``.

Measures the worker-pool scaling of the shared edge trunk via
:func:`repro.experiments.scale.run_worker_scaling`: a saturating burst
of miss-path batch frames served at 1/2/4 workers, reporting makespan,
throughput, speedup over serial, the M/M/c capacity cross-check
(measured throughput over ``c / service_time`` — 1.0 when the request
count divides evenly), and the bit-identity flag the determinism story
promises.  The acceptance bar recorded here: 4-worker trunk throughput
≥ 2.5× single-worker with bit-identical predictions.

A ``worker_scaling_wall`` section repeats the sweep in measured
wall-clock mode (``mode="wall"``): now that the engine is thread-safe
and the trunk exec lock is gone, the flush really runs ``min(c,
host_cores)`` trunks concurrently, and the section records the best
timed makespan per pool size with the core-clamped M/M/c capacity
cross-check.  The wall speedup floor (≥ 2× at 4 workers) only applies
when the host has ≥ 2 cores — a 1-core box cannot beat one core's
capacity no matter how many worker threads it runs, and the record says
so explicitly instead of failing on physics.

A further section times the intra-op ``num_threads`` knob of the
blocked XNOR-popcount kernels through a real branch-engine forward
(wall clock via :mod:`repro.observability.clock`) and checks the
outputs are byte-identical at every thread count.

Standalone — run it directly, not under pytest::

    PYTHONPATH=src python benchmarks/bench_parallel.py

``REPRO_BENCH_WALL=1`` (the ``make bench-par-wall`` target) raises the
wall section's repeat count for a steadier measurement.
"""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
OUTPUT_PATH = REPO_ROOT / "BENCH_parallel.json"

WORKERS = (1, 2, 4)
REQUESTS = 16
BATCH_SIZE = 4
THREAD_COUNTS = (1, 2, 4)
FORWARD_REPEATS = 5
SEED = 0
SPEEDUP_FLOOR = 2.5
#: Acceptance floor for *measured* wall-clock speedup at max workers —
#: applies only on hosts with at least 2 cores.
WALL_SPEEDUP_FLOOR = 2.0
WALL_REPEATS = 7 if os.environ.get("REPRO_BENCH_WALL") else 3


def _build_system():
    from repro.core import LCRS, JointTrainingConfig
    from repro.data import make_dataset

    train, test = make_dataset("mnist", 600, 200, seed=7)
    system = LCRS.build(
        "lenet",
        train,
        training_config=JointTrainingConfig(
            epochs=4, batch_size=64, lr_main=2e-3, seed=0
        ),
        dataset_name="mnist",
        seed=0,
    )
    system.fit(train)
    system.calibrate(test)
    return system, test


def bench_worker_scaling(system, test) -> dict:
    from repro.experiments import WorkerScalingConfig, run_worker_scaling

    result = run_worker_scaling(
        system,
        test.images[: REQUESTS * BATCH_SIZE],
        config=WorkerScalingConfig(
            workers=WORKERS, requests=REQUESTS, batch_size=BATCH_SIZE
        ),
    )
    quad = result.point(max(WORKERS))
    record = result.as_dict()
    record["headline"] = {
        "workers": quad.workers,
        "speedup_vs_serial": quad.speedup_vs_serial,
        "bit_identical": quad.bit_identical,
        "meets_floor": quad.speedup_vs_serial >= SPEEDUP_FLOOR
        and quad.bit_identical,
        "speedup_floor": SPEEDUP_FLOOR,
    }
    return record


def bench_worker_scaling_wall(system, test) -> dict:
    """The measured wall-clock sweep — real concurrent trunks, no lock."""
    from repro.experiments import WorkerScalingConfig, run_worker_scaling

    result = run_worker_scaling(
        system,
        test.images[: REQUESTS * BATCH_SIZE],
        config=WorkerScalingConfig(
            workers=WORKERS,
            requests=REQUESTS,
            batch_size=BATCH_SIZE,
            mode="wall",
            wall_repeats=WALL_REPEATS,
        ),
    )
    quad = result.point(max(WORKERS))
    floor_applies = result.host_cores >= 2
    record = result.as_dict()
    record["headline"] = {
        "workers": quad.workers,
        "host_cores": result.host_cores,
        "effective_workers": quad.effective_workers,
        "wall_speedup_vs_serial": quad.wall_speedup_vs_serial,
        "wall_capacity_ratio": quad.wall_capacity_ratio,
        "bit_identical": quad.bit_identical,
        "speedup_floor": WALL_SPEEDUP_FLOOR,
        "floor_applies": floor_applies,
        "meets_floor": (
            quad.bit_identical
            and (
                not floor_applies
                or (quad.wall_speedup_vs_serial or 0.0) >= WALL_SPEEDUP_FLOOR
            )
        ),
        "note": (
            "floor enforced"
            if floor_applies
            else "single-core host: wall parallelism is physically capped at "
            "1x; floor not applicable, cross-check is the core-clamped "
            "capacity ratio"
        ),
    }
    return record


def bench_intra_op_threads(system, test) -> dict:
    """Wall-time the branch engine's forward across num_threads values.

    On a single-core host the wall times will not scale; the section
    exists to record that the knob never changes a bit of output and to
    document per-thread-count wall cost where cores are available.
    """
    import numpy as np

    from repro.observability.clock import now_s
    from repro.runtime import build_lcrs_assets
    from repro.wasm import WasmModel

    assets = build_lcrs_assets(system.model)
    images = test.images[:32].astype(np.float32)
    stem = WasmModel.load(assets.stem_payload)
    features = stem.forward(images)

    baseline = None
    points = []
    for threads in THREAD_COUNTS:
        engine = WasmModel.load(assets.branch_payload, num_threads=threads)
        out = engine.forward(features)  # warm caches before timing
        best = float("inf")
        for _ in range(FORWARD_REPEATS):
            t0 = now_s()
            out = engine.forward(features)
            best = min(best, now_s() - t0)
        if baseline is None:
            baseline = out
        points.append(
            {
                "num_threads": threads,
                "forward_wall_ms": best * 1e3,
                "bit_identical": out.tobytes() == baseline.tobytes(),
            }
        )
    return {"samples": len(images), "points": points}


def main() -> None:
    system, test = _build_system()
    scaling = bench_worker_scaling(system, test)
    wall = bench_worker_scaling_wall(system, test)
    record = {
        "benchmark": "parallel",
        "clock": "sim",
        "config": {
            "workers": list(WORKERS),
            "requests": REQUESTS,
            "batch_size": BATCH_SIZE,
            "thread_counts": list(THREAD_COUNTS),
            "wall_repeats": WALL_REPEATS,
            "seed": SEED,
        },
        "platform": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "results": {
            "worker_scaling": scaling,
            "worker_scaling_wall": wall,
            "intra_op_threads": bench_intra_op_threads(system, test),
        },
    }
    OUTPUT_PATH.write_text(json.dumps(record, indent=2) + "\n")
    headline = scaling["headline"]
    wall_headline = wall["headline"]
    print(f"wrote {OUTPUT_PATH}")
    print(
        f"headline: {headline['speedup_vs_serial']:.2f}x trunk throughput at "
        f"{headline['workers']} workers "
        f"(bit_identical={headline['bit_identical']}, "
        f"floor {SPEEDUP_FLOOR}x met={headline['meets_floor']})"
    )
    print(
        f"wall: {wall_headline['wall_speedup_vs_serial']:.2f}x measured at "
        f"{wall_headline['workers']} workers on {wall_headline['host_cores']} "
        f"core(s) (capacity_ratio="
        f"{wall_headline['wall_capacity_ratio']:.2f}, "
        f"{wall_headline['note']})"
    )
    if not headline["meets_floor"]:
        raise SystemExit("parallel speedup floor not met")
    if not wall_headline["meets_floor"]:
        raise SystemExit("wall-clock parallel speedup floor not met")


if __name__ == "__main__":
    import sys

    sys.path.insert(0, str(REPO_ROOT / "src"))
    main()
