"""Parallel edge benchmark → ``BENCH_parallel.json``.

Records the simulated c-worker model of the shared edge trunk via
:func:`repro.experiments.scale.run_worker_scaling`: a saturating burst
of miss-path batch frames served at 1/2/4 simulated workers, reporting
makespan, throughput, speedup over serial, the M/M/c capacity
cross-check (throughput over ``c / service_time`` — 1.0 when the
request count divides evenly), and the bit-identity flag the
determinism story promises.  The c workers are a model: every batch
runs on the caller's thread, so the 4-worker speedup recorded here
(floor 2.5×, with bit-identical predictions) is a model identity of the
simulated clock, never a wall-clock measurement.

Standalone — run it directly, not under pytest::

    PYTHONPATH=src python benchmarks/bench_parallel.py
"""

from __future__ import annotations

import json
import platform
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
OUTPUT_PATH = REPO_ROOT / "BENCH_parallel.json"

WORKERS = (1, 2, 4)
REQUESTS = 16
BATCH_SIZE = 4
SEED = 0
SPEEDUP_FLOOR = 2.5


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


def main() -> None:
    system, test = _build_system()
    scaling = bench_worker_scaling(system, test)
    record = {
        "benchmark": "parallel",
        "clock": "sim",
        "config": {
            "workers": list(WORKERS),
            "requests": REQUESTS,
            "batch_size": BATCH_SIZE,
            "seed": SEED,
        },
        "platform": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "results": {"worker_scaling": scaling},
    }
    OUTPUT_PATH.write_text(json.dumps(record, indent=2) + "\n")
    headline = scaling["headline"]
    print(f"wrote {OUTPUT_PATH}")
    print(
        f"headline: {headline['speedup_vs_serial']:.2f}x simulated trunk "
        f"capacity at {headline['workers']} workers "
        f"(bit_identical={headline['bit_identical']}, "
        f"floor {SPEEDUP_FLOOR}x met={headline['meets_floor']})"
    )
    if not headline["meets_floor"]:
        raise SystemExit("parallel speedup floor not met")


if __name__ == "__main__":
    import sys

    sys.path.insert(0, str(REPO_ROOT / "src"))
    main()
