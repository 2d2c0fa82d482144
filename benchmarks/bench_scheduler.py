"""Multi-session scheduler benchmark → ``BENCH_scheduler.json``.

Runs the concurrency sweep of
:func:`repro.experiments.scale.run_concurrency` — N concurrent
deployments feeding one shared :class:`~repro.runtime.scheduler.EdgeScheduler`
— and records, per (users × batching window) operating point, the edge's
batched-serving throughput, dynamic-batch histogram, queueing delay
(simulated vs the analytic M/M/1 cross-check), shed rate, and fallback
rate.  The headline number is the throughput speedup of dynamic batching
over per-request serving at the highest user count.

Also calibrates the affine service-time model from measured trunk
timings (:func:`repro.runtime.concurrency.measure_service_model`) and
records it next to the FLOPs-only analytic model, so the simulated
clock's inputs are auditable.

Standalone — run it directly, not under pytest::

    PYTHONPATH=src python benchmarks/bench_scheduler.py

Results land in ``BENCH_scheduler.json`` at the repo root.  Scheduler
time is *simulated* (deterministic for the fixed seed); only the
calibration section is machine-dependent wall-clock.
"""

from __future__ import annotations

import json
import platform
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
OUTPUT_PATH = REPO_ROOT / "BENCH_scheduler.json"

USERS = (1, 4, 16)
WINDOWS_MS = (0.0, 2.0, 4.0, 8.0)
MAX_BATCH = 32
SESSION_BATCH = 1
FRAMES_PER_USER = 32
SEED = 0
# The calibrated gate answers nearly every synthetic-MNIST frame on the
# browser, which would starve the edge of traffic; tightening τ forces a
# realistic miss stream so the benchmark measures the *scheduler*, not
# the exit gate.
THRESHOLD = 0.01


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


def bench_scheduler() -> dict:
    from repro.experiments import ConcurrencySweepConfig, run_concurrency
    from repro.runtime import SessionConfig, ServiceTimeModel, measure_service_model
    from repro.profiling import NetworkProfile

    system, test = _build_system()

    analytic = ServiceTimeModel.from_profile(
        NetworkProfile.of(system.model.main_trunk, system.model.stem_output_shape)
    )
    measured = measure_service_model(
        system.model.main_trunk, system.model.stem_output_shape, seed=SEED
    )

    result = run_concurrency(
        system,
        test.images[:FRAMES_PER_USER],
        config=ConcurrencySweepConfig(
            users=USERS,
            windows_ms=WINDOWS_MS,
            max_batch_size=MAX_BATCH,
            session_config=SessionConfig(batch_size=SESSION_BATCH, threshold=THRESHOLD),
            seed=SEED,
        ),
    )
    top_users = max(USERS)
    top_window = max(WINDOWS_MS)
    return {
        "service_model": {
            "analytic": {
                "base_ms": analytic.base_ms,
                "per_sample_ms": analytic.per_sample_ms,
            },
            "measured": {
                "base_ms": measured.base_ms,
                "per_sample_ms": measured.per_sample_ms,
            },
        },
        "sweep": result.as_dict(),
        "speedup_vs_per_request": {
            f"users={u},window={w}": result.speedup(u, w, MAX_BATCH)
            for u in USERS
            for w in WINDOWS_MS
        },
        "headline_speedup": result.speedup(top_users, top_window, MAX_BATCH),
    }


def main() -> None:
    record = {
        "benchmark": "scheduler",
        "clock": "sim",
        "config": {
            "users": list(USERS),
            "windows_ms": list(WINDOWS_MS),
            "max_batch_size": MAX_BATCH,
            "session_batch": SESSION_BATCH,
            "frames_per_user": FRAMES_PER_USER,
            "threshold": THRESHOLD,
            "seed": SEED,
        },
        "platform": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "results": bench_scheduler(),
    }
    OUTPUT_PATH.write_text(json.dumps(record, indent=2) + "\n")
    headline = record["results"]["headline_speedup"]
    print(f"wrote {OUTPUT_PATH}")
    print(f"headline: {headline:.2f}x batched vs per-request at {max(USERS)} users")


if __name__ == "__main__":
    import sys

    sys.path.insert(0, str(REPO_ROOT / "src"))
    main()
