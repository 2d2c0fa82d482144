"""Multi-edge fleet benchmark → ``BENCH_fleet.json``.

Three artifacts from :mod:`repro.experiments.fleet`:

* **Capacity sweep** — a saturating miss burst over 1/2/4 shards, each
  point cross-checked per shard against its M/M/c capacity and for the
  fleet against the M/M/c·N bound; the single-shard point additionally
  verified bit-identical to a bare :class:`EdgeScheduler`.  Headline:
  the fleet speedup at 4 shards (must be ≥3× on this workload).
* **Partition drill** — live concurrent sessions with one shard
  partitioned mid-run; every sample must still be answered (re-routes
  and binary fallbacks counted, never an error).
* **Planning table** — users servable at p99 queueing ≤ target per
  shard count, from the analytic M/M/c wait quantile.

Standalone — run it directly, not under pytest::

    PYTHONPATH=src python benchmarks/bench_fleet.py

Results land in ``BENCH_fleet.json`` at the repo root.  Fleet time is
*simulated* (deterministic for the fixed seed); only the platform
section is machine-dependent.
"""

from __future__ import annotations

import json
import platform
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
OUTPUT_PATH = REPO_ROOT / "BENCH_fleet.json"

SHARD_COUNTS = (1, 2, 4)
REQUESTS = 48
BATCH_SIZE = 4
WORKERS_PER_SHARD = 1
PARTITION_SESSIONS = 4
PARTITION_FRAMES = 16
P99_TARGETS_MS = (10.0, 25.0, 50.0)
SEED = 0
# The calibrated gate answers nearly every synthetic-MNIST frame on the
# browser; tightening τ in the drill's SessionConfig forces a realistic
# miss stream so the partition exercises the *fleet*, not the exit gate.
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


def bench_fleet() -> dict:
    from repro.experiments import (
        capacity_planning_table,
        run_fleet_capacity,
        run_fleet_partition,
    )
    from repro.profiling import NetworkProfile
    from repro.runtime import ServiceTimeModel, SessionConfig

    system, test = _build_system()

    capacity = run_fleet_capacity(
        system,
        test.images,
        shard_counts=SHARD_COUNTS,
        requests=REQUESTS,
        batch_size=BATCH_SIZE,
        workers_per_shard=WORKERS_PER_SHARD,
    )
    top = capacity.point(max(SHARD_COUNTS))

    drill = run_fleet_partition(
        system,
        test.images[:PARTITION_FRAMES],
        sessions=PARTITION_SESSIONS,
        session_config=SessionConfig(batch_size=4, threshold=THRESHOLD),
        seed=SEED,
    )

    service_model = ServiceTimeModel.from_profile(
        NetworkProfile.of(system.model.main_trunk, system.model.stem_output_shape)
    )
    planning = capacity_planning_table(
        service_model,
        shard_counts=SHARD_COUNTS,
        p99_targets_ms=P99_TARGETS_MS,
        workers_per_shard=WORKERS_PER_SHARD,
        batch_size=BATCH_SIZE,
    )

    return {
        "capacity": capacity.as_dict(),
        "partition": drill.as_dict(),
        "planning": [row.as_dict() for row in planning],
        "headline_speedup": top.speedup_vs_single,
        "checks": {
            "single_shard_bit_identical": capacity.point(1).bit_identical_to_bare,
            "worst_shard_vs_mmc": min(
                p.per_shard_capacity_ratio for p in capacity.points
            ),
            "fleet_vs_mmc_n": min(p.fleet_capacity_ratio for p in capacity.points),
            "speedup_1_to_4": top.speedup_vs_single,
            "partition_all_served": drill.all_samples_served,
            "partition_tickets_lost": drill.tickets_lost,
        },
    }


def main() -> None:
    record = {
        "benchmark": "fleet",
        "clock": "sim",
        "config": {
            "shard_counts": list(SHARD_COUNTS),
            "requests": REQUESTS,
            "batch_size": BATCH_SIZE,
            "workers_per_shard": WORKERS_PER_SHARD,
            "partition_sessions": PARTITION_SESSIONS,
            "partition_frames": PARTITION_FRAMES,
            "p99_targets_ms": list(P99_TARGETS_MS),
            "threshold": THRESHOLD,
            "seed": SEED,
        },
        "platform": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "results": bench_fleet(),
    }
    OUTPUT_PATH.write_text(json.dumps(record, indent=2) + "\n")
    checks = record["results"]["checks"]
    print(f"wrote {OUTPUT_PATH}")
    print(
        f"headline: {checks['speedup_1_to_4']:.2f}x fleet capacity at "
        f"{max(SHARD_COUNTS)} shards; worst shard at "
        f"{checks['worst_shard_vs_mmc']:.2f} of its M/M/c capacity; "
        f"partition drill all_served={checks['partition_all_served']}"
    )


if __name__ == "__main__":
    import sys

    sys.path.insert(0, str(REPO_ROOT / "src"))
    main()
