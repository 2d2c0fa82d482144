"""Closed-loop adaptive-τ benchmark → ``BENCH_adaptive.json``.

Drives :func:`repro.experiments.run_adaptive_tau`: an arrival-rate
sweep where every session replays the same overload→drain entropy
stream against a one-shard fleet, once open-loop (the static calibrated
τ) and once closed-loop (the :class:`~repro.runtime.tau_control
.TauController` relief valve over the shard's windowed p99 queue wait),
with a 3-base ABC-Net branch so the controller also has an accuracy
tier to spend.

Headline (the committed performance contract, see
``benchmarks/bench_check.py``): at the heaviest arrival rate the static
fleet must shed at least 10% of its edge admission attempts while the
closed loop sheds none, holds the p99 queue wait, and gives up only a
bounded slice of accuracy for it.

Standalone — run it directly, not under pytest::

    PYTHONPATH=src python benchmarks/bench_tau.py

Results land in ``BENCH_adaptive.json`` at the repo root.  Fleet time
is *simulated* (deterministic for the fixed seed); only the platform
section is machine-dependent.
"""

from __future__ import annotations

import json
import platform
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
OUTPUT_PATH = REPO_ROOT / "BENCH_adaptive.json"

SESSION_LEVELS = (2, 4, 8)
ROUNDS = 12
BATCH_SIZE = 4
NUM_BASES = 3
QUEUE_CAPACITY = 24
NUM_WORKERS = 1
SEED = 0


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


def bench_tau() -> dict:
    from repro.experiments import run_adaptive_tau

    system, test = _build_system()
    sweep = run_adaptive_tau(
        system,
        test.images,
        test.labels,
        session_levels=SESSION_LEVELS,
        rounds=ROUNDS,
        batch_size=BATCH_SIZE,
        num_bases=NUM_BASES,
        queue_capacity=QUEUE_CAPACITY,
        num_workers=NUM_WORKERS,
        seed=SEED,
    )
    head = sweep.headline
    wait_relief = (
        head["static_p99_wait_ms"] / head["closed_p99_wait_ms"]
        if head["closed_p99_wait_ms"] > 0
        else float("inf")
    )
    return {
        "sweep": sweep.as_dict(),
        "headline_shed_margin": head["static_shed_rate"] - head["closed_shed_rate"],
        "checks": {
            "static_shed_rate": head["static_shed_rate"],
            "closed_shed_rate": head["closed_shed_rate"],
            "wait_relief": wait_relief,
            "accuracy_retained": (
                head["closed_accuracy"] / head["static_accuracy"]
                if head.get("static_accuracy")
                else None
            ),
            "tau_adjustments": head["tau_adjustments"],
        },
    }


def main() -> None:
    record = {
        "benchmark": "adaptive_tau",
        "clock": "sim",
        "config": {
            "session_levels": list(SESSION_LEVELS),
            "rounds": ROUNDS,
            "batch_size": BATCH_SIZE,
            "num_bases": NUM_BASES,
            "queue_capacity": QUEUE_CAPACITY,
            "num_workers": NUM_WORKERS,
            "seed": SEED,
        },
        "platform": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "results": bench_tau(),
    }
    OUTPUT_PATH.write_text(json.dumps(record, indent=2) + "\n")
    checks = record["results"]["checks"]
    print(f"wrote {OUTPUT_PATH}")
    print(
        f"headline: static sheds {100 * checks['static_shed_rate']:.1f}% of "
        f"admission attempts at peak load, closed loop sheds "
        f"{100 * checks['closed_shed_rate']:.1f}%; p99 queue wait relieved "
        f"{checks['wait_relief']:.1f}x; accuracy retained "
        f"{100 * (checks['accuracy_retained'] or 0):.1f}%"
    )


if __name__ == "__main__":
    import sys

    sys.path.insert(0, str(REPO_ROOT / "src"))
    main()
