"""Kernel and serving-path micro-benchmarks → ``BENCH_kernels.json``.

Measures the two layers of the batched inference engine:

1. **Kernel** — blocked XNOR-popcount ``packed_dot`` GOPS (binary ops/s,
   counting each ±1 multiply-accumulate as 2 ops) on branch-conv-shaped
   operands, against a naive unblocked broadcast kernel (the pre-blocking
   implementation) whose temp memory grows as ``p·q·bytes``.
2. **Session** — end-to-end ``LCRSDeployment.run_session`` throughput on
   a calibrated LeNet system: the per-sample loop vs the batched path at
   batch 64 (one stem/branch pass per chunk, misses in one protocol
   frame).

Standalone — run it directly, not under pytest::

    PYTHONPATH=src python benchmarks/bench_kernels.py

Results land in ``BENCH_kernels.json`` at the repo root so later PRs
have a perf baseline to compare against.  Wall-clock numbers are
machine-dependent; the JSON records shapes and block sizes so runs are
comparable like-for-like.
"""

from __future__ import annotations

import json
import platform
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[1]
OUTPUT_PATH = REPO_ROOT / "BENCH_kernels.json"

SESSION_BATCH = 64
SESSION_REPEATS = 3
KERNEL_REPEATS = 5


def _best_seconds(fn, repeats: int) -> float:
    """Best-of-N wall time; best is the standard micro-bench estimator."""
    from repro.observability.clock import now_s

    best = float("inf")
    for _ in range(repeats):
        t0 = now_s()
        fn()
        best = min(best, now_s() - t0)
    return best


def naive_packed_dot(va, vb, mask=None, length=None):
    """The pre-blocking broadcast kernel, kept here as the comparison
    baseline: allocates the full (p, q, bytes) XOR temp in one go."""
    xor = np.bitwise_xor(va[:, None, :], vb[None, :, :])
    if mask is not None:
        mismatches = np.bitwise_count(np.bitwise_and(xor, mask[:, None, :])).sum(
            axis=2, dtype=np.int64
        )
        valid = np.bitwise_count(mask).sum(axis=1, dtype=np.int64)[:, None]
        return (valid - 2 * mismatches).astype(np.float32)
    mismatches = np.bitwise_count(xor).sum(axis=2, dtype=np.int64)
    return (length - 2 * mismatches).astype(np.float32)


def bench_kernel() -> dict:
    """GOPS of the blocked kernel vs the naive broadcast kernel."""
    from repro.wasm.bitpack import DEFAULT_BLOCK_BYTES, last_dot_stats, packed_dot

    # Branch-conv-shaped operands: p = batch·OH·OW im2col rows of
    # c·k·k = 1152 bits, q = 128 binary filters.
    p, q, bits = 64 * 14 * 14, 128, 128 * 3 * 3
    rng = np.random.default_rng(0)
    va = rng.integers(0, 256, size=(p, (bits + 7) // 8), dtype=np.uint8)
    vb = rng.integers(0, 256, size=(q, (bits + 7) // 8), dtype=np.uint8)
    binary_ops = 2.0 * p * q * bits

    blocked_s = _best_seconds(
        lambda: packed_dot(va, vb, length=bits), KERNEL_REPEATS
    )
    packed_dot(va, vb, length=bits)  # refresh stats for the record below
    stats = last_dot_stats()
    naive_s = _best_seconds(lambda: naive_packed_dot(va, vb, length=bits), 2)
    naive_temp = p * q * va.shape[1]  # the (p, q, bytes) XOR broadcast

    np.testing.assert_array_equal(
        packed_dot(va, vb, length=bits), naive_packed_dot(va, vb, length=bits)
    )

    return {
        "shape": {"p": p, "q": q, "bits": bits},
        "block_bytes": DEFAULT_BLOCK_BYTES,
        "blocked": {
            "seconds": blocked_s,
            "gops": binary_ops / blocked_s / 1e9,
            "peak_temp_bytes": stats.peak_temp_bytes,
            "tiles": stats.tile_count,
        },
        "naive_broadcast": {
            "seconds": naive_s,
            "gops": binary_ops / naive_s / 1e9,
            "peak_temp_bytes": naive_temp,
        },
        "speedup": naive_s / blocked_s,
        "temp_memory_ratio": naive_temp / stats.peak_temp_bytes,
    }


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


def bench_session() -> dict:
    """Batched vs per-sample run_session throughput (samples/s).

    Both cells pin ``compile_plan=False`` so this stays the pure
    *interpreter* baseline; the compiled-plan speedup over it is
    measured separately by ``benchmarks/bench_plan.py``.
    """
    from repro.runtime import LCRSDeployment, SessionConfig, four_g

    system, test = _build_system()
    deployment = LCRSDeployment(system, four_g(seed=0).deterministic())
    images = test.images[:SESSION_BATCH]
    scalar_cfg = SessionConfig(compile_plan=False)
    batched_cfg = SessionConfig(batch_size=SESSION_BATCH, compile_plan=False)

    # Warm both paths (first call pays page-load setup bookkeeping and
    # any lazy numpy initialisation).
    deployment.run_session(images[:8], config=scalar_cfg)
    deployment.run_session(images[:8], config=SessionConfig(batch_size=8, compile_plan=False))

    scalar_s = _best_seconds(
        lambda: deployment.run_session(images, config=scalar_cfg), SESSION_REPEATS
    )
    batched_s = _best_seconds(
        lambda: deployment.run_session(images, config=batched_cfg),
        SESSION_REPEATS,
    )

    scalar = deployment.run_session(images, config=scalar_cfg)
    batched = deployment.run_session(images, config=batched_cfg)
    assert (scalar.predictions == batched.predictions).all(), "paths disagree"

    return {
        "network": "lenet",
        "num_samples": SESSION_BATCH,
        "batch_size": SESSION_BATCH,
        "exit_rate": scalar.exit_rate,
        "per_sample": {
            "seconds": scalar_s,
            "samples_per_s": SESSION_BATCH / scalar_s,
        },
        "batched": {
            "seconds": batched_s,
            "samples_per_s": SESSION_BATCH / batched_s,
        },
        "speedup": scalar_s / batched_s,
    }


def main() -> dict:
    results = {
        "benchmark": "bench_kernels",
        "clock": "wall",
        "platform": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "kernel_packed_dot": bench_kernel(),
        "session_throughput": bench_session(),
    }
    OUTPUT_PATH.write_text(json.dumps(results, indent=2) + "\n")

    kernel = results["kernel_packed_dot"]
    session = results["session_throughput"]
    print(f"wrote {OUTPUT_PATH}")
    print(
        f"packed_dot: blocked {kernel['blocked']['gops']:.1f} GOPS "
        f"(peak temp {kernel['blocked']['peak_temp_bytes'] / 1e6:.1f} MB) vs "
        f"naive {kernel['naive_broadcast']['gops']:.1f} GOPS "
        f"(temp {kernel['naive_broadcast']['peak_temp_bytes'] / 1e6:.1f} MB) — "
        f"{kernel['speedup']:.2f}x faster, "
        f"{kernel['temp_memory_ratio']:.0f}x less temp memory"
    )
    print(
        f"run_session (LeNet, {session['num_samples']} samples): "
        f"per-sample {session['per_sample']['samples_per_s']:.1f} samples/s, "
        f"batched (batch {session['batch_size']}) "
        f"{session['batched']['samples_per_s']:.1f} samples/s — "
        f"{session['speedup']:.2f}x"
    )
    return results


if __name__ == "__main__":
    main()
