"""Compiled-plan vs interpreter serving benchmark → ``BENCH_plan.json``.

Measures what ``SessionConfig.compile_plan`` buys on the batched serving
path: the same calibrated LeNet deployment runs the same 64-image
session through the interpreter (``compile_plan=False``) and through
the trace-compiled fused plans (``compile_plan=True``), interleaved
A/B so machine noise hits both cells alike.  The reported speedup is
the *median of pairwise ratios* — the only estimator that stays stable
on shared hardware — and ``bit_identical`` asserts the two paths
returned exactly the same predictions, entropies, and serving sources.

Also recorded: the per-fused-step wall times of the stem/branch plans
(where the compiled time goes) with the kernel variant serving each
native record, and the edge trunk's module-vs-plan batch time.

Standalone — run it directly, not under pytest::

    PYTHONPATH=src python benchmarks/bench_plan.py

Results land in ``BENCH_plan.json`` at the repo root.  The acceptance
bar for the plan compiler is a ≥3x single-thread batched-session
speedup over the interpreter cell measured in the same run.
"""

from __future__ import annotations

import json
import platform
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[1]
OUTPUT_PATH = REPO_ROOT / "BENCH_plan.json"

SESSION_BATCH = 64
AB_PAIRS = 15
TRUNK_REPEATS = 30


def _now_s():
    from repro.observability.clock import now_s

    return now_s()


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


def bench_plan_session() -> dict:
    from repro.runtime import LCRSDeployment, SessionConfig, four_g
    from repro.wasm import profile_plan

    system, test = _build_system()
    deployment = LCRSDeployment(system, four_g(seed=0).deterministic())
    images = test.images[:SESSION_BATCH]
    interp_cfg = SessionConfig(batch_size=SESSION_BATCH, compile_plan=False)
    plan_cfg = SessionConfig(batch_size=SESSION_BATCH, compile_plan=True)

    # Warm both cells: page-load bookkeeping, lazy numpy init, and — for
    # the plan cell — kernel build + plan compilation + verification.
    interp_warm = deployment.run_session(images, config=interp_cfg)
    plan_warm = deployment.run_session(images, config=plan_cfg)
    bit_identical = bool(
        (interp_warm.predictions == plan_warm.predictions).all()
        and [o.entropy for o in interp_warm.outcomes]
        == [o.entropy for o in plan_warm.outcomes]
        and [o.served_by for o in interp_warm.outcomes]
        == [o.served_by for o in plan_warm.outcomes]
    )

    interp_s, plan_s = [], []
    for _ in range(AB_PAIRS):
        t0 = _now_s()
        deployment.run_session(images, config=interp_cfg)
        interp_s.append(_now_s() - t0)
        t0 = _now_s()
        deployment.run_session(images, config=plan_cfg)
        plan_s.append(_now_s() - t0)
    interp_med = float(np.median(interp_s))
    plan_med = float(np.median(plan_s))
    speedup = float(np.median([a / b for a, b in zip(interp_s, plan_s)]))

    # Per-fused-step attribution: replay each plan once on its own
    # tracer and record where the compiled time goes.
    stem_out, stem_plan = profile_plan(
        deployment.browser.stem_engine.plan_for(SESSION_BATCH), images
    )
    _, branch_plan = profile_plan(
        deployment.browser.branch_engine.plan_for(SESSION_BATCH), stem_out
    )

    return {
        "network": "lenet",
        "num_samples": SESSION_BATCH,
        "batch_size": SESSION_BATCH,
        "ab_pairs": AB_PAIRS,
        "exit_rate": plan_warm.exit_rate,
        "bit_identical": bit_identical,
        "interpreter": {
            "seconds_median": interp_med,
            "samples_per_s": SESSION_BATCH / interp_med,
        },
        "plan": {
            "seconds_median": plan_med,
            "samples_per_s": SESSION_BATCH / plan_med,
        },
        "speedup": speedup,
        "stem_plan": stem_plan,
        "branch_plan": branch_plan,
        "trunk": bench_trunk(system, images),
    }


def bench_trunk(system, images) -> dict:
    """Edge trunk: module path vs the compiled trunk plan, same batch.

    The plan must equal the trunk's interpreter engine bit for bit; the
    framework module differs from both within ``validate_bundle``'s
    tolerance (``max_abs_vs_module``).
    """
    from repro.nn.autograd import Tensor, no_grad
    from repro.wasm import compile_wasm_plan, load_trunk_engine, profile_plan

    model = system.model
    model.eval()
    with no_grad():
        features = model.stem(Tensor(images)).data.astype(np.float32)
    engine = load_trunk_engine(model.main_trunk, tuple(features.shape[1:]))
    plan = compile_wasm_plan(engine, len(features))

    out = plan.execute(features)
    with no_grad():
        reference = model.main_trunk(Tensor(features)).data
    bit_identical = bool(np.array_equal(out, engine.forward(features)))

    module_s, plan_s = [], []
    for _ in range(TRUNK_REPEATS):
        t0 = _now_s()
        with no_grad():
            model.main_trunk(Tensor(features))
        module_s.append(_now_s() - t0)
        t0 = _now_s()
        plan.execute(features)
        plan_s.append(_now_s() - t0)
    return {
        "batch_size": len(features),
        "bit_identical": bit_identical,
        "max_abs_vs_module": float(np.max(np.abs(out - reference))),
        "module_ms_median": float(np.median(module_s)) * 1e3,
        "plan_ms_median": float(np.median(plan_s)) * 1e3,
        "speedup": float(np.median([a / b for a, b in zip(module_s, plan_s)])),
        "plan_steps": profile_plan(plan, features)[1]["steps"],
    }


def main() -> dict:
    from repro.wasm import backend_available, backend_error
    from repro.wasm.plan_compile import host_isa

    if not backend_available():
        raise SystemExit(f"C kernel backend unavailable: {backend_error()}")

    results = {
        "benchmark": "bench_plan",
        # Every number below is measured wall time, not a simulated clock.
        "clock": "wall",
        "platform": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "plan_kernel_isa": host_isa(),
        },
        "session": bench_plan_session(),
    }
    OUTPUT_PATH.write_text(json.dumps(results, indent=2) + "\n")

    s = results["session"]
    print(f"wrote {OUTPUT_PATH}")
    print(
        f"run_session (LeNet, batch {s['batch_size']}): "
        f"interpreter {s['interpreter']['samples_per_s']:.1f} samples/s, "
        f"compiled plans {s['plan']['samples_per_s']:.1f} samples/s — "
        f"{s['speedup']:.2f}x, bit_identical={s['bit_identical']}"
    )
    t = s["trunk"]
    print(
        f"edge trunk (batch {t['batch_size']}): "
        f"module {t['module_ms_median']:.2f}ms vs plan {t['plan_ms_median']:.2f}ms — "
        f"{t['speedup']:.2f}x, bit_identical={t['bit_identical']}"
    )
    return results


if __name__ == "__main__":
    main()
