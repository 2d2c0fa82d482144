#!/usr/bin/env python
"""Tour of the production extensions built around the paper's core.

1. **Checkpointing** — persist a trained system and restore it byte-exact.
2. **Feature codecs** — quantize the miss-path conv1 upload (fp32→int8).
3. **Edge concurrency** — how the exit rate multiplies per-box capacity.
4. **Energy** — the browser's battery bill per scan, per approach.
5. **Adaptive τ** — exit-threshold control on a degrading 4G link.

Run:  python examples/extensions_tour.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro.core import (
    LCRS,
    JointTrainingConfig,
    branch_entropies,
    load_system,
    save_system,
)
from repro.data import make_dataset
from repro.experiments import DEFAULT_EXIT_RATES, build_network_assets, build_plans
from repro.runtime import (
    FEATURE_CODECS,
    LCRSDeployment,
    TauControlConfig,
    TauController,
    edge_load_curve,
    expected_sample_energy,
    four_g,
    max_sustainable_users,
)


def main() -> None:
    print("== setup: one trained LeNet system ==")
    train, test = make_dataset("mnist", 1000, 300, seed=4)
    system = LCRS.build(
        "lenet",
        train,
        training_config=JointTrainingConfig(epochs=5, lr_main=2e-3, seed=4),
        dataset_name="mnist",
        seed=4,
    )
    system.fit(train)
    system.calibrate(test)
    main_acc, binary_acc = system.trainer.evaluate(test)
    print(f"main={main_acc:.3f} binary={binary_acc:.3f} tau={system.threshold:.4f}")

    print("\n== 1. checkpoint round trip ==")
    with tempfile.TemporaryDirectory() as tmp:
        path = save_system(system, Path(tmp) / "lenet.npz")
        restored = load_system(path)
        a = system.predictor().predict(test.images[:50]).predictions
        b = restored.predictor().predict(test.images[:50]).predictions
        print(
            f"checkpoint: {path.stat().st_size / 1024:.0f}KB on disk, "
            f"predictions identical: {bool((a == b).all())}"
        )

    print("\n== 2. feature codecs on the miss path ==")
    for name, codec in FEATURE_CODECS.items():
        deployment = LCRSDeployment(system, four_g(seed=4), feature_codec=codec)
        session = deployment.run_session(test.images[:100])
        feature_shape = system.model.stem_output_shape
        print(
            f"{name:>5}: miss payload={codec.wire_bytes(feature_shape):5d}B  "
            f"accuracy={session.accuracy(test.labels[:100]):.3f}"
        )

    print("\n== 3. edge capacity vs exit rate ==")
    assets = build_network_assets("alexnet")
    for label, exit_rate in (("edge-only", 0.0), ("LCRS", DEFAULT_EXIT_RATES["alexnet"])):
        users = max_sustainable_users(assets.lcrs.trunk_profile, exit_rate)
        point = edge_load_curve(assets.lcrs.trunk_profile, exit_rate, [1000])[0]
        print(
            f"{label:>9}: max {users:6.0f} users @80% util; "
            f"at 1000 users: util={point.utilization:.2f} "
            f"response={point.mean_response_ms:.1f}ms"
        )

    print("\n== 4. browser energy per cold-start scan (alexnet, 4G) ==")
    plans = build_plans(assets, four_g(seed=0))
    for name, plan in plans.items():
        joules = expected_sample_energy(
            plan, four_g(seed=0), exit_rate=DEFAULT_EXIT_RATES["alexnet"],
            include_setup=True,
        )
        print(f"{name:>13}: {joules:.2f} J")

    print("\n== 5. adaptive tau on a degrading link ==")
    entropies, _, _ = branch_entropies(system.model, test.images)
    n = len(entropies)
    miss_ms = np.where(np.arange(n) < n // 2, 90.0, 600.0)  # link degrades
    # Start from a mid operating point (40 % exits) so the fixed policy
    # has real misses to pay for when the link turns bad.
    tau_mid = float(np.quantile(entropies, 0.4))
    # The fleet's τ controller, fed the mean latency of the last 20
    # samples: over 80 ms raises τ (more local exits), under 40 ms
    # drains it back toward tau_mid.
    controller = TauController(
        TauControlConfig(
            tau_min=0.0,
            tau_max=0.95,
            tau_initial=tau_mid,
            target_wait_ms=80.0,
            low_wait_ms=40.0,
        )
    )
    adaptive_exits = np.empty(n, dtype=bool)
    adaptive_ms = np.empty(n)
    for i in range(n):
        adaptive_exits[i] = entropies[i] < controller.threshold(0)
        adaptive_ms[i] = 5.0 if adaptive_exits[i] else 5.0 + miss_ms[i]
        controller.step(0, float(adaptive_ms[max(0, i - 19) : i + 1].mean()))
    fixed_exits = entropies < tau_mid
    fixed_ms = np.where(fixed_exits, 5.0, 5.0 + miss_ms)
    print(
        f"fixed tau:    mean={fixed_ms.mean():6.1f}ms exit={fixed_exits.mean():.2f}\n"
        f"adaptive tau: mean={adaptive_ms.mean():6.1f}ms exit={adaptive_exits.mean():.2f} "
        f"(final tau={controller.threshold(0):.3f})"
    )


if __name__ == "__main__":
    main()
