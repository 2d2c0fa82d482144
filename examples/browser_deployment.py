#!/usr/bin/env python
"""Browser deployment walk-through: export, inspect, validate, deploy.

The paper's Figure 3 pipeline in miniature: a trained composite network
is converted into the ``.lcrs`` wire format (fp32 conv1 + bit-packed
binary branch), reloaded by the standalone XNOR/popcount engine,
cross-validated against the training framework, and then driven through
collaborative sessions on three link presets (3G / 4G / WiFi) to show
how the exit rate shields the system from the network.

Run:  python examples/browser_deployment.py
"""

from __future__ import annotations

import numpy as np

from repro.core import LCRS, JointTrainingConfig
from repro.data import make_dataset
from repro.runtime import (
    LCRSDeployment,
    RetryPolicy,
    SessionConfig,
    faulty,
    four_g,
    three_g,
    wifi,
)
from repro.wasm import WasmModel, parse_model, serialize_browser_bundle


def main() -> None:
    print("== train a small composite system ==")
    train, test = make_dataset("fashion_mnist", 1200, 300, seed=2)
    system = LCRS.build(
        "lenet",
        train,
        training_config=JointTrainingConfig(epochs=6, lr_main=2e-3, seed=2),
        dataset_name="fashion_mnist",
        seed=2,
    )
    system.fit(train)
    system.calibrate(test)
    main_acc, binary_acc = system.trainer.evaluate(test)
    print(f"main={main_acc:.3f} binary={binary_acc:.3f} tau={system.threshold:.4f}")

    print("\n== export the .lcrs browser bundle ==")
    model = system.model
    input_shape = (model.in_channels, model.input_size, model.input_size)
    payload = serialize_browser_bundle(
        model.browser_modules(), input_shape, metadata={"tau": system.threshold}
    )
    parsed = parse_model(payload)
    print(f"payload: {len(payload):,} bytes, {len(parsed.layers)} layers")
    for spec in parsed.layers:
        kind = spec["type"]
        detail = ""
        if "weight_bits" in spec:
            detail = f" ({spec['weight_bits']['nbytes']:,}B packed bits)"
        elif "weight" in spec:
            detail = f" ({spec['weight']['nbytes']:,}B fp32)"
        print(f"  - {kind}{detail}")

    print("\n== standalone engine vs framework ==")
    engine = WasmModel.load(payload)
    from repro.nn.autograd import Tensor, no_grad

    bundle = model.browser_modules()
    bundle.eval()
    with no_grad():
        reference = bundle(Tensor(test.images[:64])).data
    actual = engine.forward(test.images[:64])
    print(
        f"max_abs_error={np.abs(reference - actual).max():.2e}  "
        f"argmax_agreement="
        f"{100 * (reference.argmax(1) == actual.argmax(1)).mean():.0f}%"
    )

    print("\n== collaborative sessions across link presets ==")
    print("(cold start: the first scan of each session downloads the bundle)")
    print("(batched serving: 16 frames per engine pass, misses share a frame)")
    for link_factory in (three_g, four_g, wifi):
        link = link_factory(seed=4)
        deployment = LCRSDeployment(system, link)
        session = deployment.run_session(
            test.images[:80], config=SessionConfig(batch_size=16)
        )
        print(
            f"{link.name:>4}: first_scan={session.outcomes[0].cost.total_ms:7.1f}ms  "
            f"steady={session.trace.latencies()[1:].mean():6.2f}ms  "
            f"exit={session.exit_rate:.2f}  "
            f"acc={session.accuracy(test.labels[:80]):.3f}"
        )

    print("\n== graceful degradation on a failing 4G link ==")
    print("(misses retry with backoff, then fall back to the binary branch)")
    # Tighten τ so most frames take the miss path — the point here is to
    # exercise the edge exchange under failure, not the calibrated gate.
    from dataclasses import replace

    from repro.core import branch_entropies

    entropies, _, _ = branch_entropies(system.model, test.images[:80])
    calibrated = system.calibration
    system.calibration = replace(
        calibrated, threshold=float(np.quantile(entropies, 0.25))
    )
    policy = RetryPolicy(max_attempts=2, per_attempt_timeout_ms=250.0)
    try:
        for profile in ("smoke", "harsh", "partition"):
            link = faulty(four_g(seed=4), profile, seed=7)
            deployment = LCRSDeployment(system, link, retry_policy=policy)
            session = deployment.run_session(
            test.images[:80], config=SessionConfig(batch_size=16)
        )
            faults = deployment.registry
            print(
                f"{profile:>9}: acc={session.accuracy(test.labels[:80]):.3f}  "
                f"exit={session.exit_rate:.2f}  "
                f"fallback={session.fallback_rate:.2f}  "
                f"attempts={session.mean_attempts:.2f}  "
                f"drops={faults.counter('fault.frames_dropped').value}  "
                f"timeouts={faults.counter('fault.frames_timed_out').value}  "
                f"retries={faults.counter('fault.retries').value}"
            )
    finally:
        system.calibration = calibrated

    print("\n== batched vs per-sample serving throughput ==")
    from repro.observability.clock import now_s

    deployment = LCRSDeployment(system, four_g(seed=4).deterministic())
    frames = test.images[:128]
    deployment.run_session(frames[:16], config=SessionConfig(batch_size=16))  # warm
    t0 = now_s()
    scalar = deployment.run_session(frames)
    scalar_s = now_s() - t0
    t0 = now_s()
    batched = deployment.run_session(frames, config=SessionConfig(batch_size=64))
    batched_s = now_s() - t0
    assert (scalar.predictions == batched.predictions).all()
    print(
        f"per-sample: {len(frames) / scalar_s:7.1f} frames/s   "
        f"batched(64): {len(frames) / batched_s:7.1f} frames/s   "
        f"speedup: {scalar_s / batched_s:.2f}x  (identical predictions)"
    )

    print("\n== the same links if every sample had to use the edge ==")
    from repro.runtime import simulate_plan, MOBILE_BROWSER_WASM, EDGE_SERVER

    for link_factory in (three_g, four_g, wifi):
        link = link_factory(seed=4).deterministic()
        deployment = LCRSDeployment(system, link)
        trace = simulate_plan(
            deployment.plan(), 20, link, MOBILE_BROWSER_WASM, EDGE_SERVER,
            cold_start=False, miss_mask=[True] * 20, include_setup=False,
        )
        print(f"{link.name:>4}: per-sample edge path = {trace.mean_latency_ms:6.1f}ms")

    print("\nNote: the exit rate is link-independent (it is a property of")
    print("the classifier), but its *value* is what keeps the slow links")
    print("usable — only binary-branch misses ever touch the network.")


if __name__ == "__main__":
    main()
