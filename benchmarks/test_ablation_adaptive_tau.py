"""Adaptive-τ ablation under unstable bandwidth (§IV-D.1's concern).

A link that degrades mid-session makes the fixed calibrated threshold
suboptimal; the τ controller raises τ when observed latency drifts over
the SLA and relaxes it when the link recovers.  This is an
extension in the spirit of the paper's future work ("more simulation in
different system environments").

The sweep itself lives in :func:`repro.experiments.adaptive_tau_study`
so this ablation and the closed-loop fleet experiment
(``repro tau`` / ``make bench-tau``) share one τ controller,
:class:`repro.runtime.TauController`.
"""

from __future__ import annotations

from repro.experiments import adaptive_tau_study
from repro.experiments.reporting import render_table
from repro.runtime import TauControlConfig, TauController


def test_adaptive_threshold_under_unstable_link(benchmark, announce):
    r = benchmark.pedantic(adaptive_tau_study, rounds=1, iterations=1)
    announce(
        render_table(
            ["policy", "mean(ms)", "congested mean(ms)", "exit rate"],
            [
                ["fixed tau", f"{r['fixed_mean']:.0f}", f"{r['congested_fixed']:.0f}", f"{r['fixed_exit']:.2f}"],
                ["adaptive tau", f"{r['adaptive_mean']:.0f}", f"{r['congested_adaptive']:.0f}", f"{r['adaptive_exit']:.2f}"],
            ],
            title="adaptive vs fixed exit threshold on a degrading 4G link",
        )
    )

    # The controller must materially beat the fixed policy during
    # congestion (by exiting more) and overall.
    assert r["congested_adaptive"] < 0.7 * r["congested_fixed"]
    assert r["adaptive_mean"] < r["fixed_mean"]
    assert r["adaptive_exit"] > r["fixed_exit"]


def test_benchmark_controller_step(benchmark):
    controller = TauController(
        TauControlConfig(
            tau_min=0.0,
            tau_max=0.95,
            tau_initial=0.3,
            target_wait_ms=80.0,
            low_wait_ms=40.0,
        )
    )
    benchmark(lambda: controller.step(0, 120.0))
