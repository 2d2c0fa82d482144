"""PricedPlan pricing is exactly the per-step pricing loop it replaced.

``simulate_plan`` prices a :class:`PricedPlan` — per-phase compute
subtotals plus the phase's transfers in order — instead of walking the
plan's steps for every sample, and a session prices each chunk in one
call instead of one call per frame.  Both must be invisible: every
:class:`SampleCost` field is compared with ``==`` (no tolerance) against
the reference below, and so is the link's jitter RNG state afterwards,
which pins the number and order of the link calls.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.runtime import (
    EDGE_SERVER,
    MOBILE_BROWSER_WASM,
    LCRSDeployment,
    PricedPlan,
    SessionConfig,
    faulty,
    four_g,
    simulate_plan,
)
from repro.runtime.latency import (
    ComputeStep,
    Location,
    ModelLoadStep,
    SampleCost,
    TransferStep,
)
from repro.runtime.session import SERVED_BY_EDGE, build_lcrs_assets

NUM_BASES = 3


# ----------------------------------------------------------------------
# Reference: the per-step loop simulate_plan used before PricedPlan
# ----------------------------------------------------------------------
def _reference_price_steps(steps, link, browser, edge):
    compute = 0.0
    comm = 0.0
    for step in steps:
        if isinstance(step, ComputeStep):
            device = browser if step.location is Location.BROWSER else edge
            compute += step.duration_ms(device)
        elif isinstance(step, TransferStep):
            comm += step.duration_ms(link)
        elif isinstance(step, ModelLoadStep):
            comm += link.download_ms(step.num_bytes)
            compute += browser.parse_ms(int(step.num_bytes))
    return compute, comm


def _reference_costs(
    plan, n, link, browser, edge, cold_start, miss_mask, include_setup,
    retry_ms, queue_ms, quality_tier,
):
    costs = []
    for i in range(n):
        compute = 0.0
        comm = 0.0
        if include_setup and (cold_start or i == 0):
            c, m = _reference_price_steps(plan.setup_steps, link, browser, edge)
            compute += c
            comm += m
        c, m = _reference_price_steps(plan.per_sample_steps, link, browser, edge)
        compute += c
        comm += m
        missed = None
        if plan.miss_steps:
            missed = bool(miss_mask[i])
            if missed:
                c, m = _reference_price_steps(plan.miss_steps, link, browser, edge)
                compute += c
                comm += m
        retries = float(retry_ms[i])
        queued = float(queue_ms[i])
        comm += retries + queued
        costs.append(
            SampleCost(
                total_ms=compute + comm,
                compute_ms=compute,
                communication_ms=comm,
                exited_locally=None if missed is None else not missed,
                retry_ms=retries,
                queue_ms=queued,
                quality_tier=int(quality_tier),
            )
        )
    return costs


def _fields(costs):
    return [dataclasses.astuple(c) for c in costs]


def _rng_state(link):
    return getattr(link, "inner", link)._rng.bit_generator.state


LINKS = {
    "4g-jitter": lambda seed: four_g(seed),
    "harsh": lambda seed: faulty(four_g(seed), profile="harsh", seed=seed + 1),
}

#: (miss_mask, retry_ms, queue_ms) per sample: local exits, edge-served
#: misses, and fallbacks (a miss whose exchange failed: no miss steps,
#: but its retries still cost).
MIXES = {
    "exit": ([False] * 6, [0.0] * 6, [0.0] * 6),
    "miss": ([True] * 6, [0.0] * 6, [0.25, 0.5, 0.0, 1.0, 0.0, 3.0]),
    "fallback": (
        [True, False, False, True, False, False],
        [0.0, 2012.5, 0.0, 0.0, 1049.75, 0.0],
        [0.0] * 6,
    ),
}


@pytest.fixture(scope="module")
def tiered_assets(trained_system):
    return build_lcrs_assets(trained_system.model, num_bases=NUM_BASES)


class TestSimulatePlanMatchesReference:
    @pytest.mark.parametrize("tier", range(1, NUM_BASES + 1))
    @pytest.mark.parametrize("link_name", sorted(LINKS))
    @pytest.mark.parametrize("mix", sorted(MIXES))
    @pytest.mark.parametrize("cold_start", [False, True])
    @pytest.mark.parametrize("priced", [False, True])
    def test_costs_and_link_stream_identical(
        self, tiered_assets, tier, link_name, mix, cold_start, priced
    ):
        plan = tiered_assets.plan(quality_tier=tier)
        miss_mask, retry_ms, queue_ms = MIXES[mix]
        kwargs = dict(
            cold_start=cold_start,
            miss_mask=miss_mask,
            include_setup=True,
            retry_ms=retry_ms,
            queue_ms=queue_ms,
            quality_tier=tier,
        )
        ref_link = LINKS[link_name](11)
        want = _reference_costs(
            plan, 6, ref_link, MOBILE_BROWSER_WASM, EDGE_SERVER, **kwargs
        )
        link = LINKS[link_name](11)
        if priced:
            plan = PricedPlan.of(plan, MOBILE_BROWSER_WASM, EDGE_SERVER)
        got = simulate_plan(plan, 6, link, MOBILE_BROWSER_WASM, EDGE_SERVER, **kwargs)
        assert _fields(got.samples) == _fields(want)
        assert _rng_state(link) == _rng_state(ref_link)

    def test_priced_plan_for_other_devices_is_repriced(self, tiered_assets):
        plan = tiered_assets.plan()
        edge_priced = PricedPlan.of(plan, MOBILE_BROWSER_WASM, MOBILE_BROWSER_WASM)
        got = simulate_plan(
            edge_priced, 2, four_g(3), MOBILE_BROWSER_WASM, EDGE_SERVER,
            miss_mask=[True, True],
        )
        want = simulate_plan(
            plan, 2, four_g(3), MOBILE_BROWSER_WASM, EDGE_SERVER,
            miss_mask=[True, True],
        )
        assert _fields(got.samples) == _fields(want.samples)


class TestSessionPricingMatchesReference:
    """A session prices each chunk in one call; replaying its outcomes
    through the reference one frame at a time gives the same costs."""

    @pytest.mark.parametrize("tier", range(1, NUM_BASES + 1))
    @pytest.mark.parametrize("cold_start", [False, True])
    @pytest.mark.parametrize("tau", ["exit", "miss", "mid"])
    def test_session_costs_and_link_stream(
        self, trained_system, tiny_mnist, tier, cold_start, tau
    ):
        images = tiny_mnist[1].images[:11]
        deployment = LCRSDeployment(trained_system, four_g(5), num_bases=NUM_BASES)
        threshold = {"exit": 1.0, "miss": 0.0, "mid": None}[tau]
        result = deployment.run_session(
            images,
            config=SessionConfig(
                batch_size=4, cold_start=cold_start, threshold=threshold,
                quality_tier=tier,
            ),
        )
        plan = deployment.assets.plan(quality_tier=tier)
        ref_link = four_g(5)
        want = []
        for o in result.outcomes:
            want += _reference_costs(
                plan, 1, ref_link, deployment.browser_device, deployment.edge_device,
                cold_start=True,
                miss_mask=[o.served_by == SERVED_BY_EDGE],
                include_setup=cold_start or o.index == 0,
                retry_ms=[o.cost.retry_ms],
                queue_ms=[o.cost.queue_ms],
                quality_tier=tier,
            )
        assert _fields(o.cost for o in result.outcomes) == _fields(want)
        assert _rng_state(deployment.link) == _rng_state(ref_link)
        if tau == "miss":
            assert all(o.served_by == SERVED_BY_EDGE for o in result.outcomes)

    def test_plan_is_priced_once_per_key(self, trained_system, tiny_mnist, monkeypatch):
        from repro.runtime import session

        calls = []
        real = session.LCRSAssets.plan
        monkeypatch.setattr(
            session.LCRSAssets, "plan",
            lambda self, *a, **k: calls.append(k) or real(self, *a, **k),
        )
        deployment = LCRSDeployment(trained_system, four_g(5), num_bases=NUM_BASES)
        images = tiny_mnist[1].images[:6]
        for _ in range(3):
            deployment.run_session(images, config=SessionConfig(batch_size=2))
        deployment.run_session(images, config=SessionConfig(quality_tier=1))
        deployment.run_session(images, config=SessionConfig(codec="int8"))
        assert len(calls) == 3
        assert all(c["quality_tier"] in (1, NUM_BASES) for c in calls)
