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
    ExecutionPlan,
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


_BROWSER_STEP = ComputeStep(
    Location.BROWSER, float_flops=2.5e6, binary_flops=1.25e6, num_layers=3
)
_EDGE_STEP = ComputeStep(Location.EDGE, float_flops=4.0e7, num_layers=5)

#: Plans beyond the LCRS one, for the phase shapes it does not have.
CUSTOM_PLANS = {
    # No phase has a transfer: the link is never called.
    "compute-only": ExecutionPlan(
        "custom", "net",
        setup_steps=[_BROWSER_STEP],
        per_sample_steps=[_BROWSER_STEP],
        miss_steps=[_EDGE_STEP],
    ),
    # Every phase has one, the per-sample phase included.
    "all-transfers": ExecutionPlan(
        "custom", "net",
        setup_steps=[ModelLoadStep(120_000.0), _BROWSER_STEP],
        per_sample_steps=[_BROWSER_STEP, TransferStep(300.0, upload=True)],
        miss_steps=[
            TransferStep(4704.0, upload=True), _EDGE_STEP,
            TransferStep(64.0, upload=False),
        ],
    ),
    # No miss steps: `exited_locally` stays None.
    "no-miss-steps": ExecutionPlan(
        "custom", "net",
        setup_steps=[ModelLoadStep(50_000.0)],
        per_sample_steps=[_BROWSER_STEP, TransferStep(300.0, upload=True)],
    ),
}


def _draws(link):
    """The link's generator state, or None when it never drew."""
    rng = getattr(link, "inner", link)._rng
    return None if rng is None else rng.bit_generator.state


def _cycled(mix, n):
    """A 6-sample mix repeated to ``n`` samples."""
    return tuple((column * (n // 6 + 1))[:n] for column in MIXES[mix])


class TestSimulatePlanShapes:
    """Every chunk shape the hoisted loop can meet, against the reference:
    1, 8 and 64 samples, warm and cold, with and without setup, and
    phases with and without transfers."""

    @pytest.mark.parametrize("num_samples", [1, 8, 64])
    @pytest.mark.parametrize("include_setup", [False, True])
    @pytest.mark.parametrize("cold_start", [False, True])
    @pytest.mark.parametrize("link_name", sorted(LINKS))
    @pytest.mark.parametrize("mix", sorted(MIXES))
    @pytest.mark.parametrize("plan_name", ["lcrs", *sorted(CUSTOM_PLANS)])
    def test_costs_and_link_stream_identical(
        self, tiered_assets, num_samples, include_setup, cold_start, link_name, mix,
        plan_name,
    ):
        plan = CUSTOM_PLANS.get(plan_name) or tiered_assets.plan(quality_tier=2)
        miss_mask, retry_ms, queue_ms = _cycled(mix, num_samples)
        kwargs = dict(
            cold_start=cold_start,
            miss_mask=miss_mask,
            include_setup=include_setup,
            retry_ms=retry_ms,
            queue_ms=queue_ms,
            quality_tier=2,
        )
        ref_link = LINKS[link_name](23)
        want = _reference_costs(
            plan, num_samples, ref_link, MOBILE_BROWSER_WASM, EDGE_SERVER, **kwargs
        )
        link = LINKS[link_name](23)
        priced = PricedPlan.of(plan, MOBILE_BROWSER_WASM, EDGE_SERVER)
        got = simulate_plan(
            priced, num_samples, link, MOBILE_BROWSER_WASM, EDGE_SERVER, **kwargs
        )
        assert _fields(got.samples) == _fields(want)
        assert _draws(link) == _draws(ref_link)

    @pytest.mark.parametrize("plan_name", ["lcrs", *sorted(CUSTOM_PLANS)])
    def test_missing_vectors_price_as_no_miss_and_no_wait(self, tiered_assets, plan_name):
        """A chunk whose frames all exit passes no miss, retry or queue
        vector; that prices exactly as all-False and all-0.0 vectors."""
        plan = CUSTOM_PLANS.get(plan_name) or tiered_assets.plan()
        explicit = simulate_plan(
            plan, 8, four_g(4), MOBILE_BROWSER_WASM, EDGE_SERVER,
            miss_mask=[False] * 8, retry_ms=[0.0] * 8, queue_ms=[0.0] * 8,
        )
        missing = simulate_plan(plan, 8, four_g(4), MOBILE_BROWSER_WASM, EDGE_SERVER)
        assert _fields(missing.samples) == _fields(explicit.samples)
        assert [repr(c) for c in missing.samples] == [repr(c) for c in explicit.samples]


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

    def test_reassigned_device_or_codec_is_repriced(
        self, trained_system, tiny_mnist, monkeypatch
    ):
        """The cache keys on the codec name and tier and checks the codec
        and the devices by identity: reassigning `browser_device` or
        `edge_device`, or passing another codec of the same name, prices
        the plan again, and the costs follow the new inputs."""
        from repro.runtime import session
        from repro.runtime.profiles import CLOUD_SERVER, MOBILE_BROWSER_JS

        calls = []
        real = session.LCRSAssets.plan
        monkeypatch.setattr(
            session.LCRSAssets, "plan",
            lambda self, *a, **k: calls.append(k) or real(self, *a, **k),
        )
        images = tiny_mnist[1].images[:6]
        config = SessionConfig(batch_size=3, threshold=0.0)

        def session_costs(deployment):
            result = deployment.run_session(images, config=config)
            return _fields(o.cost for o in result.outcomes)

        def fresh_costs(**devices):
            return session_costs(
                LCRSDeployment(trained_system, four_g(5).deterministic(), **devices)
            )

        deployment = LCRSDeployment(trained_system, four_g(5).deterministic())
        baseline = session_costs(deployment)
        assert session_costs(deployment) == baseline
        assert len(calls) == 1

        deployment.browser_device = MOBILE_BROWSER_JS
        slow_browser = session_costs(deployment)
        assert len(calls) == 2
        assert slow_browser != baseline
        deployment.edge_device = CLOUD_SERVER
        both = session_costs(deployment)
        assert len(calls) == 3
        deployment.browser_device = MOBILE_BROWSER_WASM
        deployment.edge_device = EDGE_SERVER
        assert session_costs(deployment) == baseline
        assert len(calls) == 4

        # The same costs as deployments built with those devices.
        del calls[:]
        assert slow_browser == fresh_costs(browser_device=MOBILE_BROWSER_JS)
        assert both == fresh_costs(
            browser_device=MOBILE_BROWSER_JS, edge_device=CLOUD_SERVER
        )

        # Another codec object under the codec's name is priced as itself.
        halved = dataclasses.replace(
            deployment.feature_codec,
            bytes_per_element=deployment.feature_codec.bytes_per_element / 2,
        )
        del calls[:]
        plain = deployment._priced_plan(deployment.feature_codec, 1)
        assert deployment._priced_plan(deployment.feature_codec, 1) is plain
        assert len(calls) == 0
        other = deployment._priced_plan(halved, 1)
        assert len(calls) == 1
        assert other.plan.miss_steps[0].num_bytes < plain.plan.miss_steps[0].num_bytes
