"""Closed-loop τ controller: hysteresis, bounds, and non-interference.

Three layers of lock-down for :mod:`repro.runtime.tau_control`:

* unit tests drive :meth:`TauController.step` with raw p99 numbers and
  pin the hysteresis discipline (hold streaks, dead band, cooldown,
  the no-evidence ``None`` round) and the τ↔tier escalation order;
* Hypothesis properties assert the invariants for *any* wait trace and
  any valid config — τ never leaves ``[start_tau, tau_max]``, pressure
  in one direction never moves τ the other way, and an oscillating
  trace produces zero actions;
* integration tests replay the overload drill on the trained system and
  assert the two contracts the PR ships on: a disabled (or inert)
  controller is bit-identical to the static-τ fleet, and the enabled
  controller sheds nothing at a load where the static fleet sheds >10%
  of its admission attempts.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments import build_overload_stream, run_tau_drill
from repro.observability.metrics import MetricsRegistry, labeled
from repro.runtime import TauControlConfig, TauController
from repro.runtime.tau_control import (
    ACTION_LOWER_TAU,
    ACTION_RAISE_TAU,
    ACTION_TIER_DOWN,
    ACTION_TIER_UP,
    QUEUE_WAIT_METRIC,
)

pytestmark = pytest.mark.tau

#: Controller traces are cheap to replay: draw twice the suite default.
more_examples = settings(max_examples=50)


class TestTauControlConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tau_min": 0.5, "tau_max": 0.5},
            {"tau_min": -0.1},
            {"tau_max": 1.1},
            {"tau_initial": 0.99, "tau_max": 0.9},
            {"tau_initial": 0.01, "tau_min": 0.05},
            {"step_up": 0.0},
            {"step_down": -0.1},
            {"low_wait_ms": 30.0, "target_wait_ms": 25.0},
            {"hold_rounds": 0},
            {"cooldown_rounds": -1},
            {"window_ms": 0.0},
            {"min_quality_tier": 0},
            {"tier_hold_rounds": 0},
        ],
    )
    def test_invalid_configs_raise(self, kwargs):
        with pytest.raises(ValueError):
            TauControlConfig(**kwargs)

    def test_start_tau_defaults_to_floor(self):
        assert TauControlConfig(tau_min=0.2).start_tau == 0.2
        assert TauControlConfig(tau_initial=0.4).start_tau == 0.4

    def test_min_tier_cannot_exceed_deployment_tiers(self):
        with pytest.raises(ValueError):
            TauController(
                TauControlConfig(min_quality_tier=3), max_quality_tier=2
            )


#: Mirrors TestAutoscalerUnit.CFG: hold 2, cooldown 2, a real dead band.
CFG = TauControlConfig(
    tau_min=0.1,
    tau_max=0.5,
    step_up=0.1,
    step_down=0.05,
    target_wait_ms=10.0,
    low_wait_ms=2.0,
    hold_rounds=2,
    cooldown_rounds=2,
)


class TestTauControllerUnit:
    def test_requires_hold_rounds_of_pressure(self):
        ctl = TauController(CFG)
        assert ctl.step(0, 20.0) is None
        assert ctl.step(0, 20.0) == ACTION_RAISE_TAU
        assert ctl.threshold(0) == pytest.approx(0.2)

    def test_dead_band_breaks_streak(self):
        ctl = TauController(CFG)
        assert ctl.step(0, 20.0) is None
        assert ctl.step(0, 5.0) is None  # between the thresholds
        assert ctl.step(0, 20.0) is None  # streak restarted
        assert ctl.step(0, 20.0) == ACTION_RAISE_TAU

    def test_cooldown_suppresses_actions(self):
        ctl = TauController(CFG)
        ctl.step(0, 20.0)
        assert ctl.step(0, 20.0) == ACTION_RAISE_TAU
        # Two cooldown rounds of sustained pressure do nothing...
        assert ctl.step(0, 20.0) is None
        assert ctl.step(0, 20.0) is None
        # ...then the streak (which kept accumulating) may fire again.
        assert ctl.step(0, 20.0) == ACTION_RAISE_TAU

    def test_tau_pins_at_max_and_returns_to_start(self):
        ctl = TauController(CFG)
        for _ in range(40):
            ctl.step(0, 50.0)
        assert ctl.threshold(0) == pytest.approx(CFG.tau_max)
        for _ in range(60):
            ctl.step(0, 0.0)
        assert ctl.threshold(0) == pytest.approx(CFG.start_tau)
        # More drain pressure never undershoots the start point.
        for _ in range(10):
            assert ctl.step(0, 0.0) is None
        assert ctl.threshold(0) == pytest.approx(CFG.start_tau)

    def test_none_round_is_no_evidence(self):
        """Silence holds the valve: a τ that emptied the queue must not
        snap back on the empty queue it created."""
        ctl = TauController(CFG)
        ctl.step(0, 50.0)
        assert ctl.step(0, 50.0) == ACTION_RAISE_TAU
        raised = ctl.threshold(0)
        for _ in range(20):
            assert ctl.step(0, None) is None
        assert ctl.threshold(0) == pytest.approx(raised)
        # Live low-wait traffic is what drains it.
        actions = [ctl.step(0, 0.5) for _ in range(6)]
        assert ACTION_LOWER_TAU in actions
        assert ctl.threshold(0) < raised

    def test_none_round_resets_over_streak(self):
        ctl = TauController(CFG)
        assert ctl.step(0, 20.0) is None
        assert ctl.step(0, None) is None
        assert ctl.step(0, 20.0) is None  # streak restarted
        assert ctl.step(0, 20.0) == ACTION_RAISE_TAU

    def test_shards_are_independent(self):
        ctl = TauController(CFG)
        ctl.step(0, 50.0)
        ctl.step(0, 50.0)
        assert ctl.threshold(0) == pytest.approx(0.2)
        assert ctl.threshold(1) == pytest.approx(CFG.start_tau)
        ctl.forget_shard(0)
        assert ctl.threshold(0) == pytest.approx(CFG.start_tau)


class TestTierEscalation:
    CFG = TauControlConfig(
        tau_min=0.1,
        tau_max=0.3,
        step_up=0.2,
        step_down=0.05,
        target_wait_ms=10.0,
        low_wait_ms=2.0,
        hold_rounds=1,
        cooldown_rounds=0,
        tier_hold_rounds=2,
    )

    def test_tier_down_only_after_tau_pins(self):
        ctl = TauController(self.CFG, max_quality_tier=3)
        assert ctl.step(0, 50.0) == ACTION_RAISE_TAU
        assert ctl.threshold(0) == pytest.approx(self.CFG.tau_max)
        # τ pinned: accuracy is spent only after tier_hold_rounds more
        # over-pressure firings, one tier per firing.
        assert ctl.step(0, 50.0) is None
        assert ctl.step(0, 50.0) == ACTION_TIER_DOWN
        assert ctl.quality_tier(0) == 2
        assert ctl.step(0, 50.0) is None
        assert ctl.step(0, 50.0) == ACTION_TIER_DOWN
        assert ctl.quality_tier(0) == 1
        # Floored at min_quality_tier forever after.
        for _ in range(10):
            assert ctl.step(0, 50.0) is None
        assert ctl.quality_tier(0) == 1

    def test_tier_restores_before_tau_lowers_on_drain(self):
        ctl = TauController(self.CFG, max_quality_tier=2)
        for _ in range(6):
            ctl.step(0, 50.0)
        assert ctl.quality_tier(0) == 1
        actions = [ctl.step(0, 0.5) for _ in range(8)]
        fired = [a for a in actions if a is not None]
        assert fired[0] == ACTION_TIER_UP
        assert all(a == ACTION_LOWER_TAU for a in fired[1:])
        assert ctl.quality_tier(0) == 2

    def test_dead_band_resets_saturation(self):
        ctl = TauController(self.CFG, max_quality_tier=2)
        ctl.step(0, 50.0)  # raise to tau_max
        ctl.step(0, 50.0)  # saturated = 1
        ctl.step(0, 5.0)  # dead band: saturation streak gone
        assert ctl.step(0, 50.0) is None  # saturated = 1 again
        assert ctl.step(0, 50.0) == ACTION_TIER_DOWN


class TestUpdateAndMetrics:
    def make(self, **cfg):
        defaults = dict(
            tau_min=0.1,
            tau_max=0.5,
            step_up=0.1,
            step_down=0.05,
            target_wait_ms=10.0,
            low_wait_ms=2.0,
            hold_rounds=1,
            cooldown_rounds=0,
            window_ms=100.0,
        )
        defaults.update(cfg)
        registry = MetricsRegistry()
        clock = {"now": 0.0}
        ctl = TauController(
            TauControlConfig(**defaults),
            registry=registry,
            clock=lambda: clock["now"],
        )
        return ctl, registry, clock

    def test_update_publishes_gauges_and_actions(self):
        ctl, registry, clock = self.make()
        hist = registry.histogram(labeled(QUEUE_WAIT_METRIC, shard=0))
        assert ctl.update([0], 0.0) == []  # taps the window, no traffic
        clock["now"] = 10.0
        hist.observe(40.0)
        fired = ctl.update([0], 10.0)
        assert [a["action"] for a in fired] == [ACTION_RAISE_TAU]
        assert fired[0]["shard"] == 0
        assert fired[0]["p99_wait_ms"] == pytest.approx(40.0)
        assert ctl.actions == fired
        assert registry.gauge(labeled("tau.value", shard=0)).value == (
            pytest.approx(0.2)
        )
        assert registry.gauge(labeled("tau.tier", shard=0)).value == 1.0

    def test_quiet_round_holds_despite_stale_window(self):
        """The stale-window regression: once τ silences the queue the
        shard's clock stops, the window never slides, and the overload-
        era p99 must read as *no evidence*, not as live pressure (which
        kept raising) or as relief (which re-exposed the overload)."""
        ctl, registry, clock = self.make()
        hist = registry.histogram(labeled(QUEUE_WAIT_METRIC, shard=0))
        ctl.update([0], 0.0)
        clock["now"] = 10.0
        hist.observe(40.0)
        ctl.update([0], 10.0)
        raised = ctl.threshold(0)
        # No new wait samples: whatever the (stale) window still holds,
        # the controller must neither escalate nor drain.
        for now in (20.0, 30.0, 40.0):
            assert ctl.update([0], now) == []
        assert ctl.threshold(0) == pytest.approx(raised)

    def test_describe_snapshot(self):
        ctl, registry, clock = self.make()
        hist = registry.histogram(labeled(QUEUE_WAIT_METRIC, shard=0))
        ctl.update([0], 0.0)
        hist.observe(40.0)
        ctl.update([0], 1.0)
        snap = ctl.describe()
        assert snap["adjustments"] == 1
        assert snap["tau_bounds"] == [0.1, 0.5]
        assert snap["shards"][0]["tau"] == pytest.approx(0.2)


# ----------------------------------------------------------------------
# Hypothesis properties
# ----------------------------------------------------------------------
configs = st.builds(
    TauControlConfig,
    tau_min=st.floats(0.0, 0.4),
    tau_max=st.floats(0.5, 1.0),
    tau_initial=st.none(),
    step_up=st.floats(0.01, 0.5),
    step_down=st.floats(0.01, 0.5),
    target_wait_ms=st.floats(10.0, 100.0),
    low_wait_ms=st.floats(0.1, 5.0),
    hold_rounds=st.integers(1, 3),
    cooldown_rounds=st.integers(0, 2),
    tier_hold_rounds=st.integers(1, 3),
)

waits = st.one_of(st.none(), st.floats(0.0, 10_000.0))


class TestProperties:
    @more_examples
    @given(cfg=configs, tiers=st.integers(1, 4), trace=st.lists(waits, max_size=80))
    def test_tau_and_tier_always_within_bounds(self, cfg, tiers, trace):
        ctl = TauController(cfg, max_quality_tier=tiers)
        for wait in trace:
            ctl.step(0, wait)
            assert cfg.start_tau <= ctl.threshold(0) <= cfg.tau_max
            assert cfg.min_quality_tier <= ctl.quality_tier(0) <= tiers

    @more_examples
    @given(
        cfg=configs,
        tiers=st.integers(1, 4),
        trace=st.lists(st.floats(100.0, 10_000.0), max_size=60),
    )
    def test_sustained_pressure_never_drains(self, cfg, tiers, trace):
        """Over-target readings only ever raise τ / lower the tier."""
        ctl = TauController(cfg, max_quality_tier=tiers)
        last_tau, last_tier = ctl.threshold(0), ctl.quality_tier(0)
        for wait in trace:
            action = ctl.step(0, wait)
            assert action in (None, ACTION_RAISE_TAU, ACTION_TIER_DOWN)
            assert ctl.threshold(0) >= last_tau
            assert ctl.quality_tier(0) <= last_tier
            last_tau, last_tier = ctl.threshold(0), ctl.quality_tier(0)

    @more_examples
    @given(
        cfg=configs,
        tiers=st.integers(1, 4),
        trace=st.lists(st.floats(0.0, 0.1), max_size=60),
    )
    def test_sustained_drain_never_escalates(self, cfg, tiers, trace):
        ctl = TauController(cfg, max_quality_tier=tiers)
        # Start from a stressed state so drain has something to undo.
        for _ in range(30):
            ctl.step(0, 10_000.0)
        last_tau, last_tier = ctl.threshold(0), ctl.quality_tier(0)
        for wait in trace:
            action = ctl.step(0, wait)
            assert action in (None, ACTION_LOWER_TAU, ACTION_TIER_UP)
            assert ctl.threshold(0) <= last_tau
            assert ctl.quality_tier(0) >= last_tier
            last_tau, last_tier = ctl.threshold(0), ctl.quality_tier(0)

    @more_examples
    @given(
        highs=st.lists(st.floats(100.0, 1_000.0), min_size=10, max_size=30),
        lows=st.lists(st.floats(0.0, 1.0), min_size=10, max_size=30),
        tiers=st.integers(1, 4),
    )
    def test_oscillating_load_never_flaps(self, highs, lows, tiers):
        """With hold_rounds=2, alternating over/under pressure must
        produce zero actions — the same discipline as the autoscaler."""
        ctl = TauController(CFG, max_quality_tier=tiers)
        for high, low in zip(highs, lows):
            assert ctl.step(0, high) is None
            assert ctl.step(0, low) is None
        assert ctl.threshold(0) == pytest.approx(CFG.start_tau)
        assert ctl.quality_tier(0) == tiers
        assert ctl.actions == []


# ----------------------------------------------------------------------
# Drill integration on the trained system
# ----------------------------------------------------------------------
NUM_BASES = 3
SESSIONS = 8


@pytest.fixture(scope="module")
def drill_stream(trained_system, tiny_mnist):
    _, test = tiny_mnist
    return build_overload_stream(
        trained_system,
        test.images,
        test.labels,
        batch_size=4,
        rounds=12,
        num_bases=NUM_BASES,
    )


@pytest.fixture(scope="module")
def static_drill(trained_system, drill_stream):
    return run_tau_drill(
        trained_system,
        drill_stream,
        controller=False,
        sessions=SESSIONS,
        num_bases=NUM_BASES,
        seed=0,
    )


@pytest.mark.slow
class TestDrillIntegration:
    def test_controller_off_is_static(self, static_drill, drill_stream):
        assert static_drill.adjustments == []
        for row in static_drill.tau_trajectory:
            assert row == [pytest.approx(drill_stream.static_tau)]
        for row in static_drill.tier_trajectory:
            assert row == [NUM_BASES]

    def test_inert_controller_is_bit_identical_to_disabled(
        self, trained_system, drill_stream, static_drill
    ):
        """Enabling the control plumbing with a policy that never fires
        must not move a single prediction: the controller's τ equals the
        static τ every round, so serving is bit-identical."""
        inert = TauControlConfig(
            tau_min=drill_stream.static_tau,
            tau_max=0.999,
            tau_initial=drill_stream.static_tau,
            target_wait_ms=1e9,
            low_wait_ms=1e8,
        )
        r = run_tau_drill(
            trained_system,
            drill_stream,
            controller=True,
            sessions=SESSIONS,
            num_bases=NUM_BASES,
            control=inert,
            seed=0,
        )
        assert r.adjustments == []
        assert r.predictions == static_drill.predictions
        assert r.served_by == static_drill.served_by
        assert r.shed_samples == static_drill.shed_samples

    def test_closed_loop_sheds_nothing_where_static_sheds(
        self, trained_system, drill_stream, static_drill
    ):
        """The PR's acceptance shape at test scale: a load the static
        fleet sheds >10% of admission attempts on, served shed-free by
        the closed loop at a bounded accuracy cost."""
        closed = run_tau_drill(
            trained_system,
            drill_stream,
            controller=True,
            sessions=SESSIONS,
            num_bases=NUM_BASES,
            seed=0,
        )
        assert static_drill.shed_rate > 0.10
        assert closed.shed_samples == 0
        assert closed.p99_queue_wait_ms < static_drill.p99_queue_wait_ms
        assert closed.adjustments, "the controller never acted"
        assert max(t[0] for t in closed.tau_trajectory) > drill_stream.static_tau
        assert closed.exit_rate > static_drill.exit_rate
        assert closed.accuracy is not None and static_drill.accuracy is not None
        assert closed.accuracy >= static_drill.accuracy - 0.15
