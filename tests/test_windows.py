"""Windowed telemetry: the sliding-window ring and the metric binder.

Unit tier for :mod:`repro.observability.windows` — exact within-window
arithmetic (count/sum/mean/max/rate, strictly-above threshold counts,
nearest-rank percentiles), the two memory bounds (retention pruning and
capacity eviction with the ``dropped`` tally), and the watcher coupling:
a :class:`MetricWindows` tap sees every ``add``/``observe`` stamped with
the binder's clock, and detaching leaves the metric watcher-free so the
allocation-free-when-unused invariant holds again.

It also holds the property suite for :class:`Hysteresis`, the one
streak/dead-band/cooldown machine behind the fleet autoscaler, the τ
controller and the SLO alert clear: their no-flap contracts all rest on
the properties pinned here.
"""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.observability import MetricsRegistry, MetricWindows, WindowedSeries
from repro.observability.windows import DEAD_BAND, OVER, UNDER, Hysteresis

pytestmark = pytest.mark.obs


class TestWindowedSeries:
    def test_empty_series_answers_safely(self):
        s = WindowedSeries(window_ms=100.0)
        assert s.count(50.0) == 0
        assert s.total(50.0) == 0.0
        assert s.mean(50.0) is None
        assert s.max_value(50.0) is None
        assert s.percentile(99.0, 50.0) is None
        assert s.rate_per_s(50.0) == 0.0

    def test_window_membership_is_inclusive_and_slides(self):
        s = WindowedSeries(window_ms=100.0)
        for t in (0.0, 50.0, 100.0, 150.0):
            s.observe(1.0, t)
        # Window [50, 150]: the t=0 sample is out, the t=50 edge is in.
        assert s.count(150.0) == 3
        # Narrower query window over the same ring.
        assert s.count(150.0, window_ms=50.0) == 2

    def test_retention_prunes_old_samples(self):
        s = WindowedSeries(window_ms=10.0)
        for t in range(100):
            s.observe(1.0, float(t))
        assert len(s) <= 12  # retention keeps ~window worth of samples
        assert s.dropped == 0  # pruned by age, not evicted by capacity

    def test_capacity_eviction_counts_dropped(self):
        s = WindowedSeries(window_ms=1e9, capacity=4)
        for t in range(10):
            s.observe(float(t), float(t))
        assert len(s) == 4
        assert s.dropped == 6
        # The survivors are the most recent samples.
        assert s.total(9.0) == 6.0 + 7.0 + 8.0 + 9.0

    def test_exact_sums_and_rates(self):
        s = WindowedSeries(window_ms=1000.0)
        for t, v in [(100.0, 2.0), (200.0, 3.0), (900.0, 5.0)]:
            s.observe(v, t)
        assert s.total(1000.0) == 10.0
        assert s.mean(1000.0) == pytest.approx(10.0 / 3)
        assert s.max_value(1000.0) == 5.0
        # 10 units over a 1000ms window = 10/s.
        assert s.rate_per_s(1000.0) == pytest.approx(10.0)

    def test_count_above_is_strict(self):
        s = WindowedSeries(window_ms=100.0)
        for v in (1.0, 2.0, 2.0, 3.0):
            s.observe(v, 10.0)
        assert s.count_above(2.0, 10.0) == 1
        assert s.count_above(1.9, 10.0) == 3

    def test_nearest_rank_percentiles(self):
        s = WindowedSeries(window_ms=100.0)
        for v in range(1, 11):  # 1..10
            s.observe(float(v), 10.0)
        assert s.percentile(0.0, 10.0) == 1.0
        assert s.percentile(50.0, 10.0) == 5.0
        assert s.percentile(90.0, 10.0) == 9.0
        assert s.percentile(99.0, 10.0) == 10.0
        assert s.percentile(100.0, 10.0) == 10.0

    def test_percentile_respects_window(self):
        s = WindowedSeries(window_ms=1000.0)
        s.observe(100.0, 0.0)   # old spike
        s.observe(1.0, 900.0)
        assert s.percentile(99.0, 1000.0) == 100.0
        assert s.percentile(99.0, 1000.0, window_ms=200.0) == 1.0

    def test_query_wider_than_retention_rejected(self):
        s = WindowedSeries(window_ms=100.0)
        with pytest.raises(ValueError, match="exceeds retention"):
            s.count(0.0, window_ms=200.0)

    def test_invalid_construction_rejected(self):
        with pytest.raises(ValueError):
            WindowedSeries(window_ms=0.0)
        with pytest.raises(ValueError):
            WindowedSeries(capacity=0)
        s = WindowedSeries(window_ms=10.0)
        with pytest.raises(ValueError):
            s.percentile(101.0, 0.0)


class TestMetricWindows:
    def test_counter_tap_stamps_with_clock(self):
        reg = MetricsRegistry()
        t = {"now": 0.0}
        mw = MetricWindows(reg, clock=lambda: t["now"], window_ms=100.0)
        series = mw.watch_counter("requests")
        reg.counter("requests").add(2)
        t["now"] = 50.0
        reg.counter("requests").add(3)
        assert series.total(50.0) == 5.0
        assert series.count(50.0, window_ms=10.0) == 1  # only the t=50 add

    def test_histogram_tap_feeds_percentiles(self):
        reg = MetricsRegistry()
        mw = MetricWindows(reg, clock=lambda: 10.0, window_ms=100.0)
        series = mw.watch_histogram("wait_ms")
        h = reg.histogram("wait_ms")
        for v in (1.0, 2.0, 50.0):
            h.observe(v)
        assert series.percentile(99.0, 10.0) == 50.0
        assert series.count_above(5.0, 10.0) == 1

    def test_watch_is_idempotent_per_name(self):
        reg = MetricsRegistry()
        mw = MetricWindows(reg, clock=lambda: 0.0)
        first = mw.watch_counter("c")
        assert mw.watch_counter("c") is first
        reg.counter("c").add(1)
        assert first.count(0.0) == 1  # a single tap, not two

    def test_watch_existing_rejects_unknown_and_gauges(self):
        reg = MetricsRegistry()
        mw = MetricWindows(reg, clock=lambda: 0.0)
        with pytest.raises(KeyError):
            mw.watch("missing")
        reg.gauge("depth")
        with pytest.raises(TypeError, match="gauge"):
            mw.watch("depth")

    def test_detach_restores_watcher_free_metrics(self):
        reg = MetricsRegistry()
        mw = MetricWindows(reg, clock=lambda: 0.0)
        series = mw.watch_counter("c")
        counter = reg.counter("c")
        assert counter._watchers
        mw.detach()
        assert counter._watchers == ()
        counter.add(1)
        assert series.count(0.0) == 0  # no longer observing


# ----------------------------------------------------------------------
# Hysteresis: the shared streak / dead-band / cooldown machine
# ----------------------------------------------------------------------
readings = st.sampled_from([OVER, UNDER, DEAD_BAND, None])
#: What the caller does with a ready direction: act, spend the streak
#: without acting, or leave it counting (an autoscaler at its bound).
reactions = st.sampled_from(["fire", "reset", "hold"])
holds = st.integers(1, 4)
cooldowns = st.integers(0, 3)


def drive(h: Hysteresis, trace) -> None:
    """Replay ``(reading, reaction)`` rounds, reacting to each firing."""
    for reading, reaction in trace:
        ready = h.step(reading)
        if ready is not None and reaction != "hold":
            getattr(h, reaction)(ready)


traces = st.lists(st.tuples(readings, reactions), max_size=40)


class TestHysteresisUnit:
    @pytest.mark.parametrize("kwargs", [{"hold_rounds": 0}, {"cooldown_rounds": -1}])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            Hysteresis(**{"hold_rounds": 1, **kwargs})

    def test_classify_thresholds_are_inclusive(self):
        assert Hysteresis.classify(10.0, 2.0, 10.0) == OVER
        assert Hysteresis.classify(2.0, 2.0, 10.0) == UNDER
        assert Hysteresis.classify(5.0, 2.0, 10.0) == DEAD_BAND

    def test_hold_rounds_then_fire(self):
        h = Hysteresis(hold_rounds=2, cooldown_rounds=1)
        assert h.step(OVER) is None
        assert h.step(OVER) == OVER
        h.fire(OVER)
        assert h.step(OVER) is None  # the cooldown round still counts
        assert h.step(OVER) == OVER

    def test_held_streak_fires_on_the_next_round(self):
        h = Hysteresis(hold_rounds=2)
        h.step(UNDER)
        assert h.step(UNDER) == UNDER
        assert h.step(UNDER) == UNDER  # left counting, still ready
        h.reset(UNDER)
        assert h.step(UNDER) is None


class TestHysteresisProperties:
    @given(
        hold=st.integers(2, 5),
        cooldown=cooldowns,
        first=st.sampled_from([OVER, UNDER]),
        rounds=st.integers(0, 40),
    )
    def test_alternating_readings_never_fire(self, hold, cooldown, first, rounds):
        h = Hysteresis(hold, cooldown)
        second = UNDER if first == OVER else OVER
        for i in range(rounds):
            assert h.step(first if i % 2 == 0 else second) is None
        assert max(h.over, h.under) <= 1

    @given(hold=holds, cooldown=cooldowns, trace=traces)
    def test_none_never_fires_and_breaks_only_the_over_streak(
        self, hold, cooldown, trace
    ):
        h = Hysteresis(hold, cooldown)
        drive(h, trace)
        under, cool = h.under, h.cooldown
        assert h.step(None) is None
        assert h.over == 0
        assert h.under == under
        assert h.cooldown == max(0, cool - 1)

    @given(
        hold=holds,
        cooldown=st.integers(1, 4),
        direction=st.sampled_from([OVER, UNDER]),
        trace=traces,
        during=st.lists(readings, min_size=1, max_size=4),
    )
    def test_cooldown_is_consumed_while_streaks_keep_counting(
        self, hold, cooldown, direction, trace, during
    ):
        h = Hysteresis(hold, cooldown)
        drive(h, trace)
        h.fire(direction)
        # Each cooldown round answers None, consumes one round, and
        # still advances the streaks exactly as a live round would.
        shadow = Hysteresis(hold)
        shadow.over, shadow.under = h.over, h.under
        for reading in during[:cooldown]:
            remaining = h.cooldown
            assert h.step(reading) is None
            shadow.step(reading)
            assert h.cooldown == remaining - 1
            assert (h.over, h.under) == (shadow.over, shadow.under)

    @given(
        hold=holds,
        cooldown=cooldowns,
        direction=st.sampled_from([OVER, UNDER]),
        trace=traces,
    )
    def test_fire_resets_only_that_streak_and_arms_the_cooldown(
        self, hold, cooldown, direction, trace
    ):
        h = Hysteresis(hold, cooldown)
        drive(h, trace)
        over, under = h.over, h.under
        h.fire(direction)
        assert (h.over, h.under) == ((0, under) if direction == OVER else (over, 0))
        assert h.cooldown == cooldown

    @given(
        hold=holds,
        cooldown=cooldowns,
        direction=st.sampled_from([OVER, UNDER]),
        trace=traces,
    )
    def test_reset_arms_nothing(self, hold, cooldown, direction, trace):
        h = Hysteresis(hold, cooldown)
        drive(h, trace)
        over, under, cool = h.over, h.under, h.cooldown
        h.reset(direction)
        assert (h.over, h.under) == ((0, under) if direction == OVER else (over, 0))
        assert h.cooldown == cool
