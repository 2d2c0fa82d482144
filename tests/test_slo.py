"""SLO engine: spec validation, burn-rate math, and the partition drill.

Two tiers:

* **unit (obs)** — :class:`SloSpec` / :class:`BurnRatePolicy`
  validation, the objective→bad-fraction reduction for all three kinds,
  and the alert state machine driven synthetically: fire requires both
  windows, escalation ticket→page, hysteresis holds through an
  oscillating burn, clear needs ``clear_holds`` consecutive calm
  evaluations.
* **integration (fleet+sched)** — the monitored partition drill of
  :func:`repro.experiments.run_fleet_slo`: a mid-run shard partition
  produces a windowed p99 spike, a burn-rate alert that fires during
  the partition era and clears after heal+rebalance without flapping,
  an SLO report showing the budget that was consumed, and — with
  monitoring off — bit-identical predictions and zero monitor
  footprint.  Everything runs on the simulated clock, so two runs
  produce the same alert story.
"""

from __future__ import annotations

import itertools
from unittest import mock

import pytest

from repro.observability import (
    BurnRatePolicy,
    MetricsRegistry,
    SloMonitor,
    SloSpec,
    Tracer,
    default_fleet_slos,
)
from repro.runtime import SessionConfig


# ----------------------------------------------------------------------
# Unit tier: specs and policy
# ----------------------------------------------------------------------
@pytest.mark.obs
class TestSloSpecValidation:
    def test_quantile_spec_budget_and_objective(self):
        spec = SloSpec(
            name="p99", kind="quantile", metric="wait_ms", threshold=50.0
        )
        assert spec.budget_fraction == pytest.approx(0.01)
        assert spec.objective() == "p99(wait_ms) <= 50"

    def test_ratio_and_availability_budgets(self):
        ratio = SloSpec(
            name="err", kind="ratio", metric="bad", total="all", threshold=0.05
        )
        avail = SloSpec(
            name="up", kind="availability", metric="ok", total="all",
            threshold=0.99,
        )
        assert ratio.budget_fraction == pytest.approx(0.05)
        assert avail.budget_fraction == pytest.approx(0.01)
        assert ">=" in avail.objective() and "<=" in ratio.objective()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(name="", kind="quantile", metric="m", threshold=1.0),
            dict(name="x", kind="median", metric="m", threshold=1.0),
            dict(name="x", kind="quantile", metric="m", threshold=0.0),
            dict(name="x", kind="quantile", metric="m", threshold=1.0, quantile=100.0),
            dict(name="x", kind="ratio", metric="m", total="t", threshold=1.5),
            dict(name="x", kind="ratio", metric="m", threshold=0.1),  # no total
            dict(name="x", kind="availability", metric="m", total="t", threshold=0.0),
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SloSpec(**kwargs)

    def test_policy_validation_and_severity(self):
        pol = BurnRatePolicy(page_burn=10.0, ticket_burn=2.0)
        assert pol.severity_for(10.0) == "page"
        assert pol.severity_for(2.0) == "ticket"
        assert pol.severity_for(1.9) is None
        with pytest.raises(ValueError):
            BurnRatePolicy(fast_window_ms=500.0, slow_window_ms=100.0)
        with pytest.raises(ValueError):
            BurnRatePolicy(page_burn=1.0, ticket_burn=2.0)
        with pytest.raises(ValueError):
            BurnRatePolicy(clear_holds=0)

    def test_default_fleet_slos_shapes(self):
        specs = default_fleet_slos()
        assert [s.kind for s in specs] == ["quantile", "ratio", "availability"]
        assert {s.name for s in specs} == {
            "queue-wait-p99", "fallback-rate", "shard-availability"
        }

    def test_monitor_rejects_empty_and_duplicate_specs(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            SloMonitor(reg, [], clock=lambda: 0.0)
        spec = SloSpec(name="a", kind="quantile", metric="m", threshold=1.0)
        with pytest.raises(ValueError, match="duplicate"):
            SloMonitor(reg, [spec, spec], clock=lambda: 0.0)


# ----------------------------------------------------------------------
# Unit tier: the alert state machine, driven synthetically
# ----------------------------------------------------------------------
def _quantile_monitor(threshold=10.0, **policy_kwargs):
    """A monitor over one p99 objective with a controllable clock."""
    reg = MetricsRegistry()
    t = {"now": 0.0}
    policy = BurnRatePolicy(
        fast_window_ms=100.0, slow_window_ms=400.0, **policy_kwargs
    )
    mon = SloMonitor(
        reg,
        [SloSpec(name="p99", kind="quantile", metric="wait", threshold=threshold)],
        clock=lambda: t["now"],
        policy=policy,
    )
    return reg, mon, t


@pytest.mark.obs
class TestAlertLifecycle:
    def test_fire_requires_both_windows(self):
        reg, mon, t = _quantile_monitor()
        h = reg.histogram("wait")
        # Bad observations only inside the fast window: the slow window
        # also contains them here, so this *does* fire; the converse —
        # old badness outside the fast window — must not.
        t["now"] = 350.0
        h.observe(100.0)  # way over threshold
        events = mon.evaluate(350.0)
        assert [e["transition"] for e in events] == ["fire"]
        # Fresh monitor: badness far in the past of the fast window.
        reg2, mon2, t2 = _quantile_monitor()
        h2 = reg2.histogram("wait")
        t2["now"] = 10.0
        h2.observe(100.0)
        t2["now"] = 390.0
        h2.observe(1.0)  # recent traffic is fine
        events = mon2.evaluate(390.0)
        assert events == []  # fast window clean -> no alert

    def test_page_fires_above_page_burn(self):
        reg, mon, t = _quantile_monitor()
        h = reg.histogram("wait")
        t["now"] = 50.0
        h.observe(100.0)  # 1 of 1 over threshold: burn = 1/0.01 = 100x
        (event,) = mon.evaluate(50.0)
        assert event["severity"] == "page"
        assert event["fast_burn"] == pytest.approx(100.0)

    def test_escalate_ticket_to_page(self):
        reg, mon, t = _quantile_monitor()
        h = reg.histogram("wait")
        # 3% bad of 100 -> burn 3x: ticket.
        t["now"] = 50.0
        for i in range(100):
            h.observe(100.0 if i < 3 else 1.0)
        (event,) = mon.evaluate(50.0)
        assert event["transition"] == "fire" and event["severity"] == "ticket"
        # More badness -> burn over 10x: escalate to page.
        for _ in range(20):
            h.observe(100.0)
        (event,) = mon.evaluate(60.0)
        assert event["transition"] == "escalate" and event["severity"] == "page"

    def test_clear_needs_consecutive_holds(self):
        reg, mon, t = _quantile_monitor(clear_holds=2)
        h = reg.histogram("wait")
        t["now"] = 50.0
        h.observe(100.0)
        assert mon.evaluate(50.0)  # fire
        # One calm evaluation is not enough (windows slide past the spike).
        assert mon.evaluate(500.0) == []
        # Second consecutive calm evaluation clears.
        (event,) = mon.evaluate(510.0)
        assert event["transition"] == "clear"
        # History rows show the firing state held until the clear.
        states = [row["state"] for row in mon.history]
        assert states == ["firing", "firing", "ok"]

    def test_oscillating_burn_does_not_flap(self):
        reg, mon, t = _quantile_monitor(clear_holds=2)
        h = reg.histogram("wait")
        clock = 50.0
        t["now"] = clock
        h.observe(100.0)
        mon.evaluate(clock)  # fire
        # Alternate calm and bad evaluations: the clear streak resets
        # every time the burn comes back, so no clear and no re-fire.
        for step in range(6):
            clock += 450.0  # slide the slow window past old badness
            t["now"] = clock
            if step % 2 == 1:
                h.observe(100.0)  # badness returns
            events = mon.evaluate(clock)
            assert events == []
        transitions = [e["transition"] for e in mon.events]
        assert transitions == ["fire"]  # exactly one, never cleared

    def test_alert_spans_reach_recorder(self):
        reg = MetricsRegistry()
        tracer = Tracer()
        t = {"now": 50.0}
        mon = SloMonitor(
            reg,
            [SloSpec(name="p99", kind="quantile", metric="wait", threshold=10.0)],
            clock=lambda: t["now"],
            policy=BurnRatePolicy(fast_window_ms=100.0, slow_window_ms=400.0),
            recorder=tracer,
        )
        reg.histogram("wait").observe(100.0)
        mon.evaluate(50.0)
        spans = [s for s in tracer.spans() if s.name == "slo.alert"]
        assert len(spans) == 1
        assert spans[0].attrs["transition"] == "fire"

    def test_grouped_spec_discovers_new_series_on_sync(self):
        reg = MetricsRegistry()
        from repro.observability import labeled

        spec = SloSpec(
            name="p99", kind="quantile", metric="wait", threshold=10.0,
            group_by="shard",
        )
        t = {"now": 0.0}
        mon = SloMonitor(
            reg, [spec], clock=lambda: t["now"],
            policy=BurnRatePolicy(fast_window_ms=100.0, slow_window_ms=400.0),
        )
        assert mon.report(0.0)["slos"] == []  # no labeled series yet
        reg.histogram(labeled("wait", shard=0))
        reg.histogram(labeled("wait", shard=1))
        mon.evaluate(10.0)  # sync discovers both shards
        rows = mon.report(10.0)["slos"]
        assert [r["labels"] for r in rows] == [{"shard": "0"}, {"shard": "1"}]


# ----------------------------------------------------------------------
# Integration tier: the monitored partition drill
# ----------------------------------------------------------------------
def run_drill(system, images, **kwargs):
    """The partition drill with its session ids pinned.

    Each deployment seeds its backoff jitter with its session id, which
    comes from a process-wide counter, so an unpinned drill depends on
    how many deployments earlier tests built.  Pinned, every run of the
    drill sees the same ids and the same jitter.
    """
    from repro.experiments import run_fleet_slo
    from repro.runtime import session

    with mock.patch.object(session, "_SESSION_IDS", itertools.count(1)):
        return run_fleet_slo(
            system,
            images,
            sessions=4,
            num_shards=2,
            partition_round=2,
            heal_round=7,
            **kwargs,
        )


@pytest.mark.fleet
@pytest.mark.sched
class TestPartitionDrill:
    @pytest.fixture(scope="class")
    def drill(self, trained_system, tiny_mnist):
        _, test = tiny_mnist
        return run_drill(trained_system, test.images[:40])

    def test_alert_fires_during_partition_and_clears_after_heal(self, drill):
        fired = drill.fired
        cleared = drill.cleared
        assert len(fired) == 1 and len(cleared) == 1
        fire, clear = fired[0], cleared[0]
        assert fire["slo"] == "queue-wait-p99"
        # The survivor shard (not the partitioned one) takes the pileup.
        assert fire["labels"] == {"shard": "1"}
        assert fire["severity"] == "page"
        assert clear["t_ms"] > fire["t_ms"]
        # No alert left standing at the end of the run.
        assert drill.health["alerts"] == []

    def test_no_flapping(self, drill):
        # Each target transitions at most fire -> (escalate) -> clear:
        # never a second fire.
        seen: dict[tuple, int] = {}
        for e in drill.alert_events:
            key = (e["slo"], tuple(sorted(e["labels"].items())))
            if e["transition"] == "fire":
                seen[key] = seen.get(key, 0) + 1
        assert all(count == 1 for count in seen.values())

    def test_windowed_p99_spike_visible_in_history_and_report(self, drill):
        spikes = [
            row["fast_value"]
            for row in drill.history
            if row["slo"] == "queue-wait-p99"
            and row["labels"] == {"shard": "1"}
            and row["fast_value"]
        ]
        assert spikes and max(spikes) > 25.0  # over the SLO threshold
        # The report keeps the spike visible after the windows slid past.
        (row,) = [
            r
            for r in drill.report["slos"]
            if r["slo"] == "queue-wait-p99" and r["labels"] == {"shard": "1"}
        ]
        assert row["peak_value"] == pytest.approx(max(spikes))
        assert row["min_budget_remaining"] == 0.0  # budget was consumed

    def test_fallback_rate_objective_sees_the_sessions(self, drill):
        """The fleet-wide fallback ratio reads the sessions' unlabeled
        series, so its row carries a value, not ``None``."""
        (row,) = [r for r in drill.report["slos"] if r["slo"] == "fallback-rate"]
        assert row["labels"] == {}
        assert row["fast_value"] is not None
        assert row["slow_value"] is not None
        counters = drill.registry.as_dict()["counters"]
        assert counters["session.samples"] == drill.samples
        assert counters["session.fallback_samples"] == drill.served_by["binary-fallback"]

    def test_health_snapshot_shape(self, drill):
        health = drill.health
        assert health["active_shards"] == 2  # healed by the end
        assert len(health["shards"]) == 2
        for shard in health["shards"]:
            assert {"shard", "state", "queue_depth", "slo"} <= set(shard)
            # Per-shard SLO panel: the two grouped objectives.
            panel = {row["slo"] for row in shard["slo"]}
            assert panel == {"queue-wait-p99", "shard-availability"}

    def test_availability_budget_consumed_on_partitioned_shard(self, drill):
        (row,) = [
            r
            for r in drill.report["slos"]
            if r["slo"] == "shard-availability" and r["labels"] == {"shard": "0"}
        ]
        assert row["min_budget_remaining"] == 0.0

    def test_deterministic_on_simulated_clock(
        self, drill, trained_system, tiny_mnist
    ):
        _, test = tiny_mnist
        again = run_drill(trained_system, test.images[:40])

        def signature(result):
            return [
                (e["slo"], tuple(sorted(e["labels"].items())),
                 e["transition"], e["severity"])
                for e in result.alert_events
            ]

        assert signature(again) == signature(drill)
        assert again.predictions == drill.predictions

    def test_monitor_off_is_bit_identical_and_footprint_free(
        self, drill, trained_system, tiny_mnist
    ):
        _, test = tiny_mnist
        off = run_drill(trained_system, test.images[:40], monitor=False)
        assert off.predictions == drill.predictions
        assert off.served_by == drill.served_by
        assert off.alert_events == [] and off.history == []
        assert off.report is None
        # No watcher attached anywhere: the metrics plane still exists
        # (the schedulers always record), but nothing observes it.
        for metric in off.registry:
            assert getattr(metric, "_watchers", ()) == ()


@pytest.mark.fleet
class TestDrillValidation:
    def test_heal_must_follow_partition(self, trained_system, tiny_mnist):
        import numpy as np

        from repro.experiments import run_fleet_slo

        with pytest.raises(ValueError, match="heal_round"):
            run_fleet_slo(
                trained_system,
                np.zeros((4, 1, 28, 28), dtype=np.float32),
                partition_round=3,
                heal_round=3,
            )
