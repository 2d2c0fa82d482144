"""Declarative SLOs with multi-window burn-rate alerting.

The operational contract of the collaborative pipeline is that the
binary branch is a *bounded* degraded tier (PAPERS.md, XNOR-Net): the
fleet may trade accuracy for latency, but how much and for how long
must be measured against explicit objectives.  This module is that
layer: an :class:`SloSpec` states an objective over registry metrics,
an :class:`SloMonitor` evaluates every objective over sliding windows
(:mod:`~repro.observability.windows`) and runs the alert lifecycle.

**Objectives reduce to a bad-event fraction.**  Every spec kind maps to
"fraction of events that violated the objective" against an allowed
fraction (the *error budget fraction*):

* ``quantile`` — ``p99(metric) ≤ threshold`` ⇔ at most 1 % of
  observations exceed ``threshold``; budget fraction ``(100 - q)/100``.
* ``ratio`` — bad-event counter over total counter ≤ ``threshold``;
  budget fraction ``threshold``.
* ``availability`` — good counter over total counter ≥ ``threshold``;
  bad fraction ``1 - good/total``, budget fraction ``1 - threshold``.

**Burn rate** is the observed bad fraction divided by the budget
fraction: 1.0 consumes the budget exactly as fast as allowed, 10×
consumes it ten times too fast.  Alerts use the multi-window rule
(fast *and* slow window must both burn above a severity's threshold —
the fast window gates freshness, the slow window gates significance),
with two severities (``page`` above ``ticket``) and hysteresis on
clear: the joint burn must stay below ``clear_ratio`` × the *ticket*
threshold for ``clear_holds`` consecutive evaluations (a
:class:`~.windows.Hysteresis` with no cooldown), so an oscillating burn
cannot flap an alert.

Grouped specs (``group_by="shard"``) expand to one target per labeled
series (``fleet.requests_ok{shard=2}`` …), discovered dynamically so
autoscaled shards join the monitor as their series appear.

Determinism: the monitor stamps observations and evaluates with one
caller-supplied clock.  On a fleet that clock is the simulated
makespan, so the whole alert history is bit-reproducible; on live
traffic it can be :func:`~repro.observability.clock.now_ms`.

Alert transitions land in three places: the ``events`` list (JSON-ready
dicts), spans named ``slo.alert`` on the ``slo`` track through any
enabled recorder (so the existing JSONL/Chrome exporters carry them),
and the per-evaluation ``history`` rows the health snapshot and tests
read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .metrics import MetricsRegistry, labeled
from .tracing import NULL_RECORDER
from .windows import (
    DEAD_BAND,
    DEFAULT_WINDOW_CAPACITY,
    UNDER,
    Hysteresis,
    WindowedSeries,
)

__all__ = [
    "BurnRatePolicy",
    "SEVERITY_PAGE",
    "SEVERITY_TICKET",
    "SLO_KINDS",
    "SloMonitor",
    "SloSpec",
    "default_fleet_slos",
]

#: Objective kinds :class:`SloSpec` accepts.
SLO_KINDS = ("quantile", "ratio", "availability")

SEVERITY_TICKET = "ticket"
SEVERITY_PAGE = "page"
_SEVERITY_RANK = {SEVERITY_TICKET: 1, SEVERITY_PAGE: 2}


@dataclass(frozen=True)
class SloSpec:
    """One declarative objective over registry metrics.

    ``metric`` names the observed series base: a histogram for
    ``quantile``, the bad-event counter for ``ratio``, the good-event
    counter for ``availability``.  ``total`` names the denominator
    counter (ratio/availability only).  ``threshold`` is the objective
    bound in the kind's own units: ms (or whatever the histogram
    observes) for ``quantile``, max bad fraction for ``ratio``, min
    availability for ``availability``.  ``group_by`` expands the spec
    over every series labeled with that key (``{shard=i}``).
    """

    name: str
    kind: str
    metric: str
    total: Optional[str] = None
    threshold: float = 0.0
    quantile: float = 99.0
    group_by: Optional[str] = None
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("SloSpec needs a name")
        if self.kind not in SLO_KINDS:
            raise ValueError(
                f"unknown SLO kind {self.kind!r}; choose from {list(SLO_KINDS)}"
            )
        if self.kind == "quantile":
            if not 0.0 < self.quantile < 100.0:
                raise ValueError("quantile must be in (0, 100)")
            if self.threshold <= 0:
                raise ValueError("quantile objectives need a positive threshold")
        if self.kind == "ratio" and not 0.0 < self.threshold < 1.0:
            raise ValueError("ratio objectives need a threshold in (0, 1)")
        if self.kind == "availability" and not 0.0 < self.threshold < 1.0:
            raise ValueError("availability objectives need a threshold in (0, 1)")
        if self.kind in ("ratio", "availability") and not self.total:
            raise ValueError(f"{self.kind} objectives need a total counter name")

    @property
    def budget_fraction(self) -> float:
        """The allowed bad-event fraction this objective grants."""
        if self.kind == "quantile":
            return (100.0 - self.quantile) / 100.0
        if self.kind == "ratio":
            return self.threshold
        return 1.0 - self.threshold

    def objective(self) -> str:
        """Human-readable objective string for reports."""
        if self.kind == "quantile":
            return f"p{self.quantile:g}({self.metric}) <= {self.threshold:g}"
        if self.kind == "ratio":
            return f"{self.metric}/{self.total} <= {self.threshold:g}"
        return f"{self.metric}/{self.total} >= {self.threshold:g}"


@dataclass(frozen=True)
class BurnRatePolicy:
    """Fast/slow windows, severity thresholds, and the clear hysteresis.

    Windows are in the monitor clock's milliseconds — wall defaults
    here (1 min / 5 min); simulated-clock monitors pass windows sized
    to their round cadence.  A severity fires when *both* windows burn
    at or above its threshold; the alert clears only after the joint
    burn stays below ``clear_ratio × ticket_burn`` for ``clear_holds``
    consecutive evaluations (below the *lowest* severity with margin,
    so a page never clears while still ticket-worthy and a burn
    hovering at a threshold cannot flap).
    """

    fast_window_ms: float = 60_000.0
    slow_window_ms: float = 300_000.0
    page_burn: float = 10.0
    ticket_burn: float = 2.0
    clear_ratio: float = 0.9
    clear_holds: int = 2

    def __post_init__(self) -> None:
        if self.fast_window_ms <= 0 or self.slow_window_ms <= 0:
            raise ValueError("burn-rate windows must be positive")
        if self.fast_window_ms > self.slow_window_ms:
            raise ValueError("fast_window_ms must not exceed slow_window_ms")
        if self.ticket_burn <= 0 or self.page_burn < self.ticket_burn:
            raise ValueError("need 0 < ticket_burn <= page_burn")
        if not 0.0 < self.clear_ratio <= 1.0:
            raise ValueError("clear_ratio must be in (0, 1]")
        if self.clear_holds < 1:
            raise ValueError("clear_holds must be at least 1")

    def severity_for(self, burn: float) -> Optional[str]:
        if burn >= self.page_burn:
            return SEVERITY_PAGE
        if burn >= self.ticket_burn:
            return SEVERITY_TICKET
        return None

    def burn_threshold(self, severity: str) -> float:
        return self.page_burn if severity == SEVERITY_PAGE else self.ticket_burn


class _Target:
    """One (spec, label set) instance: its windows and alert state."""

    __slots__ = (
        "spec", "labels", "values", "bad", "good", "total",
        "state", "severity", "clear",
        "peak_value", "peak_t_ms", "min_budget_remaining",
    )

    def __init__(
        self, spec: SloSpec, labels: dict[str, str], clear_holds: int
    ) -> None:
        self.spec = spec
        self.labels = dict(labels)
        self.values: Optional[WindowedSeries] = None  # quantile observations
        self.bad: Optional[WindowedSeries] = None     # ratio bad increments
        self.good: Optional[WindowedSeries] = None    # availability good increments
        self.total: Optional[WindowedSeries] = None   # denominator increments
        self.state = "ok"
        self.severity: Optional[str] = None
        #: The firing alert's clear streak (:data:`UNDER` readings).
        self.clear = Hysteresis(clear_holds)
        # All-time high-waters across evaluations, so a transient spike
        # (and the budget it spent) stays visible in a report taken
        # after the windows have slid past it.
        self.peak_value: Optional[float] = None
        self.peak_t_ms: Optional[float] = None
        self.min_budget_remaining = 1.0

    @property
    def key(self) -> tuple[str, tuple[tuple[str, str], ...]]:
        return (self.spec.name, tuple(sorted(self.labels.items())))

    def bad_fraction(self, now_ms: float, window_ms: float) -> float:
        spec = self.spec
        if spec.kind == "quantile":
            n = self.values.count(now_ms, window_ms)
            if not n:
                return 0.0
            return self.values.count_above(spec.threshold, now_ms, window_ms) / n
        total = self.total.total(now_ms, window_ms)
        if total <= 0:
            return 0.0
        if spec.kind == "ratio":
            return min(1.0, self.bad.total(now_ms, window_ms) / total)
        good = self.good.total(now_ms, window_ms)
        return min(1.0, max(0.0, (total - good) / total))

    def burn(self, now_ms: float, window_ms: float) -> float:
        budget = self.spec.budget_fraction
        if budget <= 0:
            return 0.0
        return self.bad_fraction(now_ms, window_ms) / budget

    def value(self, now_ms: float, window_ms: float) -> Optional[float]:
        """The objective's observed value over one window (for reports):
        the windowed quantile, the bad ratio, or the availability."""
        spec = self.spec
        if spec.kind == "quantile":
            return self.values.percentile(spec.quantile, now_ms, window_ms)
        total = self.total.total(now_ms, window_ms)
        if total <= 0:
            return None
        if spec.kind == "ratio":
            return min(1.0, self.bad.total(now_ms, window_ms) / total)
        return min(1.0, max(0.0, self.good.total(now_ms, window_ms) / total))


class SloMonitor:
    """Evaluates a set of :class:`SloSpec` objectives over one registry.

    Construction attaches windowed taps to the named metrics (grouped
    specs re-discover labeled series on every :meth:`sync`, so shards
    added later join in).  :meth:`evaluate` — called once per round (or
    per scrape) with the current clock reading — updates every target's
    burn rates, runs the alert state machine, and returns the new
    transition events.  All state is per-monitor; detach with
    :meth:`detach` when a shared registry must outlive the monitor.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        specs: Sequence[SloSpec],
        clock: Callable[[], float],
        policy: Optional[BurnRatePolicy] = None,
        recorder=None,
        capacity: int = DEFAULT_WINDOW_CAPACITY,
    ) -> None:
        if not specs:
            raise ValueError("SloMonitor needs at least one SloSpec")
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate SLO names: {sorted(names)}")
        self.registry = registry
        self.specs = tuple(specs)
        self.clock = clock
        self.policy = policy if policy is not None else BurnRatePolicy()
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.capacity = int(capacity)
        self._targets: dict[tuple, _Target] = {}
        self._taps: list[tuple[object, Callable]] = []
        #: Alert transitions, in firing order (JSON-ready dicts).
        self.events: list[dict[str, object]] = []
        #: One row per target per evaluation (the p99-spike trace).
        self.history: list[dict[str, object]] = []
        self.evaluations = 0
        #: Worst joint burn across targets at the last evaluation — the
        #: pressure signal the burn-rate autoscaler policy consumes.
        self.last_burn = 0.0
        self.sync()

    # -- target discovery ---------------------------------------------
    def _tap_series(self, metric_name: str, create: str) -> WindowedSeries:
        series = WindowedSeries(
            name=metric_name,
            window_ms=self.policy.slow_window_ms,
            capacity=self.capacity,
        )
        if create == "histogram":
            metric = self.registry.histogram(metric_name)
        else:
            metric = self.registry.counter(metric_name)
        clock = self.clock

        def tap(value: float, _series=series, _clock=clock) -> None:
            _series.observe(value, _clock())

        metric.watch(tap)
        self._taps.append((metric, tap))
        return series

    def _make_target(self, spec: SloSpec, labels: dict[str, str]) -> None:
        target = _Target(spec, labels, self.policy.clear_holds)
        if target.key in self._targets:
            return
        metric_name = labeled(spec.metric, **labels)
        if spec.kind == "quantile":
            target.values = self._tap_series(metric_name, "histogram")
        else:
            series = self._tap_series(metric_name, "counter")
            if spec.kind == "ratio":
                target.bad = series
            else:
                target.good = series
            target.total = self._tap_series(labeled(spec.total, **labels), "counter")
        self._targets[target.key] = target

    def sync(self) -> None:
        """(Re)discover targets; grouped specs follow the registry."""
        for spec in self.specs:
            if spec.group_by is None:
                self._make_target(spec, {})
                continue
            for label_items in self.registry.labeled_group(spec.metric):
                labels = dict(label_items)
                if spec.group_by in labels:
                    self._make_target(spec, labels)

    def detach(self) -> None:
        """Remove every watcher this monitor installed."""
        for metric, tap in self._taps:
            metric.unwatch(tap)
        self._taps.clear()

    # -- evaluation ----------------------------------------------------
    def _transition(
        self, target: _Target, transition: str, now_ms: float,
        fast_burn: float, slow_burn: float,
    ) -> dict[str, object]:
        event: dict[str, object] = {
            "t_ms": now_ms,
            "slo": target.spec.name,
            "labels": dict(target.labels),
            "transition": transition,
            "severity": target.severity,
            "fast_burn": fast_burn,
            "slow_burn": slow_burn,
        }
        self.events.append(event)
        rec = self.recorder
        if rec.enabled:
            rec.add_span(
                "slo.alert",
                track="slo",
                sim_start_ms=now_ms,
                sim_ms=0.0,
                slo=target.spec.name,
                labels=dict(target.labels),
                transition=transition,
                severity=target.severity,
                fast_burn=fast_burn,
                slow_burn=slow_burn,
            )
        return event

    def _step_alert(
        self, target: _Target, now_ms: float, fast_burn: float, slow_burn: float
    ) -> Optional[dict[str, object]]:
        pol = self.policy
        joint = min(fast_burn, slow_burn)  # both windows must agree
        severity = pol.severity_for(joint)
        if target.state == "ok":
            if severity is None:
                return None
            target.state = "firing"
            target.severity = severity
            return self._transition(target, "fire", now_ms, fast_burn, slow_burn)
        # firing
        if (
            severity is not None
            and _SEVERITY_RANK[severity] > _SEVERITY_RANK[target.severity]
        ):
            target.severity = severity
            target.clear.reset(UNDER)
            return self._transition(target, "escalate", now_ms, fast_burn, slow_burn)
        below = joint < pol.clear_ratio * pol.ticket_burn
        if target.clear.step(UNDER if below else DEAD_BAND) is None:
            return None
        event = self._transition(target, "clear", now_ms, fast_burn, slow_burn)
        target.state = "ok"
        target.severity = None
        target.clear.fire(UNDER)
        return event

    def budget_remaining(self, target: _Target, now_ms: float) -> float:
        """Error budget left over the slow window, in [0, 1]: 1 − the
        slow-window burn (burn 1.0 spends the budget exactly)."""
        return max(0.0, 1.0 - target.burn(now_ms, self.policy.slow_window_ms))

    def evaluate(self, now_ms: Optional[float] = None) -> list[dict[str, object]]:
        """Run one evaluation round; returns the new transition events."""
        now = self.clock() if now_ms is None else float(now_ms)
        self.sync()
        self.evaluations += 1
        pol = self.policy
        new_events: list[dict[str, object]] = []
        worst = 0.0
        for key in sorted(self._targets):
            target = self._targets[key]
            fast = target.burn(now, pol.fast_window_ms)
            slow = target.burn(now, pol.slow_window_ms)
            worst = max(worst, min(fast, slow))
            event = self._step_alert(target, now, fast, slow)
            if event is not None:
                new_events.append(event)
            fast_value = target.value(now, pol.fast_window_ms)
            budget = self.budget_remaining(target, now)
            if fast_value is not None and (
                target.peak_value is None or fast_value > target.peak_value
            ):
                target.peak_value = fast_value
                target.peak_t_ms = now
            target.min_budget_remaining = min(target.min_budget_remaining, budget)
            self.history.append(
                {
                    "t_ms": now,
                    "evaluation": self.evaluations,
                    "slo": target.spec.name,
                    "labels": dict(target.labels),
                    "fast_value": fast_value,
                    "slow_value": target.value(now, pol.slow_window_ms),
                    "fast_burn": fast,
                    "slow_burn": slow,
                    "state": target.state,
                    "severity": target.severity,
                    "budget_remaining": budget,
                }
            )
        self.last_burn = worst
        return new_events

    # -- reporting -----------------------------------------------------
    def _rows(
        self, now_ms: float, label_filter: Optional[dict[str, str]] = None
    ) -> list[dict[str, object]]:
        pol = self.policy
        rows = []
        for key in sorted(self._targets):
            target = self._targets[key]
            if label_filter is not None and any(
                target.labels.get(k) != v for k, v in label_filter.items()
            ):
                continue
            rows.append(
                {
                    "slo": target.spec.name,
                    "objective": target.spec.objective(),
                    "labels": dict(target.labels),
                    "fast_value": target.value(now_ms, pol.fast_window_ms),
                    "slow_value": target.value(now_ms, pol.slow_window_ms),
                    "fast_burn": target.burn(now_ms, pol.fast_window_ms),
                    "slow_burn": target.burn(now_ms, pol.slow_window_ms),
                    "state": target.state,
                    "severity": target.severity,
                    "budget_remaining": self.budget_remaining(target, now_ms),
                    "peak_value": target.peak_value,
                    "peak_t_ms": target.peak_t_ms,
                    "min_budget_remaining": target.min_budget_remaining,
                }
            )
        return rows

    def report(self, now_ms: Optional[float] = None) -> dict[str, object]:
        """JSON-ready SLO report: every target's windowed state."""
        now = self.clock() if now_ms is None else float(now_ms)
        return {
            "t_ms": now,
            "evaluations": self.evaluations,
            "policy": {
                "fast_window_ms": self.policy.fast_window_ms,
                "slow_window_ms": self.policy.slow_window_ms,
                "page_burn": self.policy.page_burn,
                "ticket_burn": self.policy.ticket_burn,
                "clear_ratio": self.policy.clear_ratio,
                "clear_holds": self.policy.clear_holds,
            },
            "slos": self._rows(now),
            "alerts": self.active_alerts(),
            "events": [dict(e) for e in self.events],
        }

    def active_alerts(
        self, label_filter: Optional[dict[str, str]] = None
    ) -> list[dict[str, object]]:
        """Currently-firing targets (optionally restricted to targets
        whose labels include ``label_filter``)."""
        now = self.clock()
        return [
            row
            for row in self._rows(now, label_filter)
            if row["state"] == "firing"
        ]

    def rows_for_labels(
        self, label_filter: dict[str, str], now_ms: Optional[float] = None
    ) -> list[dict[str, object]]:
        """Report rows for one label subset (a shard's health panel)."""
        now = self.clock() if now_ms is None else float(now_ms)
        return self._rows(now, label_filter)


def default_fleet_slos(
    queue_wait_p99_ms: float = 50.0,
    max_fallback_fraction: float = 0.05,
    min_availability: float = 0.99,
) -> tuple[SloSpec, ...]:
    """The stock fleet objectives :meth:`FleetRouter.enable_monitoring`
    installs: per-shard p99 queue wait, fleet-wide fallback ratio, and
    per-shard request availability (all over the fleet registry's
    series — see DESIGN.md §14 for the metric contracts)."""
    return (
        SloSpec(
            name="queue-wait-p99",
            kind="quantile",
            metric="sched.request_queue_wait_ms",
            threshold=queue_wait_p99_ms,
            quantile=99.0,
            group_by="shard",
            description="per-shard p99 simulated queue wait",
        ),
        SloSpec(
            name="fallback-rate",
            kind="ratio",
            metric="session.fallback_samples",
            total="session.samples",
            threshold=max_fallback_fraction,
            description="fraction of samples degraded to the binary fallback",
        ),
        SloSpec(
            name="shard-availability",
            kind="availability",
            metric="fleet.requests_ok",
            total="fleet.requests_total",
            threshold=min_availability,
            group_by="shard",
            description="per-shard fraction of requests answered by the edge",
        ),
    )
