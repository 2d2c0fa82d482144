"""Closed-loop entropy-threshold (τ) control for overloaded fleets.

The static LCRS deployment fixes the entropy gate τ at calibration time:
a sample exits in the browser when its branch entropy falls below τ, and
everything else travels to the edge.  Under load that split is exactly
backwards — the busier the edge, the *more* traffic the static gate
sends it, until the scheduler starts shedding requests and clients burn
their retry budgets on 503s.

:class:`TauController` closes the loop.  Per shard, it watches the
windowed p99 of ``sched.request_queue_wait_ms`` (the same
:class:`~repro.observability.windows.WindowedSeries` machinery the SLO
monitor burns budget against) and treats τ as a relief valve:

* sustained waits above ``target_wait_ms`` → raise τ (more local exits,
  less edge traffic), one ``step_up`` per firing, capped at ``tau_max``;
* sustained waits below ``low_wait_ms`` → lower τ back toward
  ``tau_min``, one ``step_down`` per firing;
* waits inside the dead band reset both streaks, and every action arms
  a cooldown — the fleet autoscaler's
  :class:`~repro.observability.windows.Hysteresis`, so an oscillating
  load trace produces zero actions.

When τ is already pinned at ``tau_max`` and pressure persists, the
controller spends *accuracy* instead of latency: it steps the shard's
branch ``quality_tier`` down (fewer ABC-Net bases → a cheaper, slightly
less accurate local branch → faster browser turnaround and more
confident-enough exits), floored at ``min_quality_tier``, and restores
the tier before it starts lowering τ on drain.

The controller is deliberately pure state-machine plus windowed reads:
:meth:`TauController.step` is driven with raw p99 numbers in tests, and
:meth:`TauController.update` is the fleet-facing wrapper that reads the
metric windows, publishes ``tau.value{shard=i}`` / ``tau.tier{shard=i}``
gauges, and records a ``tau.adjust`` span per action.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from ..observability import NULL_RECORDER
from ..observability.metrics import MetricsRegistry, labeled
from ..observability.windows import OVER, Hysteresis, MetricWindows

#: Action names returned by :meth:`TauController.step`.
ACTION_RAISE_TAU = "raise-tau"
ACTION_LOWER_TAU = "lower-tau"
ACTION_TIER_DOWN = "tier-down"
ACTION_TIER_UP = "tier-up"

#: The queue-wait series the controller watches, per shard.
QUEUE_WAIT_METRIC = "sched.request_queue_wait_ms"


@dataclass(frozen=True)
class TauControlConfig:
    """Policy knobs for :class:`TauController` (frozen, validated).

    ``tau_initial`` is where every shard's τ starts and where drain
    returns it; ``None`` means ``tau_min`` (the calibrated operating
    point when the deployment calibrates at its floor).  ``hold_rounds``
    consecutive out-of-band readings are required before any action and
    ``cooldown_rounds`` quiet rounds follow each one — the dead band
    between ``low_wait_ms`` and ``target_wait_ms`` resets both streaks,
    which is what keeps an oscillating load trace action-free.

    ``min_quality_tier`` / ``tier_hold_rounds`` govern the accuracy
    tier: only after ``tier_hold_rounds`` further over-pressure firings
    *at* ``tau_max`` does the controller trade accuracy for service
    time, and never below ``min_quality_tier``.
    """

    tau_min: float = 0.05
    tau_max: float = 0.9
    tau_initial: Optional[float] = None
    step_up: float = 0.1
    step_down: float = 0.05
    target_wait_ms: float = 25.0
    low_wait_ms: float = 5.0
    hold_rounds: int = 2
    cooldown_rounds: int = 1
    window_ms: float = 60_000.0
    min_quality_tier: int = 1
    tier_hold_rounds: int = 2

    def __post_init__(self) -> None:
        if not 0.0 <= self.tau_min < self.tau_max <= 1.0:
            raise ValueError("need 0 <= tau_min < tau_max <= 1")
        if self.tau_initial is not None and not (
            self.tau_min <= self.tau_initial <= self.tau_max
        ):
            raise ValueError("tau_initial must lie within [tau_min, tau_max]")
        if self.step_up <= 0.0 or self.step_down <= 0.0:
            raise ValueError("step sizes must be positive")
        if not 0.0 <= self.low_wait_ms < self.target_wait_ms:
            raise ValueError(
                "low_wait_ms must be below target_wait_ms (the dead band "
                "is the hysteresis)"
            )
        Hysteresis(self.hold_rounds, self.cooldown_rounds)  # range checks
        if self.window_ms <= 0.0:
            raise ValueError("window_ms must be positive")
        if self.min_quality_tier < 1:
            raise ValueError("min_quality_tier must be at least 1")
        if self.tier_hold_rounds < 1:
            raise ValueError("tier_hold_rounds must be at least 1")

    @property
    def start_tau(self) -> float:
        return self.tau_initial if self.tau_initial is not None else self.tau_min


@dataclass
class TauShardState:
    """One shard's controller state (τ, tier, streaks, cooldown)."""

    tau: float
    quality_tier: int
    hysteresis: Hysteresis
    saturated: int = 0
    adjustments: int = 0
    last_p99_ms: Optional[float] = None

    def as_dict(self) -> dict:
        return {
            "tau": self.tau,
            "quality_tier": self.quality_tier,
            "over_streak": self.hysteresis.over,
            "under_streak": self.hysteresis.under,
            "saturated_streak": self.saturated,
            "cooldown": self.hysteresis.cooldown,
            "adjustments": self.adjustments,
            "last_p99_wait_ms": self.last_p99_ms,
        }


class TauController:
    """Per-shard closed-loop τ / accuracy-tier controller.

    Construction wires nothing: the controller only taps a shard's
    queue-wait histogram the first time :meth:`update` sees that shard,
    so enabling control on an idle fleet allocates no windows.  All
    state lives on the instance (shard states, window taps, gauge
    handles) — there is no module-level mutability.
    """

    def __init__(
        self,
        config: Optional[TauControlConfig] = None,
        *,
        registry: Optional[MetricsRegistry] = None,
        clock: Optional[Callable[[], float]] = None,
        max_quality_tier: int = 1,
        recorder=None,
    ) -> None:
        self.config = config if config is not None else TauControlConfig()
        self.max_quality_tier = max(1, int(max_quality_tier))
        if self.config.min_quality_tier > self.max_quality_tier:
            raise ValueError(
                "min_quality_tier exceeds the deployment's max_quality_tier"
            )
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self._registry = registry
        self._states: dict[int, TauShardState] = {}
        self._windows = (
            MetricWindows(
                registry, clock=clock or (lambda: 0.0), window_ms=self.config.window_ms
            )
            if registry is not None
            else None
        )
        self._series: dict[int, object] = {}
        #: Lifetime wait-sample count per shard at the previous update —
        #: the freshness check behind treating a quiet round as relief.
        self._counts: dict[int, int] = {}
        self.actions: list[dict] = []

    # ------------------------------------------------------------------
    # State access
    # ------------------------------------------------------------------
    def state(self, shard_id: int) -> TauShardState:
        """The shard's state, created at the start point on first touch."""
        st = self._states.get(shard_id)
        if st is None:
            cfg = self.config
            st = TauShardState(
                tau=cfg.start_tau,
                quality_tier=self.max_quality_tier,
                hysteresis=Hysteresis(cfg.hold_rounds, cfg.cooldown_rounds),
            )
            self._states[shard_id] = st
        return st

    def threshold(self, shard_id: int) -> float:
        """The τ sessions routed to this shard should gate with now."""
        return self.state(shard_id).tau

    def quality_tier(self, shard_id: int) -> int:
        """The branch accuracy tier this shard's sessions should run at."""
        return self.state(shard_id).quality_tier

    def forget_shard(self, shard_id: int) -> None:
        """Drop a retired shard's state and window tap."""
        self._states.pop(shard_id, None)
        self._series.pop(shard_id, None)

    def describe(self) -> dict:
        """Controller snapshot for :class:`~repro.runtime.fleet.FleetHealth`."""
        return {
            "target_wait_ms": self.config.target_wait_ms,
            "low_wait_ms": self.config.low_wait_ms,
            "tau_bounds": [self.config.tau_min, self.config.tau_max],
            "max_quality_tier": self.max_quality_tier,
            "adjustments": sum(s.adjustments for s in self._states.values()),
            "shards": {i: s.as_dict() for i, s in sorted(self._states.items())},
        }

    # ------------------------------------------------------------------
    # The state machine
    # ------------------------------------------------------------------
    def step(self, shard_id: int, p99_wait_ms: Optional[float]) -> Optional[str]:
        """Feed one round's p99 queue wait; returns the action fired.

        The reading goes through the shard's
        :class:`~repro.observability.windows.Hysteresis`: streaks
        accumulate while readings stay out of band, the dead band resets
        them, and the cooldown suppresses (and consumes) rounds.  A ready
        streak is spent whether or not an action fires; only an action
        arms the cooldown.  A ``None`` reading (no queue traffic at all
        this round) is *no evidence*, not low pressure: it clears the
        over-pressure streaks but never drives drain — a τ that silenced
        the queue must not snap back on the silence it created.  Drain
        requires *measured* low waits from live traffic.
        """
        cfg = self.config
        st = self.state(shard_id)
        reading = None
        st.last_p99_ms = None
        if p99_wait_ms is not None:
            st.last_p99_ms = float(p99_wait_ms)
            reading = Hysteresis.classify(
                st.last_p99_ms, cfg.low_wait_ms, cfg.target_wait_ms
            )
        if reading != OVER:
            st.saturated = 0
        ready = st.hysteresis.step(reading)
        if ready is None:
            return None
        action = self._act(st, ready)
        if action is None:
            st.hysteresis.reset(ready)
        else:
            st.hysteresis.fire(ready)
            st.adjustments += 1
        return action

    def _act(self, st: TauShardState, ready: str) -> Optional[str]:
        """Apply one ready streak's action to τ or the tier, if any."""
        cfg = self.config
        if ready == OVER:
            if st.tau < cfg.tau_max:
                st.tau = min(cfg.tau_max, st.tau + cfg.step_up)
                return ACTION_RAISE_TAU
            # τ is pinned: only sustained saturation spends accuracy.
            st.saturated += 1
            if (
                st.saturated >= cfg.tier_hold_rounds
                and st.quality_tier > cfg.min_quality_tier
            ):
                st.saturated = 0
                st.quality_tier -= 1
                return ACTION_TIER_DOWN
            return None
        if st.quality_tier < self.max_quality_tier:
            st.quality_tier += 1
            return ACTION_TIER_UP
        if st.tau > cfg.start_tau:
            st.tau = max(cfg.start_tau, st.tau - cfg.step_down)
            return ACTION_LOWER_TAU
        return None

    # ------------------------------------------------------------------
    # Fleet-facing round update
    # ------------------------------------------------------------------
    def _p99(self, shard_id: int, now_ms: float) -> Optional[float]:
        """The shard's windowed p99 queue wait, or ``None`` when quiet.

        A raised τ can relieve the queue so completely that no trunk
        batch runs — and then the shard's simulated clock stops, the
        window never slides, and the overload-era p99 would read as
        live pressure forever.  The lifetime wait-sample count is the
        tiebreaker: a control round that saw *no new* wait samples is a
        round with no edge traffic at all — no evidence in either
        direction, whatever the stale window says (see :meth:`step`).
        """
        if self._windows is None:
            return None
        name = labeled(QUEUE_WAIT_METRIC, shard=shard_id)
        series = self._series.get(shard_id)
        if series is None:
            series = self._windows.watch_histogram(name)
            self._series[shard_id] = series
        seen = self._registry.histogram(name).count
        quiet = self._counts.get(shard_id) == seen
        self._counts[shard_id] = seen
        if quiet:
            return None
        return series.percentile(99.0, now_ms)

    def update(self, shard_ids: Iterable[int], now_ms: float) -> list[dict]:
        """One control round over the live shards.

        Reads each shard's windowed p99 queue wait, steps its state
        machine, refreshes the ``tau.value`` / ``tau.tier`` gauges, and
        returns the actions fired this round (also appended to
        ``self.actions`` and recorded as ``tau.adjust`` spans).
        """
        fired: list[dict] = []
        for shard_id in shard_ids:
            p99 = self._p99(shard_id, now_ms)
            action = self.step(shard_id, p99)
            st = self._states[shard_id]
            if self._registry is not None:
                self._registry.gauge(labeled("tau.value", shard=shard_id)).set(st.tau)
                self._registry.gauge(labeled("tau.tier", shard=shard_id)).set(
                    float(st.quality_tier)
                )
            if action is not None:
                detail = {
                    "shard": shard_id,
                    "action": action,
                    "tau": st.tau,
                    "quality_tier": st.quality_tier,
                    "p99_wait_ms": p99,
                }
                fired.append(detail)
                self.actions.append(detail)
                if self.recorder.enabled:
                    span = self.recorder.start_span(
                        "tau.adjust", track="fleet", **detail
                    )
                    span.set_sim(now_ms, 0.0)
                    self.recorder.end_span(span)
        return fired
