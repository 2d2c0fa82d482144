"""Multi-edge fleet: sharded routing, autoscaling, and failure domains.

One :class:`~repro.runtime.scheduler.EdgeScheduler` is one box.  The
paper's §I cost argument is about *millions* of AR users, and no single
edge server survives that arrival rate — the fleet is the horizontal
story: N scheduler shards, each with its own simulated c-lane
:class:`~repro.runtime.worker_pool.WorkerPool`, bounded queue, and
:class:`~repro.runtime.concurrency.ServiceTimeModel`, behind a
:class:`FleetRouter` that places *sessions* (not requests) onto shards.

The router speaks the scheduler's exact wire surface — ``submit`` /
``flush`` / ``collect`` / ``register`` — so every existing client path
(:meth:`~repro.runtime.session.LCRSDeployment._exchange`,
:func:`~repro.runtime.scheduler.run_concurrent_sessions`) runs against a
fleet unchanged.  Three concerns live here:

* **Placement** — sticky session→shard assignment, selectable via
  :class:`FleetConfig`: ``"hash"`` consistent-hashes session ids onto a
  virtual-node ring (deterministic for a fixed seed; adding a shard
  claims only new sessions, removing one moves only its sessions) or
  ``"least-loaded"`` places each new session on the emptiest shard.
* **Failure domains** — each shard is reached through a control link
  that :class:`~repro.runtime.network.FaultyLink` profiles can
  partition.  The router counts *consecutive* structured-503/timeout
  signals per shard; at ``failure_threshold`` the shard is marked down,
  its uncollected tickets answer with structured 503s, and its live
  sessions re-route to healthy shards — the client's existing
  retry-then-binary-fallback path absorbs the blip, so overload and
  partition degrade accuracy, never availability.
* **Autoscaling** — an :class:`Autoscaler` watches the per-shard
  ``sched.queue_depth`` / ``sched.workers_busy`` gauges each flush
  round and adds or drains shards with hysteresis (hold rounds, a dead
  band between thresholds, and a cooldown) inside ``[min_shards,
  max_shards]``.  Draining is remove-safe: a draining shard takes no new
  sessions, finishes its in-flight tickets, and only then retires.

Every shard writes shard-labeled metric series
(``sched.queue_depth{shard=2}``) into the router's shared registry, so
fleet telemetry exports as one snapshot without shards folding into a
single series; a bare scheduler keeps the unlabeled names bit-for-bit.

Timing stays fully simulated and deterministic, and every shard flushes
on the caller's thread: shards price their own batches on their own
simulated worker lanes, and the fleet makespan is the
latest shard's clock — which is what the M/M/c·N capacity bound in
:mod:`repro.experiments.fleet` cross-checks.
"""

from __future__ import annotations

import hashlib
import itertools
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..observability import NULL_RECORDER
from ..observability.metrics import MetricsRegistry, labeled
from ..observability.slo import BurnRatePolicy, SloMonitor, default_fleet_slos
from ..observability.windows import DEAD_BAND, OVER, UNDER, Hysteresis
from .network import FAULT_PROFILES, FrameDropped, FrameTimeout, NetworkLink, faulty
from .protocol import (
    ErrorResponse,
    ProtocolError,
    SchedulerAck,
    decode_frame,
    encode_frame,
    peek_session,
)
from .scheduler import EdgeScheduler, SchedulerConfig
from .tau_control import TauControlConfig, TauController

#: Placement policies :class:`FleetConfig` accepts.
PLACEMENT_POLICIES = ("hash", "least-loaded")

#: Shard lifecycle states.  ``active`` shards take new sessions;
#: ``draining`` shards serve nothing new and retire once empty;
#: ``down`` shards are partitioned away; ``retired`` shards only answer
#: outstanding :meth:`FleetRouter.collect` calls.
SHARD_ACTIVE = "active"
SHARD_DRAINING = "draining"
SHARD_DOWN = "down"
SHARD_RETIRED = "retired"

#: Autoscaler pressure signals :class:`AutoscalerConfig` accepts.
AUTOSCALER_POLICIES = ("queue-depth", "burn-rate")


@dataclass(frozen=True)
class AutoscalerConfig:
    """Hysteresis bounds for fleet sizing.

    The signal is the per-round mean of each active shard's queue-depth
    high-water (samples queued at admission, from the
    ``sched.queue_depth{shard=i}`` gauges) plus the worker-busy fraction
    (``sched.workers_busy{shard=i}`` over ``num_workers``).  Pressure
    above ``scale_up_depth`` for ``hold_rounds`` consecutive rounds adds
    a shard; idling below ``scale_down_depth`` for ``hold_rounds``
    drains one.  The dead band between the two thresholds, the hold
    requirement, and ``cooldown_rounds`` after any action are the
    anti-flapping contract an oscillating load trace must not defeat.
    """

    min_shards: int = 1
    max_shards: int = 8
    scale_up_depth: float = 64.0
    scale_down_depth: float = 8.0
    #: Additionally require this busy fraction before scaling up (0
    #: disables the check; 1.0 demands every worker saturated).
    min_busy_fraction: float = 0.0
    #: Only scale down when the busy fraction is at or below this.
    max_idle_busy_fraction: float = 1.0
    hold_rounds: int = 2
    cooldown_rounds: int = 2
    #: Pressure signal: ``"queue-depth"`` (the default, bit-compatible
    #: with fleets that predate SLO monitoring) reads the queue/busy
    #: gauges; ``"burn-rate"`` reads the attached
    #: :class:`~repro.observability.slo.SloMonitor`'s worst joint burn
    #: and scales on error-budget spend instead of raw backlog (requires
    #: :meth:`FleetRouter.enable_monitoring`; rounds without a burn
    #: reading fall back to the queue-depth signal).
    policy: str = "queue-depth"
    scale_up_burn: float = 2.0
    scale_down_burn: float = 0.5

    def __post_init__(self) -> None:
        if self.min_shards < 1:
            raise ValueError("min_shards must be at least 1")
        if self.max_shards < self.min_shards:
            raise ValueError("max_shards must be >= min_shards")
        if self.scale_down_depth < 0:
            raise ValueError("scale_down_depth must be non-negative")
        if self.scale_up_depth <= 0:
            raise ValueError("scale_up_depth must be positive")
        if self.scale_down_depth >= self.scale_up_depth:
            raise ValueError(
                "scale_down_depth must be below scale_up_depth "
                "(the dead band is the hysteresis)"
            )
        for name in ("min_busy_fraction", "max_idle_busy_fraction"):
            frac = getattr(self, name)
            if not 0.0 <= frac <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        Hysteresis(self.hold_rounds, self.cooldown_rounds)  # range checks
        if self.policy not in AUTOSCALER_POLICIES:
            raise ValueError(
                f"unknown autoscaler policy {self.policy!r}; "
                f"choose from {list(AUTOSCALER_POLICIES)}"
            )
        if self.scale_down_burn < 0:
            raise ValueError("scale_down_burn must be non-negative")
        if self.scale_up_burn <= 0:
            raise ValueError("scale_up_burn must be positive")
        if self.scale_down_burn >= self.scale_up_burn:
            raise ValueError(
                "scale_down_burn must be below scale_up_burn "
                "(the dead band is the hysteresis)"
            )


@dataclass(frozen=True)
class FleetConfig:
    """Everything one :class:`FleetRouter` can vary — the frozen single
    entry point of the fleet API (``FleetRouter(shard_factory, config=…)``).

    ``scheduler`` is the per-shard :class:`SchedulerConfig` (every shard
    is an identical failure domain); ``placement`` selects the routing
    policy; ``autoscaler`` turns elastic sizing on (``None`` keeps the
    fleet at ``num_shards`` forever); ``failure_threshold`` is how many
    *consecutive* structured-503/timeout submit signals mark a shard
    down.  Frozen and hashable, mirroring ``SessionConfig``, so fleet
    operating points can be logged and compared across sweeps.
    """

    num_shards: int = 2
    placement: str = "hash"
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    autoscaler: Optional[AutoscalerConfig] = None
    failure_threshold: int = 3
    #: Ring points per shard for ``"hash"`` placement; more points give
    #: a smoother session spread at slightly larger rebuild cost.
    virtual_nodes: int = 64
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ValueError("num_shards must be at least 1")
        if self.placement not in PLACEMENT_POLICIES:
            raise ValueError(
                f"unknown placement {self.placement!r}; "
                f"choose from {list(PLACEMENT_POLICIES)}"
            )
        if not isinstance(self.scheduler, SchedulerConfig):
            raise TypeError("scheduler must be a SchedulerConfig")
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        if self.virtual_nodes < 1:
            raise ValueError("virtual_nodes must be at least 1")
        if self.autoscaler is not None:
            if not isinstance(self.autoscaler, AutoscalerConfig):
                raise TypeError("autoscaler must be an AutoscalerConfig")
            if not (
                self.autoscaler.min_shards
                <= self.num_shards
                <= self.autoscaler.max_shards
            ):
                raise ValueError(
                    "num_shards must start inside the autoscaler's "
                    "[min_shards, max_shards] bounds"
                )


class Autoscaler:
    """Fleet sizing over the per-round pressure signal.

    :meth:`step` is pure bookkeeping — it classifies one round's mean
    queue-depth high-water and busy fraction (or the SLO burn) into a
    :class:`~repro.observability.windows.Hysteresis` reading and answers
    ``"scale-up"``, ``"scale-down"``, or ``None``; the router applies the
    action.  At ``min_shards``/``max_shards`` a ready streak is left
    counting, so it fires on the first round the bound frees.  Kept
    separate so the no-flapping contract is testable against synthetic
    load traces without building a fleet.
    """

    def __init__(self, config: AutoscalerConfig) -> None:
        self.config = config
        self._hysteresis = Hysteresis(config.hold_rounds, config.cooldown_rounds)

    def step(
        self,
        mean_depth: float,
        busy_fraction: float,
        active_shards: int,
        burn_rate: Optional[float] = None,
    ) -> Optional[str]:
        cfg = self.config
        if cfg.policy == "burn-rate" and burn_rate is not None:
            # SLO-driven sizing: pressure is error-budget spend, not
            # backlog, through the same hysteresis.
            reading = Hysteresis.classify(
                burn_rate, cfg.scale_down_burn, cfg.scale_up_burn
            )
        elif mean_depth >= cfg.scale_up_depth and busy_fraction >= cfg.min_busy_fraction:
            reading = OVER
        elif (
            mean_depth <= cfg.scale_down_depth
            and busy_fraction <= cfg.max_idle_busy_fraction
        ):
            reading = UNDER
        else:
            reading = DEAD_BAND
        ready = self._hysteresis.step(reading)
        if ready == OVER and active_shards < cfg.max_shards:
            self._hysteresis.fire(OVER)
            return "scale-up"
        if ready == UNDER and active_shards > cfg.min_shards:
            self._hysteresis.fire(UNDER)
            return "scale-down"
        return None


def _loopback_link(shard_id: int) -> NetworkLink:
    """The router→shard control link: effectively free and fault-less
    until a partition profile wraps it."""
    return NetworkLink(
        name=f"shard{shard_id}", downlink_bps=1e9, uplink_bps=1e9, rtt_ms=0.0
    )


class _Shard:
    """One failure domain: a scheduler, its control link, its sessions."""

    __slots__ = (
        "shard_id",
        "scheduler",
        "base_link",
        "link",
        "state",
        "consecutive_failures",
        "sessions",
        "requests_ok",
        "requests_total",
    )

    def __init__(self, shard_id: int, scheduler: EdgeScheduler) -> None:
        self.shard_id = shard_id
        self.scheduler = scheduler
        self.base_link = _loopback_link(shard_id)
        self.link = self.base_link
        self.state = SHARD_ACTIVE
        self.consecutive_failures = 0
        self.sessions: set[int] = set()
        registry = scheduler.registry
        # Availability series the per-shard SLO watches: a request is
        # "ok" when its reply was computed and collected from this
        # shard; failed submits and stranded tickets bump only the
        # total.  Bumped via Counter.add so windowed watchers fire.
        self.requests_ok = registry.counter(
            labeled("fleet.requests_ok", shard=shard_id)
        )
        self.requests_total = registry.counter(
            labeled("fleet.requests_total", shard=shard_id)
        )

    @property
    def placeable(self) -> bool:
        """May take a *new* session placement."""
        return self.state == SHARD_ACTIVE

    @property
    def serving(self) -> bool:
        """Still flushes queued work (active or finishing a drain)."""
        return self.state in (SHARD_ACTIVE, SHARD_DRAINING)

    def describe(self) -> dict[str, object]:
        h = self.scheduler.health()
        return {
            "shard": self.shard_id,
            "state": self.state,
            "sessions": len(self.sessions),
            "samples_served": h["samples_served"],
            "batches": h["batches"],
            "busy_ms": h["busy_ms"],
            "throughput_rps": h["throughput_rps"],
            "mean_queue_wait_ms": h["mean_queue_wait_ms"],
            "shed_samples": h["shed_samples"],
            "clock_ms": h["clock_ms"],
        }


@dataclass
class FleetHealth:
    """One fleet health snapshot — the payload behind ``repro health
    --json`` and each ``repro top`` frame.

    ``shards`` rows merge the shard's routing state (lifecycle state,
    placed sessions, consecutive failures, availability counters) with
    its scheduler's :meth:`~repro.runtime.scheduler.EdgeScheduler.health`
    panel and, when monitoring is on, that shard's SLO rows (state,
    burn rates, budget remaining).  ``alerts`` and ``slo`` are the
    monitor's live view (empty / ``None`` when monitoring is off).
    """

    rounds: int
    clock_ms: float
    active_shards: int
    samples_served: int
    shards: list[dict]
    alerts: list[dict]
    slo: Optional[dict]
    #: Closed-loop τ controller snapshot (``None`` when control is off):
    #: per-shard τ / quality tier / streaks plus the policy bounds.
    tau: Optional[dict] = None

    def as_dict(self) -> dict[str, object]:
        return {
            "rounds": self.rounds,
            "clock_ms": self.clock_ms,
            "active_shards": self.active_shards,
            "samples_served": self.samples_served,
            "shards": [dict(s) for s in self.shards],
            "alerts": [dict(a) for a in self.alerts],
            "slo": dict(self.slo) if self.slo is not None else None,
            "tau": dict(self.tau) if self.tau is not None else None,
        }


def _ring_point(seed: int, *parts: object) -> int:
    """Stable 64-bit hash for ring points and session keys (process- and
    run-independent, unlike ``hash``)."""
    payload = ":".join(str(p) for p in (seed, *parts)).encode()
    return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "big")


class FleetRouter:
    """N scheduler shards behind one scheduler-shaped routing surface.

    ``shard_factory(shard_id, registry)`` builds one shard's
    :class:`EdgeScheduler` (pass ``shard=shard_id, registry=registry``
    through so its metrics land shard-labeled in the fleet registry);
    :meth:`for_system` wires the common case.  All client traffic enters
    via :meth:`submit`, which routes on the frame's session id, delivers
    through the shard's control link (the fault-injection point), and
    namespaces the shard's ticket into the fleet-global ticket space so
    :meth:`collect` stays a single flat lookup for callers.
    """

    def __init__(
        self,
        shard_factory: Callable[[int, MetricsRegistry], EdgeScheduler],
        config: Optional[FleetConfig] = None,
        recorder=None,
    ) -> None:
        self.config = config if config is not None else FleetConfig()
        self._factory = shard_factory
        self._recorder = recorder if recorder is not None else NULL_RECORDER
        #: Shared fleet registry: every shard writes shard-labeled
        #: series here, fleet-level counters are unlabeled ``fleet.*``.
        self.registry = MetricsRegistry()
        self._shards: dict[int, _Shard] = {}
        self._shard_ids = itertools.count()
        self._placement: dict[int, int] = {}
        self._tickets = itertools.count(1)
        #: global ticket -> (shard_id, local ticket), and the reverse.
        self._ticket_map: dict[int, tuple[int, int]] = {}
        self._local_to_global: dict[tuple[int, int], int] = {}
        #: Tickets stranded on a downed shard: collect() answers a 503.
        self._lost: dict[int, tuple[bytes, float]] = {}
        self.rounds = 0
        #: Hooks called as ``hook(router, round)`` at the top of every
        #: flush — the seam scripted failures and load traces plug into.
        self.before_flush_hooks: list[Callable[["FleetRouter", int], None]] = []
        self.after_flush_hooks: list[Callable[["FleetRouter", int], None]] = []
        self.events: list[dict[str, object]] = []
        #: Optional SLO monitor (see :meth:`enable_monitoring`).  ``None``
        #: keeps every serving path allocation-identical to a fleet that
        #: predates monitoring.
        self._monitor: Optional[SloMonitor] = None
        #: Optional closed-loop τ controller (see
        #: :meth:`enable_tau_control`).  ``None`` keeps routing, flushes,
        #: and session gating bit-identical to a static-τ fleet.
        self._tau: Optional[TauController] = None
        self.autoscaler = (
            Autoscaler(self.config.autoscaler)
            if self.config.autoscaler is not None
            else None
        )
        self._rerouted = self.registry.counter("fleet.sessions_rerouted")
        self._failures = self.registry.counter("fleet.shard_failures")
        self._lost_tickets = self.registry.counter("fleet.tickets_lost")
        self._scale_ups = self.registry.counter("fleet.scale_ups")
        self._scale_downs = self.registry.counter("fleet.scale_downs")
        self._shards_lost = self.registry.counter("fleet.shards_lost")
        self._active_gauge = self.registry.gauge("fleet.active_shards")
        self._ring: list[tuple[int, int]] = []
        for _ in range(self.config.num_shards):
            self.add_shard(_event=False)

    @classmethod
    def for_system(
        cls,
        system,
        config: Optional[FleetConfig] = None,
        service_model=None,
        recorder=None,
    ) -> "FleetRouter":
        """A fleet whose every shard serves one calibrated LCRS trunk.

        Shards share the system's trunk weights (the model is read-only
        at serving time) but own their simulated worker lanes, queues,
        and compiled trunk plans independently.
        """
        cfg = config if config is not None else FleetConfig()

        def factory(shard_id: int, registry: MetricsRegistry) -> EdgeScheduler:
            return EdgeScheduler.for_system(
                system,
                service_model=service_model,
                config=cfg.scheduler,
                shard=shard_id,
                registry=registry,
            )

        return cls(factory, cfg, recorder=recorder)

    # -- observability -------------------------------------------------
    @property
    def recorder(self):
        return self._recorder

    @recorder.setter
    def recorder(self, value) -> None:
        self._recorder = value if value is not None else NULL_RECORDER
        for shard in self._shards.values():
            shard.scheduler.recorder = self._recorder

    @property
    def clock_ms(self) -> float:
        """Fleet makespan: the latest shard's simulated clock."""
        if not self._shards:
            return 0.0
        return max(s.scheduler.clock_ms for s in self._shards.values())

    @property
    def monitor(self) -> Optional[SloMonitor]:
        return self._monitor

    def enable_monitoring(
        self,
        specs=None,
        policy: Optional[BurnRatePolicy] = None,
        recorder=None,
        capacity: Optional[int] = None,
    ) -> SloMonitor:
        """Attach an SLO monitor over the fleet registry (opt-in).

        The monitor's clock is the fleet's simulated makespan, so every
        window, burn rate, and alert transition is deterministic for a
        given run.  ``specs`` defaults to
        :func:`~repro.observability.slo.default_fleet_slos`; alert
        transitions emit ``slo.alert`` spans through ``recorder`` (the
        router's recorder when not given).  The monitor is evaluated
        once per :meth:`flush` round, after serving and before the
        autoscaler — which is what lets the ``"burn-rate"`` autoscaler
        policy read a fresh burn signal.  Without this call, no watcher
        is ever attached and the serving paths are unchanged.
        """
        if self._monitor is not None:
            return self._monitor
        kwargs = {} if capacity is None else {"capacity": capacity}
        self._monitor = SloMonitor(
            self.registry,
            specs if specs is not None else default_fleet_slos(),
            clock=lambda: self.clock_ms,
            policy=policy,
            recorder=recorder if recorder is not None else self._recorder,
            **kwargs,
        )
        return self._monitor

    @property
    def tau_controller(self) -> Optional[TauController]:
        return self._tau

    def enable_tau_control(
        self,
        config: Optional[TauControlConfig] = None,
        max_quality_tier: int = 1,
        recorder=None,
    ) -> TauController:
        """Attach a closed-loop τ controller over the fleet (opt-in).

        The controller reads each shard's windowed p99 queue wait off
        the fleet registry (same clock as the SLO monitor: the simulated
        makespan) and maintains a per-shard τ — and, when the deployment
        ships ``max_quality_tier`` > 1 accuracy tiers, a per-shard branch
        tier — that sessions pick up through
        :meth:`session_threshold` / :meth:`session_quality_tier`.  It
        runs once per :meth:`flush` round, after the SLO monitor (fresh
        burn signal for alerting) and before the autoscaler: τ is the
        fast relief valve, capacity the slow one.  Without this call no
        window is attached and sessions gate exactly as configured.
        """
        if self._tau is not None:
            return self._tau
        self._tau = TauController(
            config,
            registry=self.registry,
            clock=lambda: self.clock_ms,
            max_quality_tier=max_quality_tier,
            recorder=recorder if recorder is not None else self._recorder,
        )
        return self._tau

    def session_threshold(self, session_id: int) -> Optional[float]:
        """The controller's τ for a session's shard (``None`` = static τ).

        ``None`` — controller off, or the session not yet placed — tells
        the serving loop to leave the session's configured gate alone.
        """
        if self._tau is None:
            return None
        shard_id = self._placement.get(int(session_id))
        if shard_id is None:
            return None
        return self._tau.threshold(shard_id)

    def session_quality_tier(self, session_id: int) -> Optional[int]:
        """The controller's branch tier for a session's shard."""
        if self._tau is None:
            return None
        shard_id = self._placement.get(int(session_id))
        if shard_id is None:
            return None
        return self._tau.quality_tier(shard_id)

    @property
    def active_shard_ids(self) -> list[int]:
        return sorted(
            sid for sid, s in self._shards.items() if s.state == SHARD_ACTIVE
        )

    @property
    def shard_ids(self) -> list[int]:
        return sorted(self._shards)

    def shard(self, shard_id: int) -> _Shard:
        return self._shards[shard_id]

    def placement_snapshot(self) -> dict[int, int]:
        """Current session→shard map (a copy)."""
        return dict(self._placement)

    def describe(self) -> dict[str, object]:
        """JSON-ready fleet summary: shards, placement, events, totals."""
        shards = [
            self._shards[sid].describe() for sid in sorted(self._shards)
        ]
        served = sum(int(s["samples_served"]) for s in shards)
        makespan = self.clock_ms
        return {
            "placement": self.config.placement,
            "rounds": self.rounds,
            "active_shards": len(self.active_shard_ids),
            "shards": shards,
            "samples_served": served,
            "fleet_makespan_ms": makespan,
            "fleet_throughput_rps": (
                served / makespan * 1e3 if makespan > 0 else 0.0
            ),
            "sessions_rerouted": self._rerouted.value,
            "shard_failures": self._failures.value,
            "tickets_lost": self._lost_tickets.value,
            "scale_ups": self._scale_ups.value,
            "scale_downs": self._scale_downs.value,
            "shards_lost": self._shards_lost.value,
            "events": [dict(e) for e in self.events],
        }

    def health(self) -> FleetHealth:
        """Snapshot the fleet's operational state (see :class:`FleetHealth`)."""
        now = self.clock_ms
        monitor = self._monitor
        shards: list[dict] = []
        for sid in sorted(self._shards):
            shard = self._shards[sid]
            entry = shard.scheduler.health()
            entry.update(
                {
                    "shard": sid,
                    "state": shard.state,
                    "sessions": len(shard.sessions),
                    "consecutive_failures": shard.consecutive_failures,
                    "requests_ok": shard.requests_ok.value,
                    "requests_total": shard.requests_total.value,
                }
            )
            if monitor is not None:
                entry["slo"] = monitor.rows_for_labels({"shard": str(sid)}, now)
            if self._tau is not None:
                entry["tau"] = self._tau.state(sid).as_dict()
            shards.append(entry)
        return FleetHealth(
            rounds=self.rounds,
            clock_ms=now,
            active_shards=len(self.active_shard_ids),
            samples_served=sum(int(s["samples_served"]) for s in shards),
            shards=shards,
            alerts=monitor.active_alerts() if monitor is not None else [],
            slo=monitor.report(now) if monitor is not None else None,
            tau=self._tau.describe() if self._tau is not None else None,
        )

    # -- membership ----------------------------------------------------
    def _record(self, event: str, **detail: object) -> None:
        self.events.append({"round": self.rounds, "event": event, **detail})

    def _rebuild_ring(self) -> None:
        points: list[tuple[int, int]] = []
        for sid in self.active_shard_ids:
            for replica in range(self.config.virtual_nodes):
                points.append(
                    (_ring_point(self.config.seed, "shard", sid, replica), sid)
                )
        points.sort()
        self._ring = points

    def add_shard(self, _event: bool = True) -> int:
        """Bring one new shard into the active set; returns its id."""
        shard_id = next(self._shard_ids)
        scheduler = self._factory(shard_id, self.registry)
        scheduler.recorder = self._recorder
        self._shards[shard_id] = _Shard(shard_id, scheduler)
        self._rebuild_ring()
        self._active_gauge.set(float(len(self.active_shard_ids)))
        if self._monitor is not None:
            # Grouped SLOs pick up the new shard's labeled series now,
            # not at the next evaluation.
            self._monitor.sync()
        if _event:
            self._record("shard-added", shard=shard_id)
        return shard_id

    def drain_shard(self, shard_id: int) -> None:
        """Stop placing sessions on a shard; it retires once empty.

        In-flight tickets complete: queued work still flushes, computed
        replies stay collectable forever.  Its sessions re-route to
        active shards on their next submit.
        """
        shard = self._shards[shard_id]
        if shard.state != SHARD_ACTIVE:
            return
        shard.state = SHARD_DRAINING
        self._evict_sessions(shard)
        self._rebuild_ring()
        self._active_gauge.set(float(len(self.active_shard_ids)))
        self._record("shard-draining", shard=shard_id)

    def set_shard_link(self, shard_id: int, link) -> None:
        """Install a custom (e.g. scripted ``FaultyLink``) control link."""
        self._shards[shard_id].link = link

    def partition_shard(
        self, shard_id: int, profile: str = "partition", seed: int = 0
    ) -> None:
        """Wrap a shard's control link with a named fault profile.

        The default ``"partition"`` profile drops every frame, so the
        router's failure detector marks the shard down after
        ``failure_threshold`` consecutive failed submits.
        """
        if profile not in FAULT_PROFILES:
            raise ValueError(
                f"unknown fault profile {profile!r}; "
                f"choose from {sorted(FAULT_PROFILES)}"
            )
        shard = self._shards[shard_id]
        shard.link = faulty(shard.base_link, profile, seed=seed)
        self._record("shard-partitioned", shard=shard_id, profile=profile)

    def heal_shard(self, shard_id: int) -> None:
        """Restore a shard's link and return a downed shard to service."""
        shard = self._shards[shard_id]
        shard.link = shard.base_link
        shard.consecutive_failures = 0
        if shard.state == SHARD_DOWN:
            shard.state = SHARD_ACTIVE
            self._rebuild_ring()
            self._active_gauge.set(float(len(self.active_shard_ids)))
        self._record("shard-healed", shard=shard_id)

    def rebalance(self) -> None:
        """Unpin every session so its next submit re-places it.

        Placement is sticky by design, so sessions rerouted off a downed
        shard stay crowded on the survivors after a heal — the queue-wait
        SLO keeps burning on a healthy fleet.  An operator (or the drill
        harness) calls this after membership recovers; re-placement uses
        the configured policy, so ``"hash"`` sessions return to their
        ring positions and ``"least-loaded"`` sessions spread evenly.
        """
        cleared = 0
        for shard in self._shards.values():
            cleared += len(shard.sessions)
            for sid in shard.sessions:
                self._placement.pop(sid, None)
            shard.sessions.clear()
        self._record("rebalance", sessions=cleared)

    def _evict_sessions(self, shard: _Shard) -> None:
        """Unpin a shard's sessions; they re-place on their next submit."""
        for sid in shard.sessions:
            if self._placement.get(sid) == shard.shard_id:
                del self._placement[sid]
                self._rerouted.add(1)
        shard.sessions.clear()

    def _mark_down(self, shard: _Shard) -> None:
        shard.state = SHARD_DOWN
        self._shards_lost.add(1)
        self._evict_sessions(shard)
        # Tickets stranded on the dead shard answer a structured 503 at
        # collect time, which the client rejects into its binary-branch
        # fallback — the blip costs accuracy on those chunks, never a
        # lost session.
        stranded = [
            (gt, pair)
            for gt, pair in self._ticket_map.items()
            if pair[0] == shard.shard_id
        ]
        for gt, pair in stranded:
            del self._ticket_map[gt]
            self._local_to_global.pop(pair, None)
            self._lost[gt] = (
                encode_frame(
                    ErrorResponse(
                        code=503,
                        message=f"shard {shard.shard_id} lost with ticket in flight",
                    )
                ),
                0.0,
            )
            self._lost_tickets.add(1)
            # The request happened; it will never be ok.
            shard.requests_total.add(1)
        self._rebuild_ring()
        self._active_gauge.set(float(len(self.active_shard_ids)))
        self._record(
            "shard-down", shard=shard.shard_id, stranded_tickets=len(stranded)
        )

    # -- placement -----------------------------------------------------
    def _place(self, session_id: int) -> _Shard:
        candidates = [self._shards[sid] for sid in self.active_shard_ids]
        if not candidates:
            raise RuntimeError("fleet has no active shards to place sessions on")
        if self.config.placement == "hash":
            point = _ring_point(self.config.seed, "session", session_id)
            idx = bisect_right(self._ring, (point, 2**64))
            shard_id = self._ring[idx % len(self._ring)][1]
            return self._shards[shard_id]
        # least-loaded: fewest placed sessions, then fewest queued
        # samples, then lowest shard id — fully deterministic.
        return min(
            candidates,
            key=lambda s: (
                len(s.sessions),
                s.scheduler.queued_samples(),
                s.shard_id,
            ),
        )

    def route(self, session_id: int) -> _Shard:
        """The (sticky) shard serving one session, re-placing if its
        current shard no longer accepts traffic."""
        sid = int(session_id)
        shard_id = self._placement.get(sid)
        if shard_id is not None:
            shard = self._shards[shard_id]
            if shard.placeable:
                return shard
            # Down, draining, or retired: the session moves.
            if sid in shard.sessions:
                shard.sessions.discard(sid)
                self._rerouted.add(1)
            del self._placement[sid]
        shard = self._place(sid)
        self._placement[sid] = shard.shard_id
        shard.sessions.add(sid)
        shard.scheduler.register(sid)
        return shard

    def register(self, tenant_id: int) -> None:
        """Eager placement + per-shard fair-share registration."""
        self.route(int(tenant_id))

    # -- admission -----------------------------------------------------
    def submit(self, frame: bytes, arrival_ms: float) -> bytes:
        """Route one miss-path frame to its session's shard.

        Mirrors :meth:`EdgeScheduler.submit`'s error contract (400 for
        undecodable frames, 405 for non-batch messages) and adds the
        fleet's: a 503 naming an unreachable shard when the control link
        eats the frame.  Accepted frames return the shard's ack with the
        ticket renumbered into the fleet-global space.

        The router reads only the request header
        (:func:`~repro.runtime.protocol.peek_session`, which refuses the
        frames a full decode would), so the shard's decode is the
        request's only full one.
        """
        try:
            kind, session_id = peek_session(frame)
        except ProtocolError as exc:
            return encode_frame(ErrorResponse(code=400, message=str(exc)))
        if session_id is None:
            return encode_frame(
                ErrorResponse(
                    code=405,
                    message=f"fleet serves batched inference only, got {kind.__name__}",
                )
            )
        shard = self.route(session_id)
        scheduler = shard.scheduler
        try:
            raw = shard.link.exchange(
                frame, lambda f: scheduler.submit(f, arrival_ms)
            )
        except (FrameDropped, FrameTimeout) as exc:
            self._note_failure(shard, kind=type(exc).__name__)
            return encode_frame(
                ErrorResponse(
                    code=503,
                    message=f"shard {shard.shard_id} unreachable: {exc}",
                )
            )
        try:
            reply = decode_frame(raw)
        except ProtocolError:
            # A corrupted control-plane reply is indistinguishable from
            # a lost one to the client; surface it as the same 503.
            self._note_failure(shard, kind="corrupt-reply")
            return encode_frame(
                ErrorResponse(
                    code=503,
                    message=f"shard {shard.shard_id} answered garbage",
                )
            )
        if isinstance(reply, SchedulerAck):
            shard.consecutive_failures = 0
            key = (shard.shard_id, reply.ticket)
            ticket = self._local_to_global.get(key)
            if ticket is None:
                ticket = next(self._tickets)
                self._local_to_global[key] = ticket
                self._ticket_map[ticket] = key
            return encode_frame(
                SchedulerAck(
                    session_id=reply.session_id,
                    ticket=ticket,
                    queued_samples=reply.queued_samples,
                )
            )
        if isinstance(reply, ErrorResponse) and reply.code == 503:
            # Shed by the shard's own admission control: an overload
            # signal that, sustained, reads as a failing shard.
            self._note_failure(shard, kind="shed-503")
            return raw
        # 400/405 are the client's fault, not the shard's.
        return raw

    def _note_failure(self, shard: _Shard, kind: str) -> None:
        self._failures.add(1)
        shard.requests_total.add(1)
        shard.consecutive_failures += 1
        if (
            shard.consecutive_failures >= self.config.failure_threshold
            and shard.state != SHARD_DOWN
        ):
            self._mark_down(shard)

    # -- rounds --------------------------------------------------------
    def flush(self) -> list[int]:
        """Run one fleet round: hooks, per-shard flushes, autoscaling.

        Returns the served fleet-global tickets (all shards, shard-id
        order).  Draining shards that emptied last round retire here —
        after their queued work flushed and before new placement could
        reach them, which is the drain-before-remove guarantee.
        """
        self.rounds += 1
        for hook in list(self.before_flush_hooks):
            hook(self, self.rounds)
        served: list[int] = []
        for sid in sorted(self._shards):
            shard = self._shards[sid]
            if shard.state == SHARD_DRAINING and shard.scheduler.queued_samples() == 0:
                shard.state = SHARD_RETIRED
                self._record("shard-retired", shard=sid)
                continue
            if not shard.serving:
                continue
            for local in shard.scheduler.flush():
                ticket = self._local_to_global.get((sid, local))
                if ticket is not None:
                    served.append(ticket)
        if self._monitor is not None:
            self._monitor.evaluate(self.clock_ms)
        if self._tau is not None:
            # The relief valve runs before the autoscaler: raising τ is
            # cheap and instant, adding a shard is neither.
            for adjust in self._tau.update(self.active_shard_ids, self.clock_ms):
                self._record("tau-adjust", **adjust)
        if self.autoscaler is not None:
            self._autoscale()
        for hook in list(self.after_flush_hooks):
            hook(self, self.rounds)
        return served

    def _autoscale(self) -> None:
        active = [self._shards[sid] for sid in self.active_shard_ids]
        if not active:
            return
        depths = []
        busy = []
        for shard in active:
            sched = shard.scheduler
            depths.append(sched.queue_depth_gauge.value)
            busy.append(sched.workers_busy_gauge.value / sched.config.num_workers)
            # Reset the high-waters so next round's signal is its own.
            sched.queue_depth_gauge.set(float(sched.queued_samples()))
            sched.workers_busy_gauge.set(0.0)
        mean_depth = sum(depths) / len(depths)
        busy_fraction = sum(busy) / len(busy)
        action = self.autoscaler.step(
            mean_depth,
            busy_fraction,
            len(active),
            burn_rate=self._monitor.last_burn if self._monitor is not None else None,
        )
        if action == "scale-up":
            shard_id = self.add_shard(_event=False)
            self._scale_ups.add(1)
            self._record(
                "scale-up",
                shard=shard_id,
                mean_depth=mean_depth,
                busy_fraction=busy_fraction,
            )
        elif action == "scale-down":
            victim = min(
                active,
                key=lambda s: (len(s.sessions), s.scheduler.queued_samples(), -s.shard_id),
            )
            self._scale_downs.add(1)
            self._record(
                "scale-down",
                shard=victim.shard_id,
                mean_depth=mean_depth,
                busy_fraction=busy_fraction,
            )
            self.drain_shard(victim.shard_id)

    # -- reply routing -------------------------------------------------
    def collect(self, ticket: int) -> tuple[bytes, float]:
        """Take one fleet ticket's reply: ``(encoded frame, queue delay ms)``.

        Tickets stranded by a shard loss answer a structured 503 frame —
        the client's reply validation rejects it into the binary-branch
        fallback, so the caller's contract (every admitted ticket gets
        exactly one reply) holds even across failure domains.
        """
        if ticket in self._lost:
            return self._lost.pop(ticket)
        pair = self._ticket_map.pop(ticket, None)
        if pair is None:
            raise KeyError(f"no result for ticket {ticket}; flush() first")
        self._local_to_global.pop(pair, None)
        shard_id, local = pair
        shard = self._shards[shard_id]
        reply = shard.scheduler.collect(local)
        shard.requests_ok.add(1)
        shard.requests_total.add(1)
        return reply
