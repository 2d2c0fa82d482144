"""Fleet experiments: capacity scaling, partition survival, planning.

The single-edge story ends at one box's M/M/c capacity; the paper's
"millions of users" framing (§I) needs the horizontal axis.  Three
harnesses, all deterministic (simulated clocks, seeded placement):

* :func:`run_capacity_sweep` — a saturating miss burst over each
  (shards, workers per shard) cell, measured throughput cross-checked
  for the fleet against the ``N·c/service_time`` bound and per shard
  against its own M/M/c capacity, and every answer against a bare
  1-worker edge.  ``make bench-par`` sweeps workers on one shard,
  ``make bench-fleet`` shards at one worker: ≥2.5× at 4 workers and
  ≥3× at 4 shards, with bit-identical answers.
* :func:`run_fleet_partition` — full concurrent sessions through a
  :class:`~repro.runtime.fleet.FleetRouter` with one shard partitioned
  mid-run; every session must complete with correct ``served_by``
  accounting (the blip becomes binary fallbacks, never errors).
* :func:`capacity_planning_table` — the operator-facing artifact: "users
  servable at p99 queueing ≤ X ms" per shard count, from the M/M/c wait
  quantile (:meth:`~repro.runtime.concurrency.QueueModel.wait_quantile_s`)
  with load split evenly across shards.

``make bench-fleet`` writes all three into ``BENCH_fleet.json``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from ..observability.slo import BurnRatePolicy, default_fleet_slos
from ..runtime.concurrency import QueueModel, ServiceTimeModel
from ..runtime.fleet import FleetConfig, FleetRouter
from ..runtime.network import four_g
from ..runtime.protocol import (
    BatchInferenceRequest,
    BatchInferenceResponse,
    SchedulerAck,
    decode_frame,
    encode_frame,
)
from ..runtime.scheduler import EdgeScheduler, SchedulerConfig, run_concurrent_sessions
from ..runtime.session import (
    SERVED_BY_BRANCH,
    SERVED_BY_EDGE,
    SERVED_BY_FALLBACK,
    LCRSDeployment,
    SessionConfig,
)


# ----------------------------------------------------------------------
# Capacity sweep: one saturating burst per (shards, workers) cell
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CapacityPoint:
    """One (shards, workers per shard) cell under a saturating burst.

    ``capacity_rps`` is the M/M/c·N bound ``shards · workers /
    service_time`` at the burst's batch size and ``capacity_ratio`` the
    measured throughput over it; ``worst_shard_ratio`` is the lowest
    shard's throughput over its own ``workers / service_time`` — the
    per-failure-domain check.  With the request count an exact multiple
    of ``shards × workers`` and full batches all three ratios read 1.0
    on the simulated clock.  ``speedup`` is throughput over the sweep's
    first cell, ``mean_queue_wait_ms`` the mean of the shards' mean
    waits, and ``bit_identical`` compares every answer with a bare
    1-worker :class:`~repro.runtime.scheduler.EdgeScheduler`'s.  Every
    field is a model reading: workers are simulated lanes and every
    batch runs on the caller's thread.
    """

    shards: int
    workers: int
    samples: int
    batches: int
    makespan_ms: float
    throughput_rps: float
    speedup: float
    capacity_rps: float
    capacity_ratio: float
    worst_shard_ratio: float
    mean_queue_wait_ms: float
    max_workers_busy: int
    bit_identical: bool


@dataclass
class CapacityResult:
    """The capacity sweep, one point per (shards, workers) cell."""

    network: str
    requests: int
    batch_size: int
    points: list[CapacityPoint] = field(default_factory=list)

    def point(self, shards: int = 1, workers: int = 1) -> CapacityPoint:
        for p in self.points:
            if p.shards == shards and p.workers == workers:
                return p
        raise KeyError(f"no point for shards={shards}, workers={workers}")

    def as_dict(self) -> dict[str, object]:
        return asdict(self)


def run_capacity_sweep(
    system,
    images: np.ndarray,
    shards: Sequence[int] = (1,),
    workers: Sequence[int] = (1,),
    requests: int = 16,
    batch_size: int = 4,
    service_model: Optional[ServiceTimeModel] = None,
) -> CapacityResult:
    """Sweep shard counts × workers per shard under a saturating burst.

    ``requests`` frames of exactly ``batch_size`` stem-feature samples
    (one session each, so least-loaded placement spreads them evenly)
    all arrive at simulated t=0 against a zero batching window; every
    request forms its own full batch, so each of the ``shards × workers``
    lanes serves ``requests / (shards × workers)`` batches and the
    makespan shrinks in proportion.  Each cell is a ``least-loaded``
    :class:`FleetRouter` (a 1-shard fleet is the single edge), every
    cell replays the same features from one shared stem pass, and every
    cell's answers are checked against a bare 1-worker
    :class:`~repro.runtime.scheduler.EdgeScheduler`.
    """
    from ..nn.autograd import Tensor, no_grad

    if requests < 1:
        raise ValueError("requests must be positive")
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    cells = [(int(n), int(c)) for n in shards for c in workers]
    if not cells or any(n < 1 or c < 1 for n, c in cells):
        raise ValueError("shards and workers must be non-empty and positive")
    for n, c in cells:
        if requests % (n * c):
            raise ValueError(
                f"requests={requests} must divide evenly across "
                f"{n} shards x {c} workers for the capacity cross-check "
                "to be exact"
            )

    images = np.asarray(images, dtype=np.float32)
    need = requests * batch_size
    if len(images) == 0:
        raise ValueError("need at least one image")
    if len(images) < need:
        reps = -(-need // len(images))
        images = np.concatenate([images] * reps, axis=0)
    images = images[:need]

    model = system.model
    model.eval()
    with no_grad():
        features = model.stem(Tensor(images)).data.astype(np.float32)

    def scheduler_config(num_workers: int) -> SchedulerConfig:
        return SchedulerConfig(
            window_ms=0.0,
            max_batch_size=batch_size,
            queue_capacity=need,
            num_workers=num_workers,
        )

    def serve_burst(target) -> tuple:
        """Submit the burst at t=0, flush once, return every answer."""
        tickets: list[int] = []
        for r in range(requests):
            target.register(r + 1)
        for r in range(requests):
            request = BatchInferenceRequest.from_features(
                session_id=r + 1,
                sequences=tuple(range(batch_size)),
                codec_name="fp32",
                features=features[r * batch_size : (r + 1) * batch_size],
            )
            ack = decode_frame(target.submit(encode_frame(request), 0.0))
            if not isinstance(ack, SchedulerAck):
                raise RuntimeError(f"capacity request shed: {ack}")
            tickets.append(ack.ticket)
        target.flush()
        answers: list[int] = []
        for ticket in tickets:
            raw, _wait = target.collect(ticket)
            reply = decode_frame(raw)
            assert isinstance(reply, BatchInferenceResponse)
            answers.extend(reply.class_ids)
        return tuple(answers)

    bare_answers = serve_burst(
        EdgeScheduler.for_system(
            system, service_model=service_model, config=scheduler_config(1)
        )
    )
    result = CapacityResult(
        network=model.base_name, requests=requests, batch_size=batch_size
    )
    first_throughput: Optional[float] = None
    for n, c in cells:
        fleet = FleetRouter.for_system(
            system,
            config=FleetConfig(
                num_shards=n,
                placement="least-loaded",
                scheduler=scheduler_config(c),
            ),
            service_model=service_model,
        )
        answers = serve_burst(fleet)
        makespan_ms = fleet.clock_ms
        throughput = need / makespan_ms * 1e3 if makespan_ms > 0 else float("inf")
        if first_throughput is None:
            first_throughput = throughput
        schedulers = [fleet.shard(sid).scheduler for sid in fleet.shard_ids]
        health = [s.health() for s in schedulers]
        per_shard_capacity = c / schedulers[0].service_model.service_time_s(
            batch_size
        )
        capacity = n * per_shard_capacity
        result.points.append(
            CapacityPoint(
                shards=n,
                workers=c,
                samples=need,
                batches=sum(int(h["batches"]) for h in health),
                makespan_ms=makespan_ms,
                throughput_rps=throughput,
                speedup=throughput / first_throughput,
                capacity_rps=capacity,
                capacity_ratio=throughput / capacity,
                worst_shard_ratio=min(
                    (
                        h["samples_served"] / h["clock_ms"] * 1e3 / per_shard_capacity
                        for h in health
                        if h["clock_ms"] > 0
                    ),
                    default=0.0,
                ),
                mean_queue_wait_ms=sum(h["mean_queue_wait_ms"] for h in health) / n,
                max_workers_busy=max(s.worker_pool.max_busy for s in schedulers),
                bit_identical=answers == bare_answers,
            )
        )
    return result


# ----------------------------------------------------------------------
# Partition survival: live sessions across a mid-run shard loss
# ----------------------------------------------------------------------
@dataclass
class FleetPartitionResult:
    """Outcome of a mid-run shard partition under live sessions."""

    sessions: int
    shards: int
    partitioned_shard: int
    partition_round: int
    samples: int
    served_by: dict[str, int]
    sessions_rerouted: int
    tickets_lost: int
    shard_failures: int
    events: list[dict[str, object]]

    @property
    def all_samples_served(self) -> bool:
        return sum(self.served_by.values()) == self.samples

    def as_dict(self) -> dict[str, object]:
        return {
            "sessions": self.sessions,
            "shards": self.shards,
            "partitioned_shard": self.partitioned_shard,
            "partition_round": self.partition_round,
            "samples": self.samples,
            "served_by": dict(self.served_by),
            "sessions_rerouted": self.sessions_rerouted,
            "tickets_lost": self.tickets_lost,
            "shard_failures": self.shard_failures,
            "all_samples_served": self.all_samples_served,
            "events": [dict(e) for e in self.events],
        }


def run_fleet_partition(
    system,
    images: np.ndarray,
    sessions: int = 4,
    num_shards: int = 2,
    partition_round: int = 2,
    partitioned_shard: int = 0,
    session_config: Optional[SessionConfig] = None,
    fleet_config: Optional[FleetConfig] = None,
    seed: int = 0,
) -> FleetPartitionResult:
    """Kill one shard mid-run under N live concurrent sessions.

    The fleet router is driven by the unmodified
    :func:`~repro.runtime.scheduler.run_concurrent_sessions` loop; a
    ``before_flush_hook`` partitions the target shard's control link at
    ``partition_round``.  The contract under test: every session's every
    sample is answered (edge, branch, or fallback — never an exception),
    stranded tickets surface as counted binary fallbacks, and the
    victim's sessions re-route to surviving shards.
    """
    images = np.asarray(images)
    if fleet_config is None:
        fleet_config = FleetConfig(
            num_shards=num_shards,
            placement="least-loaded",
            scheduler=SchedulerConfig(window_ms=0.0),
            failure_threshold=1,
            seed=seed,
        )
    cfg = (
        session_config
        if session_config is not None
        else SessionConfig(batch_size=4, threshold=0.05)
    )
    fleet = FleetRouter.for_system(system, config=fleet_config)
    deployments = [
        LCRSDeployment(system, four_g(seed=seed * 100 + i)) for i in range(sessions)
    ]

    def partition_hook(router: FleetRouter, round_no: int) -> None:
        if round_no == partition_round:
            router.partition_shard(partitioned_shard)

    fleet.before_flush_hooks.append(partition_hook)
    results = run_concurrent_sessions(
        deployments, [images] * sessions, fleet, config=cfg
    )

    served_by = {SERVED_BY_BRANCH: 0, SERVED_BY_EDGE: 0, SERVED_BY_FALLBACK: 0}
    for r in results:
        for outcome in r.outcomes:
            served_by[outcome.served_by] += 1

    snapshot = fleet.describe()
    return FleetPartitionResult(
        sessions=sessions,
        shards=num_shards,
        partitioned_shard=partitioned_shard,
        partition_round=partition_round,
        samples=sessions * len(images),
        served_by=served_by,
        sessions_rerouted=int(snapshot["sessions_rerouted"]),
        tickets_lost=int(snapshot["tickets_lost"]),
        shard_failures=int(snapshot["shard_failures"]),
        events=list(snapshot["events"]),
    )


# ----------------------------------------------------------------------
# SLO drill: partition + heal under monitoring, alerts must not flap
# ----------------------------------------------------------------------
@dataclass
class FleetSloResult:
    """Outcome of a monitored partition-and-heal drill.

    ``alert_events`` is the monitor's full transition log (fire /
    escalate / clear, in order); ``history`` has one row per SLO target
    per round (the windowed p99 trace the spike assertion reads);
    ``health`` is the final ``FleetRouter.health()`` snapshot and
    ``report`` the final SLO report.  ``predictions`` carries each
    session's served class ids so monitored and unmonitored runs can be
    compared bit-for-bit.
    """

    sessions: int
    shards: int
    partitioned_shard: int
    partition_round: int
    heal_round: int
    samples: int
    served_by: dict[str, int]
    predictions: list[list[int]]
    monitored: bool
    alert_events: list[dict[str, object]]
    history: list[dict[str, object]]
    health: Optional[dict[str, object]]
    report: Optional[dict[str, object]]
    #: the fleet's live metrics registry (for Prometheus export); not
    #: part of :meth:`as_dict`.
    registry: Optional[object] = None

    @property
    def fired(self) -> list[dict[str, object]]:
        return [e for e in self.alert_events if e["transition"] == "fire"]

    @property
    def cleared(self) -> list[dict[str, object]]:
        return [e for e in self.alert_events if e["transition"] == "clear"]

    def as_dict(self) -> dict[str, object]:
        return {
            "sessions": self.sessions,
            "shards": self.shards,
            "partitioned_shard": self.partitioned_shard,
            "partition_round": self.partition_round,
            "heal_round": self.heal_round,
            "samples": self.samples,
            "served_by": dict(self.served_by),
            "monitored": self.monitored,
            "alerts_fired": len(self.fired),
            "alerts_cleared": len(self.cleared),
            "alert_events": [dict(e) for e in self.alert_events],
            "health": self.health,
            "report": self.report,
        }


def run_fleet_slo(
    system,
    images: np.ndarray,
    sessions: int = 4,
    num_shards: int = 2,
    partition_round: int = 2,
    heal_round: int = 7,
    partitioned_shard: int = 0,
    session_config: Optional[SessionConfig] = None,
    fleet_config: Optional[FleetConfig] = None,
    seed: int = 0,
    monitor: bool = True,
    queue_wait_p99_ms: float = 25.0,
    max_fallback_fraction: float = 0.05,
    min_availability: float = 0.99,
    fast_window_ms: float = 150.0,
    slow_window_ms: float = 600.0,
    clear_holds: int = 2,
    on_round: Optional[Callable[[FleetRouter, int], None]] = None,
) -> FleetSloResult:
    """The monitored partition drill: partition at one round, heal at a
    later one, and let the SLO monitor watch the whole arc.

    Same traffic shape as :func:`run_fleet_partition` (so its survival
    contract still holds underneath), plus: per-shard availability and
    p99 queue-wait objectives and the fleet fallback-ratio objective
    evaluated every round on the simulated clock.  Burn-rate windows
    are sized to the drill's simulated timescale (a few hundred ms of
    makespan), not wall minutes.  With ``monitor=False`` the run is the
    bit-identity control: no watcher is ever attached and predictions
    must match the monitored run exactly.
    """
    images = np.asarray(images)
    if heal_round <= partition_round:
        raise ValueError("heal_round must come after partition_round")
    if fleet_config is None:
        # Two workers per shard: a healthy shard absorbs its sessions'
        # coinciding chunks without queueing, so windowed queue waits
        # separate partition-era pileup from normal operation.
        fleet_config = FleetConfig(
            num_shards=num_shards,
            placement="least-loaded",
            scheduler=SchedulerConfig(window_ms=0.0, num_workers=2),
            failure_threshold=1,
            seed=seed,
        )
    cfg = (
        session_config
        if session_config is not None
        else SessionConfig(batch_size=4, threshold=0.05)
    )
    fleet = FleetRouter.for_system(system, config=fleet_config)
    if monitor:
        fleet.enable_monitoring(
            specs=default_fleet_slos(
                queue_wait_p99_ms=queue_wait_p99_ms,
                max_fallback_fraction=max_fallback_fraction,
                min_availability=min_availability,
            ),
            policy=BurnRatePolicy(
                fast_window_ms=fast_window_ms,
                slow_window_ms=slow_window_ms,
                clear_holds=clear_holds,
            ),
        )
    deployments = [
        LCRSDeployment(system, four_g(seed=seed * 100 + i)) for i in range(sessions)
    ]

    def drill_hook(router: FleetRouter, round_no: int) -> None:
        if round_no == partition_round:
            router.partition_shard(partitioned_shard)
        elif round_no == heal_round:
            # Heal restores the shard's capacity; rebalance restores the
            # placement (rerouted sessions are sticky on the survivors
            # otherwise, and the queue-wait SLO would keep burning on a
            # healthy fleet).
            router.heal_shard(partitioned_shard)
            router.rebalance()

    fleet.before_flush_hooks.append(drill_hook)
    if on_round is not None:
        fleet.after_flush_hooks.append(on_round)
    results = run_concurrent_sessions(
        deployments, [images] * sessions, fleet, config=cfg
    )

    served_by = {SERVED_BY_BRANCH: 0, SERVED_BY_EDGE: 0, SERVED_BY_FALLBACK: 0}
    predictions: list[list[int]] = []
    for r in results:
        session_preds = []
        for outcome in r.outcomes:
            served_by[outcome.served_by] += 1
            session_preds.append(int(outcome.prediction))
        predictions.append(session_preds)

    mon = fleet.monitor
    return FleetSloResult(
        sessions=sessions,
        shards=num_shards,
        partitioned_shard=partitioned_shard,
        partition_round=partition_round,
        heal_round=heal_round,
        samples=sessions * len(images),
        served_by=served_by,
        predictions=predictions,
        monitored=monitor,
        alert_events=[dict(e) for e in mon.events] if mon is not None else [],
        history=[dict(h) for h in mon.history] if mon is not None else [],
        health=fleet.health().as_dict(),
        report=mon.report(fleet.clock_ms) if mon is not None else None,
        registry=fleet.registry,
    )


# ----------------------------------------------------------------------
# Capacity planning: users servable at a p99 wait target per shard count
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CapacityPlanRow:
    """Max sustainable users for one (shard count, p99 target) cell."""

    shards: int
    p99_target_ms: float
    max_users: int
    arrival_rps: float
    utilization: float
    p99_wait_ms: float

    def as_dict(self) -> dict[str, object]:
        return {
            "shards": self.shards,
            "p99_target_ms": self.p99_target_ms,
            "max_users": self.max_users,
            "arrival_rps": self.arrival_rps,
            "utilization": self.utilization,
            "p99_wait_ms": self.p99_wait_ms,
        }


def capacity_planning_table(
    service_model: ServiceTimeModel,
    shard_counts: Sequence[int] = (1, 2, 4, 8),
    p99_targets_ms: Sequence[float] = (10.0, 25.0, 50.0),
    workers_per_shard: int = 1,
    batch_size: int = 4,
    per_user_rps: float = 1.0,
    max_users: int = 100_000,
) -> list[CapacityPlanRow]:
    """The operator table: "N shards serve U users at p99 wait ≤ X ms".

    Load splits evenly across shards (what hash placement converges to
    and least-loaded enforces), so each shard is an independent M/M/c
    at ``λ/N``; the row's ``max_users`` is the largest user count whose
    per-shard p99 queueing delay (M/M/c wait quantile at the effective
    batched service time) stays at or under the target.  Monotone in
    users, so binary search; ``per_user_rps`` converts users to sample
    arrivals (each miss-path sample is one queued unit).
    """
    if per_user_rps <= 0:
        raise ValueError("per_user_rps must be positive")
    rows: list[CapacityPlanRow] = []
    for shards in shard_counts:
        if shards < 1:
            raise ValueError("shard_counts must be positive")
        queue = QueueModel.from_service_model(
            service_model, workers=workers_per_shard, batch_size=batch_size
        )
        for target_ms in p99_targets_ms:
            def p99_ms(users: int) -> float:
                lam = users * per_user_rps / shards
                wait = queue.wait_quantile_s(lam, 0.99)
                return wait * 1e3

            lo, hi = 0, max_users
            while lo < hi:
                mid = (lo + hi + 1) // 2
                if p99_ms(mid) <= target_ms:
                    lo = mid
                else:
                    hi = mid - 1
            arrival = lo * per_user_rps / shards
            rows.append(
                CapacityPlanRow(
                    shards=shards,
                    p99_target_ms=float(target_ms),
                    max_users=lo,
                    arrival_rps=arrival * shards,
                    utilization=queue.utilization(arrival),
                    p99_wait_ms=p99_ms(lo),
                )
            )
    return rows


def render_capacity_table(rows: Sequence[CapacityPlanRow]) -> str:
    """Fixed-width text rendering for the CLI."""
    lines = [
        f"{'shards':>6} {'p99<=ms':>8} {'users':>8} {'arrivals/s':>11} "
        f"{'util':>6} {'p99 ms':>8}"
    ]
    for row in rows:
        lines.append(
            f"{row.shards:>6} {row.p99_target_ms:>8.1f} {row.max_users:>8} "
            f"{row.arrival_rps:>11.1f} {row.utilization:>6.2f} "
            f"{row.p99_wait_ms:>8.2f}"
        )
    return "\n".join(lines)
