"""Scaling harnesses: training budgets and the concurrency sweep.

Two kinds of scale live here.  :class:`ExperimentScale` sizes *training*
budgets (the paper trains on a GPU; this reproduction trains the numpy
substrate on a CPU, so every harness takes a preset that sizes sample
counts and epochs — ``QUICK`` keeps the benchmark suite fast,
``STANDARD`` reproduces the qualitative Table I bands, ``FULL`` is for
unattended runs).  :func:`run_concurrency` sizes *serving*: it sweeps
concurrent users × batching windows through the shared
:class:`~repro.runtime.scheduler.EdgeScheduler` and reports edge
throughput, queueing, and shedding per operating point — the
multi-session counterpart of the §I edge-cost argument, written to
``BENCH_scheduler.json`` by ``make bench-sched``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..runtime.concurrency import QueueModel, ServiceTimeModel, measure_service_model
from ..runtime.network import four_g
from ..runtime.protocol import (
    BatchInferenceRequest,
    BatchInferenceResponse,
    SchedulerAck,
    decode_frame,
    encode_frame,
)
from ..runtime.scheduler import EdgeScheduler, SchedulerConfig, run_concurrent_sessions
from ..runtime.session import LCRSDeployment, SessionConfig


@dataclass(frozen=True)
class ExperimentScale:
    """Sample/epoch budget for one training run."""

    name: str
    train_samples: int
    test_samples: int
    epochs: int
    batch_size: int = 64

    #: Per-dataset sample multipliers: the harder generators need more
    #: data for the main branches to exceed chance by a useful margin.
    _DATA_FACTOR = {"mnist": 1.0, "fashion_mnist": 1.5, "cifar10": 2.5, "cifar100": 3.0}

    def samples_for(self, dataset: str) -> tuple[int, int]:
        """Dataset-adjusted (train, test) sample counts."""
        factor = self._DATA_FACTOR.get(dataset, 1.0)
        return int(self.train_samples * factor), int(self.test_samples * factor)

    def epochs_for(self, network: str, dataset: str = "") -> int:
        """Deeper main branches and the 100-class set converge slower."""
        epochs = self.epochs
        if network in ("resnet18", "vgg16", "alexnet"):
            epochs += 2
        if dataset == "cifar100":
            epochs += 4
        return epochs


QUICK = ExperimentScale(name="quick", train_samples=400, test_samples=200, epochs=3)
STANDARD = ExperimentScale(name="standard", train_samples=1500, test_samples=400, epochs=6)
FULL = ExperimentScale(name="full", train_samples=3000, test_samples=600, epochs=10)

SCALES = {scale.name: scale for scale in (QUICK, STANDARD, FULL)}


# ----------------------------------------------------------------------
# Concurrency sweep: users × batching window through the shared edge
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ConcurrencySweepConfig:
    """Everything one :func:`run_concurrency` sweep can vary.

    Frozen and hashable (sequences normalize to tuples), mirroring
    ``SessionConfig``/``SchedulerConfig``/``FleetConfig``: one config
    object names a sweep operating grid, so benchmark scripts and the
    CLI pass a single value instead of seven parallel kwargs.  The
    injected ``service_model`` stays a separate argument — it is a
    calibration artifact of a host, not part of the sweep's identity.
    """

    users: tuple[int, ...] = (1, 4, 16)
    windows_ms: tuple[float, ...] = (0.0, 4.0)
    max_batch_size: int = 32
    queue_capacity: int = 256
    num_workers: int = 1
    session_config: SessionConfig = field(
        default_factory=lambda: SessionConfig(batch_size=8)
    )
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "users", tuple(int(u) for u in self.users))
        object.__setattr__(
            self, "windows_ms", tuple(float(w) for w in self.windows_ms)
        )
        if not self.users or any(u < 1 for u in self.users):
            raise ValueError("users must be a non-empty sequence of positive ints")
        if not self.windows_ms or any(w < 0 for w in self.windows_ms):
            raise ValueError("windows_ms must be non-empty and non-negative")
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be at least 1")
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be at least 1")
        if self.num_workers < 1:
            raise ValueError("num_workers must be at least 1")
        if not isinstance(self.session_config, SessionConfig):
            raise TypeError("session_config must be a SessionConfig")


@dataclass(frozen=True)
class WorkerScalingConfig:
    """Everything one :func:`run_worker_scaling` sweep can vary."""

    workers: tuple[int, ...] = (1, 2, 4)
    requests: int = 16
    batch_size: int = 4
    measure: Optional[str] = None
    mode: str = "sim"

    def __post_init__(self) -> None:
        object.__setattr__(self, "workers", tuple(int(c) for c in self.workers))
        if not self.workers or any(c < 1 for c in self.workers):
            raise ValueError("workers must be a non-empty sequence of positive ints")
        if self.requests < 1:
            raise ValueError("requests must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.measure not in (None, "module", "plan"):
            raise ValueError("measure must be None, 'module', or 'plan'")
        if self.mode != "sim":
            raise ValueError("mode must be 'sim' (the c workers are a simulated model)")


@dataclass(frozen=True)
class ConcurrencyPoint:
    """One (users, window, max batch) operating point of the shared edge.

    ``throughput_rps`` is samples per second of edge *busy* time — the
    serving-efficiency metric that isolates what batching buys from how
    sparsely sessions happen to arrive.  ``analytic_wait_ms`` is the
    M/M/1 prediction from :class:`~repro.runtime.concurrency.QueueModel`
    at the measured arrival rate and effective batched service time
    (``None`` when the analytic queue is unstable), reported next to the
    simulated ``mean_queue_wait_ms`` so the queueing model stays honest.
    """

    users: int
    window_ms: float
    max_batch_size: int
    samples_served: int
    batches: int
    throughput_rps: float
    mean_batch_size: float
    mean_queue_wait_ms: float
    analytic_wait_ms: Optional[float]
    shed_rate: float
    fallback_rate: float
    exit_rate: float
    mean_latency_ms: float
    mean_retry_ms: float = 0.0
    mean_queue_ms: float = 0.0
    num_workers: int = 1

    @property
    def per_request(self) -> bool:
        """True for the unbatched comparator cell."""
        return self.max_batch_size == 1

    def as_dict(self) -> dict[str, object]:
        return {
            "users": self.users,
            "window_ms": self.window_ms,
            "max_batch_size": self.max_batch_size,
            "num_workers": self.num_workers,
            "samples_served": self.samples_served,
            "batches": self.batches,
            "throughput_rps": self.throughput_rps,
            "mean_batch_size": self.mean_batch_size,
            "mean_queue_wait_ms": self.mean_queue_wait_ms,
            "analytic_wait_ms": self.analytic_wait_ms,
            "shed_rate": self.shed_rate,
            "fallback_rate": self.fallback_rate,
            "exit_rate": self.exit_rate,
            "mean_latency_ms": self.mean_latency_ms,
            "mean_retry_ms": self.mean_retry_ms,
            "mean_queue_ms": self.mean_queue_ms,
        }


@dataclass
class ConcurrencyResult:
    """The users × window sweep, with per-request comparator cells."""

    network: str
    session_batch_size: int
    points: list[ConcurrencyPoint] = field(default_factory=list)

    def point(
        self, users: int, window_ms: float, max_batch_size: int
    ) -> ConcurrencyPoint:
        for p in self.points:
            if (
                p.users == users
                and p.window_ms == window_ms
                and p.max_batch_size == max_batch_size
            ):
                return p
        raise KeyError(f"no point for users={users}, window={window_ms}")

    def speedup(self, users: int, window_ms: float, max_batch_size: int) -> float:
        """Batched edge throughput over per-request serving, same users."""
        batched = self.point(users, window_ms, max_batch_size)
        baseline = next(p for p in self.points if p.users == users and p.per_request)
        if baseline.throughput_rps <= 0:
            # No traffic reached either serving discipline (e.g. a fully
            # local exit rate): there is no speedup to speak of.
            return float("inf") if batched.throughput_rps > 0 else 1.0
        return batched.throughput_rps / baseline.throughput_rps

    def as_dict(self) -> dict[str, object]:
        return {
            "network": self.network,
            "session_batch_size": self.session_batch_size,
            "points": [p.as_dict() for p in self.points],
        }


def _concurrency_cell(
    system,
    images: np.ndarray,
    n_users: int,
    scheduler_config: SchedulerConfig,
    session_config: SessionConfig,
    link_seed: int,
    service_model: Optional[ServiceTimeModel],
) -> ConcurrencyPoint:
    """Run one operating point: N fresh deployments, one shared edge."""
    deployments = [
        LCRSDeployment(system, four_g(seed=link_seed + i)) for i in range(n_users)
    ]
    scheduler = EdgeScheduler.for_system(
        system, service_model=service_model, config=scheduler_config
    )
    results = run_concurrent_sessions(
        deployments, [images] * n_users, scheduler, config=session_config
    )
    h = scheduler.health()

    # Analytic cross-check: an M/M/1 queue at the measured arrival rate
    # and the effective batched service time.  Session duration is the
    # slowest session's priced wall time.
    analytic_wait_ms: Optional[float] = None
    duration_s = max(sum(s.total_ms for s in r.trace.samples) for r in results) / 1e3
    if h["samples_served"] and h["mean_batch_size"] > 0 and duration_s > 0:
        accepted = scheduler.registry.counter("sched.accepted_samples").value
        arrival = accepted / duration_s
        queue = QueueModel(
            workers=scheduler.config.num_workers,
            service_time_s=scheduler.service_model.service_time_s(
                max(1, int(round(h["mean_batch_size"])))
            ),
        )
        if queue.is_stable(arrival):
            analytic_wait_ms = queue.mean_wait_s(arrival) * 1e3

    return ConcurrencyPoint(
        users=n_users,
        window_ms=scheduler_config.window_ms,
        max_batch_size=scheduler_config.max_batch_size,
        num_workers=scheduler_config.num_workers,
        samples_served=h["samples_served"],
        batches=h["batches"],
        throughput_rps=h["throughput_rps"],
        mean_batch_size=h["mean_batch_size"],
        mean_queue_wait_ms=h["mean_queue_wait_ms"],
        analytic_wait_ms=analytic_wait_ms,
        shed_rate=h["shed_rate"],
        fallback_rate=float(np.mean([r.fallback_rate for r in results])),
        exit_rate=float(np.mean([r.exit_rate for r in results])),
        mean_latency_ms=float(np.mean([r.mean_latency_ms for r in results])),
        mean_retry_ms=float(np.mean([r.trace.mean_retry_ms for r in results])),
        mean_queue_ms=float(np.mean([r.trace.mean_queue_ms for r in results])),
    )


def run_concurrency(
    system,
    images: np.ndarray,
    config: Optional[ConcurrencySweepConfig] = None,
    service_model: Optional[ServiceTimeModel] = None,
) -> ConcurrencyResult:
    """Sweep concurrent users × batching windows through a shared edge.

    ``config`` (a :class:`ConcurrencySweepConfig`) shapes the sweep.
    Every cell replays the same image stream through ``n``
    fresh deployments against one :class:`EdgeScheduler`; per user count
    a per-request comparator cell (``window 0, max batch 1`` — the
    pre-scheduler serving discipline) is run first, so each batched
    cell's :meth:`ConcurrencyResult.speedup` is directly the edge
    throughput win of dynamic batching.  Deterministic for a fixed
    ``config.seed``: link jitter seeds derive from it and scheduler time
    is simulated.
    """
    cfg = config if config is not None else ConcurrencySweepConfig()
    images = np.asarray(images)
    result = ConcurrencyResult(
        network=system.model.base_name,
        session_batch_size=cfg.session_config.batch_size,
    )
    for n_users in cfg.users:
        link_seed = cfg.seed * 10_000 + n_users * 100
        result.points.append(
            _concurrency_cell(
                system,
                images,
                n_users,
                SchedulerConfig(
                    window_ms=0.0,
                    max_batch_size=1,
                    queue_capacity=cfg.queue_capacity,
                    num_workers=cfg.num_workers,
                ),
                cfg.session_config,
                link_seed,
                service_model,
            )
        )
        for window_ms in cfg.windows_ms:
            result.points.append(
                _concurrency_cell(
                    system,
                    images,
                    n_users,
                    SchedulerConfig(
                        window_ms=window_ms,
                        max_batch_size=cfg.max_batch_size,
                        queue_capacity=cfg.queue_capacity,
                        num_workers=cfg.num_workers,
                    ),
                    cfg.session_config,
                    link_seed,
                    service_model,
                )
            )
    return result


# ----------------------------------------------------------------------
# Worker scaling: trunk throughput vs pool size, cross-checked vs M/M/c
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkerScalingPoint:
    """One worker-pool size under a saturating, deterministic load.

    ``capacity_ratio`` is measured throughput over the M/M/c service
    capacity ``c / service_time`` at the same batch size — with the
    request count an exact multiple of ``workers`` it should be 1.0,
    which keeps :class:`~repro.runtime.concurrency.QueueModel` and the
    scheduler's simulated clock priced off the same arithmetic.  Every
    field is a model reading: the c workers are simulated lanes, and
    the flush runs on the caller's thread.
    """

    workers: int
    samples: int
    batches: int
    makespan_ms: float
    throughput_rps: float
    speedup_vs_serial: float
    analytic_capacity_rps: float
    capacity_ratio: float
    bit_identical: bool
    mean_queue_wait_ms: float
    max_workers_busy: int
    mode: str = "sim"

    def as_dict(self) -> dict[str, object]:
        return {
            "workers": self.workers,
            "samples": self.samples,
            "batches": self.batches,
            "makespan_ms": self.makespan_ms,
            "throughput_rps": self.throughput_rps,
            "speedup_vs_serial": self.speedup_vs_serial,
            "analytic_capacity_rps": self.analytic_capacity_rps,
            "capacity_ratio": self.capacity_ratio,
            "bit_identical": self.bit_identical,
            "mean_queue_wait_ms": self.mean_queue_wait_ms,
            "max_workers_busy": self.max_workers_busy,
            "mode": self.mode,
        }


@dataclass
class WorkerScalingResult:
    """The worker sweep: one point per pool size, serial first."""

    network: str
    requests: int
    batch_size: int
    mode: str = "sim"
    points: list[WorkerScalingPoint] = field(default_factory=list)

    def point(self, workers: int) -> WorkerScalingPoint:
        for p in self.points:
            if p.workers == workers:
                return p
        raise KeyError(f"no point for workers={workers}")

    def as_dict(self) -> dict[str, object]:
        return {
            "network": self.network,
            "requests": self.requests,
            "batch_size": self.batch_size,
            "mode": self.mode,
            "points": [p.as_dict() for p in self.points],
        }


def run_worker_scaling(
    system,
    images: np.ndarray,
    config: Optional[WorkerScalingConfig] = None,
    service_model: Optional[ServiceTimeModel] = None,
) -> WorkerScalingResult:
    """Sweep trunk worker-pool sizes under a saturating miss burst.

    ``config`` (a :class:`WorkerScalingConfig`) shapes the sweep.
    ``requests`` batch frames of exactly ``batch_size`` stem-feature
    samples each (distinct tenants) all arrive at simulated t=0 with a
    zero batching window, so every request forms its own full batch and
    the pool is saturated from the first flush.  Makespan is then
    ``ceil(requests / c) · batch_ms`` on the simulated clock, so
    throughput scales ideally with ``c`` whenever ``c`` divides the
    request count — measured against the M/M/c capacity per point and
    against the serial run's predictions bit-for-bit.

    ``measure`` opts into a *measured* service model when
    ``service_model`` is not given: ``"module"`` times the edge endpoint
    without compiled plans (its trunk interpreter), ``"plan"`` times the
    trace-compiled trunk plan the edge endpoint actually replays (see
    :func:`repro.runtime.concurrency.measure_service_model`).  The
    default stays the analytic FLOPs model so the M/M/c cross-check is
    machine-independent; pass ``measure="plan"`` when the numbers should
    reflect the compiled-path service times of this host.

    The c workers are a simulated model: every batch runs on the
    caller's thread, and the sweep's speedups are capacity ratios of
    the simulated clock, never wall-clock measurements.
    """
    from ..nn.autograd import Tensor, no_grad

    cfg = config if config is not None else WorkerScalingConfig()
    workers_sweep = cfg.workers
    requests = cfg.requests
    batch_size = cfg.batch_size
    measure = cfg.measure
    images = np.asarray(images, dtype=np.float32)
    need = requests * batch_size
    if len(images) == 0:
        raise ValueError("need at least one image")
    if len(images) < need:
        reps = -(-need // len(images))
        images = np.concatenate([images] * reps, axis=0)
    images = images[:need]

    # One shared stem pass: the sweep measures trunk serving, so every
    # pool size replays the identical feature stacks.
    model = system.model
    model.eval()
    with no_grad():
        features = model.stem(Tensor(images)).data.astype(np.float32)

    if service_model is None and measure is not None:
        service_model = measure_service_model(
            model.main_trunk,
            tuple(features.shape[1:]),
            batch_sizes=sorted({1, batch_size, 2 * batch_size}),
            compile_plan=(measure == "plan"),
        )

    result = WorkerScalingResult(
        network=model.base_name,
        requests=requests,
        batch_size=batch_size,
        mode=cfg.mode,
    )

    serial_throughput: Optional[float] = None
    serial_answers: Optional[tuple] = None
    for c in workers_sweep:
        scheduler = EdgeScheduler.for_system(
            system,
            service_model=service_model,
            config=SchedulerConfig(
                window_ms=0.0,
                max_batch_size=batch_size,
                queue_capacity=need,
                num_workers=c,
            ),
        )
        tickets: list[int] = []
        for r in range(requests):
            request = BatchInferenceRequest.from_features(
                session_id=r + 1,
                sequences=tuple(range(batch_size)),
                codec_name="fp32",
                features=features[r * batch_size : (r + 1) * batch_size],
            )
            ack = decode_frame(scheduler.submit(encode_frame(request), 0.0))
            if not isinstance(ack, SchedulerAck):
                raise RuntimeError(f"worker-scaling request shed: {ack}")
            tickets.append(ack.ticket)
        scheduler.flush()
        answers: list[int] = []
        for ticket in tickets:
            raw, _wait = scheduler.collect(ticket)
            reply = decode_frame(raw)
            assert isinstance(reply, BatchInferenceResponse)
            answers.extend(reply.class_ids)
        answer_key = tuple(answers)

        health = scheduler.health()
        makespan_ms = scheduler.clock_ms
        throughput = need / makespan_ms * 1e3 if makespan_ms > 0 else float("inf")
        if serial_throughput is None:
            serial_throughput, serial_answers = throughput, answer_key
        queue = QueueModel.from_service_model(
            scheduler.service_model, workers=c, batch_size=batch_size
        )
        capacity_rps = c / queue.service_time_s
        result.points.append(
            WorkerScalingPoint(
                workers=c,
                samples=need,
                batches=health["batches"],
                makespan_ms=makespan_ms,
                throughput_rps=throughput,
                speedup_vs_serial=throughput / serial_throughput,
                analytic_capacity_rps=capacity_rps,
                capacity_ratio=throughput / capacity_rps,
                bit_identical=answer_key == serial_answers,
                mean_queue_wait_ms=health["mean_queue_wait_ms"],
                max_workers_busy=scheduler.worker_pool.max_busy,
                mode=cfg.mode,
            )
        )
    return result
