"""Shared-edge dynamic batching: many browser sessions, one trunk.

The paper's §I cost argument — "the computing cost of high concurrent
requests is unacceptable" — is about the *edge provider*: every AR user
whose binary branch misses ships conv1 features to the same box.  A
per-request trunk pass pays the full call overhead (request handling,
kernel dispatch, memory setup) for every sample; an edge that aggregates
concurrent misses into one batched trunk pass amortizes that overhead
across tenants, which is where multi-session serving throughput comes
from.

This module is that edge.  :class:`EdgeScheduler` owns a bounded queue
of admitted :class:`~repro.runtime.protocol.BatchInferenceRequest`
frames from N concurrent sessions and a *simulated* clock:

* **submit** — synchronous admission.  A well-formed batch request is
  either queued (answered with a deferred :class:`SchedulerAck`) or shed
  with a structured 503 when the queue is full or the tenant is over its
  fair share.  Shed requests run the client's normal retry policy and,
  on exhaustion, the binary-branch fallback — overload degrades
  accuracy, never availability.
* **flush** — dynamic batch formation.  Requests arriving within
  ``window_ms`` of the queue head coalesce, round-robin across tenants,
  up to ``max_batch_size`` samples; each batch executes through the
  trunk *once* (real computation) and is priced by an affine
  :class:`~repro.runtime.concurrency.ServiceTimeModel` on the simulated
  clock (modelled time).
* **collect** — correlated reply routing.  Each admitted ticket yields
  one :class:`~repro.runtime.protocol.BatchInferenceResponse` carrying
  the submitting session's id and sequence set, plus the queueing delay
  the scheduler charged it.

Timing is fully deterministic: arrivals are simulated-clock timestamps
supplied by the caller, service times come from the model, and ties
break on monotonic tickets — the same submissions always form the same
batches.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..observability import NULL_RECORDER, Counter, MetricsRegistry, labeled
from ..observability.clock import now_ms
from ..profiling.layer_stats import NetworkProfile
from .concurrency import ServiceTimeModel
from .profiles import DeviceProfile, EDGE_SERVER
from .protocol import (
    BatchInferenceRequest,
    BatchInferenceResponse,
    ErrorResponse,
    ProtocolError,
    SchedulerAck,
    decode_frame,
    encode_frame,
    reply_fields,
)
from .session import (
    SERVED_BY_FALLBACK,
    EdgeEndpoint,
    LCRSDeployment,
    RecognitionOutcome,
    SampleCost,
    SessionConfig,
    SessionResult,
    SessionTrace,
)
from .worker_pool import WorkerPool

#: The ``sched.*`` counters of one scheduler.  Requests and samples split
#: by admission outcome (accepted vs shed vs malformed); ``batches``,
#: ``samples_served`` and ``busy_ms`` describe what the trunk executed;
#: ``queue_wait_ms`` sums the simulated per-sample wait (window +
#: head-of-line + edge busy).
_COUNTERS = (
    "submitted_requests",
    "accepted_requests",
    "shed_requests",
    "malformed_requests",
    "submitted_samples",
    "accepted_samples",
    "shed_samples",
    "samples_served",
    "batches",
    "busy_ms",
    "queue_wait_ms",
)

#: Outcomes of the per-tenant ``sched.tenant_samples{outcome=…,tenant=…}``
#: sample counters, which keep the fairness policy observable.
_TENANT_OUTCOMES = ("submitted", "accepted", "shed", "served")

#: Batch sizes are small integers; a dedicated bucket ladder keeps the
#: ``sched.batch_size`` histogram readable.
_BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)


@dataclass(frozen=True)
class SchedulerConfig:
    """Dynamic-batching and admission-control knobs.

    ``window_ms`` is how long (simulated) the queue head waits for
    company before its batch dispatches; ``0`` batches only requests
    arriving at the same instant.  ``max_batch_size`` caps samples per
    trunk pass.  ``queue_capacity`` bounds total queued samples — the
    backpressure that turns overload into 503s instead of unbounded
    latency.  ``max_per_tenant`` caps one session's queued samples; the
    default is an equal share of capacity across registered tenants.
    """

    window_ms: float = 4.0
    max_batch_size: int = 32
    queue_capacity: int = 256
    max_per_tenant: Optional[int] = None
    #: Simulated trunk workers (the M/M/c ``c``).  Each dynamic batch
    #: is booked whole on one lane; with ``c > 1`` batches overlap on
    #: the simulated clock.  Every batch runs on the caller's thread.
    num_workers: int = 1

    def __post_init__(self) -> None:
        if self.window_ms < 0:
            raise ValueError("window_ms must be non-negative")
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be at least 1")
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be at least 1")
        if self.max_per_tenant is not None and self.max_per_tenant < 1:
            raise ValueError("max_per_tenant must be at least 1")
        if self.num_workers < 1:
            raise ValueError("num_workers must be at least 1")


@dataclass
class _Queued:
    """One admitted request waiting for its batch."""

    ticket: int
    tenant: int
    request: BatchInferenceRequest
    arrival_ms: float

    @property
    def samples(self) -> int:
        return len(self.request.sequences)


@dataclass
class _Batch:
    """One formed dynamic batch, booked on a simulated worker lane.

    A flush forms and books every batch before any executes, so every
    booking (and the clock it advances) is in place before the first
    reply is routed; membership depends only on arrivals and the window,
    never on execution results.
    """

    batch_id: int
    worker: int
    chosen: list[_Queued]
    total: int
    start_ms: float
    exec_ms: float


class EdgeScheduler:
    """The shared edge: bounded admission, dynamic batching, one trunk.

    Tenants are session ids; each deployment registers (implicitly on
    first submit, or eagerly via :meth:`register` so fair shares are
    sized before traffic starts).  The scheduler is single-threaded and
    driven in rounds — submit any number of frames, :meth:`flush`, then
    :meth:`collect` each ticket — which keeps batch formation
    reproducible under a fixed seed.
    """

    def __init__(
        self,
        endpoint: EdgeEndpoint,
        service_model: ServiceTimeModel,
        config: Optional[SchedulerConfig] = None,
        recorder=None,
        shard: Optional[int] = None,
        registry=None,
    ) -> None:
        self.endpoint = endpoint
        self.service_model = service_model
        self.config = config if config is not None else SchedulerConfig()
        #: Fleet identity.  A bare scheduler (``shard=None``) keeps the
        #: historical unlabeled metric names; a fleet shard writes
        #: shard-labeled series (``sched.queue_depth{shard=2}``) into the
        #: router's shared ``registry`` so N shards never fold their
        #: telemetry into one series.
        self.shard = shard
        self.registry = registry if registry is not None else MetricsRegistry()
        self._counts = {
            name: self.registry.counter(self._series(name)) for name in _COUNTERS
        }
        self._max_queue_depth = self.registry.gauge(self._series("max_queue_depth"))
        # Exact mode: every batch size stays readable, not just its bucket.
        self._batch_size_h = self.registry.histogram(
            self._series("batch_size"), bounds=_BATCH_SIZE_BUCKETS
        )
        # Per-request waits feed the windowed p99 SLO; bounded mode caps
        # retained samples so long-running fleets don't grow without
        # bound (bucket counts and the sum stay exact regardless).
        self._request_wait_h = self.registry.histogram(
            self._series("request_queue_wait_ms"), max_samples=4096
        )
        # Tracing: with an enabled recorder, every served request gets a
        # `sched.queue_wait` span and every trunk pass a `trunk.batch`
        # span (with a `trunk.worker[i]` child naming its worker lane)
        # on the "edge" track, correlated to the submitting session by
        # the trace id carried in the request frame.
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        #: Queue-depth high-water gauge (samples queued at admission);
        #: consumers that want per-window readings (the fleet autoscaler)
        #: read it and reset it between windows.
        self.queue_depth_gauge = self.registry.gauge(self._series("queue_depth"))
        #: The simulated c-lane model (no threads); each booking's busy
        #: reading feeds the `sched.workers_busy` gauge, which
        #: :meth:`health` reads for the busy fraction.
        self.workers_busy_gauge = self.registry.gauge(self._series("workers_busy"))
        self.worker_pool = WorkerPool(self.config.num_workers)
        self._queue: list[_Queued] = []
        self._results: dict[int, tuple[bytes, float]] = {}
        self._tickets = itertools.count(1)
        self._batch_ids = itertools.count(1)
        #: Registered tenants and their ``sched.tenant_samples`` counters.
        self._tenants: dict[int, dict[str, Counter]] = {}
        # At-least-once delivery: a resubmission of the same (tenant,
        # sequences) pair must land on the same queue entry.
        self._dedupe: dict[tuple[int, tuple[int, ...]], int] = {}

    @classmethod
    def for_system(
        cls,
        system,
        service_model: Optional[ServiceTimeModel] = None,
        config: Optional[SchedulerConfig] = None,
        edge: DeviceProfile = EDGE_SERVER,
        recorder=None,
        shard: Optional[int] = None,
        registry=None,
    ) -> "EdgeScheduler":
        """A scheduler serving one calibrated LCRS system's trunk."""
        endpoint = EdgeEndpoint(system.model.main_trunk)
        if service_model is None:
            trunk_profile = NetworkProfile.of(
                system.model.main_trunk, system.model.stem_output_shape
            )
            service_model = ServiceTimeModel.from_profile(trunk_profile, edge=edge)
        return cls(
            endpoint, service_model, config, recorder=recorder,
            shard=shard, registry=registry,
        )

    # -- observability -------------------------------------------------
    def _series(self, name: str, **labels: object) -> str:
        """Registry name of one ``sched.*`` series, shard-labeled in a fleet."""
        if self.shard is not None:
            labels["shard"] = self.shard
        return labeled(f"sched.{name}", **labels)

    @property
    def clock_ms(self) -> float:
        """Simulated time at which every trunk lane is next free (the
        makespan of everything executed so far); setting it resets
        every lane."""
        return self.worker_pool.clock_ms

    @clock_ms.setter
    def clock_ms(self, value: float) -> None:
        self.worker_pool.clock_ms = value

    def register(self, tenant_id: int) -> None:
        tenant_id = int(tenant_id)
        if tenant_id not in self._tenants:
            self._tenants[tenant_id] = {
                outcome: self.registry.counter(
                    self._series("tenant_samples", outcome=outcome, tenant=tenant_id)
                )
                for outcome in _TENANT_OUTCOMES
            }

    @property
    def tenant_fair_share(self) -> int:
        """Max queued samples one tenant may hold (admission fairness)."""
        if self.config.max_per_tenant is not None:
            return self.config.max_per_tenant
        return max(1, self.config.queue_capacity // max(1, len(self._tenants)))

    def queued_samples(self, tenant: Optional[int] = None) -> int:
        return sum(
            q.samples for q in self._queue if tenant is None or q.tenant == tenant
        )

    def health(self) -> dict[str, object]:
        """JSON-ready operational snapshot of this scheduler.

        The per-shard panel of ``FleetRouter.health()`` and ``repro
        top``: instantaneous queue state plus the windowable wait
        summaries.  ``queue_depth`` is live (samples queued right now);
        ``queue_depth_hw`` is the high-water gauge the autoscaler reads
        and resets per round.  This is the one place the derived rates
        are computed: ``shed_rate`` is the fraction of submitted samples
        refused with a 503, ``throughput_rps`` is samples per second of
        edge busy time (serving efficiency).
        """
        c = {name: counter.value for name, counter in self._counts.items()}
        served, batches, busy_ms = c["samples_served"], c["batches"], c["busy_ms"]
        submitted = c["submitted_samples"]
        return {
            "shard": self.shard,
            "clock_ms": self.clock_ms,
            "queue_depth": self.queued_samples(),
            "queue_depth_hw": self.queue_depth_gauge.value,
            "busy_fraction": (
                self.workers_busy_gauge.value / self.config.num_workers
                if self.config.num_workers
                else 0.0
            ),
            "num_workers": self.config.num_workers,
            "samples_served": served,
            "shed_samples": c["shed_samples"],
            "batches": batches,
            "busy_ms": busy_ms,
            "shed_rate": c["shed_samples"] / submitted if submitted else 0.0,
            "mean_batch_size": served / batches if batches else 0.0,
            "mean_queue_wait_ms": c["queue_wait_ms"] / served if served else 0.0,
            "throughput_rps": served / busy_ms * 1e3 if busy_ms > 0 else 0.0,
            "p99_queue_wait_ms": self._request_wait_h.p99,
            "tenants": len(self._tenants),
        }

    # -- admission -----------------------------------------------------
    def submit(self, frame: bytes, arrival_ms: float) -> bytes:
        """Admit (or refuse) one encoded miss-path frame.

        Returns an encoded :class:`SchedulerAck` on admission, or an
        :class:`ErrorResponse` — 400 for undecodable frames, 405 for
        non-batch messages, 503 when admission control sheds the
        request.  The 503 carries no ticket: the class ids will never
        come, and the client's retry policy (then binary-branch
        fallback) takes over.
        """
        c = self._counts
        c["submitted_requests"].add(1)
        try:
            message = decode_frame(frame)
        except ProtocolError as exc:
            c["malformed_requests"].add(1)
            return encode_frame(ErrorResponse(code=400, message=str(exc)))
        if not isinstance(message, BatchInferenceRequest):
            c["malformed_requests"].add(1)
            return encode_frame(
                ErrorResponse(
                    code=405,
                    message=(
                        "scheduler serves batched inference only, got "
                        f"{type(message).__name__}"
                    ),
                )
            )
        tenant = int(message.session_id)
        self.register(tenant)
        row = self._tenants[tenant]
        n = len(message.sequences)
        c["submitted_samples"].add(n)
        row["submitted"].add(n)

        key = (tenant, message.sequences)
        queued = self.queued_samples()
        if key in self._dedupe:
            # Duplicate delivery of an already-queued request: same
            # ticket, no new queue entry — submission is idempotent.
            return encode_frame(
                SchedulerAck(
                    session_id=tenant,
                    ticket=self._dedupe[key],
                    queued_samples=queued,
                )
            )
        held = self.queued_samples(tenant)
        shed = None
        if queued + n > self.config.queue_capacity:
            shed = (
                f"queue full: {queued}+{n} over "
                f"{self.config.queue_capacity} samples"
            )
        # Fairness sheds a tenant's *additional* requests; a tenant with
        # nothing queued is never starved by the share arithmetic.
        elif held > 0 and held + n > self.tenant_fair_share:
            shed = (
                f"tenant {tenant} over fair share: {held}+{n} over "
                f"{self.tenant_fair_share} samples"
            )
        if shed is not None:
            c["shed_requests"].add(1)
            c["shed_samples"].add(n)
            row["shed"].add(n)
            return encode_frame(ErrorResponse(code=503, message=shed))
        ticket = next(self._tickets)
        self._queue.append(
            _Queued(
                ticket=ticket,
                tenant=tenant,
                request=message,
                arrival_ms=float(arrival_ms),
            )
        )
        self._dedupe[key] = ticket
        c["accepted_requests"].add(1)
        c["accepted_samples"].add(n)
        row["accepted"].add(n)
        depth = queued + n
        self._max_queue_depth.set_max(depth)
        self.queue_depth_gauge.set_max(depth)
        return encode_frame(
            SchedulerAck(session_id=tenant, ticket=ticket, queued_samples=depth)
        )

    # -- batch formation and execution ---------------------------------
    def _choose(self, eligible: list[_Queued]) -> tuple[list[_Queued], bool]:
        """Pick one batch from the window-eligible requests.

        The queue head (oldest arrival) is always taken — even if it
        alone exceeds ``max_batch_size``, so oversized requests cannot
        starve.  Remaining budget is filled round-robin across tenants
        in id order, one request per tenant per sweep, so no tenant's
        burst monopolizes a batch.  Returns ``(chosen, full)`` where
        ``full`` means the batch need not wait out the window (budget
        exhausted or eligible work left behind).
        """
        by_tenant: dict[int, list[_Queued]] = {}
        for q in eligible:
            by_tenant.setdefault(q.tenant, []).append(q)
        head = eligible[0]
        by_tenant[head.tenant].remove(head)
        chosen = [head]
        budget = self.config.max_batch_size - head.samples
        order = sorted(by_tenant)
        progressed = True
        while budget > 0 and progressed:
            progressed = False
            for tenant in order:
                rest = by_tenant[tenant]
                if rest and rest[0].samples <= budget:
                    q = rest.pop(0)
                    chosen.append(q)
                    budget -= q.samples
                    progressed = True
        full = budget <= 0 or len(chosen) < len(eligible)
        return chosen, full

    def flush(self) -> list[int]:
        """Form and execute batches until the queue drains.

        Two phases, both plain loops on the caller's thread.
        *Formation*: batches are drawn from the queue (membership
        depends only on arrivals and the window), and each is booked on
        the :class:`WorkerPool`, the simulated model of the
        ``num_workers`` lanes: it goes to the earliest-free lane (ties
        break on the lowest index), starting when its window closes —
        ``head arrival + window_ms`` — or as soon as its last member
        arrived if it filled up early, and never before its lane is
        free.  *Execution*: in formation order, every batch is one real
        trunk pass over the concatenated feature stacks (predictions
        are bit-identical to per-request serving — the trunk's math is
        per-sample), priced once by the service model, and its replies
        are routed.  Every booking is in place before the first reply
        is routed, so the clock that reply observations see does not
        depend on how far execution has got.  Returns the served
        tickets in completion order.
        """
        served: list[int] = []
        cfg = self.config
        rec = self.recorder
        c = self._counts

        batches: list[_Batch] = []
        while self._queue:
            self._queue.sort(key=lambda q: (q.arrival_ms, q.ticket))
            head = self._queue[0]
            close = head.arrival_ms + cfg.window_ms
            eligible = [q for q in self._queue if q.arrival_ms <= close]
            chosen, full = self._choose(eligible)
            total = sum(q.samples for q in chosen)
            gate = max(q.arrival_ms for q in chosen) if full else close
            exec_ms = self.service_model.batch_ms(total)
            worker, start, busy = self.worker_pool.assign(gate, exec_ms)
            self.workers_busy_gauge.set_max(busy)
            batches.append(
                _Batch(
                    batch_id=next(self._batch_ids),
                    worker=worker,
                    chosen=chosen,
                    total=total,
                    start_ms=start,
                    exec_ms=exec_ms,
                )
            )
            for q in chosen:
                self._queue.remove(q)

        for batch in batches:
            wall0 = now_ms() if rec.enabled else 0.0
            stacks = [q.request.features() for q in batch.chosen]
            logits = self.endpoint.infer(
                stacks[0] if len(stacks) == 1 else np.concatenate(stacks, axis=0)
            )
            infer_wall_ms = now_ms() - wall0 if rec.enabled else 0.0
            # The protocol server's reply helper, so scheduled answers
            # match unscheduled ones bit for bit.
            class_ids, confidences = reply_fields(logits)

            start = batch.start_ms
            waits = 0.0
            offset = 0
            for q in batch.chosen:
                end = offset + q.samples
                response = BatchInferenceResponse(
                    session_id=q.request.session_id,
                    sequences=q.request.sequences,
                    class_ids=tuple(class_ids[offset:end]),
                    confidences=tuple(confidences[offset:end]),
                )
                wait = start - q.arrival_ms
                self._results[q.ticket] = (encode_frame(response), wait)
                self._request_wait_h.observe(wait)
                self._tenants[q.tenant]["served"].add(q.samples)
                waits += wait * q.samples
                offset = end
                served.append(q.ticket)
                self._dedupe.pop((q.tenant, q.request.sequences), None)
                if rec.enabled:
                    rec.add_span(
                        "sched.queue_wait",
                        track="edge",
                        trace_id=q.request.trace_id,
                        sim_start_ms=q.arrival_ms,
                        sim_ms=wait,
                        ticket=q.ticket,
                        tenant=q.tenant,
                        samples=q.samples,
                        batch=batch.batch_id,
                    )
            c["batches"].add(1)
            c["samples_served"].add(batch.total)
            c["busy_ms"].add(batch.exec_ms)
            c["queue_wait_ms"].add(waits)
            self._batch_size_h.observe(batch.total)
            if rec.enabled:
                batch_span = rec.add_span(
                    "trunk.batch",
                    track="edge",
                    sim_start_ms=start,
                    sim_ms=batch.exec_ms,
                    wall_ms=infer_wall_ms,
                    batch=batch.batch_id,
                    size=batch.total,
                    requests=len(batch.chosen),
                    worker=batch.worker,
                    tenants=sorted({q.tenant for q in batch.chosen}),
                    trace_ids=[
                        q.request.trace_id for q in batch.chosen if q.request.trace_id
                    ],
                )
                rec.add_span(
                    f"trunk.worker[{batch.worker}]",
                    track="edge",
                    sim_start_ms=start,
                    sim_ms=batch.exec_ms,
                    parent=batch_span,
                    batch=batch.batch_id,
                    size=batch.total,
                )
        return served

    # -- reply routing -------------------------------------------------
    def collect(self, ticket: int) -> tuple[bytes, float]:
        """Take one ticket's reply: ``(encoded frame, queue delay ms)``."""
        if ticket not in self._results:
            raise KeyError(f"no result for ticket {ticket}; flush() first")
        return self._results.pop(ticket)


@functools.lru_cache(maxsize=None)
def _session_series(base: str, shard: Optional[int], suffix: str = "") -> str:
    """Registry name of one ``session.*`` series: ``session.<base><suffix>``,
    shard-labeled when the sessions run against one shard's scheduler.

    Cached, so a round resolves its series without formatting a name.
    """
    name = f"session.{base}{suffix}"
    return labeled(name, shard=shard) if shard is not None else name


def _browser_chunk_ms(ctx, count: int) -> float:
    """Deterministic estimate of a chunk's local compute time.

    Arrival timestamps must not consume link RNG (that would perturb the
    latency pricing stream), so the submit time is the plan's per-sample
    compute alone — when the stem/branch work is done and the miss frame
    is ready to leave the device.
    """
    return ctx.plan.per_sample.compute_ms * count


@dataclass
class _SessionState:
    """One concurrent session's progress through its image stream."""

    deployment: LCRSDeployment
    ctx: object
    images: np.ndarray
    clock_ms: float = 0.0
    cursor: int = 0

    def __post_init__(self) -> None:
        self.outcomes: list[RecognitionOutcome] = []
        self.costs: list[SampleCost] = []

    @property
    def done(self) -> bool:
        return self.cursor >= len(self.images)


def run_concurrent_sessions(
    deployments: Sequence[LCRSDeployment],
    streams: Sequence[np.ndarray],
    scheduler: EdgeScheduler,
    config: Optional[SessionConfig] = None,
    recorder=None,
) -> list[SessionResult]:
    """Drive N sessions against one shared scheduler, in lockstep rounds.

    Each round, every unfinished session runs its next chunk's browser
    phase and submits its misses (with the full retry-then-fallback
    transport semantics of a private session); the scheduler then closes
    its windows and executes the round's dynamic batches; finally each
    session collects its correlated reply and prices the chunk — the
    scheduler's queueing delay lands on the missed samples' ``queue_ms``.
    Session clocks advance by their own chunks' total cost, so faster
    sessions drift ahead and arrivals stagger realistically while the
    whole run stays deterministic under fixed seeds.

    Predictions, entropies, and exit decisions are bit-identical to
    running each session alone against a private endpoint; only the
    timing (queue delays, amortized trunk passes) differs — with or
    without tracing.

    ``recorder`` (a :class:`~repro.observability.Tracer`) traces the
    whole run: each session's chunks on its own ``session-<id>`` track
    and the scheduler's queue waits and batched trunk passes on the
    shared ``edge`` track, correlated by the trace ids carried in the
    request frames.  It is installed on the scheduler for the run, so
    device- and edge-side spans land in one timeline.
    """
    if len(deployments) != len(streams):
        raise ValueError("need exactly one image stream per deployment")
    if recorder is not None:
        scheduler.recorder = recorder
    rec = scheduler.recorder
    cfg = config if config is not None else SessionConfig()
    # Session-level registry series (satellite of the SLO layer): who
    # served each sample and the running fallback fraction.
    # ``scheduler`` may be a FleetRouter, whose registry these series
    # share with no shard identity (they aggregate the whole fleet;
    # sessions move across shards).  Only a shard's own scheduler labels
    # them: the router's ``shard`` is its shard lookup method.
    registry = scheduler.registry
    shard = scheduler.shard if isinstance(scheduler, EdgeScheduler) else None
    samples_c = registry.counter(_session_series("samples", shard))
    fallback_c = registry.counter(_session_series("fallback_samples", shard))
    fallback_rate_g = registry.gauge(_session_series("fallback_rate", shard))
    served_by_c: dict[str, Counter] = {}
    sessions: list[_SessionState] = []
    for deployment, images in zip(deployments, streams):
        scheduler.register(deployment._session_id)
        sessions.append(
            _SessionState(
                deployment=deployment,
                ctx=deployment._session_context(cfg, recorder=rec),
                images=np.asarray(images),
            )
        )

    # Closed-loop τ control (the FleetRouter seam): when the scheduler
    # exposes per-session threshold/tier lookups, each round's chunks
    # gate with the controller's current values for the session's shard.
    # A bare scheduler — or a fleet without `enable_tau_control` — has
    # no lookups (or returns None), and the contexts are never touched,
    # which keeps static-τ runs bit-identical to pre-controller code.
    session_threshold = getattr(scheduler, "session_threshold", None)
    session_quality_tier = getattr(scheduler, "session_quality_tier", None)

    while not all(s.done for s in sessions):
        in_flight = []
        for s in sessions:
            if s.done:
                continue
            deployment = s.deployment
            if session_threshold is not None:
                tau = session_threshold(deployment._session_id)
                if tau is not None:
                    s.ctx.threshold = float(tau)
            if session_quality_tier is not None:
                tier = session_quality_tier(deployment._session_id)
                if tier is not None:
                    s.ctx.quality_tier = max(
                        1, min(int(tier), deployment.browser.max_quality_tier)
                    )
            pending = deployment._begin_chunk(s.images, s.cursor, s.ctx)
            ticket = None
            request = pending.request
            if request is not None:
                arrival = s.clock_ms + _browser_chunk_ms(s.ctx, pending.count)
                # Success is an ack: the class ids arrive after the
                # flush.  A shed request retries like any failed attempt,
                # and duplicate deliveries get the same ticket back.
                ticket = deployment._exchange(
                    s.ctx,
                    pending,
                    "scheduler",
                    send=lambda frame, wasted_ms, arrival=arrival: scheduler.submit(
                        frame, arrival + wasted_ms
                    ),
                    accept=lambda reply, session=request.session_id: (
                        reply.ticket
                        if isinstance(reply, SchedulerAck)
                        and reply.session_id == session
                        else None
                    ),
                )
            in_flight.append((s, pending, ticket))

        scheduler.flush()

        for s, pending, ticket in in_flight:
            deployment = s.deployment
            if pending.request is not None:
                # No ticket: admission refused to exhaustion (or the link
                # ate every attempt), and the chunk degrades to the branch.
                reply = None
                if ticket is not None:
                    raw, wait_ms = scheduler.collect(ticket)
                    reply = deployment._decode_reply(raw, s.ctx, pending)
                    if deployment._reply_valid(reply, pending.request):
                        pending.queue_ms = wait_ms
                    else:
                        deployment._faults["replies_rejected"].add(1)
                        reply = None
                deployment._apply_reply(pending, reply)
            chunk_ms = deployment._finish_chunk(
                pending, s.ctx, s.outcomes, s.costs, sim_now=s.clock_ms
            )
            if pending.count:
                samples_c.add(pending.count)
                for outcome in s.outcomes[-pending.count :]:
                    who = outcome.served_by
                    counter = served_by_c.get(who)
                    if counter is None:
                        counter = registry.counter(
                            _session_series("served_by.", shard, who)
                        )
                        served_by_c[who] = counter
                    counter.add(1)
                    if who == SERVED_BY_FALLBACK:
                        fallback_c.add(1)
                fallback_rate_g.set(
                    fallback_c.value / samples_c.value if samples_c.value else 0.0
                )
            s.clock_ms += chunk_ms
            s.cursor += pending.count

    telemetry = rec.summary() if rec.enabled else None
    return [
        SessionResult(
            outcomes=s.outcomes,
            trace=SessionTrace(
                approach="lcrs-scheduled",
                network=s.deployment.system.model.base_name,
                samples=s.costs,
            ),
            telemetry=telemetry,
        )
        for s in sessions
    ]
