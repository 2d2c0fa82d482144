"""Edge-server load under concurrent AR users (the §I cost argument).

The paper motivates LCRS partly from the service provider's side: "the
computing cost of high concurrent requests is unacceptable" when every
frame offloads to the edge.  LCRS's exit rate directly scales the edge's
request arrival rate — only binary-branch misses ever reach the server.

This module models the edge as an M/M/c queue:

* arrival rate ``λ = users · frame_rate · (1 − exit_rate)`` requests/s;
* per-request service time from the trunk's FLOPs on one worker;
* ``c`` identical workers (cores of the E5-2640-class box).

Outputs: utilization, Erlang-C waiting probability, mean/percentile
waiting time, and the maximum sustainable user count — compared across
approaches (edge-only has exit_rate 0; mobile-only never calls the
edge but is latency-hopeless on the browser, see Table II).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..observability.clock import now_s
from ..profiling.layer_stats import NetworkProfile
from .profiles import DeviceProfile, EDGE_SERVER


@dataclass(frozen=True)
class ServiceTimeModel:
    """Affine model of the batched trunk: a batch of ``n`` samples costs
    ``base_ms + n · per_sample_ms``.

    ``base_ms`` is the per-*call* cost — request handling, kernel
    dispatch, memory setup — which dynamic batching amortizes across the
    batch; ``per_sample_ms`` is the marginal compute of one sample.
    Build it analytically from a layer profile (:meth:`from_profile`) or
    calibrate it from measured trunk timings (:meth:`from_measurements`,
    :func:`measure_service_model`).
    """

    base_ms: float
    per_sample_ms: float

    def __post_init__(self) -> None:
        if self.base_ms < 0:
            raise ValueError("base_ms must be non-negative")
        if self.per_sample_ms <= 0:
            raise ValueError("per_sample_ms must be positive")

    def batch_ms(self, batch_size: int) -> float:
        """Execution time of one trunk pass over ``batch_size`` samples."""
        if batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        return self.base_ms + self.per_sample_ms * batch_size

    def service_time_s(self, batch_size: int = 1) -> float:
        """Effective per-sample service time when serving in batches."""
        return self.batch_ms(batch_size) / batch_size / 1e3

    @classmethod
    def from_profile(
        cls,
        trunk_profile: NetworkProfile,
        edge: DeviceProfile = EDGE_SERVER,
        request_overhead_ms: float = 0.5,
    ) -> "ServiceTimeModel":
        """FLOPs-only analytic model: per-sample compute from the device's
        sustained throughput, per-call cost from kernel dispatch plus a
        fixed request-handling overhead (framing, codec decode, RPC)."""
        return cls(
            base_ms=request_overhead_ms + edge.layer_overhead_ms * len(trunk_profile),
            per_sample_ms=edge.compute_ms(trunk_profile.total_flops),
        )

    @classmethod
    def from_measurements(
        cls, batch_sizes: Sequence[int], wall_ms: Sequence[float]
    ) -> "ServiceTimeModel":
        """Least-squares affine fit of measured (batch size, wall ms) points."""
        sizes = np.asarray(batch_sizes, dtype=np.float64)
        times = np.asarray(wall_ms, dtype=np.float64)
        if sizes.shape != times.shape or sizes.size < 2:
            raise ValueError("need at least two (batch_size, wall_ms) points")
        if np.unique(sizes).size < 2:
            raise ValueError("batch sizes must span at least two distinct values")
        per, base = np.polyfit(sizes, times, 1)
        return cls(
            base_ms=max(float(base), 0.0),
            per_sample_ms=max(float(per), 1e-9),
        )


def measure_service_model(
    trunk,
    input_shape: tuple[int, ...],
    batch_sizes: Sequence[int] = (1, 4, 16),
    repeats: int = 3,
    seed: int = 0,
    compile_plan: bool = False,
) -> ServiceTimeModel:
    """Calibrate a :class:`ServiceTimeModel` by timing real trunk passes.

    Runs the trunk (a framework :class:`~repro.nn.module.Module`) through
    an :class:`~repro.runtime.session.EdgeEndpoint` — what the edge
    executes — over random feature stacks at each batch size, takes the
    best-of-N wall time per size, and fits the affine model: the
    measured counterpart of :meth:`ServiceTimeModel.from_profile`.

    ``compile_plan`` picks the endpoint's path: the compiled trunk plan
    (what runs when ``SessionConfig.compile_plan`` is on), or the trunk
    engine's interpreter.  Measured models are always an explicit
    opt-in: the analytic :meth:`ServiceTimeModel.from_profile` stays the
    default everywhere so simulated clocks remain machine-independent.
    """
    from .session import EdgeEndpoint

    rng = np.random.default_rng(seed)
    endpoint = EdgeEndpoint(trunk, compile_plan=compile_plan)
    sizes: list[int] = []
    walls: list[float] = []
    for batch in batch_sizes:
        feats = rng.standard_normal((batch, *input_shape)).astype(np.float32)
        endpoint.infer(feats)  # warm caches (and compile the plan) before timing
        best = math.inf
        for _ in range(repeats):
            t0 = now_s()
            endpoint.infer(feats)
            best = min(best, now_s() - t0)
        sizes.append(int(batch))
        walls.append(best * 1e3)
    return ServiceTimeModel.from_measurements(sizes, walls)


@dataclass(frozen=True)
class QueueModel:
    """An M/M/c service station."""

    workers: int
    service_time_s: float

    def __post_init__(self) -> None:
        if self.workers <= 0:
            raise ValueError("workers must be positive")
        if self.service_time_s <= 0:
            raise ValueError("service_time_s must be positive")

    @classmethod
    def from_service_model(
        cls, model: ServiceTimeModel, workers: int = 1, batch_size: int = 1
    ) -> "QueueModel":
        """A queue serving at the model's effective batched rate."""
        return cls(workers=workers, service_time_s=model.service_time_s(batch_size))

    @property
    def service_rate(self) -> float:
        """Per-worker completions per second."""
        return 1.0 / self.service_time_s

    def utilization(self, arrival_rate: float) -> float:
        """Offered load per worker, ρ = λ/(c·μ)."""
        if arrival_rate < 0:
            raise ValueError("arrival_rate must be non-negative")
        return arrival_rate / (self.workers * self.service_rate)

    def is_stable(self, arrival_rate: float) -> bool:
        return self.utilization(arrival_rate) < 1.0

    def erlang_c(self, arrival_rate: float) -> float:
        """Probability an arriving request must wait (Erlang-C formula)."""
        if arrival_rate == 0:
            return 0.0
        if not self.is_stable(arrival_rate):
            return 1.0
        c = self.workers
        a = arrival_rate / self.service_rate  # offered load in Erlangs
        rho = a / c
        # Σ_{k<c} a^k/k! — worker counts are small, so direct evaluation is fine.
        summation = sum(a**k / math.factorial(k) for k in range(c))
        top = a**c / math.factorial(c) / (1.0 - rho)
        return top / (summation + top)

    def mean_wait_s(self, arrival_rate: float) -> float:
        """Mean queueing delay (excluding service) of an arrival."""
        if arrival_rate == 0:
            return 0.0
        if not self.is_stable(arrival_rate):
            return math.inf
        pw = self.erlang_c(arrival_rate)
        c = self.workers
        return pw / (c * self.service_rate - arrival_rate)

    def mean_response_s(self, arrival_rate: float) -> float:
        """Queueing delay + service time."""
        wait = self.mean_wait_s(arrival_rate)
        return wait + self.service_time_s if math.isfinite(wait) else math.inf

    def wait_quantile_s(self, arrival_rate: float, q: float = 0.99) -> float:
        """The ``q``-quantile of queueing delay.

        In M/M/c the waiting time is a mixture: with probability
        ``1 - Pw`` an arrival finds a free worker (zero wait), otherwise
        the wait is exponential with rate ``cμ − λ``, so
        ``P(W > t) = Pw · exp(−(cμ − λ)t)`` and the quantile is
        ``ln(Pw / (1 − q)) / (cμ − λ)`` — zero whenever ``Pw ≤ 1 − q``
        (an arrival at that quantile never queues at all).
        """
        if not 0.0 < q < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {q}")
        if arrival_rate == 0:
            return 0.0
        if not self.is_stable(arrival_rate):
            return math.inf
        pw = self.erlang_c(arrival_rate)
        if pw <= 1.0 - q:
            return 0.0
        drain = self.workers * self.service_rate - arrival_rate
        return math.log(pw / (1.0 - q)) / drain


@dataclass(frozen=True)
class EdgeLoadPoint:
    """One (users, approach) operating point."""

    users: int
    arrival_rate: float
    utilization: float
    mean_response_ms: float
    stable: bool


def edge_service_time_s(
    trunk_profile: NetworkProfile, edge: DeviceProfile = EDGE_SERVER
) -> float:
    """Per-request service time of the main trunk on one edge worker."""
    total_ms = edge.compute_ms(trunk_profile.total_flops) + (
        edge.layer_overhead_ms * len(trunk_profile)
    )
    return total_ms / 1e3


def edge_load_curve(
    trunk_profile: NetworkProfile,
    exit_rate: float,
    user_counts: list[int],
    frame_rate_hz: float = 1.0,
    workers: int = 12,
    edge: DeviceProfile = EDGE_SERVER,
) -> list[EdgeLoadPoint]:
    """Edge response time vs concurrent users for a given exit rate.

    ``exit_rate = 0`` models edge-only offloading; LCRS passes its
    calibrated rate.  ``workers`` defaults to the E5-2640's core count.
    """
    if not 0.0 <= exit_rate <= 1.0:
        raise ValueError("exit_rate must be in [0, 1]")
    # DeviceProfile throughput describes the whole box; one worker owns
    # 1/workers of it, so its per-request service time is scaled up.
    per_worker = edge_service_time_s(trunk_profile, edge) * workers
    queue = QueueModel(workers=workers, service_time_s=per_worker)
    points = []
    for users in user_counts:
        arrival = users * frame_rate_hz * (1.0 - exit_rate)
        util = queue.utilization(arrival)
        stable = queue.is_stable(arrival)
        response = queue.mean_response_s(arrival)
        points.append(
            EdgeLoadPoint(
                users=users,
                arrival_rate=arrival,
                utilization=util,
                mean_response_ms=(response * 1e3 if math.isfinite(response) else math.inf),
                stable=stable,
            )
        )
    return points


def max_sustainable_users(
    trunk_profile: NetworkProfile,
    exit_rate: float,
    frame_rate_hz: float = 1.0,
    workers: int = 12,
    utilization_cap: float = 0.8,
    edge: DeviceProfile = EDGE_SERVER,
) -> float:
    """Largest user population keeping edge utilization under the cap.

    With exit rate e, capacity scales by 1/(1−e): a 79 % exit rate
    (AlexNet, Table I) lets one edge box serve ~4.8× the users of
    edge-only offloading — the quantitative form of §I's argument.
    """
    if exit_rate >= 1.0:
        return math.inf
    per_worker = edge_service_time_s(trunk_profile, edge) * workers  # see edge_load_curve
    queue = QueueModel(workers=workers, service_time_s=per_worker)
    capacity = utilization_cap * queue.workers * queue.service_rate
    return capacity / (frame_rate_hz * (1.0 - exit_rate))
