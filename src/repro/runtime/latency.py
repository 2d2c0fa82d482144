"""Execution plans and the latency/communication accounting engine.

Every approach compared in the paper — LCRS, Neurosurgeon, Edgent,
mobile-only, edge-only — reduces to a *plan*: which bytes must be moved
where, and which FLOPs run on which device, per sample and per session.
This module defines that vocabulary and the simulator that prices a plan
over a stream of samples, separating compute from communication so both
Table II (end-to-end latency) and Table III (communication costs) fall
out of one run.

Session semantics (documented divergence — the paper is ambiguous about
when model loading is paid):

* **cold start** — every sample is a fresh page visit: model-load cost
  is paid per sample.  This matches the magnitude of the paper's
  Table II/III baselines (e.g. mobile-only AlexNet ≈ 9 s/sample, which
  is only explicable as a per-sample model download).
* **warm session** — the model loads once, then samples stream (the
  Figure 6 regime: "average latency is almost stable" as samples grow).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields
from typing import Callable, Optional, Sequence

import numpy as np

from ..profiling.layer_stats import LayerProfile, NetworkProfile
from .network import NetworkLink
from .profiles import DeviceProfile


class Location(enum.Enum):
    """Where a plan step executes."""

    BROWSER = "browser"
    EDGE = "edge"


@dataclass(frozen=True)
class ComputeStep:
    """Run layers on a device.  ``float_flops``/``binary_flops`` split the
    work between fp32 and XNOR kernels; ``num_layers`` prices dispatch
    overhead."""

    location: Location
    float_flops: float
    binary_flops: float = 0.0
    num_layers: int = 0
    label: str = ""

    def duration_ms(self, device: DeviceProfile) -> float:
        return (
            device.compute_ms(self.float_flops, binary=False)
            + device.compute_ms(self.binary_flops, binary=True)
            + device.layer_overhead_ms * self.num_layers
        )


@dataclass(frozen=True)
class TransferStep:
    """Move bytes across the link (direction chosen by ``upload``)."""

    num_bytes: float
    upload: bool
    label: str = ""

    def duration_ms(self, link: NetworkLink) -> float:
        if self.upload:
            return link.upload_ms(self.num_bytes)
        return link.download_ms(self.num_bytes)


@dataclass(frozen=True)
class ModelLoadStep:
    """Download + parse model bytes into the browser engine."""

    num_bytes: float
    label: str = ""

    def duration_ms(self, link: NetworkLink, browser: DeviceProfile) -> float:
        return link.download_ms(self.num_bytes) + browser.parse_ms(int(self.num_bytes))


PlanStep = ComputeStep | TransferStep | ModelLoadStep


@dataclass
class ExecutionPlan:
    """A priced recipe for classifying one sample under one approach.

    ``setup_steps`` run once per session (warm) or once per sample
    (cold start); ``per_sample_steps`` always run per sample.  For
    approaches whose per-sample path depends on a stochastic decision
    (LCRS's exit), supply ``miss_steps`` and a per-sample hit mask at
    simulation time.
    """

    approach: str
    network: str
    setup_steps: list[PlanStep] = field(default_factory=list)
    per_sample_steps: list[PlanStep] = field(default_factory=list)
    miss_steps: list[PlanStep] = field(default_factory=list)

    def model_load_bytes(self) -> float:
        return sum(
            s.num_bytes for s in self.setup_steps if isinstance(s, ModelLoadStep)
        )


@dataclass(frozen=True)
class SampleCost:
    """Per-sample breakdown produced by the simulator.

    ``retry_ms`` is the slice of ``communication_ms`` spent on failed
    miss-path attempts — timeout windows, wasted round trips, and
    backoff sleeps — so retransmission cost is visible in Figure-6-style
    traces without changing the compute/communication split.

    ``queue_ms`` is the slice of ``communication_ms`` spent waiting in a
    shared edge scheduler's queue (dynamic-batching window + head-of-line
    wait); it is zero for sessions served by a private endpoint.

    ``quality_tier`` is the accuracy tier (active ABC-Net bases) the
    sample's branch pass ran at; ``1`` is the single-base XNOR layer
    every pre-tier session used.
    """

    total_ms: float
    compute_ms: float
    communication_ms: float
    exited_locally: Optional[bool] = None
    retry_ms: float = 0.0
    queue_ms: float = 0.0
    quality_tier: int = 1


def _record_builder(cls) -> Callable[..., object]:
    """A positional constructor for the frozen dataclass ``cls`` that
    stores every field straight into the new instance's ``__dict__``.

    The generated frozen ``__init__`` routes each field through
    ``object.__setattr__`` (about 1.2 us for a 7-field record); the
    serving loop builds two records per frame, and this one costs about
    0.4 us.  It is generated from the field list the way ``dataclasses``
    generates ``__init__``: one plain dict store per field, with no
    argument tuple to unpack.  The record is the same object:
    the fields land in declaration order in ``__dict__``, and ``==``,
    ``hash``, ``repr``, ``astuple``, ``asdict`` and ``replace`` are the
    dataclass's own.  It runs no ``__post_init__`` and applies no
    defaults, so it is only for classes without one, called with every
    field.
    """
    names = [f.name for f in fields(cls)]
    if {"_cls", "_new", "_record", "_attrs"} & set(names):
        raise TypeError(f"{cls.__name__} has a field the builder uses as a local")
    source = (
        f"def build({', '.join(names)}):\n"
        "    _record = _new(_cls)\n"
        "    _attrs = _record.__dict__\n"
        + "".join(f"    _attrs[{name!r}] = {name}\n" for name in names)
        + "    return _record\n"
    )
    namespace = {"_new": object.__new__, "_cls": cls}
    exec(source, namespace)
    return namespace["build"]


#: Builds a :class:`SampleCost` from all seven fields, positionally.
_sample_cost = _record_builder(SampleCost)


@dataclass
class SessionTrace:
    """Outcome of simulating a plan over a sample stream."""

    approach: str
    network: str
    samples: list[SampleCost]

    @property
    def mean_latency_ms(self) -> float:
        return float(np.mean([s.total_ms for s in self.samples]))

    @property
    def mean_compute_ms(self) -> float:
        return float(np.mean([s.compute_ms for s in self.samples]))

    @property
    def mean_communication_ms(self) -> float:
        return float(np.mean([s.communication_ms for s in self.samples]))

    @property
    def mean_retry_ms(self) -> float:
        """Mean per-sample cost of failed transport attempts + backoff."""
        return float(np.mean([s.retry_ms for s in self.samples]))

    @property
    def mean_queue_ms(self) -> float:
        """Mean per-sample shared-edge queueing delay."""
        return float(np.mean([s.queue_ms for s in self.samples]))

    def latencies(self) -> np.ndarray:
        return np.array([s.total_ms for s in self.samples])

    def running_average(self) -> np.ndarray:
        """Average latency after each sample — the Figure 6 series."""
        lat = self.latencies()
        return np.cumsum(lat) / np.arange(1, len(lat) + 1)


@dataclass(frozen=True)
class _PricedPhase:
    """One step list priced down to what still varies per sample.

    Compute is deterministic per device, so it folds to one subtotal —
    summed from ``0.0`` in step order, exactly as a per-step loop would.
    Transfers draw link jitter, so they stay as ``(num_bytes, upload)``
    in step order and are priced per call.
    """

    compute_ms: float
    transfers: tuple

    @classmethod
    def of(
        cls, steps: Sequence[PlanStep], browser: DeviceProfile, edge: DeviceProfile
    ) -> "_PricedPhase":
        compute = 0.0
        transfers = []
        for step in steps:
            if isinstance(step, ComputeStep):
                device = browser if step.location is Location.BROWSER else edge
                compute += step.duration_ms(device)
            elif isinstance(step, TransferStep):
                transfers.append((step.num_bytes, step.upload))
            elif isinstance(step, ModelLoadStep):
                transfers.append((step.num_bytes, False))
                compute += browser.parse_ms(int(step.num_bytes))
            else:  # pragma: no cover - exhaustive by construction
                raise TypeError(f"unknown plan step {step!r}")
        return cls(compute, tuple(transfers))

    def communication_ms(self, link: NetworkLink) -> float:
        comm = 0.0
        for num_bytes, upload in self.transfers:
            comm += link.upload_ms(num_bytes) if upload else link.download_ms(num_bytes)
        return comm


@dataclass(frozen=True)
class PricedPlan:
    """An :class:`ExecutionPlan` priced once for a (browser, edge) pair.

    Each phase keeps its compute subtotal and its transfers in their
    original order, so :func:`simulate_plan` over a priced plan makes the
    same float sums and the same link calls — and draws the same jitter
    stream — as pricing the raw steps would.  Build it once per device
    pair and reuse it across samples and sessions.
    """

    plan: ExecutionPlan
    browser: DeviceProfile
    edge: DeviceProfile
    setup: _PricedPhase
    per_sample: _PricedPhase
    miss: _PricedPhase

    @classmethod
    def of(
        cls, plan: ExecutionPlan, browser: DeviceProfile, edge: DeviceProfile
    ) -> "PricedPlan":
        return cls(
            plan=plan,
            browser=browser,
            edge=edge,
            setup=_PricedPhase.of(plan.setup_steps, browser, edge),
            per_sample=_PricedPhase.of(plan.per_sample_steps, browser, edge),
            miss=_PricedPhase.of(plan.miss_steps, browser, edge),
        )


def simulate_plan(
    plan: ExecutionPlan | PricedPlan,
    num_samples: int,
    link: NetworkLink,
    browser: DeviceProfile,
    edge: DeviceProfile,
    cold_start: bool = True,
    miss_mask: Optional[Sequence[bool]] = None,
    include_setup: bool = True,
    retry_ms: Optional[Sequence[float]] = None,
    queue_ms: Optional[Sequence[float]] = None,
    quality_tier: int = 1,
) -> SessionTrace:
    """Price a plan over ``num_samples`` samples.

    ``plan`` is an :class:`ExecutionPlan`, or a :class:`PricedPlan`
    built for the same ``browser``/``edge`` (one built for other devices
    is re-priced from its steps).

    ``miss_mask[i]`` marks samples whose ``miss_steps`` fire (for LCRS:
    binary-branch misses that travel to the edge).  In warm sessions the
    setup cost is charged to the first sample only; ``include_setup=False``
    skips it entirely (for callers that price samples one at a time and
    account for the session's setup themselves).

    ``retry_ms[i]`` charges extra communication time to sample ``i`` for
    failed miss-path attempts (retransmissions, timeout waits, backoff)
    — it applies whether or not the sample's ``miss_steps`` fired, since
    a sample that exhausted its retries and fell back locally still paid
    for the attempts.

    ``queue_ms[i]`` charges scheduler queueing delay (shared-edge dynamic
    batching) to sample ``i``, also as communication time.

    ``quality_tier`` is recorded verbatim on every :class:`SampleCost`
    (the plan itself should already price the tier's reduced branch
    FLOPs — see ``LCRSAssets.plan``).
    """
    if num_samples <= 0:
        raise ValueError("num_samples must be positive")
    if miss_mask is not None and len(miss_mask) < num_samples:
        raise ValueError("miss_mask shorter than num_samples")
    if retry_ms is not None and len(retry_ms) < num_samples:
        raise ValueError("retry_ms shorter than num_samples")
    if queue_ms is not None and len(queue_ms) < num_samples:
        raise ValueError("queue_ms shorter than num_samples")
    if not isinstance(plan, PricedPlan):
        plan = PricedPlan.of(plan, browser, edge)
    elif (plan.browser is not browser and plan.browser != browser) or (
        plan.edge is not edge and plan.edge != edge
    ):
        plan = PricedPlan.of(plan.plan, browser, edge)

    # The per-sample loop of the step walk, with what does not vary per
    # sample hoisted: compute is a constant per phase, added from 0.0 in
    # phase order as the walk adds it, and a phase without transfers
    # adds 0.0 to a sum that is never -0.0, so its link call is skipped.
    # The phases with transfers are priced per sample, in phase order,
    # so the link draws the same jitter stream.
    setup, per_sample, miss = plan.setup, plan.per_sample, plan.miss
    compute_plain = 0.0 + per_sample.compute_ms
    compute_setup = 0.0 + setup.compute_ms + per_sample.compute_ms
    miss_compute = miss.compute_ms
    setup_link = bool(setup.transfers)
    per_sample_link = bool(per_sample.transfers)
    miss_link = bool(miss.transfers)
    setup_rest = include_setup and cold_start
    has_miss_steps = bool(plan.plan.miss_steps)
    tier = int(quality_tier)
    exited: Optional[bool] = None
    samples: list[SampleCost] = []
    for i in range(num_samples):
        with_setup = setup_rest if i else include_setup
        compute = compute_setup if with_setup else compute_plain
        comm = 0.0
        if with_setup and setup_link:
            comm += setup.communication_ms(link)
        if per_sample_link:
            comm += per_sample.communication_ms(link)
        if has_miss_steps:
            missed = miss_mask is not None and bool(miss_mask[i])
            if missed:
                compute += miss_compute
                if miss_link:
                    comm += miss.communication_ms(link)
            exited = not missed

        retries = float(retry_ms[i]) if retry_ms is not None else 0.0
        queued = float(queue_ms[i]) if queue_ms is not None else 0.0
        comm += retries + queued
        samples.append(
            _sample_cost(compute + comm, compute, comm, exited, retries, queued, tier)
        )
    return SessionTrace(
        approach=plan.plan.approach, network=plan.plan.network, samples=samples
    )


# ----------------------------------------------------------------------
# Helpers to turn layer profiles into plan steps
# ----------------------------------------------------------------------
def compute_step_from_layers(
    layers: Sequence[LayerProfile], location: Location, label: str = ""
) -> ComputeStep:
    """Aggregate a layer range into one compute step, splitting fp32/XNOR."""
    return ComputeStep(
        location=location,
        float_flops=sum(l.flops for l in layers if not l.is_binary),
        binary_flops=sum(l.flops for l in layers if l.is_binary),
        num_layers=len(layers),
        label=label,
    )


def profile_compute_step(
    profile: NetworkProfile, location: Location, label: str = ""
) -> ComputeStep:
    return compute_step_from_layers(profile.layers, location, label)
