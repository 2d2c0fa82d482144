"""End-to-end LCRS deployment: real inference + simulated distribution.

This is the system of Figure 8 in executable form.  The *computation* is
real — the browser side executes the serialized ``.lcrs`` bundle through
the bit-packed interpreter, the edge side executes the main trunk through
the training framework — while the *distribution* (link transfers, device
speeds, page loads) is priced by the latency model, since the physical
testbed (HUAWEI Mate 9, IBM X3640M4, 4G) is not available offline.

Message flow per sample (Algorithm 2 over the wire):

1. browser: ``features = stem(x)`` then ``logits_b = branch(features)``;
2. browser: ``S(softmax(logits_b)) < τ`` → answer locally, done;
3. otherwise: POST ``features`` (fp32 conv1 output) → edge;
4. edge: ``logits_m = trunk(features)`` → respond with the class id.

Failure model (§IV-D.1, "the network bandwidth is instability"): step 3
runs through a :class:`~repro.runtime.network.RetryPolicy` — dropped,
timed-out, corrupted, or rejected exchanges are retried with backoff,
and when the policy is exhausted the sample is answered by the *binary
branch* computed in step 1.  Degraded connectivity costs accuracy, never
availability; each outcome records who served it and how many attempts
it took.
"""

from __future__ import annotations

import itertools
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

import numpy as np

from ..core.entropy import softmax_entropy
from ..core.system import LCRS
from ..nn import Sequential
from ..nn.autograd import Tensor, no_grad
from ..nn.module import Module
from ..observability import NULL_RECORDER, MetricsRegistry, TelemetrySummary
from ..profiling import FLOAT_BYTES, NetworkProfile
from ..wasm import (
    ModelFormatError,
    PlanCompileError,
    WasmModel,
    compile_wasm_plan,
    load_trunk_engine,
    serialize_browser_bundle,
)
from .latency import (
    ComputeStep,
    ExecutionPlan,
    Location,
    ModelLoadStep,
    PricedPlan,
    SampleCost,
    SessionTrace,
    TransferStep,
    _record_builder,
    profile_compute_step,
    simulate_plan,
)
from .feature_codec import FP32_CODEC, FeatureCodec, get_codec
from .network import (
    DEFAULT_RETRY_POLICY,
    FAULT_PROFILES,
    FrameDropped,
    FrameTimeout,
    NetworkLink,
    RetryPolicy,
    faulty,
)
from .protocol import (
    BatchInferenceRequest,
    BatchInferenceResponse,
    EdgeProtocolServer,
    ErrorResponse,
    ProtocolError,
    SchedulerAck,
    decode_frame,
    encode_frame,
)
from .profiles import DeviceProfile, EDGE_SERVER, MOBILE_BROWSER_WASM

#: Bytes of the classification response message (class id + confidence).
RESULT_BYTES = 64

#: Process-wide monotonic session ids: deterministic for a given call
#: sequence and collision-free across live deployments (``id(self)`` was
#: neither — it varies run to run and recycles addresses).
_SESSION_IDS = itertools.count(1)

#: A deployment's ``fault.*`` miss-path counters, in report order.  Every
#: attempt is a ``frames_sent``; failures split by cause; ``retries``
#: counts re-sends after a failure; ``fallbacks`` counts the samples the
#: binary branch answered after the retry policy ran out.
FAULT_COUNTERS = (
    "frames_sent",
    "frames_dropped",
    "frames_timed_out",
    "frames_corrupted",
    "frames_duplicated",
    "edge_errors",
    "overloads",
    "replies_rejected",
    "retries",
    "fallbacks",
)

#: ``served_by`` values on :class:`RecognitionOutcome`.
SERVED_BY_BRANCH = "binary-branch"
SERVED_BY_EDGE = "edge"
SERVED_BY_FALLBACK = "binary-fallback"

#: :class:`FaultyLink` knobs that :class:`SessionConfig.fault_overrides`
#: may set.
_FAULT_KNOBS = ("corrupt_prob", "drop_prob", "duplicate_prob", "timeout_prob")


def _decode_or_none(raw: bytes):
    """The decoded message, or ``None`` for a frame that does not parse."""
    try:
        return decode_frame(raw)
    except ProtocolError:
        return None


@dataclass(frozen=True)
class SessionConfig:
    """Everything one :meth:`LCRSDeployment.run_session` call can vary.

    The deployment object owns the *system* (model, devices, default
    link, default codec); a :class:`SessionConfig` owns the *session* —
    how a particular image stream is pushed through it.  It is frozen and
    hashable so configurations can be logged, compared, and reused across
    sweeps, and every field is validated at construction time rather than
    deep inside a session loop.

    ``batch_size=1`` is the degenerate per-sample path — there is one
    serving code path, and larger batches only change how many frames
    share a stem/branch pass and a miss-path frame.

    ``threshold``/``codec`` override the deployment's entropy gate and
    feature codec for this session only.  ``fault_profile`` (a
    :data:`~repro.runtime.network.FAULT_PROFILES` name) and
    ``fault_overrides`` (per-knob probabilities) wrap the deployment link
    with seeded fault injection for this session only; ``fault_seed``
    seeds those draws.  ``fault_overrides`` accepts a mapping and is
    normalized to a sorted tuple of pairs so the config stays hashable.

    ``compile_plan`` routes the stem/branch engines and the edge trunk
    through trace-compiled fused plans (see :mod:`repro.wasm.plan`).
    Plans are probe-verified bit-identical to the interpreter at compile
    time and fall back to it transparently (no C compiler, unsupported
    layer, verification failure), so this is purely a throughput knob —
    predictions, entropies, and exit decisions never change.

    ``quality_tier`` pins the branch's accuracy tier (active ABC-Net
    bases) for this session; ``None`` (the default) uses the
    deployment's full-quality branch, which for single-base deployments
    is the only tier and keeps the session bit-identical to pre-tier
    behaviour.
    """

    batch_size: int = 1
    cold_start: bool = False
    codec: Optional[str] = None
    retry_policy: Optional[RetryPolicy] = None
    threshold: Optional[float] = None
    fault_profile: Optional[str] = None
    fault_overrides: tuple = ()
    fault_seed: int = 0
    compile_plan: bool = True
    quality_tier: Optional[int] = None

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if self.quality_tier is not None and self.quality_tier < 1:
            raise ValueError("quality_tier must be at least 1")
        if self.threshold is not None and not 0.0 <= self.threshold <= 1.0:
            raise ValueError("threshold must be in [0, 1]")
        if self.codec is not None:
            get_codec(self.codec)  # raises CodecError on unknown names
        if self.fault_profile is not None and self.fault_profile not in FAULT_PROFILES:
            raise ValueError(
                f"unknown fault profile {self.fault_profile!r}; "
                f"choose from {sorted(FAULT_PROFILES)}"
            )
        overrides = self.fault_overrides
        if isinstance(overrides, Mapping):
            overrides = tuple(overrides.items())
        normalized = []
        for name, prob in tuple(overrides):
            if name not in _FAULT_KNOBS:
                raise ValueError(
                    f"unknown fault override {name!r}; choose from {list(_FAULT_KNOBS)}"
                )
            prob = float(prob)
            if not 0.0 <= prob <= 1.0:
                raise ValueError(f"fault override {name} must be in [0, 1], got {prob}")
            normalized.append((name, prob))
        object.__setattr__(self, "fault_overrides", tuple(sorted(normalized)))

    @property
    def injects_faults(self) -> bool:
        return self.fault_profile is not None or bool(self.fault_overrides)


@dataclass
class _SessionContext:
    """One session's resolved knobs (config defaults filled in).

    ``plan`` is the deployment's cached :class:`PricedPlan` for the
    session's codec and starting tier.
    ``recorder``/``track`` carry the session's tracing context (the
    default :data:`~repro.observability.NULL_RECORDER` keeps the serving
    loop allocation-free); ``stem_ms``/``branch_ms`` are the per-sample
    simulated browser compute times, precomputed once so traced chunks
    can be placed on the simulated timeline without consuming link RNG.
    """

    config: SessionConfig
    plan: PricedPlan
    codec: FeatureCodec
    policy: RetryPolicy
    threshold: float
    link: NetworkLink
    recorder: object = NULL_RECORDER
    track: str = "main"
    stem_ms: float = 0.0
    branch_ms: float = 0.0
    # Accuracy tier (active ABC-Net bases) for chunks begun from now on.
    # A closed-loop controller may mutate `threshold`/`quality_tier`
    # between chunks; in-flight chunks keep the values they started with.
    quality_tier: int = 1


@dataclass
class _PendingChunk:
    """A chunk mid-flight: local work done, miss-path answer outstanding.

    The serving loop is split into phases — :meth:`LCRSDeployment._begin_chunk`
    (browser compute + request build), reply application, and
    :meth:`LCRSDeployment._finish_chunk` (latency pricing + outcome
    emission) — so the same session code runs both against a private
    edge endpoint (reply is immediate) and against a shared
    :class:`~repro.runtime.scheduler.EdgeScheduler` (reply arrives after
    the batching window closes, with a queue delay attached).
    """

    start: int
    count: int
    predictions: np.ndarray
    entropies: np.ndarray
    exits: np.ndarray
    miss_idx: np.ndarray
    request: Optional[BatchInferenceRequest] = None
    served_by: str = SERVED_BY_BRANCH
    attempts: int = 0
    retry_ms: float = 0.0
    queue_ms: float = 0.0
    # Accuracy tier the chunk's branch pass ran at, captured at begin
    # time so a mid-flight tier switch cannot corrupt its pricing.
    quality_tier: int = 1
    # Tracing context (empty/None when the recorder is disabled): the
    # chunk's trace id, its open root span, and the named child spans
    # that pricing places on the simulated timeline at finish.
    trace_id: str = ""
    root: Optional[object] = None
    spans: dict = field(default_factory=dict)


@dataclass(frozen=True)
class RecognitionOutcome:
    """One sample's journey through the deployed system.

    ``served_by`` names who produced the prediction — ``"binary-branch"``
    (confident local exit), ``"edge"`` (collaborative answer from the
    trunk), or ``"binary-fallback"`` (the edge was unreachable and the
    branch answer was used as a degraded exit).  A local exit produced
    below the deployment's full accuracy tier is suffixed with the tier
    it ran at (``"binary-branch@tier1"``); the exact tier is always on
    ``cost.quality_tier``.  ``attempts`` counts miss-path frame
    exchanges (0 for local exits).
    """

    index: int
    prediction: int
    exited_locally: bool
    entropy: float
    cost: SampleCost
    served_by: str = SERVED_BY_BRANCH
    attempts: int = 0


#: Builds a :class:`RecognitionOutcome` from all seven fields, positionally.
_outcome = _record_builder(RecognitionOutcome)


@dataclass
class SessionResult:
    """A full session: outcomes plus the aggregate latency trace.

    ``telemetry`` is populated only when the session ran with an enabled
    recorder — an aggregate of the recorder's spans and metric
    histograms (recorder-wide, so concurrent sessions sharing one tracer
    see the same summary).
    """

    outcomes: list[RecognitionOutcome]
    trace: SessionTrace
    telemetry: Optional[TelemetrySummary] = None

    @property
    def predictions(self) -> np.ndarray:
        return np.array([o.prediction for o in self.outcomes])

    @property
    def exit_rate(self) -> float:
        return float(np.mean([o.exited_locally for o in self.outcomes]))

    def accuracy(self, labels: np.ndarray) -> float:
        return float((self.predictions == np.asarray(labels)).mean())

    @property
    def mean_latency_ms(self) -> float:
        return self.trace.mean_latency_ms

    @property
    def fallback_rate(self) -> float:
        """Fraction of samples answered locally because the edge failed."""
        return float(
            np.mean([o.served_by == SERVED_BY_FALLBACK for o in self.outcomes])
        )

    @property
    def degraded(self) -> bool:
        """True if any sample had to fall back to the binary branch."""
        return any(o.served_by == SERVED_BY_FALLBACK for o in self.outcomes)

    @property
    def served_by_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for o in self.outcomes:
            counts[o.served_by] = counts.get(o.served_by, 0) + 1
        return counts

    @property
    def mean_attempts(self) -> float:
        """Mean frame exchanges per collaborative (miss-path) sample."""
        attempts = [o.attempts for o in self.outcomes if o.attempts > 0]
        return float(np.mean(attempts)) if attempts else 0.0


class EdgeEndpoint:
    """The edge server's inference service: conv1 features → class logits.

    The trunk runs as an interpreter engine of its serialized bundle
    (:func:`repro.wasm.plan.load_trunk_engine`), one per feature
    geometry, built on first use from the trunk's weights at that time.
    When ``compile_plan`` is on, batches execute through one compiled
    plan of that engine per (feature geometry, power-of-two capacity).
    The engine's own ``forward`` serves ``compile_plan=False`` and a
    failed compile, with the same bits as the plan.  Only a trunk the
    bundle format cannot express runs the :mod:`repro.nn` module, whose
    BLAS arithmetic matches the engine to ``validate_bundle``'s
    tolerance, not bit for bit.  The program calls ``infer`` from one
    thread; callers that share an endpoint across their own threads
    stay correct, because the plan's internal lock serializes replays
    of its one arena, the engine and the module only read frozen
    weights, and ``requests_served`` is bumped under a lock.
    """

    #: Compiled plans kept per (feature geometry, capacity), LRU.
    PLAN_CACHE_SIZE = 8

    def __init__(self, trunk: Module, *, compile_plan: bool = True) -> None:
        self._trunk = trunk
        self._trunk.eval()
        self.requests_served = 0
        self.compile_plan = bool(compile_plan)
        #: Feature geometry → trunk engine, or None when the trunk
        #: cannot be serialized.
        self._engines: dict = {}
        #: (geometry, capacity) → compiled plan, or None after a failed
        #: compile (so the fallback decision is cached too).
        self._plans: "OrderedDict[tuple, object]" = OrderedDict()
        self._cache_lock = threading.Lock()
        self._served_lock = threading.Lock()

    def _engine_for(self, feature_shape: tuple) -> Optional[WasmModel]:
        """The trunk engine for this feature geometry, or None when the
        trunk cannot be serialized."""
        key = tuple(int(d) for d in feature_shape)
        with self._cache_lock:
            if key in self._engines:
                return self._engines[key]
        try:
            engine = load_trunk_engine(self._trunk, key)
        except ModelFormatError:
            engine = None
        with self._cache_lock:
            return self._engines.setdefault(key, engine)

    def _plan_for(self, engine: WasmModel, batch_size: int):
        """The compiled plan for this geometry/capacity, or None when it
        failed to compile.

        Capacity is the batch size rounded up to a power of two, so a
        ramp of batch sizes (1, 2, .., 64) shares a handful of plans
        instead of compiling one per size.
        """
        capacity = 1 << max(0, int(batch_size) - 1).bit_length()
        key = (tuple(engine.input_shape), capacity)
        with self._cache_lock:
            if key in self._plans:
                self._plans.move_to_end(key)
                return self._plans[key]
        try:
            plan = compile_wasm_plan(engine, capacity)
        except PlanCompileError:
            plan = None
        with self._cache_lock:
            plan = self._plans.setdefault(key, plan)
            if len(self._plans) > self.PLAN_CACHE_SIZE:
                self._plans.popitem(last=False)
            return plan

    def _count_served(self, n: int) -> None:
        with self._served_lock:
            self.requests_served += n

    def infer(
        self,
        features: np.ndarray,
        *,
        recorder=None,
        trace_id: str = "",
        track: str = "edge",
    ) -> np.ndarray:
        features = np.ascontiguousarray(features, dtype=np.float32)
        engine = self._engine_for(features.shape[1:])
        plan = None
        if engine is not None and self.compile_plan and len(features):
            plan = self._plan_for(engine, len(features))
        if engine is None:
            with no_grad():
                logits = self._trunk(Tensor(features)).data
        elif plan is not None:
            logits = plan.execute(
                features, recorder=recorder, trace_id=trace_id, track=track
            )
        else:
            logits = engine.forward(features)
        self._count_served(len(features))
        return logits


class BrowserClient:
    """The mobile web browser: loads the ``.lcrs`` bundles, runs them.

    The stem and branch ship as separate engine instances because the
    stem output must be retained for possible upload to the edge —
    "the mobile web browser frees them after sending them to the edge
    server" (§IV-A).

    ``tier_payloads`` (one ``.lcrs`` payload per accuracy tier, lowest
    first, last entry the full-quality branch) enables the tiered-branch
    path: tier ``t`` runs the branch with its first ``t`` ABC-Net bases.
    Lower tiers reuse bases the full bundle already shipped, so they add
    no download bytes; engines below the top tier are loaded lazily on
    first use.  The default (no tiers) is the single-engine client.
    """

    def __init__(
        self,
        stem_payload: bytes,
        branch_payload: bytes,
        threshold: float,
        tier_payloads: tuple = (),
    ) -> None:
        self.stem_engine = WasmModel.load(stem_payload)
        self.branch_engine = WasmModel.load(branch_payload)
        self.threshold = threshold
        self.loaded_bytes = len(stem_payload) + len(branch_payload)
        self.compile_plan = True
        self._tier_payloads = tuple(tier_payloads)
        self.max_quality_tier = max(1, len(self._tier_payloads))
        self._tier_engines: dict[int, WasmModel] = {
            self.max_quality_tier: self.branch_engine
        }
        #: ``(|C|, np.log(|C|))`` of the last gated batch: every tier of
        #: the branch has the same classes, so the log is taken once.
        self._log_classes: tuple = (0, 0.0)

    def _entropies(self, logits: np.ndarray) -> np.ndarray:
        """The gate's normalized entropies (:func:`softmax_entropy`)."""
        classes = logits.shape[1]
        if self._log_classes[0] != classes:
            self._log_classes = (classes, np.log(classes))
        return softmax_entropy(logits, self._log_classes[1])

    def branch_engine_for(self, quality_tier: int) -> WasmModel:
        """The branch engine for an accuracy tier (clamped; lazy-loaded)."""
        tier = max(1, min(int(quality_tier), self.max_quality_tier))
        engine = self._tier_engines.get(tier)
        if engine is None:
            engine = WasmModel.load(self._tier_payloads[tier - 1])
            self._tier_engines[tier] = engine
        return engine

    def set_compile_plan(self, compile_plan: bool) -> None:
        """Route both engines through trace-compiled plans (or not).

        Purely a performance knob: plans are probe-verified bit-identical
        to the interpreter and fall back to it transparently (see
        :meth:`repro.wasm.WasmModel.forward_planned`).
        """
        self.compile_plan = bool(compile_plan)

    def process(self, image: np.ndarray) -> tuple[np.ndarray, np.ndarray, float, bool]:
        """Run the local pipeline on one CHW image.

        Returns (features, binary_logits, entropy, exit_decision).
        """
        features, logits, entropies, exits = self.process_batch(image[None])
        return features, logits, float(entropies[0]), bool(exits[0])

    def process_batch(
        self,
        images: np.ndarray,
        threshold: Optional[float] = None,
        *,
        quality_tier: Optional[int] = None,
        recorder=NULL_RECORDER,
        trace_id: str = "",
        track: str = "browser",
        spans: Optional[dict] = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Run the local pipeline on a whole NCHW batch at once.

        One stem pass, one branch pass, and a vectorized entropy gate
        for N frames — the engines' kernels amortize their per-call
        dispatch over the batch, which is where the batched serving
        path's throughput comes from.  Returns ``(features, logits,
        entropies, exit_mask)`` with one row per sample; the math is
        bit-identical to processing samples one at a time.

        ``threshold`` overrides the calibrated entropy gate for this
        call (session-level τ sweeps); the default is the loaded one.
        ``quality_tier`` selects the branch accuracy tier (``None`` = the
        full-quality branch, identical to the pre-tier client).

        With an enabled ``recorder``, the three stages record as
        ``stem`` / ``binary_branch`` / ``entropy_gate`` spans on
        ``track`` (collected into ``spans`` when given, so the caller
        can price them on the simulated clock afterwards).  The math is
        identical on both paths; the disabled path allocates nothing.
        """
        gate = self.threshold if threshold is None else threshold
        branch = (
            self.branch_engine
            if quality_tier is None
            else self.branch_engine_for(quality_tier)
        )
        if not recorder.enabled:
            if self.compile_plan:
                features = self.stem_engine.forward_planned(images)
                logits = branch.forward_planned(features)
            else:
                features = self.stem_engine.forward(images)
                logits = branch.forward(features)
            entropies = self._entropies(logits)
            return features, logits, entropies, entropies < gate
        with recorder.span(
            "stem", track=track, trace_id=trace_id, samples=len(images)
        ) as stem_span:
            if self.compile_plan:
                features = self.stem_engine.forward_planned(
                    images, recorder=recorder, trace_id=trace_id, track=track
                )
            else:
                features = self.stem_engine.forward(images)
        with recorder.span(
            "binary_branch", track=track, trace_id=trace_id, samples=len(images)
        ) as branch_span:
            if self.compile_plan:
                logits = branch.forward_planned(
                    features, recorder=recorder, trace_id=trace_id, track=track
                )
            else:
                logits = branch.forward(features)
        with recorder.span("entropy_gate", track=track, trace_id=trace_id) as gate_span:
            entropies = self._entropies(logits)
            exit_mask = entropies < gate
        exits = int(exit_mask.sum())
        gate_span.set(
            threshold=float(gate),
            exits=exits,
            misses=len(images) - exits,
            mean_entropy=float(entropies.mean()) if len(entropies) else 0.0,
        )
        if spans is not None:
            spans["stem"] = stem_span
            spans["binary_branch"] = branch_span
            spans["entropy_gate"] = gate_span
        return features, logits, entropies, exit_mask


@dataclass
class LCRSAssets:
    """Deployment artifacts of a composite model, independent of training.

    Everything the latency engine needs to price LCRS — serialized
    bundle bytes, per-side profiles, the feature-transfer size — is a
    function of the *architecture* alone, so untrained models can drive
    the Table II/III and Figure 6/7 harnesses.
    """

    network: str
    stem_payload: bytes
    branch_payload: bytes
    stem_profile: NetworkProfile
    branch_profile: NetworkProfile
    trunk_profile: NetworkProfile
    feature_bytes: int
    #: Accuracy tiers the branch ships with (ABC-Net bases); 1 = the
    #: classic single-base XNOR branch, byte-identical to the pre-tier
    #: format.
    num_bases: int = 1
    #: Per-tier branch payloads (tier t = first t bases), empty for the
    #: single-base deployment.  The last entry equals ``branch_payload``.
    branch_tier_payloads: tuple = ()

    @property
    def bundle_bytes(self) -> int:
        """On-the-wire browser download (the Figure 7 LCRS bar)."""
        return len(self.stem_payload) + len(self.branch_payload)

    def plan(
        self, codec: FeatureCodec = FP32_CODEC, quality_tier: Optional[int] = None
    ) -> ExecutionPlan:
        """The LCRS execution plan for the latency engine.

        ``codec`` determines the miss-path feature payload size; the
        paper's behaviour is fp32 (the default).  ``quality_tier``
        prices the branch at that tier: the branch's binary FLOPs scale
        with the number of active bases (``branch_profile`` counts one
        base), which is the service-time knob the closed-loop controller
        steps under sustained overload.
        """
        tier = self.num_bases if quality_tier is None else int(quality_tier)
        if not 1 <= tier <= self.num_bases:
            raise ValueError(
                f"quality_tier must be in [1, {self.num_bases}], got {tier}"
            )
        browser_compute = ComputeStep(
            location=Location.BROWSER,
            float_flops=self.stem_profile.float_flops + self.branch_profile.float_flops,
            binary_flops=self.branch_profile.binary_flops * tier,
            num_layers=len(self.stem_profile) + len(self.branch_profile),
            label="stem+binary-branch",
        )
        feature_shape = tuple(self.trunk_profile.layers[0].input_shape[1:])
        feature_wire_bytes = codec.wire_bytes(feature_shape)
        return ExecutionPlan(
            approach="lcrs",
            network=self.network,
            setup_steps=[ModelLoadStep(self.bundle_bytes, label="load .lcrs bundle")],
            per_sample_steps=[browser_compute],
            miss_steps=[
                TransferStep(
                    feature_wire_bytes, upload=True,
                    label=f"conv1 features ({codec.name})",
                ),
                profile_compute_step(self.trunk_profile, Location.EDGE, "main trunk"),
                TransferStep(RESULT_BYTES, upload=False, label="result"),
            ],
        )


def build_lcrs_assets(model, num_bases: int = 1) -> LCRSAssets:
    """Extract deployment assets from a :class:`CompositeNetwork`.

    ``num_bases`` > 1 serializes the binary branch at every accuracy tier
    ``1..num_bases`` (ABC-Net residual bases — see
    :func:`repro.nn.binary.binarize_bases`); the shipped
    ``branch_payload`` is the full-quality tier.  The default produces
    byte-identical assets to the pre-tier builder.
    """
    if num_bases < 1:
        raise ValueError("num_bases must be at least 1")
    input_shape = (model.in_channels, model.input_size, model.input_size)
    stem_shape = model.stem_output_shape
    if num_bases == 1:
        branch_payload = serialize_browser_bundle(model.binary_branch, stem_shape)
        tier_payloads: tuple = ()
    else:
        tier_payloads = tuple(
            serialize_browser_bundle(model.binary_branch, stem_shape, num_bases=t)
            for t in range(1, num_bases + 1)
        )
        branch_payload = tier_payloads[-1]
    return LCRSAssets(
        network=model.base_name,
        stem_payload=serialize_browser_bundle(model.stem, input_shape),
        branch_payload=branch_payload,
        stem_profile=NetworkProfile.of(model.stem, input_shape),
        branch_profile=NetworkProfile.of(model.binary_branch, stem_shape),
        trunk_profile=NetworkProfile.of(model.main_trunk, stem_shape),
        feature_bytes=int(np.prod(stem_shape)) * FLOAT_BYTES,
        num_bases=num_bases,
        branch_tier_payloads=tier_payloads,
    )


class LCRSDeployment:
    """Deployed LCRS system: a browser client, an edge endpoint, a link."""

    def __init__(
        self,
        system: LCRS,
        link: NetworkLink,
        browser_device: DeviceProfile = MOBILE_BROWSER_WASM,
        edge_device: DeviceProfile = EDGE_SERVER,
        feature_codec: FeatureCodec = FP32_CODEC,
        retry_policy: Optional[RetryPolicy] = None,
        recorder=None,
        num_bases: int = 1,
    ) -> None:
        if system.calibration is None:
            raise RuntimeError("calibrate the system before deploying it")
        self.system = system
        self.link = link
        self.browser_device = browser_device
        self.edge_device = edge_device
        self.feature_codec = feature_codec
        self.retry_policy = retry_policy if retry_policy is not None else DEFAULT_RETRY_POLICY
        #: The deployment's metrics; the ``fault.*`` counters are
        #: resolved once here (see :data:`FAULT_COUNTERS`).
        self.registry = MetricsRegistry()
        self._faults = {
            name: self.registry.counter(f"fault.{name}") for name in FAULT_COUNTERS
        }
        # Tracing is opt-in: the null recorder keeps every span call site
        # behind a single `enabled` check with zero per-sample allocation.
        self.recorder = recorder if recorder is not None else NULL_RECORDER

        self.assets = build_lcrs_assets(system.model, num_bases=num_bases)
        self.browser = BrowserClient(
            self.assets.stem_payload,
            self.assets.branch_payload,
            system.threshold,
            tier_payloads=self.assets.branch_tier_payloads,
        )
        self.edge = EdgeEndpoint(system.model.main_trunk)
        # Misses travel as protocol frames: encode(features) → frame →
        # server → frame → class id, so the wire contract is exercised
        # on every collaborative sample.
        self._edge_server = EdgeProtocolServer(
            self.edge,
            bundles={
                system.model.base_name: self.assets.stem_payload
                + self.assets.branch_payload
            },
        )
        self._session_id = next(_SESSION_IDS)
        # (codec name, tier) → (codec, PricedPlan), priced for the
        # devices in `_priced_for`; see `_priced_plan`.
        self._priced_plans: dict = {}
        self._priced_for: tuple = (browser_device, edge_device)
        # Backoff jitter draws are independent of the link's latency
        # jitter, so fault-free sessions consume identical RNG streams
        # to the pre-retry implementation.
        self._retry_rng = np.random.default_rng(
            [getattr(link, "seed", 0), self._session_id]
        )

    def plan(self) -> ExecutionPlan:
        """The LCRS execution plan for the latency engine."""
        return self.assets.plan(codec=self.feature_codec)

    def _priced_plan(self, codec: FeatureCodec, quality_tier: int) -> PricedPlan:
        """The LCRS plan for a codec and tier, priced once per device pair.

        The price depends on the codec, the tier and the two devices; the
        link is not part of it, because it enters only per call, through
        the plan's transfers.  The lookup keys on ``(codec.name, tier)``
        and checks the codec by identity (or, failing that, ``==``), and
        the whole cache is dropped when ``browser_device`` or
        ``edge_device`` is reassigned, so no lookup hashes a frozen
        dataclass field by field.
        """
        devices = self._priced_for
        if devices[0] is not self.browser_device or devices[1] is not self.edge_device:
            self._priced_plans = {}
            self._priced_for = (self.browser_device, self.edge_device)
        key = (codec.name, quality_tier)
        entry = self._priced_plans.get(key)
        if entry is None or (entry[0] is not codec and entry[0] != codec):
            entry = (
                codec,
                PricedPlan.of(
                    self.assets.plan(codec=codec, quality_tier=quality_tier),
                    self.browser_device,
                    self.edge_device,
                ),
            )
            self._priced_plans[key] = entry
        return entry[1]

    # ------------------------------------------------------------------
    # Fault-tolerant miss-path transport
    # ------------------------------------------------------------------
    def _reply_valid(self, reply, request: BatchInferenceRequest) -> bool:
        """True when ``reply`` is the edge's answer to *this* request.

        The server is not trusted to preserve order or even echo the
        right correlation ids — a reply must be a
        :class:`BatchInferenceResponse` carrying the request's session id
        and exactly its sequence set, else it is treated as a failed
        attempt.
        """
        return (
            isinstance(reply, BatchInferenceResponse)
            and reply.session_id == request.session_id
            and len(reply.sequences) == len(request.sequences)
            and set(reply.sequences) == set(request.sequences)
            and len(reply.class_ids) == len(reply.sequences)
        )

    def _decode_reply(self, raw: bytes, ctx: _SessionContext, pending: _PendingChunk):
        """Decode one reply frame, or ``None`` when it does not parse.

        Traced, the decode records as a ``codec.decode`` span.
        """
        rec = ctx.recorder
        if not rec.enabled:
            return _decode_or_none(raw)
        with rec.span("codec.decode", track=ctx.track, trace_id=pending.trace_id):
            return _decode_or_none(raw)

    def _exchange(
        self,
        ctx: _SessionContext,
        pending: _PendingChunk,
        transport: str,
        send: Callable[[bytes, float], bytes],
        accept: Callable[[object], object],
    ):
        """Send a chunk's miss frame through the session's retry policy.

        The one miss-path transport loop, for direct serving and for the
        shared scheduler alike.  ``send(frame, wasted_ms)`` delivers one
        attempt and returns the reply frame; ``wasted_ms`` is the time
        already burned failing, which shifts a scheduled attempt's
        arrival.  ``accept(reply)`` maps a decoded reply to the result —
        the :class:`BatchInferenceResponse` of direct serving, the ticket
        of a :class:`SchedulerAck` — or to ``None`` when the reply does
        not answer this request.

        Returns the result, or ``None`` when the policy ran out and the
        chunk must fall back to the binary branch; the attempt count and
        ``retry_ms`` land on ``pending``.  ``retry_ms`` prices the failed
        attempts for the latency model: drops and timeouts cost a full
        per-attempt timeout window, refused replies cost the wasted round
        trip, and every retry adds its backoff sleep.  A 503 (queue full,
        tenant over fair share) counts as both an ``edge_error`` and an
        ``overload``.

        Traced, the exchange records as one ``link.exchange`` span
        (``transport`` attached, kept in ``pending.spans`` for
        simulated-clock pricing) with a ``link.attempt`` child per
        attempt carrying its outcome, injected faults and priced failure
        cost.
        """
        link, policy, rec = ctx.link, ctx.policy, ctx.recorder
        counts = self._faults
        frame = encode_frame(pending.request)
        ex_span = att_span = None
        if rec.enabled:
            ex_span = rec.start_span(
                "link.exchange",
                track=ctx.track,
                trace_id=pending.trace_id,
                transport=transport,
                frame_bytes=len(frame),
            )
            pending.spans["link.exchange"] = ex_span
        retry_ms = 0.0
        attempts = 0
        result = None
        while attempts < policy.max_attempts and retry_ms < policy.deadline_ms:
            attempts += 1
            counts["frames_sent"].add(1)
            if rec.enabled:
                att_span = rec.start_span(
                    "link.attempt",
                    track=ctx.track,
                    trace_id=pending.trace_id,
                    attempt=attempts,
                )
            try:
                raw = link.exchange(
                    frame, lambda f, wasted_ms=retry_ms: send(f, wasted_ms)
                )
            except FrameDropped:
                counts["frames_dropped"].add(1)
                failure_ms = policy.per_attempt_timeout_ms
                outcome = "dropped"
            except FrameTimeout:
                counts["frames_timed_out"].add(1)
                failure_ms = policy.per_attempt_timeout_ms
                outcome = "timed-out"
            else:
                faults = getattr(link, "last_faults", ())
                if "corrupt" in faults:
                    counts["frames_corrupted"].add(1)
                if "duplicate" in faults:
                    counts["frames_duplicated"].add(1)
                if att_span is not None and faults:
                    att_span.set(faults=list(faults))
                reply = self._decode_reply(raw, ctx, pending)
                result = accept(reply)
                if result is not None:
                    break
                if isinstance(reply, ErrorResponse):
                    counts["edge_errors"].add(1)
                    if reply.code == 503:
                        counts["overloads"].add(1)
                        outcome = "shed"
                    else:
                        outcome = "edge-error"
                else:
                    counts["replies_rejected"].add(1)
                    outcome = "rejected"
                # A refusal came back quickly: price the wasted round
                # trip, not a full timeout window.
                failure_ms = link.upload_ms(len(frame)) + link.download_ms(
                    RESULT_BYTES
                )
            retry_ms += failure_ms
            if att_span is not None:
                att_span.set(outcome=outcome, failure_ms=failure_ms)
                rec.end_span(att_span)
            if attempts < policy.max_attempts and retry_ms < policy.deadline_ms:
                counts["retries"].add(1)
                retry_ms += policy.backoff_ms(attempts, self._retry_rng)
        pending.attempts = attempts
        pending.retry_ms = retry_ms
        if ex_span is not None:
            ok = {}
            if result is None:
                outcome = "fallback"
            else:
                outcome = "ok"
                if isinstance(reply, SchedulerAck):
                    ok["ticket"] = reply.ticket
                att_span.set(outcome=outcome, **ok)
                rec.end_span(att_span)
            ex_span.set(outcome=outcome, attempts=attempts, retry_ms=retry_ms, **ok)
            rec.end_span(ex_span)
        return result

    # ------------------------------------------------------------------
    # Real execution with priced timing
    # ------------------------------------------------------------------
    def _session_context(
        self, config: SessionConfig, recorder=None
    ) -> _SessionContext:
        """Resolve a config against the deployment's defaults."""
        codec = get_codec(config.codec) if config.codec is not None else self.feature_codec
        link = self.link
        if config.injects_faults:
            link = faulty(
                self.link,
                profile=config.fault_profile or "none",
                seed=config.fault_seed,
                **dict(config.fault_overrides),
            )
        rec = recorder if recorder is not None else self.recorder
        self.browser.set_compile_plan(config.compile_plan)
        self.edge.compile_plan = config.compile_plan
        stem_ms = branch_ms = 0.0
        if rec.enabled:
            # Deterministic per-sample browser compute (no link RNG): the
            # simulated placement of traced stem/branch spans.
            stem_ms = profile_compute_step(
                self.assets.stem_profile, Location.BROWSER, "stem"
            ).duration_ms(self.browser_device)
            branch_ms = profile_compute_step(
                self.assets.branch_profile, Location.BROWSER, "binary-branch"
            ).duration_ms(self.browser_device)
        tier = (
            config.quality_tier
            if config.quality_tier is not None
            else self.browser.max_quality_tier
        )
        if tier > self.browser.max_quality_tier:
            raise ValueError(
                f"quality_tier {tier} exceeds the deployment's "
                f"{self.browser.max_quality_tier} tier(s)"
            )
        return _SessionContext(
            config=config,
            plan=self._priced_plan(codec, tier),
            codec=codec,
            policy=config.retry_policy or self.retry_policy,
            threshold=(
                config.threshold
                if config.threshold is not None
                else self.browser.threshold
            ),
            link=link,
            recorder=rec,
            track=f"session-{self._session_id}",
            stem_ms=stem_ms,
            branch_ms=branch_ms,
            quality_tier=tier,
        )

    def _begin_chunk(
        self, images: np.ndarray, start: int, ctx: _SessionContext
    ) -> _PendingChunk:
        """Browser phase: stem + branch + entropy gate, miss frame built.

        All of a chunk's misses ship as one protocol frame — one codec
        pass, one round trip — and the reply fans the class ids back out
        *keyed by sequence id*, so a server that reorders its answers
        still lands each class id on the right sample.

        When tracing is enabled the chunk opens a fresh trace: a root
        ``chunk`` span on the session track, stage spans from
        :meth:`BrowserClient.process_batch`, and a ``codec.encode`` span
        around the request build; the trace id travels to the edge in
        the request frame header.
        """
        chunk = np.asarray(images[start : start + ctx.config.batch_size])
        rec = ctx.recorder
        trace_id = ""
        root = None
        spans: dict = {}
        if rec.enabled:
            trace_id = rec.new_trace()
            root = rec.start_span(
                "chunk",
                track=ctx.track,
                trace_id=trace_id,
                session=self._session_id,
                start=start,
                batch_size=len(chunk),
            )
        features, logits, entropies, exits = self.browser.process_batch(
            chunk,
            threshold=ctx.threshold,
            quality_tier=ctx.quality_tier,
            recorder=rec,
            trace_id=trace_id,
            track=ctx.track,
            spans=spans,
        )
        # argmax returns intp, which is int64 on the 64-bit hosts served;
        # a copy is made only where it is not.
        predictions = logits.argmax(axis=1).astype(np.int64, copy=False)
        miss_idx = (~exits).nonzero()[0]
        request = None
        if miss_idx.size:
            if rec.enabled:
                with rec.span("codec.encode", track=ctx.track, trace_id=trace_id) as enc:
                    request = BatchInferenceRequest.from_features(
                        self._session_id,
                        (miss_idx + start).tolist(),
                        ctx.codec.name,
                        features[miss_idx],
                        trace_id=trace_id,
                    )
                enc.set(
                    codec=ctx.codec.name,
                    misses=int(miss_idx.size),
                    payload_bytes=len(request.payload),
                )
                spans["codec.encode"] = enc
            else:
                request = BatchInferenceRequest.from_features(
                    self._session_id,
                    (miss_idx + start).tolist(),
                    ctx.codec.name,
                    features[miss_idx],
                )
        return _PendingChunk(
            start=start,
            count=len(chunk),
            predictions=predictions,
            entropies=entropies,
            exits=exits,
            miss_idx=miss_idx,
            request=request,
            trace_id=trace_id,
            root=root,
            spans=spans,
            quality_tier=ctx.quality_tier,
        )

    def _apply_reply(
        self, pending: _PendingChunk, reply: Optional[BatchInferenceResponse]
    ) -> None:
        """Land the edge's answer (or the lack of one) on a chunk."""
        if reply is None:
            # The whole chunk degrades together: every miss keeps its
            # binary-branch argmax, already in `predictions`.  The
            # counter tracks samples.
            pending.served_by = SERVED_BY_FALLBACK
            self._faults["fallbacks"].add(int(pending.miss_idx.size))
        else:
            by_sequence = dict(zip(reply.sequences, reply.class_ids))
            start = pending.start
            pending.predictions[pending.miss_idx] = [
                by_sequence[start + j] for j in pending.miss_idx.tolist()
            ]
            pending.served_by = SERVED_BY_EDGE

    def _finish_chunk(
        self,
        pending: _PendingChunk,
        ctx: _SessionContext,
        outcomes: list[RecognitionOutcome],
        costs: list[SampleCost],
        sim_now: float = 0.0,
    ) -> float:
        """Pricing phase: per-sample latency model + outcome emission.

        Returns the chunk's priced total (simulated ms), the amount the
        session's simulated clock advances by.

        Costs stay per sample regardless of chunking: one
        :func:`simulate_plan` call prices the chunk's frames in order,
        exactly as a per-sample session would.  Every miss in the chunk
        waited out the same failed attempts (and the same scheduler queue
        delay, when one is attached), so each carries the chunk's full
        retry/queue cost.

        ``sim_now`` is the session's simulated clock at chunk start;
        when the chunk is traced, its spans are placed on the simulated
        timeline here (the root ``chunk`` span covers the chunk's full
        priced cost, stem/branch children lie at the front, and the
        residual — transfers, retries, queueing — lands on
        ``link.exchange``) and the root span is closed.
        """
        config = ctx.config
        start = pending.start
        # A chunk whose frames all exit prices no miss, retry or queue
        # cost: simulate_plan reads a missing vector as all False / 0.0.
        misses = miss_mask = retry_ms = queue_ms = None
        if pending.miss_idx.size:
            misses = (~pending.exits).tolist()
            # Miss steps are priced only when the exchange succeeded; a
            # fallback sample pays its failed attempts via retry_ms.
            if pending.served_by == SERVED_BY_EDGE:
                miss_mask = misses
            retry_ms = [pending.retry_ms if m else 0.0 for m in misses]
            queue_ms = [pending.queue_ms if m else 0.0 for m in misses]
        trace = simulate_plan(
            # Price with the plan of the tier the chunk *ran* at
            # (captured at begin time), not the context's current
            # tier — a controller may have stepped the tier while
            # this chunk was in flight.
            self._priced_plan(ctx.codec, pending.quality_tier),
            num_samples=pending.count,
            link=ctx.link,
            browser=self.browser_device,
            edge=self.edge_device,
            cold_start=config.cold_start,
            miss_mask=miss_mask,
            retry_ms=retry_ms,
            queue_ms=queue_ms,
            # The bundle loads on the first visit only unless every
            # scan is a fresh page load (cold_start).
            include_setup=config.cold_start or start == 0,
            quality_tier=pending.quality_tier,
        )
        samples = trace.samples
        costs.extend(samples)
        # Degraded tiers are visible in `served_by` for branch-served
        # samples; edge-served answers came from the fp32 trunk, whose
        # quality is tier-independent.
        branch_served = SERVED_BY_BRANCH
        if pending.quality_tier < self.browser.max_quality_tier:
            branch_served = f"{SERVED_BY_BRANCH}@tier{pending.quality_tier}"
        miss_served = pending.served_by
        if miss_served == SERVED_BY_BRANCH:
            miss_served = branch_served
        attempts = pending.attempts
        predictions = pending.predictions.tolist()
        entropies = pending.entropies.tolist()
        outcomes.extend(
            _outcome(
                start + j,
                predictions[j],
                not miss,
                entropies[j],
                cost,
                miss_served if miss else branch_served,
                attempts if miss else 0,
            )
            for j, (cost, miss) in enumerate(
                zip(samples, misses or itertools.repeat(False))
            )
        )
        chunk_total = sum(c.total_ms for c in samples)
        if pending.root is not None:
            stem_total = ctx.stem_ms * pending.count
            branch_total = ctx.branch_ms * pending.count
            spans = pending.spans
            t = sim_now
            span = spans.get("stem")
            if span is not None:
                span.set_sim(t, stem_total)
                t += stem_total
            span = spans.get("binary_branch")
            if span is not None:
                span.set_sim(t, branch_total)
                t += branch_total
            span = spans.get("entropy_gate")
            if span is not None:
                span.set_sim(t, 0.0)
            span = spans.get("codec.encode")
            if span is not None:
                span.set_sim(t, 0.0)
            span = spans.get("link.exchange")
            if span is not None:
                span.set_sim(t, max(chunk_total - (t - sim_now), 0.0))
                span.set(retry_ms=pending.retry_ms, queue_ms=pending.queue_ms)
            pending.root.set_sim(sim_now, chunk_total)
            pending.root.set(
                served_by=pending.served_by,
                attempts=pending.attempts,
                misses=int(pending.miss_idx.size),
                exits=pending.count - int(pending.miss_idx.size),
                retry_ms=pending.retry_ms,
                queue_ms=pending.queue_ms,
            )
            ctx.recorder.end_span(pending.root)
        return chunk_total

    def run_session(
        self,
        images: np.ndarray,
        *,
        config: Optional[SessionConfig] = None,
        recorder=None,
    ) -> SessionResult:
        """Process an image stream through the deployed system.

        Computation is real (every prediction comes from the bit-packed
        engines / the trunk); per-sample costs come from the latency
        model with the link's jitter applied per transfer.

        ``config`` is the only way to shape a session (see
        :class:`SessionConfig`).  There is a single serving code path: frames are pushed through the
        stem/branch engines ``config.batch_size`` at a time, the entropy
        gate is vectorized, and each chunk's misses travel to the edge
        in a single :class:`BatchInferenceRequest` frame —
        ``batch_size=1`` is simply the degenerate per-sample case.
        Predictions, exit decisions, and entropies are bit-identical
        across batch sizes; per-sample costs are always priced
        individually by the latency model, so
        :class:`RecognitionOutcome`/:class:`SampleCost` semantics do not
        depend on chunking.

        ``recorder`` (a :class:`~repro.observability.Tracer`) turns on
        request tracing for this session only; the deployment-level
        recorder is the default.  Tracing never changes predictions,
        entropies, or exit decisions — only records them.
        """
        if config is None:
            config = SessionConfig()
        ctx = self._session_context(config, recorder=recorder)
        outcomes: list[RecognitionOutcome] = []
        costs: list[SampleCost] = []
        sim_clock = 0.0

        for start in range(0, len(images), config.batch_size):
            pending = self._begin_chunk(images, start, ctx)
            request = pending.request
            if request is not None:
                reply = self._exchange(
                    ctx,
                    pending,
                    "direct",
                    # Resolved per attempt: tests swap the server's handler.
                    send=lambda frame, wasted_ms: self._edge_server.handle(frame),
                    accept=lambda reply: (
                        reply if self._reply_valid(reply, request) else None
                    ),
                )
                self._apply_reply(pending, reply)
            sim_clock += self._finish_chunk(
                pending, ctx, outcomes, costs, sim_now=sim_clock
            )

        result = SessionResult(
            outcomes=outcomes,
            trace=SessionTrace(
                approach="lcrs", network=self.system.model.base_name, samples=costs
            ),
        )
        if ctx.recorder.enabled:
            result.telemetry = ctx.recorder.summary()
        return result

    @property
    def bundle_bytes(self) -> int:
        """Bytes the browser downloads (the Figure 7 LCRS bar)."""
        return self.browser.loaded_bytes
