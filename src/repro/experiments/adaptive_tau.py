"""Open- vs closed-loop τ under overload: the adaptive-accuracy curve.

The static deployment picks one τ offline and keeps it while the edge
melts; PR 9's monitor can *see* the melt (burn-rate alerts) but nothing
*acts* on it.  This module drives the
:class:`~repro.runtime.tau_control.TauController` relief valve through a
deterministic overload→drain drill and publishes the trade-off the
controller buys: latency (p99 queue wait) and availability (shed
requests) against accuracy (more branch exits, possibly at a reduced
quality tier).

Two layers:

* :func:`run_tau_drill` — one load level, one fleet, controller on or
  off.  Every session replays the same entropy-pyramid stream (samples
  sorted easiest→hardest→easiest), so miss traffic ramps up to a peak
  and drains back down; with the controller off the peak overruns the
  shard's admission queue and requests are shed, with it on τ rises
  ahead of the cliff and holds (drain lowers it again only on measured
  low waits from live traffic).  The result carries the full
  per-round τ/tier trajectory and per-session predictions — the golden
  determinism fixture replays exactly this.
* :func:`run_adaptive_tau` — the arrival-rate sweep (session counts),
  open vs closed loop at each level, summarized into the
  ``BENCH_adaptive.json`` headline: at the heaviest level the static
  fleet sheds, the controlled fleet does not, and the accuracy cost of
  the extra local exits is bounded.

:func:`adaptive_tau_study` is the offline single-link study the
ablation benchmark (``benchmarks/test_ablation_adaptive_tau.py``)
reports: the same :class:`~repro.runtime.tau_control.TauController`
state machine, fed per-sample latency instead of queue wait, so the
ablation and the fleet experiment exercise one τ controller.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ..runtime.concurrency import ServiceTimeModel
from ..runtime.fleet import FleetConfig, FleetRouter
from ..runtime.network import four_g
from ..runtime.scheduler import SchedulerConfig, run_concurrent_sessions
from ..runtime.session import LCRSDeployment, SERVED_BY_FALLBACK, SessionConfig
from ..runtime.tau_control import TauControlConfig, TauController

#: Per-sample latencies in the study's running latency reading.
LATENCY_WINDOW = 20


def congested_edge_model(
    base_ms: float = 2.0, per_sample_ms: float = 1.5
) -> ServiceTimeModel:
    """A deliberately slow trunk for the overload drill.

    The analytic LeNet trunk serves a frame in microseconds — no
    realistic session count queues against it.  The drill instead
    models a busy edge (think a heavier backbone, or the tail of a
    shared GPU) where per-round miss traffic is comparable to the
    worker's service rate, so queue waits ramp *before* admission
    control starts shedding and the controller has a leading signal.
    """
    return ServiceTimeModel(base_ms=base_ms, per_sample_ms=per_sample_ms)


# ----------------------------------------------------------------------
# The offline τ study (shared with the ablation benchmark)
# ----------------------------------------------------------------------
def adaptive_tau_study(
    seed: int = 2,
    n: int = 600,
    fixed_tau: float = 0.30,
    hit_ms: float = 5.0,
    healthy_miss_ms: float = 90.0,
    healthy_sigma_ms: float = 10.0,
    congested_miss_ms: float = 700.0,
    congested_sigma_ms: float = 60.0,
    target_latency_ms: float = 80.0,
    tau_max: float = 0.95,
) -> dict[str, float]:
    """Fixed vs controlled τ over a degrading single link.

    A three-phase link trace (healthy → congested → recovered) is served
    sample by sample; the fixed policy keeps τ at ``fixed_tau``
    throughout, the controlled one gates each sample with a
    :class:`TauController`'s τ and then steps it with the mean of the
    last :data:`LATENCY_WINDOW` per-sample latencies — over
    ``target_latency_ms`` raises τ, under half of it drains τ back
    toward ``fixed_tau``.  Returns the comparison row the ablation
    benchmark renders and asserts on.
    """
    rng = np.random.default_rng(seed)
    entropies = rng.uniform(0, 1, n)
    miss_ms = np.concatenate(
        [
            rng.normal(healthy_miss_ms, healthy_sigma_ms, n // 3),
            rng.normal(congested_miss_ms, congested_sigma_ms, n // 3),
            rng.normal(healthy_miss_ms, healthy_sigma_ms, n - 2 * (n // 3)),
        ]
    ).clip(min=10)

    fixed_exits = entropies < fixed_tau
    fixed_latency = np.where(fixed_exits, hit_ms, hit_ms + miss_ms)

    controller = TauController(
        TauControlConfig(
            tau_min=0.0,
            tau_max=tau_max,
            tau_initial=fixed_tau,
            target_wait_ms=target_latency_ms,
            low_wait_ms=target_latency_ms / 2,
        )
    )
    adaptive_exits = np.empty(n, dtype=bool)
    adaptive_latency = np.empty(n)
    for i in range(n):
        adaptive_exits[i] = entropies[i] < controller.threshold(0)
        adaptive_latency[i] = hit_ms if adaptive_exits[i] else hit_ms + miss_ms[i]
        window = adaptive_latency[max(0, i + 1 - LATENCY_WINDOW) : i + 1]
        controller.step(0, float(window.mean()))
    return {
        "fixed_mean": float(fixed_latency.mean()),
        "adaptive_mean": float(adaptive_latency.mean()),
        "fixed_exit": float(fixed_exits.mean()),
        "adaptive_exit": float(adaptive_exits.mean()),
        "congested_fixed": float(fixed_latency[n // 3 : 2 * n // 3].mean()),
        "congested_adaptive": float(adaptive_latency[n // 3 : 2 * n // 3].mean()),
        "recovered_tau": controller.threshold(0),
    }


# ----------------------------------------------------------------------
# The fleet drill
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class OverloadStream:
    """A deterministic overload→drain image stream plus its static τ.

    ``static_tau`` sits in the entropy gap between the easy and hard
    pools, so at the static gate every easy sample exits in the browser
    and every hard sample misses to the edge; ``miss_plan[r]`` is the
    number of hard samples in round ``r``'s chunk — the per-session miss
    volume the stream was built to produce at that τ.
    """

    images: np.ndarray
    labels: Optional[np.ndarray]
    static_tau: float
    batch_size: int
    miss_plan: tuple[int, ...]


def build_overload_stream(
    system,
    images: np.ndarray,
    labels=None,
    *,
    batch_size: int = 4,
    rounds: int = 12,
    num_bases: int = 1,
) -> OverloadStream:
    """Assemble the entropy-pyramid drill stream from a sample pool.

    Branch entropies (through the same serialized engines the drill's
    deployments run — ``num_bases`` must match) sort the pool; the
    easiest samples form the *easy* pool and the hardest the *hard*
    pool, and round ``r``'s chunk mixes them with a triangle-shaped
    hard fraction — 0 at the edges of the run, 1 at the middle.  At the
    returned ``static_tau`` (the midpoint of the entropy gap between
    the pools) per-round miss traffic therefore ramps smoothly up to
    ``batch_size`` misses per session at the peak and drains back,
    which is exactly the leading-signal shape the closed loop needs and
    the cliff the open loop sheds on.
    """
    from ..runtime.session import build_lcrs_assets, BrowserClient

    images = np.asarray(images, dtype=np.float32)
    if rounds < 3:
        raise ValueError("rounds must be at least 3 (ramp, peak, drain)")
    needed = batch_size * rounds
    if needed > len(images):
        raise ValueError(
            f"need at least {needed} samples for {rounds} rounds of "
            f"{batch_size}, got {len(images)}"
        )
    assets = build_lcrs_assets(system.model, num_bases=num_bases)
    browser = BrowserClient(
        assets.stem_payload, assets.branch_payload, system.threshold
    )
    _, _, entropies, _ = browser.process_batch(images)
    order = np.argsort(entropies, kind="stable")

    # Triangle miss plan: 0 at both ends, batch_size at the peak.
    span = (rounds - 1) / 2.0
    plan = tuple(
        int(round(batch_size * (1.0 - abs(r - span) / span))) for r in range(rounds)
    )
    hard_needed = sum(plan)
    easy_needed = needed - hard_needed
    easy_pool = list(order[:easy_needed])
    hard_pool = list(order[len(order) - hard_needed :])
    gap_lo = float(entropies[easy_pool[-1]]) if easy_pool else 0.0
    gap_hi = float(entropies[hard_pool[0]])
    static_tau = (gap_lo + gap_hi) / 2.0

    chunks: list[int] = []
    e = h = 0
    for n_hard in plan:
        chunks.extend(easy_pool[e : e + batch_size - n_hard])
        e += batch_size - n_hard
        chunks.extend(hard_pool[h : h + n_hard])
        h += n_hard
    idx = np.array(chunks, dtype=int)
    return OverloadStream(
        images=images[idx],
        labels=None if labels is None else np.asarray(labels)[idx],
        static_tau=static_tau,
        batch_size=batch_size,
        miss_plan=plan,
    )


@dataclass
class TauDrillResult:
    """One load level's outcome, controller on or off.

    ``tau_trajectory`` / ``tier_trajectory`` have one row per fleet
    round: the controller's per-active-shard τ (and branch quality
    tier) *after* that round's control update — with the controller off
    the static τ is replayed so on/off trajectories align row-for-row.
    ``predictions`` carries each session's served class ids for
    bit-identity comparisons and golden digests.
    """

    controller: bool
    sessions: int
    samples: int
    static_tau: float
    shed_samples: int
    shed_rate: float
    exit_rate: float
    fallback_rate: float
    accuracy: Optional[float]
    mean_latency_ms: float
    p99_queue_wait_ms: float
    rounds: int
    tau_trajectory: list[list[float]]
    tier_trajectory: list[list[int]]
    adjustments: list[dict]
    predictions: list[list[int]]
    served_by: dict[str, int]
    health: dict = field(default_factory=dict)

    def as_dict(self) -> dict[str, object]:
        return {
            "controller": self.controller,
            "sessions": self.sessions,
            "samples": self.samples,
            "static_tau": self.static_tau,
            "shed_samples": self.shed_samples,
            "shed_rate": self.shed_rate,
            "exit_rate": self.exit_rate,
            "fallback_rate": self.fallback_rate,
            "accuracy": self.accuracy,
            "mean_latency_ms": self.mean_latency_ms,
            "p99_queue_wait_ms": self.p99_queue_wait_ms,
            "rounds": self.rounds,
            "tau_trajectory": [list(r) for r in self.tau_trajectory],
            "tier_trajectory": [list(r) for r in self.tier_trajectory],
            "adjustments": [dict(a) for a in self.adjustments],
            "served_by": dict(self.served_by),
        }


def default_drill_control(static_tau: float) -> TauControlConfig:
    """The drill's controller policy, anchored at the static τ.

    Asymmetric on purpose: escalation is single-round and coarse
    (``step_up``) because the drill's ramp gives only a few rounds of
    warning before the static configuration would overrun the admission
    queue, while drain is fine-grained (``step_down``) behind a
    cooldown — a τ that relieved the queue must creep back down, not
    snap back and re-expose the misses it just shed upstream of.
    """
    return TauControlConfig(
        tau_min=static_tau,
        tau_max=0.95,
        tau_initial=static_tau,
        step_up=0.25,
        step_down=0.05,
        target_wait_ms=2.0,
        low_wait_ms=0.5,
        hold_rounds=1,
        cooldown_rounds=1,
        window_ms=40.0,
    )


def run_tau_drill(
    system,
    stream: OverloadStream,
    *,
    controller: bool,
    sessions: int = 8,
    num_bases: int = 1,
    num_shards: int = 1,
    queue_capacity: int = 24,
    num_workers: int = 1,
    service_model: Optional[ServiceTimeModel] = None,
    control: Optional[TauControlConfig] = None,
    seed: int = 0,
) -> TauDrillResult:
    """Replay the overload→drain drill at one load level.

    Every session replays the same :class:`OverloadStream`, so all
    sessions ramp their miss traffic together and the shard's admission
    queue (``queue_capacity`` samples) is the bottleneck under test:
    per-round miss volume is ``sessions × miss_plan[r]`` at the static
    τ, and the drill is overloaded when the peak exceeds the queue.
    With ``controller=False`` the fleet is a plain static-τ fleet — no
    controller is constructed and serving is bit-identical to
    pre-controller code.  With ``controller=True`` the fleet runs
    :func:`default_drill_control` (or ``control``) anchored at the
    stream's static τ and, when ``num_bases`` > 1, may also step the
    branch quality tier.
    """
    images = np.asarray(stream.images, dtype=np.float32)
    labels = stream.labels
    static_tau = stream.static_tau
    batch_size = stream.batch_size
    fleet = FleetRouter.for_system(
        system,
        config=FleetConfig(
            num_shards=num_shards,
            placement="least-loaded",
            scheduler=SchedulerConfig(
                window_ms=0.0,
                num_workers=num_workers,
                queue_capacity=queue_capacity,
                # Any single chunk always fits its tenant share; sheds
                # happen only when a round's *total* miss traffic
                # overruns the shard queue — the congestion cliff the
                # controller is supposed to stay ahead of.
                max_per_tenant=batch_size,
            ),
            failure_threshold=10_000,
            seed=seed,
        ),
        service_model=(
            service_model if service_model is not None else congested_edge_model()
        ),
    )
    cfg = control if control is not None else default_drill_control(static_tau)
    if controller:
        fleet.enable_tau_control(cfg, max_quality_tier=num_bases)

    tau_trajectory: list[list[float]] = []
    tier_trajectory: list[list[int]] = []

    def record_round(router: FleetRouter, _round: int) -> None:
        ctrl = router.tau_controller
        active = router.active_shard_ids
        if ctrl is None:
            tau_trajectory.append([static_tau for _ in active])
            tier_trajectory.append([num_bases for _ in active])
        else:
            tau_trajectory.append([ctrl.threshold(sid) for sid in active])
            tier_trajectory.append([ctrl.quality_tier(sid) for sid in active])

    fleet.after_flush_hooks.append(record_round)
    deployments = [
        LCRSDeployment(system, four_g(seed=seed * 100 + i), num_bases=num_bases)
        for i in range(sessions)
    ]
    results = run_concurrent_sessions(
        deployments,
        [images] * sessions,
        fleet,
        config=SessionConfig(batch_size=batch_size, threshold=static_tau),
    )

    health = fleet.health().as_dict()
    shed = sum(int(s.get("shed_samples", 0)) for s in health["shards"])
    admitted = sum(int(s.get("samples_served", 0)) for s in health["shards"])
    total = sessions * len(images)
    served_by: dict[str, int] = {}
    predictions: list[list[int]] = []
    correct = 0
    for r in results:
        predictions.append([int(o.prediction) for o in r.outcomes])
        for o in r.outcomes:
            served_by[o.served_by] = served_by.get(o.served_by, 0) + 1
        if labels is not None:
            correct += int((r.predictions == np.asarray(labels)).sum())
    ctrl = fleet.tau_controller
    return TauDrillResult(
        controller=controller,
        sessions=sessions,
        samples=total,
        static_tau=static_tau,
        shed_samples=shed,
        # Fraction of edge admission attempts refused (retries count as
        # fresh attempts, so this is the 503 rate a client population
        # actually experiences — not a fraction of the sample stream).
        shed_rate=shed / (shed + admitted) if (shed + admitted) else 0.0,
        exit_rate=float(np.mean([r.exit_rate for r in results])),
        fallback_rate=float(
            sum(
                n for who, n in served_by.items() if who == SERVED_BY_FALLBACK
            )
            / total
        )
        if total
        else 0.0,
        accuracy=(correct / total) if labels is not None and total else None,
        mean_latency_ms=float(np.mean([r.mean_latency_ms for r in results])),
        p99_queue_wait_ms=float(
            max(float(s.get("p99_queue_wait_ms", 0.0)) for s in health["shards"])
        ),
        rounds=int(health["rounds"]),
        tau_trajectory=tau_trajectory,
        tier_trajectory=tier_trajectory,
        adjustments=[dict(a) for a in ctrl.actions] if ctrl is not None else [],
        predictions=predictions,
        served_by=served_by,
        health=health,
    )


# ----------------------------------------------------------------------
# The arrival-rate sweep (the BENCH_adaptive.json curve)
# ----------------------------------------------------------------------
@dataclass
class AdaptiveTauResult:
    """Open- vs closed-loop sweep over arrival rates (session counts).

    ``points`` holds one :class:`TauDrillResult` per (level, mode);
    ``headline`` compares the heaviest level: the static fleet's shed
    rate, the controlled fleet's (the acceptance bar is zero), both
    p99 queue waits, and the accuracy the controller spent buying the
    difference.
    """

    network: str
    session_levels: tuple[int, ...]
    samples_per_session: int
    static_tau: float
    num_bases: int
    points: list[TauDrillResult] = field(default_factory=list)

    def point(self, sessions: int, controller: bool) -> TauDrillResult:
        for p in self.points:
            if p.sessions == sessions and p.controller == controller:
                return p
        raise KeyError(f"no point for sessions={sessions}, controller={controller}")

    @property
    def headline(self) -> dict[str, float]:
        peak = max(self.session_levels)
        static = self.point(peak, False)
        closed = self.point(peak, True)
        out = {
            "peak_sessions": float(peak),
            "static_shed_rate": static.shed_rate,
            "closed_shed_rate": closed.shed_rate,
            "static_p99_wait_ms": static.p99_queue_wait_ms,
            "closed_p99_wait_ms": closed.p99_queue_wait_ms,
            "static_exit_rate": static.exit_rate,
            "closed_exit_rate": closed.exit_rate,
            "tau_adjustments": float(len(closed.adjustments)),
        }
        if static.accuracy is not None and closed.accuracy is not None:
            out["static_accuracy"] = static.accuracy
            out["closed_accuracy"] = closed.accuracy
            out["accuracy_drop"] = static.accuracy - closed.accuracy
        return out

    def as_dict(self) -> dict[str, object]:
        return {
            "network": self.network,
            "session_levels": list(self.session_levels),
            "samples_per_session": self.samples_per_session,
            "static_tau": self.static_tau,
            "num_bases": self.num_bases,
            "points": [p.as_dict() for p in self.points],
            "headline": self.headline,
        }


def run_adaptive_tau(
    system,
    images: np.ndarray,
    labels=None,
    session_levels: Sequence[int] = (2, 4, 8),
    rounds: int = 12,
    batch_size: int = 4,
    num_bases: int = 1,
    queue_capacity: int = 24,
    num_workers: int = 1,
    service_model: Optional[ServiceTimeModel] = None,
    control: Optional[TauControlConfig] = None,
    seed: int = 0,
) -> AdaptiveTauResult:
    """Sweep arrival rates open- and closed-loop; publish the curve.

    One :func:`build_overload_stream` is cut from ``images`` and every
    level drives ``sessions`` concurrent replicas of it at the stream's
    static τ, once with the fleet controller off and once on.  The
    open-loop fleet's miss peak scales with the session count until it
    overruns the admission queue and sheds; the closed loop trades exit
    rate (and, with ``num_bases`` > 1, branch quality) to stay under
    it.
    """
    stream = build_overload_stream(
        system, images, labels, batch_size=batch_size, rounds=rounds,
        num_bases=num_bases,
    )
    result = AdaptiveTauResult(
        network=system.model.base_name,
        session_levels=tuple(int(n) for n in session_levels),
        samples_per_session=len(stream.images),
        static_tau=stream.static_tau,
        num_bases=num_bases,
    )
    for level in result.session_levels:
        for use_controller in (False, True):
            result.points.append(
                run_tau_drill(
                    system,
                    stream,
                    controller=use_controller,
                    sessions=level,
                    num_bases=num_bases,
                    queue_capacity=queue_capacity,
                    num_workers=num_workers,
                    service_model=service_model,
                    control=control,
                    seed=seed,
                )
            )
    return result
