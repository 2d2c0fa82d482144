"""Tests for the multi-edge fleet: routing, autoscaling, failure domains.

The unit tier drives :class:`FleetRouter` over stub-trunk shards with
hand-built protocol frames, so placement determinism, the global ticket
namespace, drain-before-remove, and the failure detector are checked
exactly on the simulated clock.  The integration tier runs real
``LCRSDeployment`` sessions through ``run_concurrent_sessions`` against
a fleet with a mid-run shard partition, plus the
:mod:`repro.experiments.fleet` harnesses end to end.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.observability.metrics import labeled
from repro.runtime import (
    Autoscaler,
    AutoscalerConfig,
    EdgeScheduler,
    FleetConfig,
    FleetRouter,
    LCRSDeployment,
    SchedulerConfig,
    ServiceTimeModel,
    SessionConfig,
    four_g,
    run_concurrent_sessions,
)
from repro.runtime.fleet import (
    SHARD_ACTIVE,
    SHARD_DOWN,
    SHARD_DRAINING,
    SHARD_RETIRED,
)
from repro.runtime.protocol import (
    BatchInferenceRequest,
    BatchInferenceResponse,
    ErrorResponse,
    ModelRequest,
    SchedulerAck,
    decode_frame,
    encode_frame,
)

pytestmark = pytest.mark.fleet

NUM_CLASSES = 7

#: Affine clock: batch_ms(n) = 1 + 0.5 n.
MODEL = ServiceTimeModel(base_ms=1.0, per_sample_ms=0.5)


class StubTrunk:
    """Endpoint whose answer is computable from the features: each
    sample's class is encoded in its first element (see ``make_frame``)."""

    def __init__(self):
        self.calls = 0
        self.samples = 0

    def infer(self, features):
        flat = features.reshape(len(features), -1)
        self.calls += 1
        self.samples += len(flat)
        logits = np.zeros((len(flat), NUM_CLASSES), dtype=np.float32)
        idx = np.rint(flat[:, 0] * 100).astype(np.int64) % NUM_CLASSES
        logits[np.arange(len(flat)), idx] = 5.0
        return logits


def make_fleet(config=None, **config_kwargs):
    if config is None:
        config = FleetConfig(**config_kwargs)

    def factory(shard_id, registry):
        return EdgeScheduler(
            StubTrunk(), MODEL, config.scheduler, shard=shard_id, registry=registry
        )

    return FleetRouter(factory, config=config)


def make_frame(session_id, seqs, classes=None):
    """An encoded miss-path frame whose expected class ids are known."""
    if classes is None:
        classes = [s % NUM_CLASSES for s in seqs]
    features = np.zeros((len(seqs), 2, 2), dtype=np.float32)
    features[:, 0, 0] = [c * 0.01 for c in classes]
    return encode_frame(
        BatchInferenceRequest.from_features(session_id, list(seqs), "fp32", features)
    )


def submit(target, frame, arrival_ms=0.0):
    return decode_frame(target.submit(frame, arrival_ms))


class TestFleetConfig:
    def test_defaults(self):
        cfg = FleetConfig()
        assert cfg.num_shards == 2
        assert cfg.placement == "hash"
        assert cfg.autoscaler is None
        assert isinstance(cfg.scheduler, SchedulerConfig)

    def test_frozen(self):
        cfg = FleetConfig()
        with pytest.raises(AttributeError):
            cfg.num_shards = 4

    def test_hashable_operating_point(self):
        assert FleetConfig(num_shards=3) == FleetConfig(num_shards=3)
        assert hash(FleetConfig(seed=1)) != hash(FleetConfig(seed=2)) or True

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_shards": 0},
            {"placement": "round-robin"},
            {"failure_threshold": 0},
            {"virtual_nodes": 0},
            {"num_shards": 9, "autoscaler": AutoscalerConfig(max_shards=8)},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises((ValueError, TypeError)):
            FleetConfig(**kwargs)

    def test_scheduler_must_be_config(self):
        with pytest.raises(TypeError):
            FleetConfig(scheduler={"window_ms": 0.0})

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"min_shards": 0},
            {"max_shards": 1, "min_shards": 2},
            {"scale_up_depth": 0.0},
            {"scale_up_depth": 4.0, "scale_down_depth": 8.0},
            {"min_busy_fraction": 1.5},
            {"hold_rounds": 0},
            {"cooldown_rounds": -1},
            {"scale_up_burn": 0.0},
            {"scale_down_burn": -0.1},
        ],
    )
    def test_autoscaler_validation(self, kwargs):
        with pytest.raises(ValueError):
            AutoscalerConfig(**kwargs)


class TestPlacement:
    def test_hash_placement_deterministic(self):
        cfg = FleetConfig(
            num_shards=4, placement="hash", scheduler=SchedulerConfig(window_ms=0.0)
        )
        a, b = make_fleet(cfg), make_fleet(cfg)
        sessions = range(1, 40)
        assert [a.route(s).shard_id for s in sessions] == [
            b.route(s).shard_id for s in sessions
        ]

    def test_hash_placement_sticky(self):
        fleet = make_fleet(num_shards=4)
        first = fleet.route(17).shard_id
        for _ in range(5):
            assert fleet.route(17).shard_id == first

    def test_hash_spreads_sessions(self):
        fleet = make_fleet(num_shards=4)
        hit = {fleet.route(s).shard_id for s in range(1, 64)}
        assert hit == {0, 1, 2, 3}

    def test_seed_changes_hash_layout(self):
        base = FleetConfig(num_shards=4, seed=0)
        other = FleetConfig(num_shards=4, seed=99)
        a, b = make_fleet(base), make_fleet(other)
        sessions = range(1, 64)
        assert [a.route(s).shard_id for s in sessions] != [
            b.route(s).shard_id for s in sessions
        ]

    def test_least_loaded_spreads_evenly(self):
        fleet = make_fleet(num_shards=4, placement="least-loaded")
        for s in range(1, 9):
            fleet.register(s)
        per_shard = [len(fleet.shard(sid).sessions) for sid in fleet.shard_ids]
        assert per_shard == [2, 2, 2, 2]

    def test_placement_snapshot(self):
        fleet = make_fleet(num_shards=2, placement="least-loaded")
        fleet.register(1)
        fleet.register(2)
        snap = fleet.placement_snapshot()
        assert set(snap) == {1, 2}
        assert set(snap.values()) == {0, 1}


class TestSingleShardIdentity:
    """A 1-shard fleet must be a bit-transparent wrapper."""

    def test_bit_identical_to_bare_scheduler(self):
        sched_cfg = SchedulerConfig(window_ms=0.0, num_workers=2)
        bare = EdgeScheduler(StubTrunk(), MODEL, sched_cfg)
        fleet = make_fleet(num_shards=1, scheduler=sched_cfg)
        frames = [make_frame(s, [0, 1, 2]) for s in (1, 2, 3)]

        bare_acks = [bare.submit(f, 0.0) for f in frames]
        fleet_acks = [fleet.submit(f, 0.0) for f in frames]
        assert bare_acks == fleet_acks

        bare_served = bare.flush()
        fleet_served = fleet.flush()
        assert bare_served == fleet_served

        for raw in bare_acks:
            t = decode_frame(raw).ticket
            assert bare.collect(t) == fleet.collect(t)
        assert bare.clock_ms == fleet.clock_ms


class TestTicketNamespace:
    def test_tickets_globally_unique_across_shards(self):
        fleet = make_fleet(
            num_shards=3,
            placement="least-loaded",
            scheduler=SchedulerConfig(window_ms=0.0),
        )
        acks = [submit(fleet, make_frame(s, [0, 1])) for s in range(1, 7)]
        tickets = [a.ticket for a in acks]
        assert len(set(tickets)) == len(tickets)
        served = fleet.flush()
        assert sorted(served) == sorted(tickets)
        for ack in acks:
            raw, _wait = fleet.collect(ack.ticket)
            reply = decode_frame(raw)
            assert isinstance(reply, BatchInferenceResponse)
            assert reply.session_id == ack.session_id

    def test_resubmission_reuses_global_ticket(self):
        fleet = make_fleet(num_shards=2, scheduler=SchedulerConfig(window_ms=0.0))
        frame = make_frame(1, [0, 1, 2])
        first = submit(fleet, frame)
        again = submit(fleet, frame)
        assert isinstance(first, SchedulerAck)
        assert again.ticket == first.ticket

    def test_unknown_ticket_raises(self):
        fleet = make_fleet(num_shards=2)
        with pytest.raises(KeyError):
            fleet.collect(999)


class TestRouterAdmission:
    """The router reads only the request header, and answers 400/405
    itself before it places any session."""

    def test_corrupt_frame_is_400_and_places_nothing(self):
        fleet = make_fleet(num_shards=2)
        frame = bytearray(make_frame(1, [0]))
        frame[0] ^= 0xFF  # magic
        reply = submit(fleet, bytes(frame))
        assert isinstance(reply, ErrorResponse) and reply.code == 400
        assert "magic" in reply.message
        assert fleet.placement_snapshot() == {}

    def test_malformed_request_header_is_400_and_places_nothing(self):
        fleet = make_fleet(num_shards=2)
        good = make_frame(1, [0])
        # Same length, so the frame checks pass and the header's fail.
        bad = good.replace(b'"session_id": 1', b'"session_id": x')
        assert len(bad) == len(good) and bad != good
        reply = submit(fleet, bad)
        assert isinstance(reply, ErrorResponse) and reply.code == 400
        assert "bad batch request header" in reply.message
        assert fleet.placement_snapshot() == {}

    def test_non_batch_message_is_405(self):
        fleet = make_fleet(num_shards=2)
        reply = submit(fleet, encode_frame(ModelRequest("lenet")))
        assert isinstance(reply, ErrorResponse) and reply.code == 405
        assert "ModelRequest" in reply.message
        assert fleet.placement_snapshot() == {}

    def test_routes_on_the_header_session_id(self):
        fleet = make_fleet(num_shards=2, placement="least-loaded")
        ack = submit(fleet, make_frame(5, [0, 1]))
        assert isinstance(ack, SchedulerAck) and ack.session_id == 5
        assert set(fleet.placement_snapshot()) == {5}


class TestFailureDomains:
    def test_partition_marks_shard_down_and_reroutes(self):
        fleet = make_fleet(
            num_shards=2,
            placement="least-loaded",
            scheduler=SchedulerConfig(window_ms=0.0),
            failure_threshold=2,
        )
        fleet.register(1)
        victim = fleet.route(1).shard_id
        fleet.partition_shard(victim)

        errors = [submit(fleet, make_frame(1, [0, 1])) for _ in range(2)]
        assert all(isinstance(e, ErrorResponse) and e.code == 503 for e in errors)
        assert fleet.shard(victim).state == SHARD_DOWN

        # The third submit lands on the survivor.
        ack = submit(fleet, make_frame(1, [0, 1]))
        assert isinstance(ack, SchedulerAck)
        assert fleet.route(1).shard_id != victim
        events = [e["event"] for e in fleet.events]
        assert "shard-partitioned" in events
        assert "shard-down" in events

    def test_stranded_tickets_answer_structured_503(self):
        fleet = make_fleet(
            num_shards=2,
            placement="least-loaded",
            scheduler=SchedulerConfig(window_ms=0.0),
            failure_threshold=1,
        )
        fleet.register(1)
        victim = fleet.route(1).shard_id
        ack = submit(fleet, make_frame(1, [0, 1]))
        assert isinstance(ack, SchedulerAck)

        fleet.partition_shard(victim)
        submit(fleet, make_frame(1, [2, 3]))  # trips the detector
        assert fleet.shard(victim).state == SHARD_DOWN

        raw, wait_ms = fleet.collect(ack.ticket)
        reply = decode_frame(raw)
        assert isinstance(reply, ErrorResponse)
        assert reply.code == 503
        assert wait_ms == 0.0
        assert fleet.describe()["tickets_lost"] == 1

    def test_heal_returns_shard_to_service(self):
        fleet = make_fleet(
            num_shards=2, scheduler=SchedulerConfig(window_ms=0.0), failure_threshold=1
        )
        fleet.register(1)
        victim = fleet.route(1).shard_id
        fleet.partition_shard(victim)
        submit(fleet, make_frame(1, [0]))
        assert fleet.shard(victim).state == SHARD_DOWN

        fleet.heal_shard(victim)
        assert fleet.shard(victim).state == SHARD_ACTIVE
        assert victim in fleet.active_shard_ids

    def test_success_resets_failure_streak(self):
        fleet = make_fleet(
            num_shards=1, scheduler=SchedulerConfig(window_ms=0.0), failure_threshold=3
        )
        fleet.register(1)
        shard = fleet.route(1)
        shard.consecutive_failures = 2
        ack = submit(fleet, make_frame(1, [0]))
        assert isinstance(ack, SchedulerAck)
        assert shard.consecutive_failures == 0


class TestAutoscalerUnit:
    CFG = AutoscalerConfig(
        min_shards=1,
        max_shards=4,
        scale_up_depth=10.0,
        scale_down_depth=2.0,
        hold_rounds=2,
        cooldown_rounds=2,
    )

    def test_requires_hold_rounds_of_pressure(self):
        scaler = Autoscaler(self.CFG)
        assert scaler.step(20.0, 1.0, 1) is None
        assert scaler.step(20.0, 1.0, 1) == "scale-up"

    def test_dead_band_breaks_streak(self):
        scaler = Autoscaler(self.CFG)
        assert scaler.step(20.0, 1.0, 1) is None
        assert scaler.step(5.0, 0.5, 1) is None  # between the thresholds
        assert scaler.step(20.0, 1.0, 1) is None  # streak restarted
        assert scaler.step(20.0, 1.0, 1) == "scale-up"

    def test_cooldown_suppresses_actions(self):
        scaler = Autoscaler(self.CFG)
        scaler.step(20.0, 1.0, 1)
        assert scaler.step(20.0, 1.0, 1) == "scale-up"
        # Two cooldown rounds of sustained pressure do nothing...
        assert scaler.step(20.0, 1.0, 2) is None
        assert scaler.step(20.0, 1.0, 2) is None
        # ...then the streak (which kept accumulating) may fire again.
        assert scaler.step(20.0, 1.0, 2) == "scale-up"

    def test_oscillating_load_never_flaps(self):
        """Alternating over/under pressure must produce zero actions."""
        scaler = Autoscaler(self.CFG)
        actions = [
            scaler.step(20.0 if i % 2 == 0 else 0.0, 1.0 if i % 2 == 0 else 0.0, 2)
            for i in range(20)
        ]
        assert actions == [None] * 20

    def test_respects_min_and_max_shards(self):
        scaler = Autoscaler(self.CFG)
        for _ in range(10):
            assert scaler.step(0.0, 0.0, 1) is None  # already at min
        scaler = Autoscaler(self.CFG)
        for _ in range(10):
            assert scaler.step(99.0, 1.0, 4) is None  # already at max

    def test_busy_fraction_gates_scale_up(self):
        cfg = AutoscalerConfig(
            max_shards=4,
            scale_up_depth=10.0,
            scale_down_depth=2.0,
            min_busy_fraction=0.9,
            hold_rounds=1,
            cooldown_rounds=0,
        )
        scaler = Autoscaler(cfg)
        # Deep queue but idle workers: a burst artifact, not sustained load.
        assert scaler.step(50.0, 0.1, 1) is None
        assert scaler.step(50.0, 1.0, 1) == "scale-up"


class TestAutoscalerIntegration:
    def make_elastic_fleet(self):
        return make_fleet(
            num_shards=1,
            placement="least-loaded",
            scheduler=SchedulerConfig(window_ms=0.0, queue_capacity=4096),
            autoscaler=AutoscalerConfig(
                min_shards=1,
                max_shards=3,
                scale_up_depth=8.0,
                scale_down_depth=1.0,
                hold_rounds=2,
                cooldown_rounds=1,
            ),
        )

    def run_round(self, fleet, sessions, samples_per_frame):
        for s in sessions:
            ack = submit(
                fleet,
                make_frame(s, list(range(samples_per_frame))),
                arrival_ms=fleet.clock_ms,
            )
            assert isinstance(ack, SchedulerAck)
        fleet.flush()

    def test_scale_up_under_sustained_pressure_then_drain_when_idle(self):
        fleet = self.make_elastic_fleet()
        sessions = list(range(1, 5))
        for s in sessions:
            fleet.register(s)

        # Sustained pressure: 4 sessions x 8 samples per round >> up-depth.
        for _ in range(4):
            self.run_round(fleet, sessions, samples_per_frame=8)
        assert len(fleet.active_shard_ids) >= 2
        assert fleet.describe()["scale_ups"] >= 1

        # Idle rounds: depth signal decays to zero, fleet drains back.
        for _ in range(8):
            fleet.flush()
        assert len(fleet.active_shard_ids) == 1
        assert fleet.describe()["scale_downs"] >= 1
        states = {fleet.shard(sid).state for sid in fleet.shard_ids}
        assert SHARD_RETIRED in states

    def test_oscillating_load_does_not_flap(self):
        fleet = self.make_elastic_fleet()
        fleet.register(1)
        for i in range(12):
            if i % 2 == 0:
                self.run_round(fleet, [1], samples_per_frame=12)
            else:
                fleet.flush()
        snapshot = fleet.describe()
        assert snapshot["scale_ups"] == 0
        assert snapshot["scale_downs"] == 0
        assert len(fleet.active_shard_ids) == 1


class TestDrainBeforeRemove:
    def test_draining_shard_finishes_in_flight_work(self):
        fleet = make_fleet(
            num_shards=2,
            placement="least-loaded",
            scheduler=SchedulerConfig(window_ms=0.0),
        )
        fleet.register(1)
        victim = fleet.route(1).shard_id
        ack = submit(fleet, make_frame(1, [0, 1, 2]))
        assert isinstance(ack, SchedulerAck)

        fleet.drain_shard(victim)
        assert fleet.shard(victim).state == SHARD_DRAINING

        served = fleet.flush()
        assert ack.ticket in served
        raw, _wait = fleet.collect(ack.ticket)
        assert isinstance(decode_frame(raw), BatchInferenceResponse)

        # Emptied: the next flush retires it; the session re-places.
        fleet.flush()
        assert fleet.shard(victim).state == SHARD_RETIRED
        assert fleet.route(1).shard_id != victim

    def test_retired_shard_still_answers_collect(self):
        fleet = make_fleet(
            num_shards=2,
            placement="least-loaded",
            scheduler=SchedulerConfig(window_ms=0.0),
        )
        fleet.register(1)
        victim = fleet.route(1).shard_id
        ack = submit(fleet, make_frame(1, [0, 1]))
        fleet.drain_shard(victim)
        fleet.flush()  # serves the queued batch
        fleet.flush()  # retires the empty shard
        assert fleet.shard(victim).state == SHARD_RETIRED
        raw, _wait = fleet.collect(ack.ticket)
        assert isinstance(decode_frame(raw), BatchInferenceResponse)


class TestFleetMetrics:
    def test_shard_labeled_series_and_fleet_counters(self):
        fleet = make_fleet(
            num_shards=2,
            placement="least-loaded",
            scheduler=SchedulerConfig(window_ms=0.0),
        )
        for s in (1, 2):
            fleet.register(s)
            submit(fleet, make_frame(s, [0, 1]))
        fleet.flush()

        snapshot = fleet.registry.as_dict()
        counter_names = set(snapshot["counters"])
        assert labeled("sched.accepted_samples", shard=0) in counter_names
        assert labeled("sched.accepted_samples", shard=1) in counter_names
        # The unlabeled single-scheduler name must NOT appear in a fleet.
        assert "sched.accepted_samples" not in counter_names
        gauge_names = set(snapshot["gauges"])
        assert labeled("sched.queue_depth", shard=0) in gauge_names
        assert "fleet.active_shards" in gauge_names
        assert {"fleet.sessions_rerouted", "fleet.shard_failures"} <= counter_names

    def test_bare_scheduler_series_names_unchanged(self):
        """No shard → historical unlabeled names, bit-compatible."""
        scheduler = EdgeScheduler(StubTrunk(), MODEL, SchedulerConfig(window_ms=0.0))
        scheduler.submit(make_frame(1, [0, 1]), 0.0)
        scheduler.flush()
        names = set(scheduler.registry.as_dict()["counters"])
        assert "sched.accepted_samples" in names
        assert not any("{shard=" in n for n in names)

    def test_describe_is_json_ready(self):
        import json

        fleet = make_fleet(num_shards=2)
        fleet.register(1)
        submit(fleet, make_frame(1, [0]))
        fleet.flush()
        json.dumps(fleet.describe())  # must not raise


@pytest.mark.sched
class TestFleetSessionsIntegration:
    """Real deployments through ``run_concurrent_sessions`` on a fleet."""

    def test_partition_mid_run_loses_no_session(self, trained_system, tiny_mnist):
        from repro.experiments import run_fleet_partition

        _, test = tiny_mnist
        result = run_fleet_partition(
            trained_system,
            test.images[:16],
            sessions=4,
            num_shards=2,
            partition_round=2,
            session_config=SessionConfig(batch_size=4, threshold=0.01),
        )
        assert result.all_samples_served
        assert result.samples == 64
        assert sum(result.served_by.values()) == result.samples
        assert result.shard_failures >= 1
        events = [e["event"] for e in result.events]
        assert "shard-partitioned" in events
        assert "shard-down" in events

    def test_fleet_capacity_matches_mmc_and_scales(self, trained_system, tiny_mnist):
        from repro.experiments import run_capacity_sweep

        _, test = tiny_mnist
        result = run_capacity_sweep(
            trained_system,
            test.images,
            shards=(1, 2, 4),
            requests=16,
            batch_size=4,
        )
        for point in result.points:
            assert point.worst_shard_ratio == pytest.approx(1.0, rel=0.10)
            assert point.capacity_ratio == pytest.approx(1.0, rel=0.10)
            assert point.bit_identical is True
        assert result.point(shards=4).speedup >= 3.0

    def test_capacity_rejects_indivisible_requests(self, trained_system, tiny_mnist):
        from repro.experiments import run_capacity_sweep

        _, test = tiny_mnist
        with pytest.raises(ValueError, match="divide evenly"):
            run_capacity_sweep(trained_system, test.images, shards=(3,), requests=16)
        with pytest.raises(ValueError, match="divide evenly"):
            run_capacity_sweep(
                trained_system, test.images, shards=(2,), workers=(3,), requests=16
            )
        with pytest.raises(ValueError, match="positive"):
            run_capacity_sweep(trained_system, test.images, workers=(0,))

    def test_session_series_are_fleet_wide(self, trained_system, tiny_mnist):
        """The sessions' series carry no shard label in a fleet, so the
        unlabeled series the fleet SLOs watch count every sample."""
        _, test = tiny_mnist
        fleet = FleetRouter.for_system(trained_system, FleetConfig(num_shards=2))
        deployments = [
            LCRSDeployment(trained_system, four_g(seed=40 + i).deterministic())
            for i in range(4)
        ]
        results = run_concurrent_sessions(
            deployments,
            [test.images[:8]] * 4,
            fleet,
            config=SessionConfig(
                batch_size=2, threshold=0.0, fault_profile="partition"
            ),
        )
        outcomes = [o for r in results for o in r.outcomes]
        fallbacks = sum(o.served_by == "binary-fallback" for o in outcomes)
        assert fallbacks > 0
        counters = fleet.registry.as_dict()["counters"]
        assert counters["session.samples"] == len(outcomes) == 32
        assert counters["session.fallback_samples"] == fallbacks
        names = [metric.name for metric in fleet.registry]
        assert not any("bound method" in name for name in names)
        assert not any(name.startswith("session.") and "{" in name for name in names)


class TestCommittedCapacityRecords:
    """The committed ``make bench-par`` / ``make bench-fleet`` capacity
    points re-run exactly on the golden checkpoint: the simulated clock
    prices only the trunk's FLOPs and layer count, never its weights, so
    a stale record fails here instead of in the next benchmark change."""

    PINNED = (
        "makespan_ms",
        "throughput_rps",
        "speedup",
        "capacity_ratio",
        "worst_shard_ratio",
        "batches",
        "max_workers_busy",
    )

    @pytest.mark.parametrize(
        "record,section",
        [("BENCH_parallel.json", "worker_scaling"), ("BENCH_fleet.json", "capacity")],
    )
    def test_sweep_matches_committed_record(
        self, golden_system, tiny_mnist, record, section
    ):
        from repro.experiments import run_capacity_sweep

        root = Path(__file__).resolve().parent.parent
        committed = json.loads((root / record).read_text())["results"][section]
        points = committed["points"]
        result = run_capacity_sweep(
            golden_system,
            tiny_mnist[1].images,
            shards=sorted({p["shards"] for p in points}),
            workers=sorted({p["workers"] for p in points}),
            requests=committed["requests"],
            batch_size=committed["batch_size"],
        )
        assert [(p.shards, p.workers) for p in result.points] == [
            (p["shards"], p["workers"]) for p in points
        ]
        for point, pinned in zip(result.points, points):
            for name in self.PINNED:
                assert getattr(point, name) == pinned[name], (record, name)


class TestCapacityPlanning:
    def test_table_scales_linearly_in_shards(self):
        from repro.experiments import capacity_planning_table

        rows = capacity_planning_table(
            MODEL, shard_counts=(1, 2, 4), p99_targets_ms=(10.0,)
        )
        users = {r.shards: r.max_users for r in rows}
        assert users[2] == pytest.approx(2 * users[1], rel=0.01)
        assert users[4] == pytest.approx(4 * users[1], rel=0.01)
        for r in rows:
            assert r.p99_wait_ms <= r.p99_target_ms
            assert 0.0 <= r.utilization < 1.0

    def test_tighter_target_serves_fewer_users(self):
        from repro.experiments import capacity_planning_table

        rows = capacity_planning_table(
            MODEL, shard_counts=(1,), p99_targets_ms=(5.0, 50.0)
        )
        by_target = {r.p99_target_ms: r.max_users for r in rows}
        assert by_target[5.0] <= by_target[50.0]

    def test_render_capacity_table(self):
        from repro.experiments import capacity_planning_table, render_capacity_table

        rows = capacity_planning_table(MODEL, shard_counts=(1,), p99_targets_ms=(10.0,))
        text = render_capacity_table(rows)
        assert "shards" in text and "users" in text
        assert len(text.splitlines()) == 2


class TestSweepConfigs:
    """The frozen sweep configs validate and normalize their fields."""

    def test_concurrency_config_validation(self):
        from repro.experiments import ConcurrencySweepConfig

        with pytest.raises(ValueError):
            ConcurrencySweepConfig(users=())
        with pytest.raises(ValueError):
            ConcurrencySweepConfig(users=(0,))
        with pytest.raises(ValueError):
            ConcurrencySweepConfig(windows_ms=(-1.0,))
        with pytest.raises(TypeError):
            ConcurrencySweepConfig(session_config={"batch_size": 4})

    def test_configs_are_frozen_and_normalized(self):
        from repro.experiments import ConcurrencySweepConfig

        cfg = ConcurrencySweepConfig(users=[1, 2], windows_ms=[0.0])
        assert cfg.users == (1, 2)
        assert cfg.windows_ms == (0.0,)
        with pytest.raises(AttributeError):
            cfg.users = (4,)


class TestBurnRateAutoscaler:
    CFG = AutoscalerConfig(
        min_shards=1,
        max_shards=4,
        policy="burn-rate",
        scale_up_burn=2.0,
        scale_down_burn=0.5,
        hold_rounds=2,
        cooldown_rounds=1,
    )

    def test_config_validation(self):
        with pytest.raises(ValueError, match="policy"):
            AutoscalerConfig(policy="latency")
        with pytest.raises(ValueError):
            AutoscalerConfig(
                policy="burn-rate", scale_up_burn=1.0, scale_down_burn=2.0
            )
        with pytest.raises(ValueError):
            AutoscalerConfig(policy="burn-rate", scale_down_burn=-0.1)

    def test_scale_up_on_sustained_burn(self):
        scaler = Autoscaler(self.CFG)
        assert scaler.step(0.0, 0.0, 1, burn_rate=5.0) is None
        assert scaler.step(0.0, 0.0, 1, burn_rate=5.0) == "scale-up"

    def test_scale_down_when_budget_recovers(self):
        scaler = Autoscaler(self.CFG)
        assert scaler.step(0.0, 0.0, 2, burn_rate=0.1) is None
        assert scaler.step(0.0, 0.0, 2, burn_rate=0.1) == "scale-down"

    def test_dead_band_between_burn_thresholds(self):
        scaler = Autoscaler(self.CFG)
        scaler.step(0.0, 0.0, 1, burn_rate=5.0)
        # Burn hovers between down (0.5) and up (2.0): streak broken.
        assert scaler.step(0.0, 0.0, 1, burn_rate=1.0) is None
        assert scaler.step(0.0, 0.0, 1, burn_rate=5.0) is None
        assert scaler.step(0.0, 0.0, 1, burn_rate=5.0) == "scale-up"

    def test_oscillating_burn_never_flaps(self):
        scaler = Autoscaler(self.CFG)
        actions = [
            scaler.step(0.0, 0.0, 2, burn_rate=5.0 if i % 2 == 0 else 0.0)
            for i in range(20)
        ]
        assert actions == [None] * 20

    def test_missing_burn_signal_falls_back_to_depth(self):
        # No monitor attached: burn_rate is None, depth signal drives.
        cfg = AutoscalerConfig(
            max_shards=4,
            policy="burn-rate",
            scale_up_depth=10.0,
            hold_rounds=1,
            cooldown_rounds=0,
        )
        scaler = Autoscaler(cfg)
        assert scaler.step(50.0, 1.0, 1, burn_rate=None) == "scale-up"

    def test_depth_policy_ignores_burn_signal(self):
        cfg = AutoscalerConfig(
            max_shards=4, scale_up_depth=10.0, hold_rounds=1, cooldown_rounds=0
        )
        scaler = Autoscaler(cfg)
        # Huge burn but empty queues under the default depth policy.
        assert scaler.step(0.0, 0.0, 1, burn_rate=100.0) is None


class TestFleetHealthSnapshot:
    def test_health_shape_without_monitor(self):
        fleet = make_fleet(
            num_shards=2, scheduler=SchedulerConfig(window_ms=0.0)
        )
        fleet.register(1)
        submit(fleet, make_frame(1, [0, 1]))
        fleet.flush()
        health = fleet.health()
        assert health.rounds == 1
        assert health.active_shards == 2
        assert health.samples_served == 2
        assert health.alerts == [] and health.slo is None
        assert len(health.shards) == 2
        for shard in health.shards:
            assert {"shard", "state", "queue_depth", "busy_fraction",
                    "requests_ok", "requests_total"} <= set(shard)
            assert "slo" not in shard  # no monitor attached
        payload = health.as_dict()
        assert payload["shards"] == health.shards

    def test_health_with_monitor_includes_slo_panels(self):
        fleet = make_fleet(
            num_shards=2, scheduler=SchedulerConfig(window_ms=0.0)
        )
        fleet.enable_monitoring()
        fleet.register(1)
        submit(fleet, make_frame(1, [0, 1]))
        fleet.flush()
        health = fleet.health()
        assert health.slo is not None
        for shard in health.shards:
            assert isinstance(shard["slo"], list)

    def test_enable_monitoring_is_idempotent(self):
        fleet = make_fleet(num_shards=1, scheduler=SchedulerConfig(window_ms=0.0))
        monitor = fleet.enable_monitoring()
        assert fleet.enable_monitoring() is monitor
        assert fleet.monitor is monitor

    def test_requests_ok_total_track_outcomes(self):
        fleet = make_fleet(
            num_shards=2,
            scheduler=SchedulerConfig(window_ms=0.0),
            failure_threshold=1,
        )
        fleet.register(1)
        victim = fleet.route(1).shard_id
        ack = submit(fleet, make_frame(1, [0, 1]))
        assert isinstance(ack, SchedulerAck)
        fleet.flush()
        fleet.collect(ack.ticket)
        shard = fleet.shard(victim)
        assert shard.requests_ok.value == 1
        assert shard.requests_total.value == 1
        # A failed submit counts against the total but not ok.
        fleet.partition_shard(victim)
        submit(fleet, make_frame(1, [2, 3]))
        assert shard.requests_ok.value == 1
        assert shard.requests_total.value == 2


class TestRebalance:
    def test_rebalance_unpins_all_sessions(self):
        fleet = make_fleet(
            num_shards=2,
            placement="least-loaded",
            scheduler=SchedulerConfig(window_ms=0.0),
            failure_threshold=1,
        )
        for sid in (1, 2, 3, 4):
            fleet.register(sid)
        victim = fleet.route(1).shard_id
        fleet.partition_shard(victim)
        for sid in (1, 2, 3, 4):
            submit(fleet, make_frame(sid, [0]))
        # The victim's first submit tripped the failure detector (503);
        # resubmitting lands everyone on the survivor.
        for sid in (1, 2, 3, 4):
            submit(fleet, make_frame(sid, [1]))
        survivor = next(s for s in fleet.active_shard_ids)
        assert len(fleet.shard(survivor).sessions) == 4

        fleet.heal_shard(victim)
        fleet.rebalance()
        assert all(
            len(fleet.shard(s).sessions) == 0 for s in fleet.active_shard_ids
        )
        # Next submits spread across both shards again.
        for sid in (1, 2, 3, 4):
            submit(fleet, make_frame(sid, [0]))
        by_shard = [len(fleet.shard(s).sessions) for s in sorted(fleet.active_shard_ids)]
        assert by_shard == [2, 2]
        assert "rebalance" in [e["event"] for e in fleet.events]

    def test_rebalance_does_not_count_as_rerouted(self):
        fleet = make_fleet(
            num_shards=2,
            placement="least-loaded",
            scheduler=SchedulerConfig(window_ms=0.0),
        )
        fleet.register(1)
        submit(fleet, make_frame(1, [0]))
        before = fleet.describe()["sessions_rerouted"]
        fleet.rebalance()
        assert fleet.describe()["sessions_rerouted"] == before
