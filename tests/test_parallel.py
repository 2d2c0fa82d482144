"""Simulated c-worker edge: the lane model and c-worker scheduling.

Two tiers.  The unit tier exercises :class:`WorkerPool` directly: the
earliest-free lane assignment and the busy reading it derives from the
simulated schedule.  The scheduler tier checks the simulated c-worker
clock arithmetic against hand-computed makespans and the bit-identity
guarantee — a multi-worker flush must produce exactly the answers of a
serial one, and every batch runs on the caller's thread.
"""

import threading

import numpy as np
import pytest

from repro.experiments import WorkerScalingConfig, run_worker_scaling
from repro.runtime import (
    EdgeScheduler,
    LCRSDeployment,
    SchedulerConfig,
    ServiceTimeModel,
    SessionConfig,
    WorkerPool,
    four_g,
    run_concurrent_sessions,
)
from repro.runtime.protocol import (
    BatchInferenceRequest,
    BatchInferenceResponse,
    SchedulerAck,
    decode_frame,
    encode_frame,
)

pytestmark = pytest.mark.par

NUM_CLASSES = 7


class StubTrunk:
    """Endpoint whose answer is computable from the features."""

    def __init__(self):
        self.calls = 0

    def infer(self, features):
        flat = features.reshape(len(features), -1)
        self.calls += 1
        logits = np.zeros((len(flat), NUM_CLASSES), dtype=np.float32)
        idx = np.rint(flat[:, 0] * 100).astype(np.int64) % NUM_CLASSES
        logits[np.arange(len(flat)), idx] = 5.0
        return logits


#: Affine clock: batch_ms(n) = 1 + 0.5 n.
MODEL = ServiceTimeModel(base_ms=1.0, per_sample_ms=0.5)


def make_scheduler(**config_kwargs):
    return EdgeScheduler(StubTrunk(), MODEL, SchedulerConfig(**config_kwargs))


def make_frame(session_id, seqs, classes=None):
    if classes is None:
        classes = [s % NUM_CLASSES for s in seqs]
    features = np.zeros((len(seqs), 2, 2), dtype=np.float32)
    features[:, 0, 0] = [c * 0.01 for c in classes]
    return encode_frame(
        BatchInferenceRequest.from_features(session_id, list(seqs), "fp32", features)
    )


# ----------------------------------------------------------------------
# WorkerPool unit tier
# ----------------------------------------------------------------------
class TestWorkerPool:
    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            WorkerPool(0)

    def test_earliest_free_lane_lowest_index_on_ties(self):
        pool = WorkerPool(3)
        assert pool.assign(0.0, 2.0) == (0, 0.0, 1)
        assert pool.assign(0.0, 1.0) == (1, 0.0, 2)
        assert pool.assign(0.0, 3.0) == (2, 0.0, 3)
        # Lane 1 frees first (t=1); lanes 0 and 2 are still busy then.
        assert pool.assign(0.0, 1.0) == (1, 1.0, 3)
        # Lanes 0 and 1 tie at t=2; lane 0 wins and lane 2 is busy.
        assert pool.assign(0.0, 1.0) == (0, 2.0, 2)
        assert pool.max_busy == 3
        assert pool.free_ms == [3.0, 2.0, 3.0]
        assert pool.clock_ms == 3.0

    def test_gate_delays_start_and_idle_lanes_read_one(self):
        pool = WorkerPool(2)
        pool.assign(0.0, 1.0)
        # Lane 1 is idle; the batch waits for its gate, and lane 0 is
        # free by then, so only this lane is busy.
        assert pool.assign(5.0, 1.0) == (1, 5.0, 1)

    def test_close_is_idempotent(self):
        pool = WorkerPool(2)
        pool.assign(0.0, 1.0)
        pool.close()
        pool.close()


# ----------------------------------------------------------------------
# Scheduler tier: simulated c-worker clock and bit-identity
# ----------------------------------------------------------------------
class TestParallelScheduler:
    def test_config_validates_num_workers(self):
        with pytest.raises(ValueError):
            SchedulerConfig(num_workers=0)

    def test_two_workers_overlap_simultaneous_batches(self):
        """Two tenants, window 0, two workers: both single-sample batches
        run concurrently on the simulated clock, so the makespan is one
        batch time — not two."""
        sched = make_scheduler(window_ms=0.0, max_batch_size=1, num_workers=2)
        for tenant in (1, 2):
            ack = decode_frame(sched.submit(make_frame(tenant, [0]), 0.0))
            assert isinstance(ack, SchedulerAck)
        sched.flush()
        assert sched.clock_ms == pytest.approx(MODEL.batch_ms(1))

    def test_serial_baseline_stacks_batches(self):
        sched = make_scheduler(window_ms=0.0, max_batch_size=1, num_workers=1)
        for tenant in (1, 2):
            sched.submit(make_frame(tenant, [0]), 0.0)
        sched.flush()
        assert sched.clock_ms == pytest.approx(2 * MODEL.batch_ms(1))

    def test_four_batches_two_workers_two_rounds(self):
        """ceil(4/2) = 2 waves of batch_ms each."""
        sched = make_scheduler(window_ms=0.0, max_batch_size=2, num_workers=2)
        for tenant in range(1, 5):
            sched.submit(make_frame(tenant, [0, 1]), 0.0)
        sched.flush()
        assert sched.health()["batches"] == 4
        assert sched.clock_ms == pytest.approx(2 * MODEL.batch_ms(2))

    def test_worker_gate_delays_start_not_membership(self):
        """A batch whose worker is busy starts when the worker frees, and
        the charged queue wait includes that wait."""
        sched = make_scheduler(window_ms=0.0, max_batch_size=1, num_workers=1)
        sched.submit(make_frame(1, [0]), 0.0)
        sched.submit(make_frame(2, [0]), 0.0)
        tickets = sched.flush()
        waits = [sched.collect(t)[1] for t in tickets]
        assert waits == [pytest.approx(0.0), pytest.approx(MODEL.batch_ms(1))]

    def test_parallel_answers_bit_identical_to_serial(self):
        """Same frames through 1 and 4 workers: identical replies."""

        def run(workers):
            sched = make_scheduler(
                window_ms=0.0, max_batch_size=2, num_workers=workers
            )
            tickets = []
            for tenant in range(1, 9):
                ack = decode_frame(
                    sched.submit(make_frame(tenant, [0, 1, 2]), 0.0)
                )
                tickets.append(ack.ticket)
            sched.flush()
            replies = []
            for t in tickets:
                raw, _ = sched.collect(t)
                reply = decode_frame(raw)
                assert isinstance(reply, BatchInferenceResponse)
                replies.append((reply.session_id, reply.sequences,
                                reply.class_ids, reply.confidences))
            return replies

        assert run(4) == run(1)

    def test_workers_busy_telemetry(self):
        sched = make_scheduler(window_ms=0.0, max_batch_size=1, num_workers=2)
        for tenant in (1, 2, 3, 4):
            sched.submit(make_frame(tenant, [0]), 0.0)
        sched.flush()
        gauge = sched.registry.gauge("sched.workers_busy")
        assert sched.worker_pool.max_busy == 2
        assert gauge.value == sched.worker_pool.max_busy

    def test_burst_reads_full_busy_at_four_workers(self):
        """The busy reading comes from the simulated schedule, so a
        16-request burst at 4 workers reads 4 on every run."""
        for _ in range(5):
            sched = make_scheduler(window_ms=0.0, max_batch_size=1, num_workers=4)
            for tenant in range(1, 17):
                sched.submit(make_frame(tenant, [0]), 0.0)
            sched.flush()
            assert sched.worker_pool.max_busy == 4
            assert sched.registry.gauge("sched.workers_busy").value == 4

    def test_single_worker_busy_reads_one(self):
        sched = make_scheduler(window_ms=0.0, max_batch_size=1, num_workers=1)
        for tenant in (1, 2, 3):
            sched.submit(make_frame(tenant, [0]), 0.0)
        sched.flush()
        assert sched.worker_pool.max_busy == 1

    def test_flush_runs_on_callers_thread(self):
        """The c workers are a model: every trunk pass runs inline."""
        sched = make_scheduler(window_ms=0.0, max_batch_size=1, num_workers=4)
        threads = []
        infer = sched.endpoint.infer

        def spy(features):
            threads.append(threading.get_ident())
            return infer(features)

        sched.endpoint.infer = spy
        for tenant in range(1, 9):
            sched.submit(make_frame(tenant, [0]), 0.0)
        sched.flush()
        assert threads == [threading.get_ident()] * 8

    def test_clock_setter_resets_all_workers(self):
        sched = make_scheduler(num_workers=3)
        sched.clock_ms = 12.5
        assert sched.worker_pool.free_ms == [12.5] * 3
        assert sched.clock_ms == 12.5


# ----------------------------------------------------------------------
# Integration tier: trained system, sessions, and the scaling sweep
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestWorkerScalingIntegration:
    def test_scheduled_sessions_bit_identical_across_workers(self, trained_system, tiny_mnist):
        _, test = tiny_mnist
        images = test.images[:12]

        def run(workers):
            deployments = [
                LCRSDeployment(trained_system, four_g(seed=11 + i)) for i in range(2)
            ]
            scheduler = EdgeScheduler.for_system(
                trained_system,
                config=SchedulerConfig(window_ms=0.0, num_workers=workers),
            )
            results = run_concurrent_sessions(
                deployments,
                [images] * 2,
                scheduler,
                config=SessionConfig(batch_size=4, threshold=0.05),
            )
            return [
                [(o.prediction, o.served_by) for o in r.outcomes] for r in results
            ]

        assert run(4) == run(1)

    def test_worker_scaling_speedup_and_mmc_cross_check(self, trained_system, tiny_mnist):
        """The acceptance bar: ≥2.5× trunk throughput at 4 workers with
        bit-identical predictions, and measured throughput matching the
        M/M/c capacity when c divides the request count."""
        _, test = tiny_mnist
        result = run_worker_scaling(
            trained_system,
            test.images[:64],
            config=WorkerScalingConfig(workers=(1, 2, 4), requests=16, batch_size=4),
        )
        serial = result.point(1)
        assert serial.speedup_vs_serial == pytest.approx(1.0)
        assert result.point(2).speedup_vs_serial == pytest.approx(2.0, rel=1e-6)
        quad = result.point(4)
        assert quad.speedup_vs_serial >= 2.5
        for p in result.points:
            assert p.bit_identical
            assert p.samples == 64
            assert p.capacity_ratio == pytest.approx(1.0, rel=1e-6)
            assert p.makespan_ms > 0

    def test_run_concurrency_prices_workers_in_analytic_check(
        self, trained_system, tiny_mnist
    ):
        """The M/M/c cross-check must use the configured worker count —
        the old hard-coded workers=1 underpriced multi-worker cells."""
        from repro.experiments import ConcurrencySweepConfig, run_concurrency

        _, test = tiny_mnist
        result = run_concurrency(
            trained_system,
            test.images[:8],
            config=ConcurrencySweepConfig(
                users=(2,),
                windows_ms=(0.0,),
                session_config=SessionConfig(batch_size=4, threshold=0.05),
                num_workers=2,
            ),
        )
        assert all(p.num_workers == 2 for p in result.points)
        assert {"num_workers"} <= set(result.points[0].as_dict())
