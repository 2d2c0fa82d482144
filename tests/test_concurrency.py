"""Tests for the edge-load queueing model."""

import math

import numpy as np
import pytest

from repro.experiments import build_network_assets
from repro.runtime import (
    EDGE_SERVER,
    QueueModel,
    ServiceTimeModel,
    edge_load_curve,
    max_sustainable_users,
    measure_service_model,
)


@pytest.fixture(scope="module")
def trunk_profile():
    return build_network_assets("alexnet").lcrs.trunk_profile


class TestQueueModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            QueueModel(workers=0, service_time_s=0.01)
        with pytest.raises(ValueError):
            QueueModel(workers=2, service_time_s=0.0)

    def test_zero_arrivals(self):
        q = QueueModel(workers=2, service_time_s=0.01)
        assert q.erlang_c(0.0) == 0.0
        assert q.mean_wait_s(0.0) == 0.0

    def test_unstable_regime(self):
        q = QueueModel(workers=1, service_time_s=1.0)
        assert not q.is_stable(2.0)
        assert q.mean_wait_s(2.0) == math.inf
        assert q.erlang_c(2.0) == 1.0

    def test_single_server_matches_mm1(self):
        # M/M/1: W_q = rho / (mu - lambda).
        q = QueueModel(workers=1, service_time_s=0.1)  # mu = 10
        lam = 5.0
        expected = (lam / 10.0) / (10.0 - lam)
        assert q.mean_wait_s(lam) == pytest.approx(expected, rel=1e-9)

    def test_erlang_c_increases_with_load(self):
        q = QueueModel(workers=4, service_time_s=0.05)
        values = [q.erlang_c(lam) for lam in (10.0, 40.0, 70.0)]
        assert values == sorted(values)

    def test_more_workers_reduce_waiting(self):
        small = QueueModel(workers=2, service_time_s=0.1)
        big = QueueModel(workers=8, service_time_s=0.1)
        lam = 15.0
        assert big.mean_wait_s(lam) < small.mean_wait_s(lam)


class TestEdgeLoad:
    def test_service_time_positive(self, trunk_profile):
        model = ServiceTimeModel.from_profile(trunk_profile, request_overhead_ms=0.0)
        assert model.service_time_s(1) > 0

    def test_exit_rate_scales_capacity(self, trunk_profile):
        edge_only = max_sustainable_users(trunk_profile, exit_rate=0.0)
        lcrs = max_sustainable_users(trunk_profile, exit_rate=0.79)
        assert lcrs / edge_only == pytest.approx(1 / 0.21, rel=1e-6)

    def test_full_exit_rate_is_unbounded(self, trunk_profile):
        assert max_sustainable_users(trunk_profile, exit_rate=1.0) == math.inf

    def test_load_curve_shape(self, trunk_profile):
        points = edge_load_curve(trunk_profile, 0.79, [10, 100, 1000])
        assert [p.users for p in points] == [10, 100, 1000]
        utils = [p.utilization for p in points]
        assert utils == sorted(utils)

    def test_lcrs_outlasts_edge_only(self, trunk_profile):
        users = [500, 2000]
        lcrs = edge_load_curve(trunk_profile, 0.79, users)
        edge_only = edge_load_curve(trunk_profile, 0.0, users)
        for l, e in zip(lcrs, edge_only):
            assert l.utilization < e.utilization
        # At some population edge-only saturates while LCRS is stable.
        assert any(not e.stable and l.stable for l, e in zip(lcrs, edge_only))

    def test_invalid_exit_rate(self, trunk_profile):
        with pytest.raises(ValueError):
            edge_load_curve(trunk_profile, 1.5, [10])


class TestServiceTimeModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            ServiceTimeModel(base_ms=-1.0, per_sample_ms=0.5)
        with pytest.raises(ValueError):
            ServiceTimeModel(base_ms=1.0, per_sample_ms=0.0)
        with pytest.raises(ValueError):
            ServiceTimeModel(base_ms=1.0, per_sample_ms=0.5).batch_ms(0)

    def test_batch_ms_is_affine(self):
        model = ServiceTimeModel(base_ms=2.0, per_sample_ms=0.25)
        assert model.batch_ms(1) == pytest.approx(2.25)
        assert model.batch_ms(8) == pytest.approx(4.0)
        # Marginal cost of one more sample is exactly per_sample_ms.
        assert model.batch_ms(9) - model.batch_ms(8) == pytest.approx(0.25)

    def test_batching_amortizes_call_overhead(self):
        model = ServiceTimeModel(base_ms=2.0, per_sample_ms=0.25)
        per_sample = [model.service_time_s(n) for n in (1, 4, 16, 64)]
        assert per_sample == sorted(per_sample, reverse=True)
        # In the limit, only the marginal cost remains.
        assert model.service_time_s(10_000) == pytest.approx(
            0.25 / 1e3, rel=1e-2
        )

    def test_load_curve_prices_flops_plus_layer_dispatch(self, trunk_profile):
        """The curves price one request at exactly compute + per-layer
        dispatch on one worker's share of the box, with no request
        overhead — pinned with ``==`` so the load study stays bit-equal."""
        edge, workers, exit_rate = EDGE_SERVER, 12, 0.79
        request_ms = edge.compute_ms(trunk_profile.total_flops) + (
            edge.layer_overhead_ms * len(trunk_profile)
        )
        queue = QueueModel(workers=workers, service_time_s=request_ms / 1e3 * workers)
        for point in edge_load_curve(trunk_profile, exit_rate, [100, 1000, 5000]):
            assert point.utilization == queue.utilization(point.arrival_rate)
            response = queue.mean_response_s(point.arrival_rate)
            assert point.mean_response_ms == (
                response * 1e3 if math.isfinite(response) else math.inf
            )
        assert max_sustainable_users(trunk_profile, exit_rate) == (
            0.8 * workers * queue.service_rate / (1.0 - exit_rate)
        )
        overhead = ServiceTimeModel.from_profile(trunk_profile)
        assert overhead.base_ms > ServiceTimeModel.from_profile(
            trunk_profile, request_overhead_ms=0.0
        ).base_ms

    def test_from_measurements_recovers_affine_fit(self):
        truth = ServiceTimeModel(base_ms=3.0, per_sample_ms=0.7)
        sizes = [1, 2, 4, 8, 16]
        fitted = ServiceTimeModel.from_measurements(
            sizes, [truth.batch_ms(n) for n in sizes]
        )
        assert fitted.base_ms == pytest.approx(3.0, abs=1e-6)
        assert fitted.per_sample_ms == pytest.approx(0.7, abs=1e-6)

    def test_from_measurements_clamps_to_valid_model(self):
        # Noisy timings can fit a negative intercept; the model clamps.
        fitted = ServiceTimeModel.from_measurements([1, 2], [0.5, 1.5])
        assert fitted.base_ms == 0.0
        assert fitted.per_sample_ms == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "sizes,times",
        [([4], [1.0]), ([4, 4], [1.0, 1.1]), ([1, 2], [1.0])],
    )
    def test_from_measurements_validation(self, sizes, times):
        with pytest.raises(ValueError):
            ServiceTimeModel.from_measurements(sizes, times)

    def test_measure_service_model_times_real_trunk(self, trained_system):
        model = measure_service_model(
            trained_system.model.main_trunk,
            trained_system.model.stem_output_shape,
            batch_sizes=(1, 8),
            repeats=1,
        )
        assert model.per_sample_ms > 0.0
        assert model.base_ms >= 0.0


class TestMeasuredQueueCalibration:
    def test_queue_from_service_model_batching_raises_capacity(self):
        model = ServiceTimeModel(base_ms=4.0, per_sample_ms=1.0)
        solo = QueueModel.from_service_model(model, batch_size=1)
        batched = QueueModel.from_service_model(model, batch_size=16)
        assert batched.service_rate > solo.service_rate
        # An arrival rate the per-request server cannot sustain is
        # comfortably stable under batch-16 serving.
        lam = 1.0 / model.service_time_s(1) * 1.5
        assert not solo.is_stable(lam)
        assert batched.is_stable(lam)


class TestStabilityBoundary:
    """Regression for the ρ → 1 boundary: waits must diverge smoothly
    to the boundary and be infinite at and beyond it — no negative or
    wrapped values from the closed form."""

    def test_wait_diverges_monotonically_toward_saturation(self):
        q = QueueModel(workers=1, service_time_s=0.1)  # mu = 10/s
        rhos = [0.5, 0.9, 0.99, 0.999, 0.9999]
        waits = [q.mean_wait_s(rho * 10.0) for rho in rhos]
        assert all(math.isfinite(w) and w > 0 for w in waits)
        assert waits == sorted(waits)
        # M/M/1 closed form at rho = 0.9999: W_q = rho/(mu - lam).
        assert waits[-1] == pytest.approx(0.9999 / (10.0 - 9.999), rel=1e-9)
        assert waits[-1] > 100 * waits[0]

    @pytest.mark.parametrize("rho", [1.0, 1.0000001, 2.0])
    def test_at_and_beyond_saturation(self, rho):
        q = QueueModel(workers=1, service_time_s=0.1)
        lam = rho * 10.0
        assert not q.is_stable(lam)
        assert q.erlang_c(lam) == 1.0
        assert q.mean_wait_s(lam) == math.inf
        assert q.mean_response_s(lam) == math.inf

    def test_erlang_c_approaches_one_from_below(self):
        q = QueueModel(workers=4, service_time_s=0.05)
        saturation = 4 / 0.05  # lam at rho = 1
        probs = [q.erlang_c(f * saturation) for f in (0.5, 0.9, 0.99, 0.999)]
        assert probs == sorted(probs)
        assert probs[-1] < 1.0
        assert probs[-1] > 0.99
