"""Tests for the ``SessionConfig`` API.

The redesign's contract: ``run_session(images, config=SessionConfig(...))``
is the only signature.  The old ``cold_start``/``batch_size`` kwargs spent
their deprecation cycle as warning shims and now raise a ``TypeError``
that names the replacement, so stragglers get a one-line migration
message instead of silently changed behaviour.
"""

import dataclasses
import warnings

import numpy as np
import pytest

from repro.runtime import (
    FP32_CODEC,
    INT8_CODEC,
    LCRSDeployment,
    SessionConfig,
    four_g,
)

def fresh_deployment(trained_system, codec=FP32_CODEC):
    return LCRSDeployment(
        trained_system, four_g(seed=2).deterministic(), feature_codec=codec
    )


class TestValidation:
    def test_defaults_are_valid(self):
        cfg = SessionConfig()
        assert cfg.batch_size == 1
        assert not cfg.cold_start
        assert not cfg.injects_faults

    @pytest.mark.parametrize("batch_size", [0, -4])
    def test_nonpositive_batch_size(self, batch_size):
        with pytest.raises(ValueError, match="batch_size"):
            SessionConfig(batch_size=batch_size)

    @pytest.mark.parametrize("threshold", [-0.1, 1.5])
    def test_threshold_out_of_range(self, threshold):
        with pytest.raises(ValueError, match="threshold"):
            SessionConfig(threshold=threshold)

    def test_unknown_codec(self):
        with pytest.raises(KeyError, match="unknown codec"):
            SessionConfig(codec="bf16")

    def test_unknown_fault_profile(self):
        with pytest.raises(ValueError, match="fault profile"):
            SessionConfig(fault_profile="catastrophic")

    def test_unknown_fault_override_knob(self):
        with pytest.raises(ValueError, match="fault override"):
            SessionConfig(fault_overrides={"jitter_prob": 0.5})

    def test_fault_override_out_of_range(self):
        with pytest.raises(ValueError, match="must be in"):
            SessionConfig(fault_overrides={"drop_prob": 1.5})

    def test_fault_overrides_normalized_and_hashable(self):
        a = SessionConfig(fault_overrides={"timeout_prob": 0.1, "drop_prob": 0.2})
        b = SessionConfig(fault_overrides=(("drop_prob", 0.2), ("timeout_prob", 0.1)))
        assert a == b
        assert a.fault_overrides == (("drop_prob", 0.2), ("timeout_prob", 0.1))
        assert hash(a) == hash(b)
        assert a.injects_faults

    def test_frozen(self):
        cfg = SessionConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.batch_size = 4


class TestRemovedLegacyKwargs:
    def test_config_path_does_not_warn(self, trained_system, tiny_mnist):
        _, test = tiny_mnist
        deployment = fresh_deployment(trained_system)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            deployment.run_session(test.images[:4], config=SessionConfig(batch_size=4))
            deployment.run_session(test.images[:4])


class TestConfigKnobs:
    def test_threshold_override_gates_everything_local(
        self, trained_system, tiny_mnist
    ):
        _, test = tiny_mnist
        deployment = fresh_deployment(trained_system)
        session = deployment.run_session(
            test.images[:20], config=SessionConfig(threshold=1.0)
        )
        assert session.exit_rate == 1.0
        assert deployment.edge.requests_served == 0

    def test_threshold_override_forces_misses(self, trained_system, tiny_mnist):
        _, test = tiny_mnist
        deployment = fresh_deployment(trained_system)
        session = deployment.run_session(
            test.images[:20], config=SessionConfig(threshold=0.0)
        )
        assert session.exit_rate == 0.0
        assert deployment.edge.requests_served == 20
        # The deployment's calibrated gate is untouched.
        assert deployment.browser.threshold == trained_system.threshold

    def test_codec_override_matches_deployment_codec(
        self, trained_system, tiny_mnist
    ):
        _, test = tiny_mnist
        images = test.images[:20]
        via_config = fresh_deployment(trained_system).run_session(
            images, config=SessionConfig(codec="int8")
        )
        via_deployment = fresh_deployment(trained_system, codec=INT8_CODEC).run_session(
            images
        )
        np.testing.assert_array_equal(
            via_config.predictions, via_deployment.predictions
        )

    def test_fault_profile_config_degrades_gracefully(
        self, trained_system, tiny_mnist
    ):
        """A partitioned session answers every frame from the branch and
        leaves the deployment's own link un-wrapped."""
        _, test = tiny_mnist
        images = test.images[:20]
        deployment = fresh_deployment(trained_system)
        session = deployment.run_session(
            images,
            config=SessionConfig(
                batch_size=5, fault_profile="partition", fault_seed=3
            ),
        )
        assert len(session.outcomes) == len(images)
        misses = sum(not o.exited_locally for o in session.outcomes)
        assert session.fallback_rate == pytest.approx(misses / len(images))
        assert deployment.registry.counter("fault.frames_dropped").value > 0
        # The config wraps a copy for the session; the deployment link
        # stays fault-free for the next caller.
        follow_up = deployment.run_session(images)
        assert follow_up.fallback_rate == 0.0

    def test_cold_start_config_dearer_than_warm(self, trained_system, tiny_mnist):
        _, test = tiny_mnist
        cold = fresh_deployment(trained_system).run_session(
            test.images[:10], config=SessionConfig(cold_start=True, batch_size=10)
        )
        warm = fresh_deployment(trained_system).run_session(
            test.images[:10], config=SessionConfig(batch_size=10)
        )
        assert cold.mean_latency_ms > warm.mean_latency_ms
