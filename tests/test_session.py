"""Integration tests for the deployed browser/edge session."""

import numpy as np
import pytest

from repro.nn.autograd import Tensor, no_grad
from repro.runtime import (
    BrowserClient,
    EDGE_SERVER,
    EdgeEndpoint,
    LCRSDeployment,
    MOBILE_BROWSER_WASM,
    SessionConfig,
    build_lcrs_assets,
    four_g,
)
from repro.wasm import serialize_browser_bundle


@pytest.fixture
def deployment(trained_system):
    return LCRSDeployment(trained_system, four_g(seed=5))


class TestLCRSAssets:
    def test_bundle_bytes_positive_and_small(self, trained_system):
        assets = build_lcrs_assets(trained_system.model)
        assert 0 < assets.bundle_bytes < 100 * 1024  # LeNet bundle is tiny

    def test_plan_has_all_stages(self, trained_system):
        plan = build_lcrs_assets(trained_system.model).plan()
        assert plan.setup_steps and plan.per_sample_steps and plan.miss_steps

    def test_assets_work_untrained(self, tiny_mnist):
        from repro.core import LCRS

        train, _ = tiny_mnist
        system = LCRS.build("lenet", train)
        assets = build_lcrs_assets(system.model)
        assert assets.feature_bytes == 6 * 14 * 14 * 4


class TestEdgeEndpoint:
    def test_serves_and_counts(self, trained_system, tiny_mnist):
        _, test = tiny_mnist
        endpoint = EdgeEndpoint(trained_system.model.main_trunk)
        features = trained_system.model.forward_features(
            __import__("repro").nn.Tensor(test.images[:4])
        ).data
        logits = endpoint.infer(features)
        assert logits.shape == (4, test.num_classes)
        assert endpoint.requests_served == 4

    def test_failed_compile_serves_through_the_interpreter(
        self, trained_system, tiny_mnist, monkeypatch
    ):
        """When the trunk plan fails to compile, ``infer`` runs the trunk
        engine's interpreter, whose logits equal the plan's bit for bit,
        and the failure is cached rather than retried."""
        from repro.runtime import session as session_mod
        from repro.wasm import PlanCompileError

        _, test = tiny_mnist
        model = trained_system.model
        model.eval()
        with no_grad():
            features = model.forward_features(Tensor(test.images[:4])).data
        planned = EdgeEndpoint(model.main_trunk).infer(features)

        attempts = []

        def failing_compile(engine, capacity):
            attempts.append(capacity)
            raise PlanCompileError("forced")

        monkeypatch.setattr(session_mod, "compile_wasm_plan", failing_compile)
        endpoint = EdgeEndpoint(model.main_trunk)
        fallback = endpoint.infer(features)
        again = endpoint.infer(features)
        np.testing.assert_array_equal(fallback.view(np.uint32), planned.view(np.uint32))
        np.testing.assert_array_equal(again.view(np.uint32), planned.view(np.uint32))
        assert attempts == [4]
        assert endpoint.requests_served == 8


class TestBrowserClient:
    def test_process_single_image(self, trained_system, tiny_mnist):
        _, test = tiny_mnist
        model = trained_system.model
        stem = serialize_browser_bundle(model.stem, (1, 28, 28))
        branch = serialize_browser_bundle(model.binary_branch, model.stem_output_shape)
        client = BrowserClient(stem, branch, trained_system.threshold)
        features, logits, entropy, exits = client.process(test.images[0])
        assert features.shape[1:] == model.stem_output_shape
        assert logits.shape == (1, test.num_classes)
        assert 0.0 <= entropy <= 1.0
        assert exits == (entropy < trained_system.threshold)


class TestDeployment:
    def test_requires_calibration(self, tiny_mnist):
        from repro.core import LCRS

        train, _ = tiny_mnist
        system = LCRS.build("lenet", train)
        with pytest.raises(RuntimeError):
            LCRSDeployment(system, four_g())

    def test_session_predictions_match_functional_predictor(
        self, deployment, trained_system, tiny_mnist
    ):
        """The deployed system (wasm engines + edge trunk over the wire)
        must agree with the in-framework Algorithm 2 executor."""
        _, test = tiny_mnist
        images = test.images[:40]
        session = deployment.run_session(images)
        functional = trained_system.predictor().predict(images)
        np.testing.assert_array_equal(session.predictions, functional.predictions)
        assert session.exit_rate == pytest.approx(functional.exit_rate)

    def test_edge_serves_only_misses(self, deployment, tiny_mnist):
        _, test = tiny_mnist
        session = deployment.run_session(test.images[:40])
        misses = sum(not o.exited_locally for o in session.outcomes)
        assert deployment.edge.requests_served == misses

    def test_latency_accounting_positive(self, deployment, tiny_mnist):
        _, test = tiny_mnist
        session = deployment.run_session(
            test.images[:10], config=SessionConfig(cold_start=True)
        )
        for outcome in session.outcomes:
            assert outcome.cost.total_ms > 0
            assert outcome.cost.total_ms == pytest.approx(
                outcome.cost.compute_ms + outcome.cost.communication_ms
            )

    def test_cold_start_dearer_than_warm(self, trained_system, tiny_mnist):
        _, test = tiny_mnist
        cold = LCRSDeployment(trained_system, four_g(seed=1).deterministic())
        warm = LCRSDeployment(trained_system, four_g(seed=1).deterministic())
        cold_result = cold.run_session(
            test.images[:10], config=SessionConfig(cold_start=True)
        )
        warm_result = warm.run_session(
            test.images[:10], config=SessionConfig(cold_start=False)
        )
        assert cold_result.mean_latency_ms > warm_result.mean_latency_ms

    def test_miss_paths_cost_more(self, deployment, tiny_mnist):
        _, test = tiny_mnist
        session = deployment.run_session(test.images[:60])
        local = [o.cost.total_ms for o in session.outcomes[1:] if o.exited_locally]
        remote = [o.cost.total_ms for o in session.outcomes[1:] if not o.exited_locally]
        if local and remote:
            assert np.mean(remote) > np.mean(local)

    def test_session_accuracy(self, deployment, tiny_mnist):
        _, test = tiny_mnist
        session = deployment.run_session(test.images)
        assert session.accuracy(test.labels) > 0.5

    def test_bundle_bytes_property(self, deployment):
        assert deployment.bundle_bytes == deployment.assets.bundle_bytes
