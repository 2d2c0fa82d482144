"""Unit tests for the standalone bit-packed interpreter.

The contract (paper §IV-C): the browser engine's outputs must match the
training framework's eval-mode outputs on the same serialized layers.
"""

import numpy as np
import pytest

from repro import nn
from repro.nn.autograd import Tensor, no_grad
from repro.nn.binary import BinaryConv2d, BinaryLinear
from repro.wasm import (
    ModelFormatError,
    WasmModel,
    parse_model,
    serialize_browser_bundle,
    validate_bundle,
)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def roundtrip(bundle: nn.Sequential, input_shape, batch=4, seed=1):
    """Serialize → load → compare against the framework in eval mode."""
    payload = serialize_browser_bundle(bundle, input_shape)
    engine = WasmModel.load(payload)
    x = np.random.default_rng(seed).standard_normal((batch,) + input_shape).astype(
        np.float32
    )
    bundle.eval()
    with no_grad():
        expected = bundle(Tensor(x)).data
    actual = engine.forward(x)
    return expected, actual


class TestFloatLayerKernels:
    def test_conv2d(self, rng):
        bundle = nn.Sequential(nn.Conv2d(3, 5, 3, stride=2, padding=1, rng=rng))
        e, a = roundtrip(bundle, (3, 9, 9))
        np.testing.assert_allclose(a, e, atol=1e-5)

    def test_conv2d_no_bias(self, rng):
        bundle = nn.Sequential(nn.Conv2d(1, 2, 3, bias=False, rng=rng))
        e, a = roundtrip(bundle, (1, 6, 6))
        np.testing.assert_allclose(a, e, atol=1e-5)

    def test_linear(self, rng):
        bundle = nn.Sequential(nn.Flatten(), nn.Linear(36, 7, rng=rng))
        e, a = roundtrip(bundle, (1, 6, 6))
        np.testing.assert_allclose(a, e, atol=1e-5)

    def test_relu_maxpool_flatten(self, rng):
        bundle = nn.Sequential(nn.ReLU(), nn.MaxPool2d(2), nn.Flatten())
        e, a = roundtrip(bundle, (2, 8, 8))
        np.testing.assert_allclose(a, e, atol=1e-6)

    def test_batchnorm_uses_running_stats(self, rng):
        bn = nn.BatchNorm2d(3)
        bn.running_mean[:] = [1.0, -1.0, 0.5]
        bn.running_var[:] = [2.0, 0.5, 1.5]
        bn.gamma.data[:] = [1.5, 0.5, 1.0]
        bn.beta.data[:] = [0.1, -0.1, 0.0]
        e, a = roundtrip(nn.Sequential(bn), (3, 5, 5))
        np.testing.assert_allclose(a, e, atol=1e-5)

    def test_batchnorm1d(self, rng):
        bundle = nn.Sequential(nn.Flatten(), nn.BatchNorm1d(16))
        e, a = roundtrip(bundle, (1, 4, 4))
        np.testing.assert_allclose(a, e, atol=1e-5)

    def test_global_avg_pool(self, rng):
        bundle = nn.Sequential(nn.GlobalAvgPool2d())
        e, a = roundtrip(bundle, (3, 6, 6))
        np.testing.assert_allclose(a, e, atol=1e-6)


class TestBinaryLayerKernels:
    def test_binary_conv_with_padding(self, rng):
        """Padding makes inputs ternary — the masked popcount path."""
        bundle = nn.Sequential(BinaryConv2d(3, 4, 3, padding=1, rng=rng))
        e, a = roundtrip(bundle, (3, 8, 8))
        np.testing.assert_allclose(a, e, atol=1e-4)

    def test_binary_conv_no_padding(self, rng):
        bundle = nn.Sequential(BinaryConv2d(2, 3, 3, padding=0, rng=rng))
        e, a = roundtrip(bundle, (2, 7, 7))
        np.testing.assert_allclose(a, e, atol=1e-4)

    def test_binary_conv_strided(self, rng):
        bundle = nn.Sequential(BinaryConv2d(2, 2, 3, stride=2, padding=1, rng=rng))
        e, a = roundtrip(bundle, (2, 8, 8))
        np.testing.assert_allclose(a, e, atol=1e-4)

    def test_binary_conv_bwn_mode(self, rng):
        bundle = nn.Sequential(
            BinaryConv2d(2, 2, 3, padding=1, binarize_input=False, rng=rng)
        )
        e, a = roundtrip(bundle, (2, 6, 6))
        np.testing.assert_allclose(a, e, atol=1e-4)

    def test_binary_linear(self, rng):
        bundle = nn.Sequential(nn.Flatten(), BinaryLinear(64, 10, rng=rng))
        e, a = roundtrip(bundle, (1, 8, 8))
        np.testing.assert_allclose(a, e, atol=1e-4)

    def test_binary_linear_bwn_mode(self, rng):
        bundle = nn.Sequential(
            nn.Flatten(), BinaryLinear(16, 4, binarize_input=False, rng=rng)
        )
        e, a = roundtrip(bundle, (1, 4, 4))
        np.testing.assert_allclose(a, e, atol=1e-4)


class TestFullBundles:
    def test_browser_bundle_of_trained_system(self, trained_system, tiny_mnist):
        _, test = tiny_mnist
        bundle = trained_system.model.browser_modules()
        payload = serialize_browser_bundle(bundle, (1, 28, 28))
        engine = WasmModel.load(payload)
        bundle.eval()
        with no_grad():
            expected = bundle(Tensor(test.images[:32])).data
        actual = engine.forward(test.images[:32])
        np.testing.assert_allclose(actual, expected, atol=1e-3)
        assert (expected.argmax(1) == actual.argmax(1)).all()

    def test_validate_bundle_report(self, trained_system):
        report = validate_bundle(
            trained_system.model.browser_modules(), (1, 28, 28), num_samples=8
        )
        assert report.passed
        assert report.argmax_agreement == 1.0
        assert report.num_samples == 8

    def test_engine_runs_from_bytes_alone(self, rng):
        """Destroying the source module must not affect the engine."""
        bundle = nn.Sequential(nn.Conv2d(1, 2, 3, rng=rng), nn.ReLU())
        payload = serialize_browser_bundle(bundle, (1, 6, 6))
        del bundle
        engine = WasmModel.load(payload)
        out = engine.forward(np.zeros((1, 1, 6, 6), dtype=np.float32))
        assert out.shape == (1, 2, 4, 4)


class TestBatchedEngine:
    """The batched engine contract: N-sample forward is bit-identical to
    N single-sample forwards, and per-op counters attribute the work."""

    def test_binary_conv_batch_bit_identical_to_single(self, rng):
        """The XNOR/popcount path is integer-exact, so batching cannot
        change a single bit of a binary conv's output."""
        bundle = nn.Sequential(BinaryConv2d(3, 4, 3, padding=1, stride=2, rng=rng))
        engine = WasmModel.load(serialize_browser_bundle(bundle, (3, 8, 8)))
        batch = np.random.default_rng(9).standard_normal((12, 3, 8, 8)).astype(
            np.float32
        )
        batched = engine.forward(batch)
        singles = np.concatenate([engine.forward(img[None]) for img in batch])
        np.testing.assert_array_equal(batched, singles)

    def test_full_bundle_batch_matches_single(self, trained_system, tiny_mnist):
        """Float convs/linears go through BLAS, whose reduction order may
        differ with batch size — outputs agree to float32 round-off and
        argmax decisions are identical."""
        _, test = tiny_mnist
        bundle = trained_system.model.browser_modules()
        engine = WasmModel.load(serialize_browser_bundle(bundle, (1, 28, 28)))
        batch = test.images[:16]
        batched = engine.forward(batch)
        singles = np.concatenate([engine.forward(img[None]) for img in batch])
        np.testing.assert_allclose(batched, singles, atol=1e-5)
        np.testing.assert_array_equal(batched.argmax(1), singles.argmax(1))

    def test_overlapping_pool_matches_framework(self, rng):
        """Overlapping/non-divisible pools take the im2col fallback; it
        must agree with the framework exactly like the fast path."""
        bundle = nn.Sequential(nn.MaxPool2d(3, stride=2))
        e, a = roundtrip(bundle, (2, 7, 7))
        np.testing.assert_allclose(a, e, atol=1e-6)

    def test_geometry_cache_shared_across_engines(self):
        from repro.wasm import conv_geometry

        first = conv_geometry(3, 9, 9, kernel=3, stride=2, padding=1)
        second = conv_geometry(3, 9, 9, kernel=3, stride=2, padding=1)
        assert first is second  # one geometry object per (shape, conv) key
        assert first.out_height == first.out_width == 5
        assert first.valid_cols is not None  # padding ⇒ mask columns exist
        unpadded = conv_geometry(3, 9, 9, kernel=3, stride=2, padding=0)
        assert unpadded.valid_cols is None


class TestEngineErrors:
    def test_wrong_input_shape_rejected(self, rng):
        payload = serialize_browser_bundle(
            nn.Sequential(nn.ReLU()), (1, 6, 6)
        )
        engine = WasmModel.load(payload)
        with pytest.raises(ValueError):
            engine.forward(np.zeros((1, 1, 5, 5), dtype=np.float32))

    def test_unknown_op_rejected(self, rng):
        payload = serialize_browser_bundle(nn.Sequential(nn.ReLU()), (1, 4, 4))
        parsed = parse_model(payload)
        parsed.layers[0]["type"] = "quantum_conv"
        with pytest.raises(ModelFormatError):
            WasmModel(parsed)

    def test_num_ops(self, rng):
        payload = serialize_browser_bundle(
            nn.Sequential(nn.ReLU(), nn.Flatten()), (1, 4, 4)
        )
        assert WasmModel.load(payload).num_ops == 2
