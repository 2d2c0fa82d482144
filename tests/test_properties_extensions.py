"""Property-based tests for the extension modules."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from repro.nn.quantized import dequantize, quantize_weights
from repro.runtime import FEATURE_CODECS, QueueModel
from repro.runtime.protocol import (
    BatchInferenceRequest,
    BatchInferenceResponse,
    ErrorResponse,
    ModelRequest,
    ModelResponse,
    decode_frame,
    encode_frame,
)


class TestQuantizationProperties:
    @given(
        hnp.arrays(
            dtype=np.float32,
            shape=st.tuples(st.integers(1, 4), st.integers(1, 32)),
            elements=st.floats(-10, 10, width=32),
        ),
        st.integers(2, 8),
    )
    def test_reconstruction_error_bounded_by_half_step(self, w, bits):
        codes, scale = quantize_weights(w, bits)
        recon = dequantize(codes, scale)
        # Error per element ≤ half a quantization step of its row.
        step = scale.reshape(scale.shape[0], -1).max(axis=1)
        err = np.abs(recon - w).reshape(w.shape[0], -1).max(axis=1)
        assert (err <= step * 0.5 + 1e-5).all()

    @given(
        hnp.arrays(
            dtype=np.float32,
            shape=st.tuples(st.integers(1, 3), st.integers(1, 16)),
            elements=st.floats(-5, 5, width=32),
        ),
        st.integers(1, 8),
    )
    def test_quantization_idempotent(self, w, bits):
        codes, scale = quantize_weights(w, bits)
        recon = dequantize(codes, scale)
        codes2, scale2 = quantize_weights(recon, bits)
        recon2 = dequantize(codes2, scale2)
        np.testing.assert_allclose(recon2, recon, atol=1e-4)


class TestCodecProperties:
    @given(
        st.sampled_from(sorted(FEATURE_CODECS)),
        st.integers(0, 2**31 - 1),
        st.integers(1, 4),
        st.integers(2, 10),
    )
    def test_roundtrip_shape_and_bound(self, name, seed, channels, size):
        codec = FEATURE_CODECS[name]
        rng = np.random.default_rng(seed)
        features = rng.standard_normal((1, channels, size, size)).astype(np.float32)
        decoded = codec.decode(codec.encode(features), features.shape)
        assert decoded.shape == features.shape
        span = float(features.max() - features.min()) or 1.0
        assert np.abs(decoded - features).max() <= span / 100.0 + 1e-2


class TestProtocolProperties:
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(0, 2**31 - 1),
        st.sampled_from(sorted(FEATURE_CODECS)),
        st.integers(0, 2**31 - 1),
    )
    def test_inference_request_roundtrip(self, session, sequence, codec, seed):
        rng = np.random.default_rng(seed)
        features = rng.standard_normal((1, 2, 3, 3)).astype(np.float32)
        message = BatchInferenceRequest.from_features(session, [sequence], codec, features)
        decoded = decode_frame(encode_frame(message))
        assert decoded.session_id == session
        assert decoded.sequences == (sequence,)
        assert decoded.feature_shape == (1, 2, 3, 3)

    @given(st.integers(0, 2**32 - 1), st.integers(0, 1000), st.floats(0, 1))
    def test_inference_response_roundtrip(self, session, class_id, confidence):
        message = BatchInferenceResponse(session, (0,), (class_id,), (confidence,))
        decoded = decode_frame(encode_frame(message))
        assert decoded.class_ids == (class_id,)
        assert decoded.confidences[0] == pytest.approx(confidence, abs=1e-6)

    @given(st.text(min_size=0, max_size=64))
    def test_model_messages_roundtrip_any_name(self, name):
        request = decode_frame(encode_frame(ModelRequest(name)))
        assert request.bundle_name == name
        response = decode_frame(encode_frame(ModelResponse(name, b"\x00\x01")))
        assert response.bundle_name == name
        assert response.payload == b"\x00\x01"

    @given(st.integers(0, 2**31 - 1), st.text(max_size=128))
    def test_error_roundtrip(self, code, message):
        decoded = decode_frame(encode_frame(ErrorResponse(code, message)))
        assert decoded.code == code
        assert decoded.message == message


class TestQueueProperties:
    @given(
        st.integers(1, 16),
        st.floats(0.001, 1.0),
        st.floats(0.0, 0.95),
    )
    def test_wait_nonnegative_and_stable_region(self, workers, service, rho):
        queue = QueueModel(workers=workers, service_time_s=service)
        arrival = rho * workers / service
        assert queue.is_stable(arrival)
        wait = queue.mean_wait_s(arrival)
        assert wait >= 0.0
        assert np.isfinite(wait)

    @given(st.integers(1, 8), st.floats(0.01, 0.5))
    def test_erlang_c_is_probability(self, workers, service):
        queue = QueueModel(workers=workers, service_time_s=service)
        for rho in (0.1, 0.5, 0.9):
            arrival = rho * workers / service
            p = queue.erlang_c(arrival)
            assert 0.0 <= p <= 1.0
