"""Tests for the byte-level browser-edge protocol."""

import numpy as np
import pytest

from repro.runtime.protocol import (
    BatchInferenceRequest,
    BatchInferenceResponse,
    EdgeProtocolServer,
    ErrorResponse,
    MessageType,
    ModelRequest,
    ModelResponse,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_frame,
    encode_frame,
)


class TestFraming:
    def test_roundtrip_all_message_types(self):
        rng = np.random.default_rng(0)
        features = rng.standard_normal((1, 2, 4, 4)).astype(np.float32)
        batch = rng.standard_normal((3, 2, 4, 4)).astype(np.float32)
        messages = [
            BatchInferenceRequest.from_features(7, [3], "fp32", features),
            BatchInferenceResponse(7, (3,), (2,), (0.93,)),
            BatchInferenceRequest.from_features(7, [0, 2, 5], "fp32", batch),
            BatchInferenceResponse(7, (0, 2, 5), (1, 4, 1), (0.9, 0.8, 0.7)),
            ModelRequest("lenet"),
            ModelResponse("lenet", b"\x01\x02\x03"),
            ErrorResponse(404, "missing"),
        ]
        for message in messages:
            decoded = decode_frame(encode_frame(message))
            assert type(decoded) is type(message)
            assert decoded.type == message.type

    def test_inference_request_carries_features(self):
        rng = np.random.default_rng(1)
        features = rng.standard_normal((1, 3, 5, 5)).astype(np.float32)
        request = BatchInferenceRequest.from_features(1, [0], "fp16", features)
        decoded = decode_frame(encode_frame(request))
        np.testing.assert_allclose(decoded.features(), features, atol=5e-3)

    def test_bad_magic_rejected(self):
        frame = bytearray(encode_frame(ModelRequest("x")))
        frame[0] = ord("X")
        with pytest.raises(ProtocolError):
            decode_frame(bytes(frame))

    def test_bad_version_rejected(self):
        frame = bytearray(encode_frame(ModelRequest("x")))
        frame[4] = PROTOCOL_VERSION + 1
        with pytest.raises(ProtocolError):
            decode_frame(bytes(frame))

    def test_length_mismatch_rejected(self):
        frame = encode_frame(ModelRequest("x"))
        with pytest.raises(ProtocolError):
            decode_frame(frame + b"extra")

    def test_truncated_frame_rejected(self):
        with pytest.raises(ProtocolError):
            decode_frame(b"LC")

    def test_unknown_type_rejected(self):
        frame = bytearray(encode_frame(ModelRequest("x")))
        frame[5] = 99
        with pytest.raises(ProtocolError):
            decode_frame(bytes(frame))


class TestRetiredMessageTypes:
    """Types 1 and 2 were the single-sample request/response; a miss of
    one sample is now a batch of one.  Their numbers stay reserved and
    decode as unknown types."""

    @staticmethod
    def _retired_frame(mtype: int) -> bytes:
        frame = bytearray(encode_frame(ModelRequest("x")))
        frame[5] = mtype
        return bytes(frame)

    @pytest.mark.parametrize("mtype", [1, 2])
    def test_numbers_stay_reserved(self, mtype):
        assert mtype not in {int(t) for t in MessageType}

    @pytest.mark.parametrize("mtype", [1, 2])
    def test_decode_raises_unknown_type(self, mtype):
        with pytest.raises(ProtocolError, match=f"unknown message type {mtype}"):
            decode_frame(self._retired_frame(mtype))

    @pytest.mark.parametrize("mtype", [1, 2])
    def test_server_answers_400(self, mtype):
        server = EdgeProtocolServer(endpoint=None)
        response = decode_frame(server.handle(self._retired_frame(mtype)))
        assert isinstance(response, ErrorResponse)
        assert response.code == 400
        assert f"unknown message type {mtype}" in response.message


class TestBatchMessages:
    def test_batch_request_carries_feature_stack(self):
        rng = np.random.default_rng(2)
        stack = rng.standard_normal((4, 2, 3, 3)).astype(np.float32)
        request = BatchInferenceRequest.from_features(9, [1, 3, 4, 8], "fp32", stack)
        decoded = decode_frame(encode_frame(request))
        assert decoded.sequences == (1, 3, 4, 8)
        np.testing.assert_array_equal(decoded.features(), stack)

    def test_batch_request_sequence_count_must_match_stack(self):
        stack = np.zeros((3, 2, 3, 3), dtype=np.float32)
        with pytest.raises(ValueError):
            BatchInferenceRequest.from_features(9, [1, 2], "fp32", stack)

    def test_tampered_shape_rejected_on_decode(self):
        stack = np.zeros((2, 1, 2, 2), dtype=np.float32)
        request = BatchInferenceRequest.from_features(9, [0, 1], "fp32", stack)
        tampered = BatchInferenceRequest(
            session_id=request.session_id,
            sequences=(0, 1, 2),  # claims three samples, carries two
            codec=request.codec,
            feature_shape=request.feature_shape,
            payload=request.payload,
        )
        with pytest.raises(ProtocolError):
            decode_frame(encode_frame(tampered)).features()

    def test_batch_response_roundtrip(self):
        response = BatchInferenceResponse(5, (2, 9), (7, 0), (0.25, 0.5))
        decoded = decode_frame(encode_frame(response))
        assert decoded.sequences == (2, 9)
        assert decoded.class_ids == (7, 0)
        assert decoded.confidences == pytest.approx((0.25, 0.5))

    def test_batch_response_exact_size(self):
        body = BatchInferenceResponse(1, (0,), (3,), (0.5,)).pack()
        with pytest.raises(ProtocolError):
            BatchInferenceResponse.unpack(body + b"\x00")

    def test_batch_response_field_lengths_must_agree(self):
        with pytest.raises(ProtocolError):
            BatchInferenceResponse(1, (0, 1), (3,), (0.5,)).pack()


class TestEdgeProtocolServer:
    @pytest.fixture
    def server(self, trained_system):
        from repro.runtime import EdgeEndpoint

        endpoint = EdgeEndpoint(trained_system.model.main_trunk)
        return EdgeProtocolServer(endpoint, bundles={"lenet": b"BUNDLE"})

    def test_inference_over_the_wire(self, server, trained_system, tiny_mnist):
        from repro.nn.autograd import Tensor, no_grad

        _, test = tiny_mnist
        model = trained_system.model
        model.eval()
        with no_grad():
            features = model.forward_features(Tensor(test.images[:1])).data

        request = BatchInferenceRequest.from_features(11, [0], "fp32", features)
        response = decode_frame(server.handle(encode_frame(request)))
        assert isinstance(response, BatchInferenceResponse)
        assert response.session_id == 11
        assert response.sequences == (0,)

        with no_grad():
            expected = model.main_trunk(Tensor(features)).data.argmax(axis=1)[0]
        assert response.class_ids == (int(expected),)
        assert 0.0 <= response.confidences[0] <= 1.0

    def test_quantized_request_agrees(self, server, trained_system, tiny_mnist):
        from repro.nn.autograd import Tensor, no_grad

        _, test = tiny_mnist
        model = trained_system.model
        model.eval()
        with no_grad():
            features = model.forward_features(Tensor(test.images[:1])).data
        fp32 = decode_frame(
            server.handle(
                encode_frame(BatchInferenceRequest.from_features(1, [0], "fp32", features))
            )
        )
        int8 = decode_frame(
            server.handle(
                encode_frame(BatchInferenceRequest.from_features(1, [1], "int8", features))
            )
        )
        assert fp32.class_ids == int8.class_ids

    def test_model_fetch(self, server):
        response = decode_frame(server.handle(encode_frame(ModelRequest("lenet"))))
        assert isinstance(response, ModelResponse)
        assert response.payload == b"BUNDLE"

    def test_missing_bundle_404(self, server):
        response = decode_frame(server.handle(encode_frame(ModelRequest("vgg"))))
        assert isinstance(response, ErrorResponse)
        assert response.code == 404

    def test_corrupt_frame_400(self, server):
        response = decode_frame(server.handle(b"garbage frame"))
        assert isinstance(response, ErrorResponse)
        assert response.code == 400

    def test_unservable_message_405(self, server):
        response = decode_frame(
            server.handle(encode_frame(BatchInferenceResponse(1, (2,), (3,), (0.4,))))
        )
        assert isinstance(response, ErrorResponse)
        assert response.code == 405

    def test_batch_inference_over_the_wire(self, server, trained_system, tiny_mnist):
        """A batched request returns one answer per sequence id, each
        equal to the trunk's argmax for that sample."""
        from repro.nn.autograd import Tensor, no_grad

        _, test = tiny_mnist
        model = trained_system.model
        model.eval()
        with no_grad():
            features = model.forward_features(Tensor(test.images[:5])).data

        request = BatchInferenceRequest.from_features(
            13, [10, 11, 12, 13, 14], "fp32", features
        )
        response = decode_frame(server.handle(encode_frame(request)))
        assert isinstance(response, BatchInferenceResponse)
        assert response.session_id == 13
        assert response.sequences == (10, 11, 12, 13, 14)

        with no_grad():
            expected = model.main_trunk(Tensor(features)).data.argmax(axis=1)
        assert response.class_ids == tuple(int(c) for c in expected)
        assert all(0.0 <= c <= 1.0 for c in response.confidences)

    def test_batch_unknown_codec_422(self, server):
        request = BatchInferenceRequest(
            session_id=1, sequences=(0, 1), codec="jpeg",
            feature_shape=(2, 6, 14, 14), payload=b"\x00" * 10,
        )
        response = decode_frame(server.handle(encode_frame(request)))
        assert isinstance(response, ErrorResponse)
        assert response.code == 422

    def test_batch_shape_mismatch_422(self, server):
        stack = np.zeros((2, 6, 14, 14), dtype=np.float32)
        good = BatchInferenceRequest.from_features(1, [0, 1], "fp32", stack)
        bad = BatchInferenceRequest(
            session_id=1, sequences=(0, 1, 2), codec="fp32",
            feature_shape=good.feature_shape, payload=good.payload,
        )
        response = decode_frame(server.handle(encode_frame(bad)))
        assert isinstance(response, ErrorResponse)
        assert response.code == 422

    def test_batch_endpoint_failure_500(self, server):
        """A decodable frame whose features blow up inside the endpoint
        must come back as a structured 500, not an unhandled exception."""
        wrong_shape = np.zeros((2, 3, 5, 5), dtype=np.float32)
        response = decode_frame(
            server.handle(
                encode_frame(
                    BatchInferenceRequest.from_features(1, [0, 1], "fp32", wrong_shape)
                )
            )
        )
        assert isinstance(response, ErrorResponse)
        assert response.code == 500
        assert "batch inference failed" in response.message
