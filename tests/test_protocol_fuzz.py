"""Protocol fuzzing: corrupted bytes must fail structured, never crash.

Every frame type gets the same treatment: exhaustive single-byte
corruptions (three XOR patterns at every offset), every possible
truncation, trailing garbage, and seeded multi-byte shotgun corruption.
The contract under fuzz:

* :func:`decode_frame` either raises :class:`ProtocolError` or returns a
  well-formed message — never any other exception, never a hang;
* ``features()`` on a decoded request either returns an array or raises
  a structured :class:`ProtocolError`/:class:`CodecError`;
* :meth:`EdgeProtocolServer.handle` *never* raises: every input maps to
  an encoded reply frame that itself decodes cleanly;
* size checks precede allocation — a frame claiming a huge payload is
  rejected by arithmetic, not by attempting the allocation.
"""

import numpy as np
import pytest

from repro.runtime.feature_codec import CodecError
from repro.runtime.protocol import (
    BatchInferenceRequest,
    BatchInferenceResponse,
    EdgeProtocolServer,
    ErrorResponse,
    MessageType,
    ModelRequest,
    ModelResponse,
    ProtocolError,
    SchedulerAck,
    decode_frame,
    encode_frame,
    peek_session,
)

SEED = 1337
#: XOR patterns: low bit, high bit, full byte — distinct corruption modes.
PATTERNS = (0x01, 0x80, 0xFF)


def _features(n):
    return np.linspace(-1.0, 1.0, n * 3 * 4 * 4, dtype=np.float32).reshape(
        n, 3, 4, 4
    )


def exemplar_frames() -> dict[str, bytes]:
    """One well-formed encoded frame per message type (and per codec)."""
    feats = _features(2)
    return {
        "inference_request_fp32": encode_frame(
            BatchInferenceRequest.from_features(1, (7,), "fp32", feats[:1])
        ),
        "inference_request_int8": encode_frame(
            BatchInferenceRequest.from_features(1, (8,), "int8", feats[:1])
        ),
        "inference_response": encode_frame(
            BatchInferenceResponse(
                session_id=1, sequences=(7,), class_ids=(3,), confidences=(0.9,)
            )
        ),
        "batch_request_fp16": encode_frame(
            BatchInferenceRequest.from_features(2, (0, 1), "fp16", feats)
        ),
        "batch_request_int8": encode_frame(
            BatchInferenceRequest.from_features(2, (4, 5), "int8", feats)
        ),
        "batch_response": encode_frame(
            BatchInferenceResponse(
                session_id=2,
                sequences=(0, 1),
                class_ids=(3, 4),
                confidences=(0.5, 0.25),
            )
        ),
        "model_request": encode_frame(ModelRequest("lenet")),
        "model_response": encode_frame(
            ModelResponse(bundle_name="lenet", payload=b"\x00\x7f" * 16)
        ),
        "error": encode_frame(ErrorResponse(code=503, message="queue full")),
        "scheduler_ack": encode_frame(
            SchedulerAck(session_id=2, ticket=9, queued_samples=12)
        ),
    }


def _decode_or_protocol_error(frame: bytes):
    """The fuzz contract for the decoder; returns the message or None."""
    try:
        message = decode_frame(frame)
    except ProtocolError:
        return None
    except Exception as exc:  # pragma: no cover - the bug being hunted
        raise AssertionError(
            f"decode_frame leaked {type(exc).__name__}: {exc!r}"
        ) from exc
    if isinstance(message, BatchInferenceRequest):
        try:
            features = message.features()
        except (ProtocolError, CodecError):
            return message
        except Exception as exc:  # pragma: no cover
            raise AssertionError(
                f"features() leaked {type(exc).__name__}: {exc!r}"
            ) from exc
        assert isinstance(features, np.ndarray)
    return message


@pytest.mark.parametrize("name,frame", sorted(exemplar_frames().items()))
class TestFrameCorruption:
    def test_exemplar_is_well_formed(self, name, frame):
        assert decode_frame(frame) is not None

    def test_every_single_byte_corruption(self, name, frame):
        for offset in range(len(frame)):
            for pattern in PATTERNS:
                corrupted = bytearray(frame)
                corrupted[offset] ^= pattern
                _decode_or_protocol_error(bytes(corrupted))

    def test_every_truncation_rejected(self, name, frame):
        """A truncated frame can never decode: the header's length field
        no longer matches the body."""
        for k in range(len(frame)):
            with pytest.raises(ProtocolError):
                decode_frame(frame[:k])

    def test_trailing_garbage_rejected(self, name, frame):
        with pytest.raises(ProtocolError):
            decode_frame(frame + b"\x00")
        with pytest.raises(ProtocolError):
            decode_frame(frame + frame)

    def test_shotgun_corruption(self, name, frame):
        """Seeded multi-byte corruption: flip 1–16 random bytes at once."""
        rng = np.random.default_rng(SEED)
        for _ in range(200):
            corrupted = bytearray(frame)
            for offset in rng.integers(0, len(frame), rng.integers(1, 17)):
                corrupted[offset] = int(rng.integers(0, 256))
            _decode_or_protocol_error(bytes(corrupted))


def _peek_matches_decode(frame: bytes) -> None:
    """A router's header read refuses exactly the frames the decoder
    refuses, and reads the session id the decoder would."""
    try:
        message = decode_frame(frame)
    except ProtocolError:
        with pytest.raises(ProtocolError):
            peek_session(frame)
        return
    session_id = (
        message.session_id if isinstance(message, BatchInferenceRequest) else None
    )
    assert peek_session(frame) == (type(message), session_id)


@pytest.mark.parametrize("name,frame", sorted(exemplar_frames().items()))
class TestPeekSession:
    """The fleet routes on :func:`peek_session`, so its accept/refuse
    decision must be the decoder's under every corruption."""

    def test_exemplar(self, name, frame):
        _peek_matches_decode(frame)

    def test_every_single_byte_corruption(self, name, frame):
        for offset in range(len(frame)):
            for pattern in PATTERNS:
                corrupted = bytearray(frame)
                corrupted[offset] ^= pattern
                _peek_matches_decode(bytes(corrupted))

    def test_every_truncation(self, name, frame):
        for k in range(len(frame)):
            _peek_matches_decode(frame[:k])


class TestDecoderHardening:
    def test_empty_and_tiny_frames(self):
        for frame in (b"", b"L", b"LCRP", b"LCRP\x01\x01"):
            with pytest.raises(ProtocolError):
                decode_frame(frame)

    def test_unknown_message_type(self):
        frame = bytearray(encode_frame(ModelRequest("x")))
        frame[5] = 0xEE  # type byte
        with pytest.raises(ProtocolError, match="unknown message type"):
            decode_frame(bytes(frame))

    def test_wrong_version(self):
        frame = bytearray(encode_frame(ModelRequest("x")))
        frame[4] = 99
        with pytest.raises(ProtocolError, match="version"):
            decode_frame(bytes(frame))

    def test_huge_claimed_length_is_rejected_by_arithmetic(self):
        """A header claiming 4 GiB of payload fails the length check —
        no allocation is ever attempted for the missing bytes."""
        import struct

        frame = struct.pack(
            "<4sBBI", b"LCRP", 1, int(MessageType.MODEL_REQUEST), 0xFFFFFFFF
        )
        with pytest.raises(ProtocolError, match="length mismatch"):
            decode_frame(frame)

    def test_batch_header_sequence_shape_mismatch_is_structured(self):
        good = BatchInferenceRequest.from_features(1, (0, 1), "fp32", _features(2))
        lying = BatchInferenceRequest(
            session_id=good.session_id,
            sequences=(0, 1, 2),
            codec=good.codec,
            feature_shape=good.feature_shape,
            payload=good.payload,
        )
        with pytest.raises(ProtocolError, match="sequences"):
            decode_frame(encode_frame(lying)).features()

    def test_bad_int8_header_is_codec_error(self):
        request = BatchInferenceRequest.from_features(
            1, (0, 1), "int8", _features(2)
        )
        corrupt = bytearray(request.payload)
        corrupt[4:8] = b"\x00\x00\x00\x00"  # scale := 0.0
        lying = BatchInferenceRequest(
            session_id=1,
            sequences=request.sequences,
            codec="int8",
            feature_shape=request.feature_shape,
            payload=bytes(corrupt),
        )
        with pytest.raises(CodecError, match="bad int8 header"):
            decode_frame(encode_frame(lying)).features()


class _StubEndpoint:
    def infer(self, features):
        flat = features.reshape(len(features), -1)
        logits = np.zeros((len(flat), 10), dtype=np.float32)
        if flat.size:
            logits[:, 0] = flat[:, 0]
        return logits


class TestServerNeverRaises:
    @pytest.fixture()
    def server(self):
        return EdgeProtocolServer(_StubEndpoint(), bundles={"lenet": b"\x01" * 32})

    @pytest.mark.parametrize("name,frame", sorted(exemplar_frames().items()))
    def test_single_byte_corruptions_get_replies(self, name, server, frame):
        for offset in range(0, len(frame), 3):
            corrupted = bytearray(frame)
            corrupted[offset] ^= 0xFF
            reply = server.handle(bytes(corrupted))
            assert isinstance(reply, bytes)
            assert decode_frame(reply) is not None  # reply itself well-formed

    @pytest.mark.parametrize("name,frame", sorted(exemplar_frames().items()))
    def test_truncations_get_400s(self, name, server, frame):
        for k in range(0, len(frame), 5):
            reply = decode_frame(server.handle(frame[:k]))
            assert isinstance(reply, ErrorResponse)
            assert reply.code == 400

    def test_shotgun_corruption_never_raises(self, server):
        rng = np.random.default_rng(SEED + 1)
        frames = list(exemplar_frames().values())
        for _ in range(300):
            frame = bytearray(frames[int(rng.integers(0, len(frames)))])
            for offset in rng.integers(0, len(frame), rng.integers(1, 9)):
                frame[offset] = int(rng.integers(0, 256))
            reply = server.handle(bytes(frame))
            assert decode_frame(reply) is not None

    def test_pure_noise_never_raises(self, server):
        rng = np.random.default_rng(SEED + 2)
        for _ in range(200):
            noise = rng.integers(0, 256, int(rng.integers(0, 64)), dtype=np.uint8)
            reply = decode_frame(server.handle(noise.tobytes()))
            assert isinstance(reply, ErrorResponse)
