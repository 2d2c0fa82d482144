"""The miss path's wire bytes and reply bits, pinned against references.

A ``BatchInferenceRequest`` frame must stay ``json.dumps(meta)`` with
the payload behind it, however the frame is assembled, and
:func:`reply_fields` must give the bits of a whole-row softmax read at
``probs[i, c]``.  The decoder must accept any valid JSON layout of the
header and any bytes-like frame, must refuse ids the reply cannot carry,
and a miss must cost a fixed number of frame encodes and decodes.
"""

from __future__ import annotations

import json
import struct

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from repro.runtime import (
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
from repro.runtime import fleet, protocol, scheduler, session
from repro.runtime.feature_codec import FEATURE_CODECS
from repro.runtime.protocol import (
    BatchInferenceRequest,
    BatchInferenceResponse,
    EdgeProtocolServer,
    ErrorResponse,
    ModelRequest,
    ModelResponse,
    ProtocolError,
    SchedulerAck,
    decode_frame,
    encode_frame,
    reply_fields,
)


def reference_pack(request: BatchInferenceRequest) -> bytes:
    """The request body as ``json.dumps`` of a header dict lays it out."""
    meta: dict[str, object] = {
        "session_id": request.session_id,
        "sequences": list(request.sequences),
        "codec": request.codec,
        "shape": list(request.feature_shape),
    }
    if request.trace_id:
        meta["trace_id"] = request.trace_id
    header = json.dumps(meta).encode("utf-8")
    return struct.pack("<I", len(header)) + header + request.payload


def reference_reply(logits: np.ndarray) -> tuple[tuple, tuple]:
    """Whole-row softmax, then one confidence read per row."""
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    class_ids = logits.argmax(axis=1)
    return (
        tuple(int(c) for c in class_ids),
        tuple(float(probs[i, c]) for i, c in enumerate(class_ids)),
    )


def _bits(values) -> list[int]:
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


#: Strings whose JSON escaping is easy to get wrong.
_NASTY = '"\\/\x00\x01\x1f\x7fé 中\U0001f600'
trace_ids = st.one_of(
    st.just(""),
    st.text(max_size=24),
    st.text(alphabet=_NASTY + "ab", max_size=24),
)


class TestRequestBytes:
    @given(
        session_id=st.integers(0, 2**63),
        sequences=st.lists(st.integers(0, 2**63), max_size=64),
        shape=st.lists(st.integers(0, 10**6), min_size=1, max_size=4),
        codec=st.sampled_from(sorted(FEATURE_CODECS)),
        trace_id=trace_ids,
        payload=st.binary(max_size=16),
    )
    @example(
        session_id=0, sequences=[], shape=[0], codec="fp32", trace_id="", payload=b""
    )
    @example(
        session_id=2**63,
        sequences=[2**63],
        shape=[1, 6, 14, 14],
        codec="int8",
        trace_id='a"b\\c\x00é\U0001f600',
        payload=b"\x00",
    )
    def test_pack_matches_json_dumps(
        self, session_id, sequences, shape, codec, trace_id, payload
    ):
        request = BatchInferenceRequest(
            session_id=session_id,
            sequences=tuple(sequences),
            codec=codec,
            feature_shape=tuple(shape),
            payload=payload,
            trace_id=trace_id,
        )
        body = reference_pack(request)
        assert request.pack() == body
        assert encode_frame(request)[10:] == body
        assert decode_frame(encode_frame(request)) == request


def _frame_with_header(meta_text: str, payload: bytes) -> bytes:
    header = meta_text.encode("utf-8")
    body = struct.pack("<I", len(header)) + header + payload
    return struct.pack("<4sBBI", b"LCRP", 1, 6, len(body)) + body


class TestDecoderAcceptsAnyLayout:
    META = {
        "session_id": 7,
        "sequences": [3, 4],
        "codec": "fp16",
        "shape": [2, 1, 1, 1],
        "trace_id": "t-1",
    }

    @pytest.mark.parametrize(
        "dumps",
        [
            lambda m: json.dumps(m),
            lambda m: json.dumps(m, sort_keys=True),
            lambda m: json.dumps(dict(reversed(list(m.items())))),
            lambda m: json.dumps(m, separators=(",", ":")),
            lambda m: json.dumps(m, indent=2),
            lambda m: json.dumps(m, ensure_ascii=False),
            lambda m: " " + json.dumps(m) + "\n",
        ],
    )
    def test_key_order_and_separators(self, dumps):
        payload = np.zeros(2, dtype=np.float16).tobytes()
        message = decode_frame(_frame_with_header(dumps(self.META), payload))
        assert message == BatchInferenceRequest(
            session_id=7,
            sequences=(3, 4),
            codec="fp16",
            feature_shape=(2, 1, 1, 1),
            payload=payload,
            trace_id="t-1",
        )
        assert message.features().shape == (2, 1, 1, 1)

    @pytest.mark.parametrize("field", ["session_id", "sequences", "shape"])
    @pytest.mark.parametrize("value", ["Infinity", "-Infinity", "NaN"])
    def test_non_finite_numbers_are_protocol_errors(self, field, value):
        """``json.loads`` reads these as floats that ``int`` cannot take;
        the frame is malformed, and the server answers 400."""
        meta = dict(self.META)
        meta[field] = "@"
        if field != "session_id":
            meta[field] = ["@"] * (2 if field == "sequences" else 4)
        text = json.dumps(meta).replace('"@"', value)
        frame = _frame_with_header(text, np.zeros(2, dtype=np.float16).tobytes())
        with pytest.raises(ProtocolError, match="header fields"):
            decode_frame(frame)
        reply = decode_frame(EdgeProtocolServer(endpoint=None).handle(frame))
        assert isinstance(reply, ErrorResponse) and reply.code == 400

    MESSAGES = [
        BatchInferenceRequest.from_features(
            3, (5, 6), "fp32", np.arange(8, dtype=np.float32).reshape(2, 1, 2, 2),
            trace_id="x",
        ),
        BatchInferenceResponse(3, (5, 6), (1, 2), (0.5, 0.25)),
        BatchInferenceResponse(3, (), (), ()),
        SchedulerAck(session_id=3, ticket=9, queued_samples=4),
        ModelRequest("lenet"),
        ModelResponse("lenet", b"\x01\x02\x03"),
        ErrorResponse(503, "queue full é"),
    ]

    @pytest.mark.parametrize("message", MESSAGES, ids=lambda m: type(m).__name__)
    def test_bytearray_and_memoryview_frames(self, message):
        frame = encode_frame(message)
        padded = b"junk" + frame + b"tail"
        for view in (
            bytearray(frame),
            memoryview(frame),
            memoryview(bytearray(frame)),
            memoryview(padded)[4 : 4 + len(frame)],
        ):
            decoded = decode_frame(view)
            assert decoded == message
            for value in vars(decoded).values():
                # Nothing the decoder hands back aliases the frame.
                assert not isinstance(value, (memoryview, bytearray))

    def test_decoded_payload_survives_a_reused_buffer(self):
        message = self.MESSAGES[0]
        buffer = bytearray(encode_frame(message))
        decoded = decode_frame(buffer)
        # Resizing fails while any view of the buffer is still exported.
        buffer.clear()
        assert decoded == message


class TestReplyBits:
    def _check(self, logits):
        try:
            expected = reference_reply(logits)
        except Exception as exc:
            with pytest.raises(type(exc)):
                reply_fields(logits)
            return
        class_ids, confidences = reply_fields(logits)
        assert isinstance(class_ids, list) and isinstance(confidences, list)
        assert tuple(class_ids) == expected[0]
        assert all(type(c) is int for c in class_ids)
        assert _bits(confidences) == _bits(expected[1])

    @given(
        rows=st.integers(1, 40),
        classes=st.integers(1, 12),
        scale=st.sampled_from([1e-3, 1.0, 30.0, 1e4]),
        dtype=st.sampled_from([np.float32, np.float64]),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_random_logits(self, rows, classes, scale, dtype, seed):
        rng = np.random.default_rng(seed)
        self._check((rng.standard_normal((rows, classes)) * scale).astype(dtype))

    def test_tied_maxima(self):
        logits = np.array(
            [[1.0, 1.0, 0.0], [0.0, 2.0, 2.0], [5.0, 5.0, 5.0], [0.0, 0.0, 0.0]],
            dtype=np.float32,
        )
        self._check(logits)
        assert reply_fields(logits)[0] == [0, 1, 0, 0]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_large_magnitudes(self, dtype):
        big = float(np.finfo(dtype).max) / 2
        logits = np.array(
            [[big, -big, 0.0], [-big, -big, -big], [1e30, 1e30 - 1e24, -1e30]],
            dtype=dtype,
        )
        self._check(logits)

    @pytest.mark.parametrize("shape", [(1, 10), (1, 1), (0, 10), (0, 0), (3, 0)])
    def test_edge_shapes(self, shape):
        """One row, no rows, no classes: the same reply or the same error."""
        rng = np.random.default_rng(0)
        self._check(rng.standard_normal(shape).astype(np.float32))

    def test_server_reply_carries_the_reference_bits(self):
        logits = np.random.default_rng(4).standard_normal((5, 10)).astype(np.float32)

        class Endpoint:
            def infer(self, features):
                return logits[: len(features)]

        request = BatchInferenceRequest.from_features(
            1, range(5), "fp32", np.zeros((5, 1, 2, 2), dtype=np.float32)
        )
        server = EdgeProtocolServer(Endpoint())
        reply = decode_frame(server.handle(encode_frame(request)))
        class_ids, confidences = reference_reply(logits)
        assert reply.class_ids == class_ids
        # The wire carries float32; the reference rounds the same way.
        assert _bits(reply.confidences) == _bits(np.float32(confidences).tolist())


class _Trunk:
    def __init__(self):
        self.calls = 0

    def infer(self, features):
        self.calls += 1
        return np.zeros((len(features), 3), dtype=np.float32)


def _request_frame(session_id, sequences) -> bytes:
    features = np.zeros((len(sequences), 1, 1, 1), dtype=np.float32)
    return encode_frame(
        BatchInferenceRequest.from_features(session_id, sequences, "fp32", features)
    )


#: Ids the reply's ``u64`` columns cannot carry, and the ones at the edges.
_BAD_IDS = [(-1, (0,)), (2**64, (0,)), (0, (1, -1)), (0, (2**64,))]
_EDGE_IDS = [(0, (0,)), (2**64 - 1, (2**64 - 1,))]


class TestRequestIds:
    """A request whose ids the reply cannot carry is malformed at decode
    time, on the direct and the scheduled path alike."""

    @pytest.mark.parametrize("session_id,sequences", _BAD_IDS)
    def test_out_of_range_ids_are_refused_with_400(self, session_id, sequences):
        frame = _request_frame(session_id, sequences)
        with pytest.raises(ProtocolError, match="u64"):
            decode_frame(frame)
        trunk = _Trunk()
        reply = decode_frame(EdgeProtocolServer(trunk).handle(frame))
        assert isinstance(reply, ErrorResponse) and reply.code == 400
        assert trunk.calls == 0

    @pytest.mark.parametrize("session_id,sequences", _EDGE_IDS)
    def test_ids_at_the_u64_edges_are_served(self, session_id, sequences):
        reply = decode_frame(
            EdgeProtocolServer(_Trunk()).handle(_request_frame(session_id, sequences))
        )
        assert isinstance(reply, BatchInferenceResponse)
        assert (reply.session_id, reply.sequences) == (session_id, sequences)

    def test_scheduler_refuses_a_negative_session_and_serves_the_rest(self):
        edge = EdgeScheduler(
            _Trunk(), ServiceTimeModel(base_ms=1.0, per_sample_ms=0.5), SchedulerConfig()
        )
        refused = decode_frame(edge.submit(_request_frame(-1, (0,)), 0.0))
        assert isinstance(refused, ErrorResponse) and refused.code == 400
        assert edge.queued_samples() == 0
        ack = decode_frame(edge.submit(_request_frame(4, (0, 1)), 0.0))
        assert isinstance(ack, SchedulerAck)
        assert edge.flush() == [ack.ticket]
        reply = decode_frame(edge.collect(ack.ticket)[0])
        assert isinstance(reply, BatchInferenceResponse)
        assert reply.sequences == (0, 1)


@pytest.fixture
def frame_calls(monkeypatch):
    """Count every frame encode and decode on the request path."""
    calls = {"encode": 0, "decode": 0}

    def counting(kind, fn):
        def wrapped(*args, **kwargs):
            calls[kind] += 1
            return fn(*args, **kwargs)

        return wrapped

    encode, decode = protocol.encode_frame, protocol.decode_frame
    for module in (session, scheduler, fleet, protocol):
        monkeypatch.setattr(module, "encode_frame", counting("encode", encode))
        monkeypatch.setattr(module, "decode_frame", counting("decode", decode))
    return calls


class TestFrameCount:
    """Every miss costs a fixed number of frame passes."""

    def test_four_per_miss_chunk_on_direct_serving(
        self, trained_system, tiny_mnist, frame_calls
    ):
        _, test = tiny_mnist
        deployment = LCRSDeployment(trained_system, four_g(seed=5).deterministic())
        result = deployment.run_session(
            test.images[:24], config=SessionConfig(batch_size=4, threshold=0.0)
        )
        assert not any(o.exited_locally for o in result.outcomes)
        chunks = 24 // 4
        # Request out, decoded by the server; reply out, decoded by the
        # session.
        assert frame_calls == {"encode": 2 * chunks, "decode": 2 * chunks}

    def test_six_per_miss_on_the_scheduled_path(
        self, trained_system, tiny_mnist, frame_calls
    ):
        _, test = tiny_mnist
        deployments = [
            LCRSDeployment(trained_system, four_g(seed=20 + i).deterministic())
            for i in range(3)
        ]
        edge = EdgeScheduler.for_system(
            trained_system, config=SchedulerConfig(window_ms=4.0)
        )
        results = run_concurrent_sessions(
            deployments,
            [test.images[:12]] * 3,
            edge,
            config=SessionConfig(batch_size=4, threshold=0.0),
        )
        assert all(o.served_by == "edge" for r in results for o in r.outcomes)
        misses = 3 * (12 // 4)
        # Request, ack and reply: each encoded once and decoded once.
        assert frame_calls == {"encode": 3 * misses, "decode": 3 * misses}

    def test_eight_per_miss_through_the_fleet(
        self, trained_system, tiny_mnist, frame_calls
    ):
        _, test = tiny_mnist
        deployments = [
            LCRSDeployment(trained_system, four_g(seed=30 + i).deterministic())
            for i in range(3)
        ]
        router = FleetRouter.for_system(
            trained_system,
            FleetConfig(num_shards=2, scheduler=SchedulerConfig(window_ms=4.0)),
        )
        results = run_concurrent_sessions(
            deployments,
            [test.images[:12]] * 3,
            router,
            config=SessionConfig(batch_size=4, threshold=0.0),
        )
        assert all(o.served_by == "edge" for r in results for o in r.outcomes)
        misses = 3 * (12 // 4)
        # The router reads only the request's header, so the shard's
        # decode is its one full decode.  The ack is decoded by the
        # router and re-encoded with the fleet's ticket.
        assert frame_calls == {"encode": 4 * misses, "decode": 4 * misses}
