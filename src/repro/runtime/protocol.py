"""Byte-level browser↔edge message protocol.

The paper's library exchanges intermediate results over HTTP/WebSocket;
this module pins down the wire contract so the collaboration boundary is
byte-realistic: every message is a framed, versioned, self-describing
blob that either side can encode/decode without sharing Python objects.

Frame layout (little endian)::

    magic   b"LCRP"
    version u8
    type    u8           (MessageType)
    length  u32          payload bytes
    payload type-specific (see each message's pack/unpack)

Messages:

* ``BatchInferenceRequest`` — browser → edge: the conv1 features of a
  processing batch's uncertain samples (through a
  :mod:`feature codec <repro.runtime.feature_codec>`), all in one frame
  (one header, one payload, one round trip), with the session id and
  per-sample sequence ids for correlation.  A single miss is a batch of
  one.
* ``BatchInferenceResponse`` — edge → browser: one class id and
  confidence per sample, keyed by sequence id.
* ``ModelRequest`` / ``ModelResponse`` — bundle fetch at page load.
* ``ErrorResponse``     — structured failure (unknown codec, bad shape);
  the shared edge scheduler also uses it for overload shedding (503).
* ``SchedulerAck``      — edge → browser: a batched miss request was
  admitted to the shared scheduler queue; the correlated
  ``BatchInferenceResponse`` follows once its dynamic batch executes.
  It keeps its own encode/decode pair even in process (about 3 µs per
  miss): it is part of the wire contract, and the fleet renumbers its
  ticket on the way through.

Wire cost rules, which keep the miss path cheap without changing a byte:

* **One copy each way.**  A message is packed as a tuple of parts that
  :func:`encode_frame` joins once behind the frame header, so a payload
  is copied once into the frame.  :func:`decode_frame` reads through a
  ``memoryview`` of the frame (``bytes``, ``bytearray`` or
  ``memoryview``), and every ``unpack`` copies its payload at most once.
* **One reply helper.**  :func:`reply_fields` turns a batch of trunk
  logits into the class ids and confidences of a
  ``BatchInferenceResponse``, for the protocol server and the shared
  scheduler alike.
* **Route on the header.**  :func:`peek_session` reads a request's
  session id with the same checks as :func:`decode_frame`, so a fleet
  router places a request without decoding it, and the shard's decode
  is the only full one.
"""

from __future__ import annotations

import enum
import json
import struct
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .feature_codec import FEATURE_CODECS, get_codec

MAGIC = b"LCRP"
PROTOCOL_VERSION = 1
_HEADER = struct.Struct("<4sBBI")
_U32 = struct.Struct("<I")


class ProtocolError(ValueError):
    """Raised on malformed frames."""


class MessageType(enum.IntEnum):
    # 1 and 2 are reserved: they were the retired single-sample
    # inference request/response, and decode as unknown types.
    MODEL_REQUEST = 3
    MODEL_RESPONSE = 4
    ERROR = 5
    BATCH_INFERENCE_REQUEST = 6
    BATCH_INFERENCE_RESPONSE = 7
    SCHEDULER_ACK = 8


class _Packed:
    """A message whose body is a tuple of parts (``_parts``), which
    :func:`encode_frame` joins once behind the frame header."""

    def pack(self) -> bytes:
        """The message body on its own."""
        return b"".join(self._parts())


@dataclass(frozen=True)
class BatchInferenceRequest(_Packed):
    """Browser → edge: classify this stack of conv1 feature maps.

    The payload carries one codec-encoded ``(M, C, H, W)`` tensor — the
    miss-path samples of a processing batch — so M collaborative samples
    cost one frame and one round trip instead of M.

    ``trace_id`` correlates the request with the submitting session's
    trace (see :mod:`repro.observability.tracing`); it rides in the JSON
    header only when set, so untraced frames are byte-identical to the
    pre-tracing wire format and old decoders remain compatible.

    The header is ``json.dumps`` of its fields with the default
    separators; the decoder uses ``json.loads``, so it accepts any valid
    JSON layout.  The session id and every sequence id must fit the
    reply's ``u64`` columns: ``unpack`` rejects any other as malformed,
    so an unanswerable request is refused before it is served or queued.
    """

    session_id: int
    sequences: tuple[int, ...]
    codec: str
    feature_shape: tuple[int, ...]
    payload: bytes
    trace_id: str = ""

    type = MessageType.BATCH_INFERENCE_REQUEST

    def _parts(self) -> tuple:
        meta: dict[str, object] = {
            "session_id": self.session_id,
            "sequences": list(self.sequences),
            "codec": self.codec,
            "shape": list(self.feature_shape),
        }
        if self.trace_id:
            meta["trace_id"] = self.trace_id
        header = json.dumps(meta).encode("utf-8")
        return (_U32.pack(len(header)), header, self.payload)

    @staticmethod
    def _header(body) -> tuple:
        """The checked header of a request body: ``(session_id, sequences,
        codec, feature_shape, trace_id, payload offset)``.

        Every check :meth:`unpack` makes is made here, so a frame whose
        header passes is one that decodes.
        """
        if len(body) < 4:
            raise ProtocolError("truncated batch inference request")
        (hlen,) = _U32.unpack_from(body)
        end = 4 + hlen
        if len(body) < end:
            raise ProtocolError("truncated batch inference request header")
        try:
            meta = json.loads(str(body[4:end], "utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(f"bad batch request header: {exc}") from exc
        try:
            session_id = int(meta["session_id"])
            sequences = tuple(map(int, meta["sequences"]))
            codec = str(meta["codec"])
            shape = tuple(map(int, meta["shape"]))
            trace_id = str(meta.get("trace_id", ""))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            # Valid JSON, wrong schema (missing/mistyped fields, or an
            # ``Infinity`` where an int belongs): still a malformed frame,
            # not a server crash.
            raise ProtocolError(f"bad batch request header fields: {exc!r}") from exc
        ids = (session_id, *sequences)
        if min(ids) < 0 or max(ids) >= 1 << 64:
            raise ProtocolError("batch request ids must fit in u64")
        return session_id, sequences, codec, shape, trace_id, end

    @classmethod
    def unpack(cls, body) -> "BatchInferenceRequest":
        session_id, sequences, codec, shape, trace_id, end = cls._header(body)
        return cls(session_id, sequences, codec, shape, bytes(body[end:]), trace_id)

    def features(self) -> np.ndarray:
        """Decode the carried feature stack through the named codec.

        The sequences/shape invariant is checked *before* decoding so a
        malformed header fails with this message, not a codec exception.
        """
        if len(self.feature_shape) < 1 or self.feature_shape[0] != len(self.sequences):
            raise ProtocolError(
                f"batch of {len(self.sequences)} sequences carries feature "
                f"stack of shape {self.feature_shape}"
            )
        return get_codec(self.codec).decode(self.payload, self.feature_shape)

    @classmethod
    def from_features(
        cls,
        session_id: int,
        sequences: "tuple[int, ...] | list[int]",
        codec_name: str,
        features: np.ndarray,
        trace_id: str = "",
    ) -> "BatchInferenceRequest":
        if features.ndim < 1 or features.shape[0] != len(sequences):
            raise ValueError(
                f"{len(sequences)} sequences but feature stack of shape "
                f"{features.shape}"
            )
        codec = get_codec(codec_name)
        return cls(
            session_id=session_id,
            sequences=tuple(map(int, sequences)),
            codec=codec_name,
            feature_shape=tuple(features.shape),
            payload=codec.encode(features),
            trace_id=trace_id,
        )


@dataclass(frozen=True)
class BatchInferenceResponse(_Packed):
    """Edge → browser: per-sample answers for one batched request.

    The body is the ``(session id, count)`` head, then three columns:
    sequences (``u64``), class ids (``i32``) and confidences (``f32``),
    each written and read by one ``struct`` format of ``count`` rows.
    """

    session_id: int
    sequences: tuple[int, ...]
    class_ids: tuple[int, ...]
    confidences: tuple[float, ...]

    type = MessageType.BATCH_INFERENCE_RESPONSE
    _HEAD = struct.Struct("<QI")

    def _parts(self) -> tuple:
        count = len(self.sequences)
        if len(self.class_ids) != count or len(self.confidences) != count:
            raise ProtocolError("batch response field lengths differ")
        return (
            struct.pack(
                "<QI%dQ%di%df" % (count, count, count),
                self.session_id,
                count,
                *self.sequences,
                *self.class_ids,
                *self.confidences,
            ),
        )

    @classmethod
    def unpack(cls, body) -> "BatchInferenceResponse":
        if len(body) < cls._HEAD.size:
            raise ProtocolError("truncated batch inference response")
        session_id, count = cls._HEAD.unpack_from(body)
        expected = cls._HEAD.size + count * (8 + 4 + 4)
        if len(body) != expected:
            raise ProtocolError(
                f"bad batch response size: expected {expected}B, got {len(body)}B"
            )
        rows = struct.unpack_from(
            "<%dQ%di%df" % (count, count, count), body, cls._HEAD.size
        )
        return cls(session_id, rows[:count], rows[count : 2 * count], rows[2 * count :])


@dataclass(frozen=True)
class SchedulerAck(_Packed):
    """Edge → browser: batched miss request admitted to the scheduler.

    The answer is *deferred*: the scheduler aggregates admitted requests
    from many sessions into one dynamic batch, so the ack only promises
    that a correlated :class:`BatchInferenceResponse` (same session id
    and sequences) will follow.  ``ticket`` identifies the queue entry —
    resubmitting the same request (at-least-once delivery) returns the
    same ticket.  ``queued_samples`` reports the queue depth at
    admission, for client-side observability.
    """

    session_id: int
    ticket: int
    queued_samples: int

    type = MessageType.SCHEDULER_ACK
    _BODY = struct.Struct("<QQI")

    def _parts(self) -> tuple:
        return (self._BODY.pack(self.session_id, self.ticket, self.queued_samples),)

    @classmethod
    def unpack(cls, body) -> "SchedulerAck":
        if len(body) != cls._BODY.size:
            raise ProtocolError("bad scheduler ack size")
        return cls(*cls._BODY.unpack(body))


@dataclass(frozen=True)
class ModelRequest(_Packed):
    """Browser → edge: fetch a named bundle (page-load path)."""

    bundle_name: str

    type = MessageType.MODEL_REQUEST

    def _parts(self) -> tuple:
        return (self.bundle_name.encode("utf-8"),)

    @classmethod
    def unpack(cls, body) -> "ModelRequest":
        try:
            return cls(bundle_name=str(body, "utf-8"))
        except UnicodeDecodeError as exc:
            raise ProtocolError("bad model request name") from exc


@dataclass(frozen=True)
class ModelResponse(_Packed):
    """Edge → browser: the requested ``.lcrs`` payload."""

    bundle_name: str
    payload: bytes

    type = MessageType.MODEL_RESPONSE

    def _parts(self) -> tuple:
        name = self.bundle_name.encode("utf-8")
        return (_U32.pack(len(name)), name, self.payload)

    @classmethod
    def unpack(cls, body) -> "ModelResponse":
        if len(body) < 4:
            raise ProtocolError("truncated model response")
        (nlen,) = _U32.unpack_from(body)
        end = 4 + nlen
        if len(body) < end:
            raise ProtocolError("truncated model response name")
        try:
            name = str(body[4:end], "utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError("bad model response name") from exc
        return cls(bundle_name=name, payload=bytes(body[end:]))


@dataclass(frozen=True)
class ErrorResponse(_Packed):
    """Edge → browser: structured failure."""

    code: int
    message: str

    type = MessageType.ERROR

    def _parts(self) -> tuple:
        return (_U32.pack(self.code), self.message.encode("utf-8"))

    @classmethod
    def unpack(cls, body) -> "ErrorResponse":
        if len(body) < 4:
            raise ProtocolError("truncated error response")
        (code,) = _U32.unpack_from(body)
        return cls(code=code, message=str(body[4:], "utf-8", "replace"))


Message = Union[
    BatchInferenceRequest,
    BatchInferenceResponse,
    ModelRequest,
    ModelResponse,
    ErrorResponse,
    SchedulerAck,
]

_DECODERS = {
    MessageType.BATCH_INFERENCE_REQUEST: BatchInferenceRequest.unpack,
    MessageType.BATCH_INFERENCE_RESPONSE: BatchInferenceResponse.unpack,
    MessageType.MODEL_REQUEST: ModelRequest.unpack,
    MessageType.MODEL_RESPONSE: ModelResponse.unpack,
    MessageType.ERROR: ErrorResponse.unpack,
    MessageType.SCHEDULER_ACK: SchedulerAck.unpack,
}


def encode_frame(message: Message) -> bytes:
    """Wrap a message in the versioned wire frame: one join of the frame
    header and the message's parts, so each part is copied once."""
    parts = message._parts()
    head = _HEADER.pack(MAGIC, PROTOCOL_VERSION, message.type, sum(map(len, parts)))
    return b"".join((head, *parts))


def _frame_body(frame) -> tuple[int, memoryview]:
    """The message type and body of one frame, after the frame checks.

    The body is a ``memoryview`` of the frame, so nothing is copied.
    Raises :class:`ProtocolError` on a bad header, a length mismatch or
    an unknown message type.
    """
    view = memoryview(frame).cast("B")
    if len(view) < _HEADER.size:
        raise ProtocolError("frame shorter than header")
    magic, version, mtype, length = _HEADER.unpack_from(view)
    if magic != MAGIC:
        raise ProtocolError("bad magic")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(f"unsupported protocol version {version}")
    size = len(view) - _HEADER.size
    if size != length:
        raise ProtocolError(f"frame length mismatch: header says {length}, got {size}")
    if mtype not in _DECODERS:
        raise ProtocolError(f"unknown message type {mtype}")
    return mtype, view[_HEADER.size :]


def decode_frame(frame) -> Message:
    """Parse one frame (``bytes``, ``bytearray`` or ``memoryview``).

    The body is read through a ``memoryview``, so the decoder copies a
    payload at most once.  Raises :class:`ProtocolError` on any
    corruption.
    """
    mtype, body = _frame_body(frame)
    return _DECODERS[mtype](body)


def peek_session(frame) -> tuple[type, Optional[int]]:
    """The message class of one frame and, for a batch inference
    request, the session id in its header.

    A router places a request by its session id alone, so this reads the
    request header without copying the payload or building the request.
    It raises :class:`ProtocolError` on exactly the frames
    :func:`decode_frame` rejects: the frame checks and the request
    header's checks are the same code.  A frame of any other type is
    decoded in full and comes back with ``None``.
    """
    mtype, body = _frame_body(frame)
    if mtype == MessageType.BATCH_INFERENCE_REQUEST:
        return BatchInferenceRequest, BatchInferenceRequest._header(body)[0]
    return type(_DECODERS[mtype](body)), None


def reply_fields(logits: np.ndarray) -> tuple[list[int], list[float]]:
    """The class ids and confidences answering a batch of trunk logits.

    Each row's class is its logits' argmax, and its confidence is that
    class's softmax probability: ``e[i, c] / e.sum(axis=1)[i]`` with
    ``e = exp(logits - rowmax)``, the same division of the same operands
    as normalizing the whole row first, so the bits do not depend on
    which caller built the reply.
    """
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    class_ids = logits.argmax(axis=1)
    confidences = e[np.arange(len(class_ids)), class_ids] / e.sum(axis=1)
    return class_ids.tolist(), confidences.tolist()


class EdgeProtocolServer:
    """Message-level façade over an :class:`~repro.runtime.session.EdgeEndpoint`.

    ``handle`` consumes one encoded frame and returns one encoded frame —
    the same contract an HTTP handler would satisfy, so the deployment
    story can be tested end to end at byte granularity.
    """

    def __init__(self, endpoint, bundles: dict[str, bytes] | None = None) -> None:
        self.endpoint = endpoint
        self.bundles = dict(bundles or {})

    def handle(self, frame: bytes) -> bytes:
        try:
            message = decode_frame(frame)
        except ProtocolError as exc:
            return encode_frame(ErrorResponse(code=400, message=str(exc)))

        if isinstance(message, BatchInferenceRequest):
            try:
                features = message.features()
            except Exception as exc:  # codec/shape errors become 422s
                return encode_frame(ErrorResponse(code=422, message=str(exc)))
            try:
                class_ids, confidences = reply_fields(self.endpoint.infer(features))
                response = BatchInferenceResponse(
                    session_id=message.session_id,
                    sequences=message.sequences,
                    class_ids=tuple(class_ids),
                    confidences=tuple(confidences),
                )
            except Exception as exc:  # endpoint failures stay on the wire
                return encode_frame(
                    ErrorResponse(code=500, message=f"batch inference failed: {exc}")
                )
            return encode_frame(response)
        if isinstance(message, ModelRequest):
            payload = self.bundles.get(message.bundle_name)
            if payload is None:
                return encode_frame(
                    ErrorResponse(code=404, message=f"no bundle {message.bundle_name!r}")
                )
            return encode_frame(
                ModelResponse(bundle_name=message.bundle_name, payload=payload)
            )
        return encode_frame(
            ErrorResponse(code=405, message=f"cannot serve {type(message).__name__}")
        )
