"""Feature-map codecs for the browser→edge miss path.

When the binary branch is not confident, LCRS ships the conv1 feature
map to the edge (§IV-A).  The paper sends it as-is; this module adds the
obvious systems optimization — quantizing the tensor on the wire — and
quantifies its accuracy cost, since the edge trunk was trained on fp32
features.  Three codecs:

* ``fp32``  — identity (the paper's behaviour, 4 B/element);
* ``fp16``  — IEEE half precision (2 B/element, lossless in practice for
  post-ReLU activations);
* ``int8``  — per-tensor affine quantization (1 B/element + 8 B header).

Each codec round-trips a batch of feature maps to bytes and back; the
deployment and the ablation harness measure both the byte savings and
the end-accuracy impact.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Callable

import numpy as np


class CodecError(ValueError):
    """Raised on malformed encoded payloads (or unencodable inputs)."""


class UnknownCodecError(CodecError, KeyError):
    """Raised when a codec name does not resolve.

    Doubly derived so protocol-level handlers can catch the structured
    :class:`CodecError` while existing ``KeyError`` callers keep working.
    """

    def __str__(self) -> str:  # KeyError repr()s its argument; keep the message
        return self.args[0] if self.args else ""


@dataclass(frozen=True)
class FeatureCodec:
    """A reversible tensor-on-the-wire encoding."""

    name: str
    encode: Callable[[np.ndarray], bytes]
    decode: Callable[[bytes, tuple[int, ...]], np.ndarray]
    bytes_per_element: float
    header_bytes: int = 0

    def wire_bytes(self, shape: tuple[int, ...]) -> int:
        """Predicted payload size for a feature tensor of ``shape``."""
        return int(np.prod(shape) * self.bytes_per_element) + self.header_bytes


def _encode_fp32(features: np.ndarray) -> bytes:
    return np.ascontiguousarray(features, dtype=np.float32).tobytes()


def _decode_fp32(payload: bytes, shape: tuple[int, ...]) -> np.ndarray:
    """A read-only view of the payload: ``decode_frame`` already copied
    it into the request's own ``bytes``, so no second copy is made."""
    expected = math.prod(shape) * 4
    if len(payload) != expected:
        raise CodecError(f"fp32 payload is {len(payload)}B, expected {expected}B")
    return np.frombuffer(payload, dtype=np.float32).reshape(shape)


def _encode_fp16(features: np.ndarray) -> bytes:
    return np.ascontiguousarray(features, dtype=np.float16).tobytes()


def _decode_fp16(payload: bytes, shape: tuple[int, ...]) -> np.ndarray:
    expected = int(np.prod(shape)) * 2
    if len(payload) != expected:
        raise CodecError(f"fp16 payload is {len(payload)}B, expected {expected}B")
    half = np.frombuffer(payload, dtype=np.float16).reshape(shape)
    return half.astype(np.float32)


def _encode_int8(features: np.ndarray) -> bytes:
    features = np.ascontiguousarray(features, dtype=np.float32)
    if features.size == 0:
        # Nothing to quantize; a neutral header keeps decode total.
        return struct.pack("<ff", 0.0, 1.0)
    if not np.isfinite(features).all():
        # An affine uint8 grid cannot represent ±inf/NaN; refusing beats
        # shipping a NaN scale that dequantizes to garbage.
        raise CodecError("int8 codec requires finite features")
    lo = float(features.min())
    hi = float(features.max())
    # Quantize against the float32 scale the header actually carries, so
    # encode and decode share one grid.  A denormal (hi - lo) / 255 range
    # would round to 0 in float32, which decode rejects; flooring at the
    # smallest positive float32 keeps every header decodable.
    scale = np.float32((hi - lo) / 255.0) if hi > lo else np.float32(1.0)
    scale = max(scale, np.finfo(np.float32).smallest_subnormal)
    q = np.clip(
        np.round((features.astype(np.float64) - lo) / float(scale)), 0.0, 255.0
    ).astype(np.uint8)
    return struct.pack("<ff", np.float32(lo), scale) + q.tobytes()


def _decode_int8(payload: bytes, shape: tuple[int, ...]) -> np.ndarray:
    expected = int(np.prod(shape)) + 8
    if len(payload) != expected:
        raise CodecError(f"int8 payload is {len(payload)}B, expected {expected}B")
    lo, scale = struct.unpack("<ff", payload[:8])
    if not (np.isfinite(lo) and np.isfinite(scale)) or scale <= 0:
        # Encode never emits these; a non-finite or non-positive header
        # is corruption, not a quantization grid.
        raise CodecError(f"bad int8 header: lo={lo!r}, scale={scale!r}")
    q = np.frombuffer(payload[8:], dtype=np.uint8).reshape(shape)
    return (q.astype(np.float64) * scale + lo).astype(np.float32)


FP32_CODEC = FeatureCodec("fp32", _encode_fp32, _decode_fp32, bytes_per_element=4.0)
FP16_CODEC = FeatureCodec("fp16", _encode_fp16, _decode_fp16, bytes_per_element=2.0)
INT8_CODEC = FeatureCodec(
    "int8", _encode_int8, _decode_int8, bytes_per_element=1.0, header_bytes=8
)

FEATURE_CODECS: dict[str, FeatureCodec] = {
    codec.name: codec for codec in (FP32_CODEC, FP16_CODEC, INT8_CODEC)
}


def get_codec(name: str) -> FeatureCodec:
    if name not in FEATURE_CODECS:
        raise UnknownCodecError(
            f"unknown codec {name!r}; available: {sorted(FEATURE_CODECS)}"
        )
    return FEATURE_CODECS[name]


def roundtrip_error(codec: FeatureCodec, features: np.ndarray) -> float:
    """Max absolute reconstruction error of one encode/decode cycle."""
    decoded = codec.decode(codec.encode(features), features.shape)
    return float(np.abs(decoded - features.astype(np.float32)).max())
