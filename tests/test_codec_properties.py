"""Property-based round-trip tests for the feature-map codecs.

Hypothesis drives arbitrary tensors — constant tensors (the int8
zero-range edge case), denormal-scale ranges, empty and odd shapes —
through every registered codec with per-codec error bounds:

* ``fp32`` — byte-exact round trip, always;
* ``fp16`` — exactly ``x.astype(float16).astype(float32)``: the codec
  is the cast, nothing more;
* ``int8`` — max error ≤ half a quantization step (plus the float32
  rounding of the step itself on the wire).

Non-finite tensors are a *refusal* for int8 (an affine uint8 grid cannot
carry ±inf/NaN) and a faithful round trip for the float codecs.
"""

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra import numpy as hnp

from repro.runtime import (
    FEATURE_CODECS,
    FP16_CODEC,
    FP32_CODEC,
    INT8_CODEC,
    CodecError,
    UnknownCodecError,
    get_codec,
)

#: Shapes the miss path actually ships (batch, C, H, W) plus degenerate
#: ranks, odd primes, and zero-length axes.
feature_shapes = st.one_of(
    st.tuples(st.integers(0, 3), st.integers(1, 4), st.integers(1, 5), st.integers(1, 5)),
    st.tuples(st.integers(0, 7)),
    st.tuples(st.integers(1, 3), st.integers(0, 6)),
    st.tuples(st.integers(1, 2), st.integers(1, 3), st.integers(1, 7)),
)

finite_tensors = feature_shapes.flatmap(
    lambda shape: hnp.arrays(
        dtype=np.float32,
        shape=shape,
        elements=st.floats(
            min_value=-1e6, max_value=1e6, width=32, allow_nan=False
        ),
    )
)

#: Tensors whose whole dynamic range is denormal — the case where a
#: float32 quantization step would flush to zero.
denormal_tensors = hnp.arrays(
    dtype=np.float32,
    shape=st.tuples(st.integers(1, 4), st.integers(1, 8)),
    elements=st.floats(
        min_value=0.0, max_value=2.0**-127, width=32, allow_nan=False
    ),
)

nonfinite_tensors = hnp.arrays(
    dtype=np.float32,
    shape=st.tuples(st.integers(1, 3), st.integers(1, 6)),
    elements=st.floats(width=32, allow_nan=True, allow_infinity=True),
).filter(lambda x: not np.isfinite(x).all())


def _roundtrip(codec, x):
    # float16 saturation past ±65504 is expected, not an error.
    with np.errstate(over="ignore"):
        payload = codec.encode(x)
        assert len(payload) == codec.wire_bytes(x.shape)
        return codec.decode(payload, x.shape)


class TestFp32Properties:
    @given(finite_tensors)
    def test_bit_exact(self, x):
        decoded = _roundtrip(FP32_CODEC, x)
        assert decoded.tobytes() == x.tobytes()
        assert decoded.shape == x.shape
        assert decoded.dtype == np.float32

    @given(nonfinite_tensors)
    def test_nonfinite_survive(self, x):
        decoded = _roundtrip(FP32_CODEC, x)
        assert decoded.tobytes() == x.tobytes()


class TestFp16Properties:
    @given(finite_tensors)
    def test_is_exactly_the_half_cast(self, x):
        # Values past float16 range legitimately saturate to ±inf; the
        # property is that the codec matches numpy's cast bit-for-bit.
        with np.errstate(over="ignore"):
            decoded = _roundtrip(FP16_CODEC, x)
            expected = x.astype(np.float16).astype(np.float32)
        assert decoded.tobytes() == expected.tobytes()

    @given(nonfinite_tensors)
    def test_nonfinite_cast_like_numpy(self, x):
        with np.errstate(over="ignore"):
            decoded = _roundtrip(FP16_CODEC, x)
            expected = x.astype(np.float16).astype(np.float32)
        np.testing.assert_array_equal(
            np.isnan(decoded), np.isnan(expected)
        )
        np.testing.assert_array_equal(
            decoded[~np.isnan(decoded)], expected[~np.isnan(expected)]
        )


class TestInt8Properties:
    @given(finite_tensors)
    # Denormal ranges whose step once rounded to a 0.0 float32 scale,
    # which the decoder rejects as a bad header.
    @example(x=np.array([2e-44, 0], dtype=np.float32))
    @example(x=np.array([0, 1e-45], dtype=np.float32))
    def test_error_within_half_step(self, x):
        decoded = _roundtrip(INT8_CODEC, x)
        assert decoded.shape == x.shape
        if x.size == 0:
            return
        lo, hi = float(x.min()), float(x.max())
        step = (hi - lo) / 255.0 if hi > lo else 0.0
        # Half a step of quantization error, plus the float32 rounding
        # of lo and the step on the wire header.
        bound = step / 2.0 + (abs(lo) + abs(step)) * 1e-6 + 1e-30
        assert float(np.abs(decoded - x).max()) <= bound

    @given(
        st.floats(min_value=-1e6, max_value=1e6, width=32, allow_nan=False),
        st.integers(1, 40),
    )
    def test_constant_tensor_decodes_exactly(self, value, n):
        """Zero dynamic range: every sample must come back as float32(lo)."""
        x = np.full((n,), value, dtype=np.float32)
        decoded = _roundtrip(INT8_CODEC, x)
        np.testing.assert_array_equal(decoded, x)

    @given(denormal_tensors)
    def test_denormal_range_does_not_divide_by_zero(self, x):
        """A denormal (hi − lo) flushes to 0 in float32; the codec must
        still produce a finite decode within the tensor's own range."""
        decoded = _roundtrip(INT8_CODEC, x)
        assert np.isfinite(decoded).all()
        span = float(x.max() - x.min())
        assert float(np.abs(decoded - x).max()) <= max(span, 1e-30)

    @given(nonfinite_tensors)
    def test_nonfinite_refused(self, x):
        with pytest.raises(CodecError):
            INT8_CODEC.encode(x)

    @given(feature_shapes.filter(lambda s: int(np.prod(s)) == 0))
    def test_empty_tensor_roundtrips(self, shape):
        x = np.zeros(shape, dtype=np.float32)
        decoded = _roundtrip(INT8_CODEC, x)
        assert decoded.shape == shape
        assert decoded.dtype == np.float32


class TestAllCodecs:
    @pytest.mark.parametrize("name", sorted(FEATURE_CODECS))
    def test_registry_roundtrip_zero(self, name):
        codec = get_codec(name)
        x = np.zeros((2, 3, 4), dtype=np.float32)
        np.testing.assert_array_equal(_roundtrip(codec, x), x)

    @given(finite_tensors)
    def test_every_codec_preserves_shape_and_dtype(self, x):
        for codec in FEATURE_CODECS.values():
            decoded = _roundtrip(codec, x)
            assert decoded.shape == x.shape
            assert decoded.dtype == np.float32

    def test_unknown_codec_is_structured_and_a_keyerror(self):
        with pytest.raises(UnknownCodecError, match="unknown codec"):
            get_codec("gzip")
        with pytest.raises(CodecError):
            get_codec("gzip")
        with pytest.raises(KeyError):
            get_codec("gzip")
