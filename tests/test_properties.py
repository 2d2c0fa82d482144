"""Property-based tests (hypothesis) for core invariants.

These cover the properties the system's correctness hinges on:
bit-packed arithmetic must equal float arithmetic exactly, entropies must
stay normalized, broadcasting gradients must preserve shapes, and the
serialization format must round-trip arbitrary layer stacks.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from repro import nn
from repro.core.entropy import normalized_entropy
from repro.nn import functional as F
from repro.nn.autograd import Tensor, _unbroadcast
from repro.nn.binary import binarize
from repro.wasm.bitpack import pack_rows_with_mask, pack_signs, packed_dot, unpack_signs

signs_matrix = hnp.arrays(
    dtype=np.float32,
    shape=st.tuples(st.integers(1, 6), st.integers(1, 80)),
    elements=st.sampled_from([-1.0, 1.0]),
)


class TestBitpackProperties:
    @given(signs_matrix)
    def test_pack_unpack_roundtrip(self, signs):
        packed, length = pack_signs(signs)
        np.testing.assert_array_equal(unpack_signs(packed, length), signs)

    @given(signs_matrix, st.integers(0, 2**31 - 1))
    def test_packed_dot_equals_float_dot(self, a, seed):
        rng = np.random.default_rng(seed)
        b = np.where(rng.random((3, a.shape[1])) > 0.5, 1.0, -1.0).astype(np.float32)
        pa, la = pack_signs(a)
        pb, _ = pack_signs(b)
        np.testing.assert_array_equal(packed_dot(pa, pb, length=la), a @ b.T)

    @given(signs_matrix, st.integers(0, 2**31 - 1))
    def test_masked_dot_equals_ternary_dot(self, values, seed):
        rng = np.random.default_rng(seed)
        valid = rng.random(values.shape) > 0.4
        weights = np.where(
            rng.random((2, values.shape[1])) > 0.5, 1.0, -1.0
        ).astype(np.float32)
        vbits, mbits = pack_rows_with_mask(values, valid)
        pw, _ = pack_signs(weights)
        out = packed_dot(vbits, pw, mask=mbits)
        np.testing.assert_array_equal(out, (values * valid) @ weights.T)


class TestBinarizeProperties:
    @given(
        hnp.arrays(
            dtype=np.float32,
            shape=st.tuples(st.integers(1, 4), st.integers(1, 32)),
            elements=st.floats(-10, 10, width=32).filter(lambda v: abs(v) > 1e-3),
        )
    )
    def test_reconstruction_minimizes_l2_over_scales(self, w):
        sign, alpha = binarize(w)
        base = ((w - alpha[:, None] * sign) ** 2).sum()
        for factor in (0.5, 0.9, 1.1, 2.0):
            other = ((w - factor * alpha[:, None] * sign) ** 2).sum()
            assert base <= other + 1e-4

    @given(
        hnp.arrays(
            dtype=np.float32,
            shape=st.tuples(st.integers(1, 4), st.integers(1, 16)),
            elements=st.floats(-5, 5, width=32),
        )
    )
    def test_sign_output_is_binary(self, w):
        sign, _ = binarize(w)
        assert set(np.unique(sign)) <= {-1.0, 1.0}


class TestEntropyProperties:
    @given(
        hnp.arrays(
            dtype=np.float64,
            shape=st.tuples(st.integers(1, 8), st.integers(2, 20)),
            elements=st.floats(1e-6, 1.0),
        )
    )
    def test_normalized_entropy_in_unit_interval(self, raw):
        probs = raw / raw.sum(axis=1, keepdims=True)
        ents = normalized_entropy(probs, axis=1)
        assert (ents >= -1e-12).all()
        assert (ents <= 1 + 1e-9).all()

    @given(st.integers(2, 50))
    def test_uniform_maximizes(self, c):
        uniform = np.full(c, 1.0 / c)
        rng = np.random.default_rng(c)
        other = rng.dirichlet(np.ones(c) * 0.3)
        assert normalized_entropy(uniform) >= normalized_entropy(other) - 1e-9


class TestAutogradProperties:
    @given(
        hnp.arrays(
            dtype=np.float64,
            shape=st.tuples(st.integers(1, 5), st.integers(1, 5)),
            elements=st.floats(-3, 3),
        )
    )
    def test_sum_gradient_is_ones(self, x):
        t = Tensor(x.copy(), requires_grad=True)
        t.sum().backward()
        np.testing.assert_array_equal(t.grad, np.ones_like(x))

    @given(
        hnp.arrays(
            dtype=np.float64,
            shape=st.tuples(st.integers(1, 4), st.integers(1, 4)),
            elements=st.floats(-3, 3),
        )
    )
    def test_grad_shape_matches_tensor(self, x):
        t = Tensor(x.copy(), requires_grad=True)
        ((t * 2 + 1) ** 2).sum().backward()
        assert t.grad.shape == t.shape

    @given(
        st.tuples(st.integers(1, 4), st.integers(1, 4)),
        st.tuples(st.integers(1, 4), st.integers(1, 4)),
    )
    def test_unbroadcast_inverts_broadcast(self, target, extra):
        # Broadcasting target against (extra + target)-shaped grad then
        # unbroadcasting must return the target shape.
        shape = tuple(extra) + tuple(target)
        grad = np.ones(shape)
        out = _unbroadcast(grad, tuple(target))
        assert out.shape == tuple(target)
        assert out.sum() == pytest.approx(grad.sum())


class TestSoftmaxProperties:
    @given(
        hnp.arrays(
            dtype=np.float32,
            shape=st.tuples(st.integers(1, 6), st.integers(2, 12)),
            elements=st.floats(-30, 30, width=32),
        )
    )
    def test_rows_are_distributions(self, logits):
        probs = F.softmax(logits, axis=1)
        assert (probs >= 0).all()
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=1e-4)

    @given(
        hnp.arrays(
            dtype=np.float32,
            shape=st.tuples(st.integers(1, 6), st.integers(2, 12)),
            elements=st.floats(-30, 30, width=32),
        )
    )
    def test_shift_invariance(self, logits):
        shifted = logits + 7.5
        np.testing.assert_allclose(
            F.softmax(logits, axis=1), F.softmax(shifted, axis=1), atol=1e-5
        )


class TestAugmentationProperties:
    @given(
        st.integers(0, 2**31 - 1),
        st.integers(6, 20),
        st.integers(1, 3),
    )
    def test_augmenter_preserves_shape(self, seed, size, channels):
        from repro.data import Augmenter

        rng = np.random.default_rng(seed)
        img = rng.random((channels, size, size)).astype(np.float32)
        out = Augmenter(seed=seed)(img)
        assert out.shape == img.shape
        assert np.isfinite(out).all()

    @given(st.integers(0, 2**31 - 1))
    def test_rotation_preserves_total_mass_approximately(self, seed):
        from repro.data import rotate

        rng = np.random.default_rng(seed)
        img = np.zeros((1, 15, 15), dtype=np.float32)
        img[0, 5:10, 5:10] = rng.random((5, 5))
        out = rotate(img, float(rng.uniform(-30, 30)))
        # Interior content must not vanish; bilinear loses only edge mass.
        assert out.sum() > 0.5 * img.sum()


class TestFormatProperties:
    @given(st.integers(0, 2**31 - 1), st.integers(1, 3), st.integers(2, 6))
    def test_serialize_parse_roundtrip_random_stacks(self, seed, depth, width):
        from repro.wasm import WasmModel, serialize_browser_bundle

        rng = np.random.default_rng(seed)
        layers = []
        cin = 2
        for _ in range(depth):
            layers += [nn.Conv2d(cin, width, 3, padding=1, rng=rng), nn.ReLU()]
            cin = width
        bundle = nn.Sequential(*layers)
        payload = serialize_browser_bundle(bundle, (2, 8, 8))
        engine = WasmModel.load(payload)
        x = rng.standard_normal((1, 2, 8, 8)).astype(np.float32)
        bundle.eval()
        from repro.nn.autograd import no_grad

        with no_grad():
            expected = bundle(Tensor(x)).data
        np.testing.assert_allclose(engine.forward(x), expected, atol=1e-4)
