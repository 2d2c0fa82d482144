"""Trace-compiled plan coverage: bit-identity properties and plumbing.

The plan compiler's whole contract is *bit-identity*: a compiled plan
must return exactly what the interpreter returns, for every geometry it
claims to support, at every batch size up to its capacity — not merely
"close".  Hypothesis drives randomized float stacks, binary stacks, and
batch shapes through plan-vs-interpreter comparisons with
``np.array_equal`` (no tolerance), and the plumbing tests pin the cache,
counters, span, fallback, and error behaviour the runtime relies on.

Every plan compiled here records the C kernels its record tables
dispatch to; the last test checks that together they cover the whole
opcode table, so no kernel ships without a bit-identity property.

The probe steps a plan down a tier when a fast kernel disagrees with
the interpreter, which would hide a wrong kernel from the equality
tests.  So the conv sweeps also assert that the plan kept its first
tier, and they run every SIMD level the host supports (``isa``).
"""

import ctypes
import subprocess
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro import nn, wasm
from repro.models import lenet
from repro.nn.autograd import Tensor, no_grad
from repro.nn.binary import BinaryConv2d, BinaryLinear
from repro.observability import Tracer
from repro.wasm import (
    PlanCompileError,
    PlanExecutionError,
    WasmModel,
    backend_available,
    serialize_browser_bundle,
)
from repro.core.composite import build_binary_branch
from repro.wasm import plan as plan_module
from repro.wasm.interpreter import conv_geometry
from repro.wasm.plan import (
    NativeSegment,
    PlanVerificationError,
    _PlanBuilder,
    _widen_to_words,
)
from repro.wasm.plan_compile import (
    _CFLAGS,
    _SOURCE,
    ISA_LEVELS,
    OPCODES,
    _find_compiler,
    get_backend,
    host_isa,
)

pytestmark = [
    pytest.mark.plan,
    pytest.mark.skipif(
        not backend_available(), reason="C kernel backend unavailable"
    ),
]

#: Every example compiles and probe-verifies a plan: draw fewer of them.
fewer_examples = settings(max_examples=20)

#: C kernels dispatched by the plans this module compiled so far.
EXERCISED_KERNELS: set = set()


def _recording(compile_fn):
    def compile_and_record(*args, **kwargs):
        plan = compile_fn(*args, **kwargs)
        for step in plan.steps:
            for runner in step.runners:
                if isinstance(runner, NativeSegment):
                    EXERCISED_KERNELS.update(runner.kernels)
        return plan

    return compile_and_record


compile_wasm_plan = _recording(wasm.compile_wasm_plan)
compile_trunk_plan = _recording(wasm.compile_trunk_plan)


def engine_for(bundle: nn.Sequential, input_shape) -> WasmModel:
    return WasmModel.load(serialize_browser_bundle(bundle, input_shape))


def host_levels() -> list:
    """Every SIMD level the host runs, lowest first."""
    best = ISA_LEVELS[host_isa()]
    return [name for name, level in ISA_LEVELS.items() if level <= best]


def cpu_flags():
    """The CPU feature flags the OS reports (Linux), or None."""
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return None
    for line in text.splitlines():
        if line.startswith("flags"):
            return set(line.split(":", 1)[1].split())
    return None


def native_kernels(plan) -> list:
    """The kernel variants of every native segment, in plan order."""
    return [
        variant
        for step in plan.steps
        for runner in step.runners
        if isinstance(runner, NativeSegment)
        for variant in runner.variants
    ]


def assert_plan_bit_identical(bundle, input_shape, capacity=8, batches=(1, 3, 8)):
    """Compile a plan and demand exact equality with the interpreter."""
    engine = engine_for(bundle, input_shape)
    plan = compile_wasm_plan(engine, capacity)
    rng = np.random.default_rng(99)
    for n in batches:
        x = rng.standard_normal((n, *input_shape)).astype(np.float32)
        # Exercise the exact-zero paths the padded-source kernels rely on.
        x[x < -2.0] = 0.0
        np.testing.assert_array_equal(plan.execute(x), engine.forward(x))


def every_isa_agrees(engine, input_shape, capacity) -> bool:
    """Build the plan at every host SIMD level, without the probe's
    step-down, and run each on the probe batch at sizes 1 and capacity:
    every level must return exactly what the scalar kernels return.

    Returns whether that also equals the interpreter, which is the
    probe's verdict on the first tier.  It is False only where the
    host's BLAS does not reduce the reference's dot products in the
    sequential order the direct conv replicates.
    """
    plans = {
        isa: _PlanBuilder(engine.parsed, capacity, isa=isa).build()
        for isa in host_levels()
    }
    probe = plan_module._probe_batch(tuple(input_shape), capacity)
    matches = True
    for n in sorted({1, capacity}):
        want = plans["scalar"].execute(probe[:n])
        for isa, plan in plans.items():
            np.testing.assert_array_equal(
                plan.execute(probe[:n]), want, err_msg=f"isa={isa} n={n}"
            )
        matches = matches and np.array_equal(want, engine.forward(probe[:n]))
    return matches


class TestFloatStackProperties:
    @fewer_examples
    @given(
        in_channels=st.integers(1, 3),
        out_channels=st.sampled_from([1, 4, 7, 16, 20]),
        kernel=st.sampled_from([2, 3, 5]),
        stride=st.integers(1, 2),
        padding=st.integers(0, 2),
        size=st.integers(6, 12),
        relu=st.booleans(),
        pool=st.booleans(),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_conv_stack_matches_interpreter(
        self, in_channels, out_channels, kernel, stride, padding, size, relu, pool, seed
    ):
        """conv2d (+relu)(+pool) plans are bit-identical for any geometry.

        ``out_channels`` straddles the direct-conv fast path's 16-channel
        boundary so both the fused direct kernel and the im2col+matmul
        route get drawn.
        """
        rng = np.random.default_rng(seed)
        layers = [
            nn.Conv2d(
                in_channels, out_channels, kernel,
                stride=stride, padding=padding, rng=rng,
            )
        ]
        if relu:
            layers.append(nn.ReLU())
        out = (size + 2 * padding - kernel) // stride + 1
        if pool and out >= 2:
            layers.append(nn.MaxPool2d(2))
        assert_plan_bit_identical(
            nn.Sequential(*layers), (in_channels, size, size)
        )

    @fewer_examples
    @given(
        in_channels=st.integers(1, 3),
        out_channels=st.sampled_from([1, 6, 8, 9, 12, 16]),
        out_width=st.sampled_from([1, 7, 8, 9, 15, 16, 17, 28]),
        out_height=st.integers(1, 3),
        kernel=st.sampled_from([3, 5]),
        stride=st.integers(1, 2),
        padding=st.integers(0, 2),
        relu=st.sampled_from([False, True]),
        seed=st.integers(0, 2**31 - 1),
    )
    # One output channel, and one output position: matrix-vector
    # references that the direct conv cannot match.
    @example(
        in_channels=1, out_channels=1, out_width=1, out_height=2, kernel=3,
        stride=1, padding=0, relu=False, seed=0,
    )
    @example(
        in_channels=2, out_channels=6, out_width=1, out_height=1, kernel=5,
        stride=1, padding=0, relu=False, seed=0,
    )
    # A 50-tap window at 6 channels: x86-64 OpenBLAS 0.3.31 reduces it
    # in another order, so the direct conv must step down, and only it.
    @example(
        in_channels=2, out_channels=6, out_width=1, out_height=2, kernel=5,
        stride=1, padding=0, relu=False, seed=0,
    )
    def test_direct_conv_block_edges_every_isa(
        self, in_channels, out_channels, out_width, out_height, kernel,
        stride, padding, relu, seed,
    ):
        """The direct conv's SIMD blocks at every edge, at every level.

        ``out_width`` crosses the 8- and 16-lane block edges (the last
        block overlaps its neighbour, a row narrower than one block runs
        masked), ``out_channels`` the live-channel and channels-in-lanes
        widths, and batch 1 with ``out_height=1`` leaves fewer output
        positions than one channels-in-lanes block.  Every SIMD level
        must agree with the scalar kernel, and the verified plan must
        keep its first tier and the direct kernel, unless the host's
        BLAS reduces the reference in another order (then only the
        direct conv steps down).  One output channel, or one output
        position, makes the reference a matrix-vector product: that conv
        keeps the matmul path.
        """
        padding = min(padding, kernel - 1)
        width = (out_width - 1) * stride + kernel - 2 * padding
        height = (out_height - 1) * stride + kernel - 2 * padding
        if width < 1 or height < 1:
            padding = 0
            width = (out_width - 1) * stride + kernel
            height = (out_height - 1) * stride + kernel
        rng = np.random.default_rng(seed)
        layers = [
            nn.Conv2d(
                in_channels, out_channels, kernel,
                stride=stride, padding=padding, rng=rng,
            )
        ]
        if relu:
            layers.append(nn.ReLU())
        input_shape = (in_channels, height, width)
        engine = engine_for(nn.Sequential(*layers), input_shape)
        if out_channels == 1 or out_width * out_height == 1:
            plan = _PlanBuilder(engine.parsed, 3).build()
            assert not any(v.startswith("conv_direct") for v in native_kernels(plan))
            return
        plan = compile_wasm_plan(engine, 3)
        if every_isa_agrees(engine, input_shape, 3):
            assert plan.tier == {}
            assert any(v.startswith("conv_direct") for v in native_kernels(plan))
        else:
            assert plan.tier == {"direct_conv": False}

    @fewer_examples
    @given(
        features=st.integers(4, 96),
        hidden=st.integers(1, 24),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_linear_stack_matches_interpreter(self, features, hidden, seed):
        rng = np.random.default_rng(seed)
        bundle = nn.Sequential(
            nn.Flatten(),
            nn.Linear(features, hidden, rng=rng),
            nn.ReLU(),
            nn.Linear(hidden, 5, rng=rng),
        )
        assert_plan_bit_identical(bundle, (features, 1, 1))

    @fewer_examples
    @given(
        channels=st.integers(1, 4),
        size=st.integers(4, 10),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_bn_conv_stack_matches_interpreter(self, channels, size, seed):
        """batch_norm folds to a per-channel affine without drift."""
        rng = np.random.default_rng(seed)
        bn = nn.BatchNorm2d(channels)
        # Non-trivial running stats, as after real training.
        bn.running_mean.data[:] = rng.standard_normal(channels).astype(np.float32)
        bn.running_var.data[:] = (
            rng.random(channels).astype(np.float32) + 0.5
        )
        bundle = nn.Sequential(
            bn, nn.Conv2d(channels, 3, 3, padding=1, rng=rng), nn.ReLU()
        )
        assert_plan_bit_identical(bundle, (channels, size, size))


class TestBinaryStackProperties:
    @fewer_examples
    @given(
        in_channels=st.integers(1, 3),
        out_channels=st.integers(1, 6),
        padding=st.integers(0, 1),
        stride=st.integers(1, 2),
        size=st.integers(6, 12),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_binary_conv_matches_interpreter(
        self, in_channels, out_channels, padding, stride, size, seed
    ):
        """Fused unfold→XNOR→popcount→scale binary convs are exact."""
        rng = np.random.default_rng(seed)
        bundle = nn.Sequential(
            BinaryConv2d(
                in_channels, out_channels, 3,
                stride=stride, padding=padding, rng=rng,
            )
        )
        assert_plan_bit_identical(bundle, (in_channels, size, size))

    @fewer_examples
    @given(
        in_channels=st.sampled_from([1, 6, 16]),
        out_width=st.sampled_from([1, 7, 8, 9, 14, 15, 16, 17]),
        padding=st.integers(0, 1),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_binary_conv_gather_edges_every_isa(
        self, in_channels, out_width, padding, seed
    ):
        """The binary-conv gather at every block edge and window length.

        ``out_width`` crosses the 8-window gather's overlapped last
        block; 16 input channels make a 144-value window, whose |x| mean
        takes NumPy's recursive pairwise split in a scratch row.  The
        fused C mean must survive the probe (first tier).
        """
        rng = np.random.default_rng(seed)
        width = out_width + 2 - 2 * padding
        bundle = nn.Sequential(
            BinaryConv2d(in_channels, 4, 3, padding=padding, rng=rng)
        )
        input_shape = (in_channels, 3, width)
        engine = engine_for(bundle, input_shape)
        plan = compile_wasm_plan(engine, 3)
        assert plan.tier == {}
        assert every_isa_agrees(engine, input_shape, 3)

    @fewer_examples
    @given(
        features=st.sampled_from([16, 63, 64, 100, 784]),
        out=st.integers(2, 12),
        binarize_input=st.booleans(),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_binary_linear_matches_interpreter(
        self, features, out, binarize_input, seed
    ):
        """Word-count sweep crosses the W=1/W=2/general popcount kernels;
        without input binarization the ±1 weights run as ``linear_seq``
        with α as its scale."""
        rng = np.random.default_rng(seed)
        bundle = nn.Sequential(
            nn.Flatten(),
            BinaryLinear(features, out, binarize_input=binarize_input, rng=rng),
        )
        assert_plan_bit_identical(bundle, (features, 1, 1))

    @fewer_examples
    @given(
        num_bases=st.integers(2, 4),
        out_channels=st.integers(1, 5),
        padding=st.integers(0, 1),
        size=st.integers(6, 10),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_tiered_binary_conv_matches_interpreter(
        self, num_bases, out_channels, padding, size, seed
    ):
        """ABC-Net tiers (K×-wider binary conv + ``base_fold``) are exact."""
        rng = np.random.default_rng(seed)
        bundle = nn.Sequential(
            BinaryConv2d(2, out_channels, 3, padding=padding, rng=rng)
        )
        engine = WasmModel.load(
            serialize_browser_bundle(bundle, (2, size, size), num_bases=num_bases)
        )
        plan = compile_wasm_plan(engine, 8)
        for n in (1, 3, 8):
            x = rng.standard_normal((n, 2, size, size)).astype(np.float32)
            np.testing.assert_array_equal(plan.execute(x), engine.forward(x))

    @fewer_examples
    @given(
        num_bases=st.integers(2, 4),
        features=st.sampled_from([16, 63, 100]),
        out=st.integers(2, 8),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_tiered_binary_linear_matches_interpreter(
        self, num_bases, features, out, seed
    ):
        """``base_fold`` over flat activations is exact at every width."""
        rng = np.random.default_rng(seed)
        bundle = nn.Sequential(nn.Flatten(), BinaryLinear(features, out, rng=rng))
        engine = WasmModel.load(
            serialize_browser_bundle(bundle, (features, 1, 1), num_bases=num_bases)
        )
        plan = compile_wasm_plan(engine, 8)
        for n in (1, 5):
            x = rng.standard_normal((n, features, 1, 1)).astype(np.float32)
            np.testing.assert_array_equal(plan.execute(x), engine.forward(x))

    @fewer_examples
    @given(num_bases=st.integers(2, 3), seed=st.integers(0, 2**31 - 1))
    def test_tiered_branch_shaped_stack_matches_interpreter(
        self, num_bases, seed
    ):
        """The full LeNet-branch shape at a reduced-accuracy tier."""
        rng = np.random.default_rng(seed)
        bundle = nn.Sequential(
            nn.BatchNorm2d(2),
            BinaryConv2d(2, 4, 3, padding=1, rng=rng),
            nn.MaxPool2d(2),
            nn.BatchNorm2d(4),
            nn.Flatten(),
            BinaryLinear(4 * 5 * 5, 8, rng=rng),
            nn.BatchNorm1d(8),
            nn.Linear(8, 4, rng=rng),
        )
        engine = WasmModel.load(
            serialize_browser_bundle(bundle, (2, 10, 10), num_bases=num_bases)
        )
        plan = compile_wasm_plan(engine, 8)
        x = rng.standard_normal((4, 2, 10, 10)).astype(np.float32)
        np.testing.assert_array_equal(plan.execute(x), engine.forward(x))

    @fewer_examples
    @given(seed=st.integers(0, 2**31 - 1))
    def test_branch_shaped_stack_matches_interpreter(self, seed):
        """The LeNet binary-branch shape: bn→binconv→pool→bn→flatten→binlin.

        The leading batch norm folds into the pad and the one after the
        pool into the pool's store; trained-looking statistics make both
        affines non-trivial, at every SIMD level."""
        rng = np.random.default_rng(seed)
        bundle = nn.Sequential(
            nn.BatchNorm2d(2),
            BinaryConv2d(2, 4, 3, padding=1, rng=rng),
            nn.MaxPool2d(2),
            nn.BatchNorm2d(4),
            nn.Flatten(),
            BinaryLinear(4 * 5 * 5, 8, rng=rng),
            nn.BatchNorm1d(8),
            nn.Linear(8, 4, rng=rng),
        )
        for bn in (bundle[0], bundle[3]):
            c = bn.num_features
            bn.gamma.data[:] = rng.standard_normal(c).astype(np.float32)
            bn.beta.data[:] = rng.standard_normal(c).astype(np.float32)
            bn.running_mean.data[:] = rng.standard_normal(c).astype(np.float32)
            bn.running_var.data[:] = rng.random(c).astype(np.float32) + 0.5
        assert_plan_bit_identical(bundle, (2, 10, 10))
        assert every_isa_agrees(engine_for(bundle, (2, 10, 10)), (2, 10, 10), 8)


class TestAbsMeanKernel:
    @given(
        rows=st.integers(1, 4),
        features=st.one_of(st.integers(1, 300), st.sampled_from([1568, 4608])),
        spread=st.integers(0, 30),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_absmean_rows_matches_numpy_mean(self, rows, features, spread, seed):
        """The C |x| row mean is np.abs(x).mean(axis=1) bit for bit at
        any length: sequential below 8, eight lanes up to 128, and the
        recursive split above (wide exponent spread, so any other
        summation order would round differently)."""
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((rows, features)) * np.exp2(
            rng.integers(-spread, spread + 1, size=(rows, features))
        )
        x = x.astype(np.float32)
        x.reshape(-1)[::7] = 0.0
        out = np.zeros(rows, dtype=np.float32)
        table = np.array(
            [OPCODES["absmean_rows"], x.ctypes.data, out.ctypes.data, features],
            dtype=np.int64,
        )
        assert get_backend().run_program(table.ctypes.data, 1, rows, 0) == 0
        np.testing.assert_array_equal(out, np.abs(x).mean(axis=1))


def run_record(kernel: str, isa: str, n: int, **fields) -> str:
    """Run one kernel record at SIMD level ``isa``; return its variant."""
    ops: list = []
    _PlanBuilder._kernel(ops, kernel, **fields)
    table = np.array(ops[0].words, dtype=np.int64)
    backend = get_backend()
    assert backend.run_program(table.ctypes.data, 1, n, ISA_LEVELS[isa]) == 0
    return backend.record_variant(table.ctypes.data, ISA_LEVELS[isa]).decode()


class TestBinaryKernelsEveryIsa:
    """binconv_prepare and popdot_scale, called directly at every host
    SIMD level: words, kfac and outputs must equal the scalar kernel's
    bit for bit, not only the plan outputs they feed."""

    @settings(max_examples=4)
    @pytest.mark.parametrize("padding", [0, 1])
    @pytest.mark.parametrize("out_width", [1, 7, 8, 9, 14, 15, 16, 17])
    @pytest.mark.parametrize("channels", [1, 6, 7, 8, 14, 16])
    @given(n=st.integers(1, 3), out_height=st.integers(1, 3),
           seed=st.integers(0, 2**31 - 1))
    def test_binconv_prepare_words_every_isa(
        self, channels, out_width, padding, n, out_height, seed
    ):
        """A pre-padded stride-1 gather, as the plans emit it.  c = 8 and
        14 give two-word windows (bit 63 starts a slice that crosses the
        word boundary at c = 8), c = 16 a 144-value window that only the
        scalar kernel serves."""
        k = 3
        h = out_height + k - 1 - 2 * padding
        w = out_width + k - 1 - 2 * padding
        geom = conv_geometry(channels, h, w, k, 1, padding)
        hp, wp = h + 2 * padding, w + 2 * padding
        rng = np.random.default_rng(seed)
        x = np.zeros((n, channels, hp, wp), dtype=np.float32)
        inner = rng.standard_normal((n, channels, h, w)).astype(np.float32)
        flat = inner.reshape(-1)
        flat[rng.random(flat.size) < 0.15] = 0.0
        flat[rng.random(flat.size) < 0.15] = -0.0
        x[:, :, padding:padding + h, padding:padding + w] = inner
        rows, row_len = geom.rows, geom.row_len
        W = (row_len + 63) // 64
        maskw = (
            _widen_to_words(np.ascontiguousarray(geom.mbits), W)
            if geom.mbits is not None else None
        )
        garbage = rng.integers(0, 2**63, size=(n * rows, W), dtype=np.uint64)
        results = {}
        for isa in host_levels():
            words = garbage.copy()
            kfac = np.full(n * rows, np.nan, dtype=np.float32)
            variant = run_record(
                "binconv_prepare", isa, n,
                x=x, abscols=np.zeros(row_len, np.float32) if row_len > 128 else None,
                kfac=kfac, words=words, maskw=maskw, c=channels, h=hp, w=wp,
                k=k, stride=1, pad=0, oh=geom.out_height, ow=geom.out_width, W=W,
            )
            if isa != "scalar" and row_len <= 128 and out_width >= 8:
                assert variant == isa
            results[isa] = (words, kfac.view(np.uint32))
        want_words, want_kfac = results["scalar"]
        for isa, (words, kfac) in results.items():
            np.testing.assert_array_equal(words, want_words, err_msg=isa)
            np.testing.assert_array_equal(kfac, want_kfac, err_msg=isa)

    @settings(max_examples=6)
    @pytest.mark.parametrize("word_count", [1, 2, 3, 13])
    @given(
        rows=st.sampled_from([1, 7, 8, 9, 17, 196]),
        oc=st.integers(1, 5),
        n=st.integers(1, 3),
        per_row_masks=st.booleans(),
        with_bias=st.booleans(),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_popdot_scale_outputs_every_isa(
        self, word_count, rows, oc, n, per_row_masks, with_bias, seed
    ):
        """Every popcount kernel (AVX2 lookup tables, VPOPCNTDQ) against
        the scalar one, with plain and per-row premasked weights."""
        rng = np.random.default_rng(seed)
        W = word_count

        def words(*shape):
            return rng.integers(0, 2**64, size=shape, dtype=np.uint64)

        va = words(n * rows, W)
        vw = None if per_row_masks else words(oc, W)
        vwm = words(oc, rows, W) if per_row_masks else None
        valid = (
            rng.integers(0, 64 * W + 1, size=rows).astype(np.int32)
            if per_row_masks else None
        )
        alpha = rng.standard_normal(oc).astype(np.float32)
        kfac = np.abs(rng.standard_normal(n * rows)).astype(np.float32)
        kfac[::5] = 0.0
        bias = rng.standard_normal(oc).astype(np.float32) if with_bias else None
        results = {}
        for isa in host_levels():
            out = np.full((n, oc, rows), np.nan, dtype=np.float32)
            run_record(
                "popdot_scale", isa, n,
                va=va, vw=vw, vwm=vwm, valid=valid, alpha=alpha, kfac=kfac,
                bias=bias, out=out, rows=rows, oc=oc, W=W,
                fallback_valid=64 * W - 3,
            )
            results[isa] = out.view(np.uint32)
        for isa, out in results.items():
            np.testing.assert_array_equal(out, results["scalar"], err_msg=isa)


class TestBatchShapeProperties:
    @fewer_examples
    @given(capacity=st.sampled_from([1, 2, 8, 16]), seed=st.integers(0, 2**31 - 1))
    def test_every_live_batch_size_is_exact(self, capacity, seed):
        """One plan serves every n ≤ capacity by slicing its arena."""
        rng = np.random.default_rng(seed)
        bundle = nn.Sequential(
            nn.Conv2d(1, 4, 3, padding=1, rng=rng), nn.ReLU(), nn.MaxPool2d(2)
        )
        engine = engine_for(bundle, (1, 8, 8))
        plan = compile_wasm_plan(engine, capacity)
        for n in range(1, capacity + 1):
            x = rng.standard_normal((n, 1, 8, 8)).astype(np.float32)
            np.testing.assert_array_equal(plan.execute(x), engine.forward(x))

    def test_oversized_batch_and_bad_shape_raise(self):
        rng = np.random.default_rng(3)
        engine = engine_for(
            nn.Sequential(nn.Conv2d(1, 2, 3, rng=rng)), (1, 6, 6)
        )
        plan = compile_wasm_plan(engine, 2)
        with pytest.raises(PlanExecutionError):
            plan.execute(np.zeros((3, 1, 6, 6), dtype=np.float32))
        with pytest.raises(PlanExecutionError):
            plan.execute(np.zeros((1, 1, 5, 5), dtype=np.float32))


def assert_trunk_plan_matches_engine(trunk, input_shape, x) -> None:
    """The trunk plan equals its interpreter engine bit for bit, and the
    framework module to ``validate_bundle``'s tolerance."""
    plan = compile_trunk_plan(trunk, input_shape, 4)
    got = plan.execute(x)
    np.testing.assert_array_equal(
        got, wasm.load_trunk_engine(trunk, input_shape).forward(x)
    )
    trunk.eval()
    with no_grad():
        module = trunk(Tensor(x)).data
    np.testing.assert_allclose(got, module, rtol=0, atol=1e-3)


class TestTrunkPlan:
    @fewer_examples
    @given(seed=st.integers(0, 2**31 - 1))
    def test_trunk_plan_matches_interpreter(self, seed):
        rng = np.random.default_rng(seed)
        trunk = nn.Sequential(
            nn.Conv2d(2, 6, 3, padding=1, rng=rng),
            nn.ReLU(),
            nn.MaxPool2d(2),
            nn.Flatten(),
            nn.Linear(6 * 4 * 4, 10, rng=rng),
        )
        x = rng.standard_normal((4, 2, 8, 8)).astype(np.float32)
        assert_trunk_plan_matches_engine(trunk, (2, 8, 8), x)

    @fewer_examples
    @given(seed=st.integers(0, 2**31 - 1))
    def test_trunk_with_batch_norm_and_unfused_relu_matches_interpreter(
        self, seed
    ):
        """Batch-norm (folded to the interpreter's affine) and a relu the
        anchor cannot fuse (it follows the pool) each replay as their own
        kernel record."""
        rng = np.random.default_rng(seed)
        bn = nn.BatchNorm2d(4)
        bn.running_mean.data[:] = rng.standard_normal(4).astype(np.float32)
        bn.running_var.data[:] = rng.random(4).astype(np.float32) + 0.5
        trunk = nn.Sequential(
            nn.Conv2d(2, 4, 3, padding=1, rng=rng),
            nn.MaxPool2d(2),
            bn,
            nn.ReLU(),
            nn.Flatten(),
            nn.Linear(4 * 4 * 4, 5, rng=rng),
        )
        x = rng.standard_normal((3, 2, 8, 8)).astype(np.float32)
        assert_trunk_plan_matches_engine(trunk, (2, 8, 8), x)

    def test_unsupported_trunk_raises_compile_error(self):
        class Opaque(nn.Module):
            def forward(self, x):
                return x

        with pytest.raises(PlanCompileError):
            compile_trunk_plan(nn.Sequential(Opaque()), (1, 4, 4), 2)


class TestEntropyGateProperty:
    @fewer_examples
    @given(
        threshold=st.floats(0.01, 0.99),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_exit_decisions_identical_for_any_threshold(self, threshold, seed):
        """Identical logits ⇒ identical exits at every τ: the gate can
        never disagree between the compiled and interpreted paths."""
        from repro.runtime.session import BrowserClient

        rng = np.random.default_rng(seed)
        stem = nn.Sequential(nn.Conv2d(1, 3, 3, padding=1, rng=rng), nn.MaxPool2d(2))
        branch = nn.Sequential(
            nn.Flatten(), BinaryLinear(3 * 4 * 4, 4, rng=rng)
        )
        client = BrowserClient(
            serialize_browser_bundle(stem, (1, 8, 8)),
            serialize_browser_bundle(branch, (3, 4, 4)),
            threshold,
        )
        x = rng.standard_normal((6, 1, 8, 8)).astype(np.float32)
        client.set_compile_plan(True)
        planned = client.process_batch(x)
        client.set_compile_plan(False)
        interpreted = client.process_batch(x)
        for a, b in zip(planned, interpreted):
            np.testing.assert_array_equal(a, b)


class TestPlanPlumbing:
    def make_engine(self):
        rng = np.random.default_rng(5)
        return engine_for(
            nn.Sequential(nn.Conv2d(1, 2, 3, padding=1, rng=rng), nn.ReLU()),
            (1, 6, 6),
        )

    def test_plan_cache_rounds_up_and_hits(self):
        engine = self.make_engine()
        assert engine.plan_for(3) is engine.plan_for(4)
        info = engine.plan_cache_info()
        assert info["capacities"] == [4]
        assert info["hits"] == 1 and info["misses"] == 1

    def test_plan_cache_is_bounded_lru(self):
        engine = self.make_engine()
        maxsize = engine.plan_cache_info()["maxsize"]
        capacities = [1 << i for i in range(maxsize + 1)]
        for cap in capacities:
            engine.plan_for(cap)
        info = engine.plan_cache_info()
        assert info["size"] == maxsize
        assert capacities[0] not in info["capacities"]
        assert capacities[-1] in info["capacities"]

    def test_clear_plan_cache(self):
        engine = self.make_engine()
        engine.plan_for(2)
        engine.clear_plan_cache()
        info = engine.plan_cache_info()
        assert info["size"] == 0 and info["hits"] == 0 and info["misses"] == 0

    def test_kill_switch_falls_back_to_interpreter(self, monkeypatch):
        monkeypatch.setenv("REPRO_PLAN_NO_CC", "1")
        engine = self.make_engine()
        assert engine.plan_for(4) is None
        assert engine.plan_cache_info()["failures"] == 1
        x = np.random.default_rng(0).standard_normal((2, 1, 6, 6)).astype(np.float32)
        np.testing.assert_array_equal(engine.forward_planned(x), engine.forward(x))

    def test_untraced_execute_does_no_instrumentation_work(self):
        """The default recorder path opens no span; a Tracer still gets
        exactly one span per step."""

        class RefusingRecorder:
            enabled = False

            def _refuse(self, *args, **kwargs):
                raise AssertionError("untraced execute called a span method")

            new_trace = start_span = end_span = span = add_span = _refuse

        engine = self.make_engine()
        plan = compile_wasm_plan(engine, 4)
        x = np.random.default_rng(1).standard_normal((3, 1, 6, 6)).astype(np.float32)
        want = plan.execute(x)
        np.testing.assert_array_equal(plan.execute(x, recorder=RefusingRecorder()), want)

        tracer = Tracer()
        np.testing.assert_array_equal(plan.execute(x, recorder=tracer), want)
        spans = tracer.spans()
        assert [s.name for s in spans] == [f"plan.step[{i}]" for i in range(plan.num_steps)]
        for span, step in zip(spans, plan.steps):
            assert span.attrs == {"step": step.name, "samples": 3}
        desc = plan.describe()
        assert desc["num_steps"] == len(plan.steps)
        assert desc["arena_bytes"] > 0

    def test_profile_plan_reads_step_walls_from_spans(self):
        engine = self.make_engine()
        plan = compile_wasm_plan(engine, 4)
        x = np.random.default_rng(2).standard_normal((3, 1, 6, 6)).astype(np.float32)
        out, desc = wasm.profile_plan(plan, x)
        np.testing.assert_array_equal(out, plan.execute(x))
        assert desc["samples"] == 3
        assert [row["index"] for row in desc["steps"]] == list(range(plan.num_steps))
        assert all(row["wall_ms"] >= 0.0 for row in desc["steps"])

    def test_step_spans_are_emitted(self):
        engine = self.make_engine()
        plan = compile_wasm_plan(engine, 2)
        tracer = Tracer()
        x = np.zeros((2, 1, 6, 6), dtype=np.float32)
        trace = tracer.new_trace()
        plan.execute(x, recorder=tracer, trace_id=trace, track="browser")
        names = [s.name for s in tracer.spans()]
        assert names == [f"plan.step[{i}]" for i in range(plan.num_steps)]
        assert all(s.attrs["samples"] == 2 for s in tracer.spans())


def literal_linear_spec(x, w_t):
    """The specified order spelled out: for k ascending, from +0.0, add
    the rounded products."""
    acc = np.zeros((x.shape[0], w_t.shape[1]), dtype=np.float32)
    for k in range(x.shape[1]):
        acc = acc + x[:, k : k + 1] * w_t[k : k + 1]
    return acc


def spec_operands(m, k, n, seed):
    """x (m, k) and w_t (k, n) over a wide exponent range: subnormal
    products, large magnitudes, and exact ±0.0 in both operands."""
    rng = np.random.default_rng(seed)

    def draw(*shape):
        a = rng.standard_normal(shape) * np.exp2(rng.integers(-75, 60, size=shape))
        a = a.astype(np.float32)
        flat = a.reshape(-1)
        flat[rng.random(flat.size) < 0.1] = 0.0
        flat[rng.random(flat.size) < 0.1] = -0.0
        return a

    return draw(m, k), draw(k, n)


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float32).view(np.uint32)


class TestLinearSpec:
    """The linear layers' reduction order is a specification: the
    interpreter's reduce form must equal the literal loop, and the
    plans' linear_seq kernel must equal the spec at every SIMD level,
    bit for bit (signed zeros included)."""

    @fewer_examples
    @given(
        m=st.integers(1, 33), k=st.integers(1, 800), n=st.integers(1, 130),
        seed=st.integers(0, 2**31 - 1),
    )
    @example(m=1, k=1, n=1, seed=0)
    @example(m=33, k=800, n=130, seed=1)
    # One output column: a (K, rows, 1) product tensor whose rows axis
    # follows x.T's memory order is reduced pairwise by NumPy.
    @example(m=32, k=375, n=1, seed=0)
    def test_reduce_form_equals_literal_loop(self, m, k, n, seed):
        x, w_t = spec_operands(m, k, n, seed)
        np.testing.assert_array_equal(
            bits(wasm.linear_spec(x, w_t)), bits(literal_linear_spec(x, w_t))
        )

    def test_all_negative_zero_products_sum_to_positive_zero(self):
        x = np.full((2, 3), -0.0, dtype=np.float32)
        w_t = np.ones((3, 2), dtype=np.float32)
        assert not np.signbit(wasm.linear_spec(x, w_t)).any()

    @fewer_examples
    @given(
        m=st.integers(1, 33), k=st.integers(1, 800), n=st.integers(1, 130),
        scale=st.booleans(), bias=st.booleans(), relu=st.booleans(),
        seed=st.integers(0, 2**31 - 1),
    )
    @example(m=1, k=1, n=1, scale=False, bias=False, relu=False, seed=0)
    @example(m=5, k=400, n=120, scale=False, bias=True, relu=True, seed=0)
    @example(m=3, k=84, n=10, scale=True, bias=True, relu=False, seed=0)
    def test_linear_seq_equals_spec_every_isa(
        self, m, k, n, scale, bias, relu, seed
    ):
        """Row tails (m % 4), column tails (n % 8, n % 16, n % 32) and the
        scale/bias/relu epilogue, at every SIMD level the host runs."""
        x, w_t = spec_operands(m, k, n, seed)
        rng = np.random.default_rng(seed + 1)
        alpha = rng.standard_normal(n).astype(np.float32) if scale else None
        beta = rng.standard_normal(n).astype(np.float32) if bias else None
        want = wasm.linear_spec(x, w_t)
        if alpha is not None:
            want = want * alpha
        if beta is not None:
            want = want + beta
        if relu:
            want = np.maximum(want, 0.0)
        ldw = -(-n // 16) * 16

        def padded(a):
            wide = np.zeros(a.shape[:-1] + (ldw,), dtype=np.float32)
            wide[..., :n] = a
            return wide

        for isa in host_levels():
            out = np.full((m, n), np.nan, dtype=np.float32)
            variant = run_record(
                "linear_seq", isa, m,
                x=x, wt=padded(w_t),
                scale=None if alpha is None else padded(alpha),
                bias=None if beta is None else padded(beta),
                out=out, k=k, out_features=n, ldw=ldw, relu_mode=int(relu),
            )
            assert variant == isa
            np.testing.assert_array_equal(bits(out), bits(want), err_msg=isa)


class TestNoBlasOnRequestPath:
    @pytest.mark.parametrize("capacity", [1, 2, 4, 8, 16])
    def test_lenet_plans_are_native_and_replay_in_one_call(
        self, capacity, monkeypatch
    ):
        """The LeNet stem, branch and trunk compile at their first tier
        with every runner native, so no NumPy (and no BLAS) runs on the
        request path, and an untraced replay is one run_program call."""
        backend = get_backend()
        calls = []

        class CountingBackend:
            def run_program(self, *args):
                calls.append(args)
                return backend.run_program(*args)

            def record_variant(self, *args):
                return backend.record_variant(*args)

        monkeypatch.setattr(plan_module, "get_backend", CountingBackend)
        network = lenet(rng=np.random.default_rng(0))
        branch_net = build_binary_branch((6, 14, 14), 10, rng=np.random.default_rng(1))
        engines = {
            "stem": engine_for(network.stem, (1, 28, 28)),
            "branch": engine_for(branch_net, (6, 14, 14)),
            "trunk": wasm.load_trunk_engine(network.trunk, (6, 14, 14)),
        }
        for name, engine in engines.items():
            plan = compile_wasm_plan(engine, capacity)
            assert plan.tier == {}, name
            runners = [r for step in plan.steps for r in step.runners]
            assert all(isinstance(r, NativeSegment) for r in runners), name
            x = plan_module._probe_batch(tuple(engine.input_shape), capacity)
            calls.clear()
            got = plan.execute(x)
            assert len(calls) == 1, name
            np.testing.assert_array_equal(got, engine.forward(x), err_msg=name)


class TestRecordTable:
    def test_lenet_stem_step_replays_in_one_native_call(self):
        """Traced, the stem's one step is one native call of its own."""
        network = lenet(rng=np.random.default_rng(0))
        engine = engine_for(network.stem, (1, 28, 28))
        plan = compile_wasm_plan(engine, 8)
        (step,) = plan.steps
        (segment,) = step.runners
        assert isinstance(segment, NativeSegment)
        assert segment.kernels == ("pad_nchw", "conv_direct", "maxpool_nchw")
        calls = []
        native = segment._run
        segment._run = lambda *args: calls.append(args) or native(*args)
        x = np.random.default_rng(1).standard_normal((5, 1, 28, 28)).astype(np.float32)
        got = plan.execute(x, recorder=Tracer())
        np.testing.assert_array_equal(got, engine.forward(x))
        assert len(calls) == 1

    @pytest.mark.parametrize("capacity", [1, 8, 16])
    def test_lenet_plans_keep_their_first_tier(self, capacity):
        """Stem, branch and trunk keep the direct conv and the fused C
        means at every serving capacity: a fast kernel that failed the
        probe would step the plan down a tier and fail here, instead of
        hiding behind the equality tests.  The branch runs the host's
        best binary kernels: the row-sign prepare at its SIMD level, and
        the VPOPCNTDQ popdot exactly when the CPU has VPOPCNTDQ, so a
        silent fallback fails here too."""
        network = lenet(rng=np.random.default_rng(0))
        stem = compile_wasm_plan(engine_for(network.stem, (1, 28, 28)), capacity)
        branch_net = build_binary_branch((6, 14, 14), 10, rng=np.random.default_rng(1))
        branch = compile_wasm_plan(engine_for(branch_net, (6, 14, 14)), capacity)
        # the ABC-Net accuracy tiers of the same branch
        tiers = [
            compile_wasm_plan(
                WasmModel.load(
                    serialize_browser_bundle(branch_net, (6, 14, 14), num_bases=k)
                ),
                capacity,
            )
            for k in (2, 3)
        ]
        trunk = compile_trunk_plan(network.trunk, (6, 14, 14), capacity)
        assert all(plan.tier == {} for plan in tiers)
        for plan in (stem, branch, trunk):
            assert plan.tier == {}
            # every conv and binary step replays in one native call
            for step in plan.steps:
                if {"conv2d", "binary_conv2d", "binary_linear"} & set(step.kinds):
                    (segment,) = step.runners
                    assert isinstance(segment, NativeSegment)
        best = host_isa()
        conv = {"avx512": ("pos_avx512", "chan_avx512"),
                "avx2": ("pos_avx2", "chan_avx2")}.get(best, ("scalar", "scalar"))
        assert f"conv_direct:{conv[0]}" in native_kernels(stem)
        assert f"conv_direct:{conv[1]}" in native_kernels(trunk)
        branch_kernels = {v.split(":")[0] for v in native_kernels(branch)}
        assert {"binconv_prepare", "absmean_rows"} <= branch_kernels
        prepare = {"avx512": "avx512", "avx2": "avx2"}.get(best, "scalar")
        popdot = {"avx512": ("w1_avx2", "avx2"), "avx2": ("w1_avx2", "avx2")}.get(
            best, ("scalar", "scalar")
        )
        flags = cpu_flags()
        if best == "avx512" and flags is not None and "avx512_vpopcntdq" in flags:
            popdot = ("w1_vpopcntdq", "vpopcntdq")
        for plan in (branch, *tiers):
            binary = [
                k for k in native_kernels(plan)
                if k.startswith(("binconv_prepare:", "popdot_scale:"))
            ]
            # the conv's prepare and one-word popdot, the linear's popdot
            if best != "avx512" or flags is not None:
                assert binary == [
                    f"binconv_prepare:{prepare}",
                    f"popdot_scale:{popdot[0]}",
                    f"popdot_scale:{popdot[1]}",
                ]
            else:
                assert binary[0] == f"binconv_prepare:{prepare}"
            described = [k for s in plan.describe()["steps"] for k in s["kernels"]]
            assert described == native_kernels(plan)

    def test_avx512_probe_failure_steps_down_to_avx2(self, monkeypatch):
        """A failing AVX-512 kernel costs the plan its AVX-512 tier only:
        the AVX2 kernels (direct conv included) take over."""
        if host_isa() != "avx512":
            pytest.skip("host has no AVX-512")
        verify = plan_module._verify

        def reject_avx512(plan, reference, x):
            for step in plan.steps:
                for runner in step.runners:
                    if isinstance(runner, NativeSegment) and (
                        runner._isa > ISA_LEVELS["avx2"]
                    ):
                        raise PlanVerificationError("simulated AVX-512 mismatch")
            return verify(plan, reference, x)

        monkeypatch.setattr(plan_module, "_verify", reject_avx512)
        network = lenet(rng=np.random.default_rng(0))
        plan = compile_wasm_plan(engine_for(network.stem, (1, 28, 28)), 8)
        assert plan.tier == {"isa": "avx2"}
        assert "conv_direct:pos_avx2" in native_kernels(plan)

    def test_source_compiles_without_avx512_intrinsics(self, tmp_path):
        """PLAN_NO_AVX512 (what a compiler without AVX-512 intrinsics
        gets) still builds every kernel, capped at AVX2."""
        cc = _find_compiler()
        if cc is None:
            pytest.skip("no C compiler")
        src = tmp_path / "kernels.c"
        src.write_text(_SOURCE)
        lib_path = tmp_path / "kernels.so"
        flags = [f for f in _CFLAGS if f != "-O3"]  # compiles, not speed
        subprocess.run(
            [cc, *flags, "-DPLAN_NO_AVX512", str(src), "-lm", "-o", str(lib_path)],
            check=True, capture_output=True,
        )
        lib = ctypes.CDLL(str(lib_path))
        assert lib.host_isa() <= ISA_LEVELS["avx2"]

    def test_unknown_opcode_raises_instead_of_skipping(self):
        rng = np.random.default_rng(4)
        engine = engine_for(
            nn.Sequential(nn.Conv2d(1, 2, 3, padding=1, rng=rng), nn.MaxPool2d(2)),
            (1, 6, 6),
        )
        plan = compile_wasm_plan(engine, 2)
        (segment,) = plan.steps[0].runners
        x = np.ones((2, 1, 6, 6), dtype=np.float32)
        for table in (plan.program.table, segment.table):
            table[0] = max(OPCODES.values()) + 1
        with pytest.raises(PlanExecutionError, match="record 0 .*unknown opcode"):
            plan.execute(x)  # the whole-plan table
        with pytest.raises(PlanExecutionError, match="record 0 .*unknown opcode"):
            plan.execute(x, recorder=Tracer())  # the step's own table

    def test_property_suite_exercises_every_opcode(self):
        """Runs last: the plans compiled by this module, together, must
        dispatch every kernel in the opcode table."""
        assert EXERCISED_KERNELS == set(OPCODES)
