"""Standalone browser-side inference engine for ``.lcrs`` models.

This is the reproduction of the paper's JavaScript/WASM library
(Figure 3): an interpreter that executes the browser bundle *from the
serialized bytes alone* — no training-framework objects — using the
integer XNOR + popcount kernels a WASM implementation would use for the
binary layers.  The paper validates its library against PyTorch outputs;
:mod:`repro.wasm.validation` performs the same cross-check against the
training framework.

Zero padding makes binarized convolution inputs ternary {−1, 0, +1}, so
activations are packed as value+mask bitplane pairs; see
:mod:`repro.wasm.bitpack` for the masked popcount dot product.

Compilation is *geometry-complete*: the bundle's input shape fixes every
layer's spatial geometry, so all data-independent artifacts — output
sizes, padding-validity mask columns and their packed bitplanes,
reshaped/unpacked weight matrices — are computed once at load time and
cached (shared across engine instances via :func:`conv_geometry`).
``forward`` does only data-dependent work per call, the same split a
WASM module makes between instantiation and invocation.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .bitpack import pack_signs, packed_dot, unpack_signs
from .model_format import ModelFormatError, ParsedModel, parse_model


@dataclass(frozen=True)
class ConvGeometry:
    """Data-independent im2col artifacts for one (shape, kernel) tuple.

    ``valid_cols``/``mbits`` describe which positions of each im2col row
    are real input (vs zero padding) for *one* sample; they are shared by
    every sample in a batch and every engine with the same layer shape.
    """

    in_channels: int
    height: int
    width: int
    kernel: int
    stride: int
    padding: int
    out_height: int
    out_width: int
    #: im2col row count per sample (``out_height · out_width``).
    rows: int
    #: im2col row length (``in_channels · kernel²``).
    row_len: int
    #: Boolean validity of each im2col position, ``(rows, row_len)``;
    #: ``None`` when there is no padding (every position valid).
    valid_cols: Optional[np.ndarray]
    #: Packed validity bitplanes, ``(rows, ceil(row_len/8))``; ``None``
    #: when there is no padding.
    mbits: Optional[np.ndarray]


class _GeometryCache:
    """Process-wide LRU geometry cache, safe for concurrent engines.

    Explicitly keyed by every parameter the artifacts depend on —
    ``(c, h, w, kernel, stride, padding)``.  The cached masks are
    independent of kernel-execution knobs (the block size), which key
    the per-configuration dot stats in :mod:`repro.wasm.bitpack`
    instead.  LRU-bounded so long multi-tenant
    runs sweeping many model geometries cannot grow it without bound.

    All access — lookup, stats increments, insertion, and the eviction
    loop — happens under one lock: concurrent misses used to lose
    hit/miss counts and could double-pop the LRU (``KeyError``).  The
    artifact *computation* runs outside the lock (it is pure and
    deterministic, so a racing duplicate build is wasted work, never a
    wrong answer); insertion re-checks the key and keeps the first
    build, counting the loser's work as a miss that inserted nothing.
    """

    def __init__(self, maxsize: int) -> None:
        self._lock = threading.Lock()
        self._cache: "OrderedDict[tuple[int, int, int, int, int, int], ConvGeometry]" = (
            OrderedDict()
        )
        self.maxsize = maxsize
        self._stats = {"hits": 0, "misses": 0, "evictions": 0}

    def lookup(self, key) -> Optional[ConvGeometry]:
        with self._lock:
            cached = self._cache.get(key)
            if cached is not None:
                self._stats["hits"] += 1
                self._cache.move_to_end(key)
            else:
                self._stats["misses"] += 1
            return cached

    def insert(self, key, geometry: ConvGeometry) -> ConvGeometry:
        with self._lock:
            existing = self._cache.get(key)
            if existing is not None:
                return existing
            self._cache[key] = geometry
            while len(self._cache) > self.maxsize:
                self._cache.popitem(last=False)
                self._stats["evictions"] += 1
            return geometry

    def info(self) -> dict[str, int]:
        with self._lock:
            return {"size": len(self._cache), "maxsize": self.maxsize, **self._stats}

    def clear(self) -> None:
        with self._lock:
            self._cache.clear()
            self._stats.update(hits=0, misses=0, evictions=0)


_GEOMETRY_CACHE = _GeometryCache(maxsize=128)


def geometry_cache_info() -> dict[str, int]:
    """Hit/miss/eviction counts and occupancy of the geometry cache."""
    return _GEOMETRY_CACHE.info()


def clear_geometry_cache() -> None:
    """Drop all cached geometries and reset the cache statistics."""
    _GEOMETRY_CACHE.clear()


def conv_geometry(
    c: int, h: int, w: int, kernel: int, stride: int, padding: int
) -> ConvGeometry:
    """Cached geometry artifacts for an im2col with the given parameters."""
    key = (c, h, w, kernel, stride, padding)
    cached = _GEOMETRY_CACHE.lookup(key)
    if cached is not None:
        return cached

    oh = (h + 2 * padding - kernel) // stride + 1
    ow = (w + 2 * padding - kernel) // stride + 1
    rows = oh * ow
    row_len = c * kernel * kernel

    valid_cols: Optional[np.ndarray] = None
    mbits: Optional[np.ndarray] = None
    if padding > 0:
        valid = np.zeros((1, c, h + 2 * padding, w + 2 * padding), dtype=bool)
        valid[:, :, padding : padding + h, padding : padding + w] = True
        valid_cols = _unfold(np.ascontiguousarray(valid), kernel, stride, oh, ow)
        valid_cols.setflags(write=False)
        mbits = np.packbits(valid_cols.astype(np.uint8), axis=1)
        mbits.setflags(write=False)

    geometry = ConvGeometry(
        in_channels=c,
        height=h,
        width=w,
        kernel=kernel,
        stride=stride,
        padding=padding,
        out_height=oh,
        out_width=ow,
        rows=rows,
        row_len=row_len,
        valid_cols=valid_cols,
        mbits=mbits,
    )
    return _GEOMETRY_CACHE.insert(key, geometry)


def _unfold(a: np.ndarray, kernel: int, stride: int, oh: int, ow: int) -> np.ndarray:
    """Extract sliding windows of an NCHW array into im2col rows."""
    n, c = a.shape[:2]
    s0, s1, s2, s3 = a.strides
    win = np.lib.stride_tricks.as_strided(
        a,
        shape=(n, c, oh, ow, kernel, kernel),
        strides=(s0, s1, s2 * stride, s3 * stride, s2, s3),
        writeable=False,
    )
    return win.transpose(0, 2, 3, 1, 4, 5).reshape(n * oh * ow, c * kernel * kernel)


#: Elements of one tile of :func:`linear_spec`'s product tensor (256 KB).
_SPEC_BLOCK_ELEMS = 1 << 16


def linear_spec(x: np.ndarray, w_t: np.ndarray) -> np.ndarray:
    """``x @ w_t`` in the one reduction order the plans implement.

    For each output, the float32 products ``x[i, k] * w_t[k, j]`` are
    each rounded, then summed over ``k`` in ascending order starting
    from +0.0, one rounded add at a time: no FMA, no blocking, no
    pairwise tree.  BLAS picks its order per shape and thread count, so
    no kernel can match it in general; this order is the specification
    the compiled plans' ``linear_seq`` kernel implements bit for bit.

    It runs as an outer-axis ``np.add.reduce`` over the ``(K, rows, N)``
    product tensor, which NumPy accumulates one K slice at a time.  The
    tensor is built in tiles of rows and columns of about
    ``_SPEC_BLOCK_ELEMS`` elements, so large batches and wide layers
    stay bounded.  Every tile keeps at least two outputs: NumPy sums a
    lone contiguous axis pairwise.
    """
    x = np.asarray(x, dtype=np.float32)
    k, n = w_t.shape
    if n == 1:
        return linear_spec(x, np.repeat(w_t, 2, axis=1))[:, :1]
    rows = x.shape[0]
    out = np.empty((rows, n), dtype=np.float32)
    cols = min(n, max(2, _SPEC_BLOCK_ELEMS // max(1, k)))
    rows_per_tile = max(1, _SPEC_BLOCK_ELEMS // max(1, k * cols))
    for r0 in range(0, rows, rows_per_tile):
        xt = x[r0 : r0 + rows_per_tile].T[:, :, None]
        for c0 in range(0, n, cols):
            c0 = min(c0, n - cols)  # the last tile overlaps its neighbour
            prod = np.empty((k, xt.shape[1], cols), dtype=np.float32)
            np.multiply(xt, w_t[:, None, c0 : c0 + cols], out=prod)
            np.add.reduce(
                prod, axis=0, out=out[r0 : r0 + rows_per_tile, c0 : c0 + cols],
                initial=0.0,
            )
    return out


def _im2col(x: np.ndarray, geom: ConvGeometry) -> np.ndarray:
    """im2col an NCHW batch using precomputed geometry.

    Padded positions come out as 0.0; ``geom.valid_cols`` tells which
    positions those are without any per-call mask computation.
    """
    if geom.padding > 0:
        pad = geom.padding
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    return _unfold(x, geom.kernel, geom.stride, geom.out_height, geom.out_width)


def _im2col_with_mask(
    x: np.ndarray, kernel: int, stride: int, padding: int
) -> tuple[np.ndarray, np.ndarray, int, int]:
    """im2col returning both columns and a padding-validity mask.

    Compatibility wrapper over the cached-geometry path; the compiled
    ops use :func:`conv_geometry` + :func:`_im2col` directly.
    """
    n, c, h, w = x.shape
    geom = conv_geometry(c, h, w, kernel, stride, padding)
    cols = _im2col(x, geom)
    if geom.valid_cols is None:
        valid = np.ones((n * geom.rows, geom.row_len), dtype=bool)
    else:
        valid = np.broadcast_to(
            geom.valid_cols[None], (n, geom.rows, geom.row_len)
        ).reshape(n * geom.rows, geom.row_len)
    return cols, valid, geom.out_height, geom.out_width


class WasmModel:
    """Executable ``.lcrs`` model.

    The constructor compiles the parsed layer specs into a list of
    numpy kernels, threading the (batch-free) activation shape through
    the builders so every geometry-dependent artifact — output sizes,
    validity-mask bitplanes, reshaped weight matrices — exists before
    the first :meth:`forward` call.  Binary layers keep their packed
    weight bitplanes resident, exactly as the WASM module would keep
    them in linear memory.
    """

    def __init__(self, parsed: ParsedModel) -> None:
        self.input_shape = parsed.input_shape
        self.metadata = parsed.metadata
        #: Retained layer specs: the trace-compiler in
        #: :mod:`repro.wasm.plan` re-reads them to build fused plans.
        self.parsed = parsed
        self._ops: list[Callable[[np.ndarray], np.ndarray]] = []
        self._build(parsed)
        # Compiled-plan cache: capacity (rounded up to a power of two)
        # → CompiledPlan, or None when compilation/verification failed
        # for that capacity (so the fallback decision is cached too).
        # The lock covers lookup, compile, and insert: concurrent first
        # use of a capacity compiles exactly once (later threads block
        # briefly and reuse the winner's plan).
        self._plan_cache: "OrderedDict[int, object]" = OrderedDict()
        self._plan_cache_maxsize = 4
        self._plan_cache_stats = {"hits": 0, "misses": 0, "failures": 0}
        self._plan_cache_lock = threading.Lock()

    @classmethod
    def load(cls, payload: bytes) -> "WasmModel":
        return cls(parse_model(payload))

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def _build(self, parsed: ParsedModel) -> None:
        shape = tuple(int(d) for d in parsed.input_shape)
        for spec in parsed.layers:
            kind = spec["type"]
            builder = getattr(self, f"_op_{kind}", None)
            if builder is None:
                raise ModelFormatError(f"interpreter has no kernel for {kind!r}")
            op, shape = builder(spec, parsed, shape)
            self._ops.append(op)

    @staticmethod
    def _conv_geom(spec: dict, in_shape: tuple[int, ...]) -> ConvGeometry:
        if len(in_shape) != 3:
            raise ModelFormatError(
                f"{spec['type']} expects a CHW input, got shape {in_shape}"
            )
        c, h, w = in_shape
        return conv_geometry(
            c, h, w, int(spec["kernel_size"]), int(spec["stride"]), int(spec["padding"])
        )

    # -- float layers ---------------------------------------------------
    def _op_conv2d(
        self, spec: dict, parsed: ParsedModel, in_shape: tuple[int, ...]
    ) -> tuple[Callable, tuple[int, ...]]:
        weight = parsed.buffer(spec["weight"]).astype(np.float32)
        bias = parsed.buffer(spec["bias"]).astype(np.float32) if "bias" in spec else None
        oc = int(spec["out_channels"])
        geom = self._conv_geom(spec, in_shape)
        w_mat_t = np.ascontiguousarray(weight.reshape(oc, -1).T)

        def op(x: np.ndarray) -> np.ndarray:
            n = x.shape[0]
            out = _im2col(x, geom) @ w_mat_t
            if bias is not None:
                out += bias
            return out.reshape(n, geom.out_height, geom.out_width, oc).transpose(
                0, 3, 1, 2
            )

        return op, (oc, geom.out_height, geom.out_width)

    def _op_linear(
        self, spec: dict, parsed: ParsedModel, in_shape: tuple[int, ...]
    ) -> tuple[Callable, tuple[int, ...]]:
        weight = parsed.buffer(spec["weight"]).astype(np.float32)
        bias = parsed.buffer(spec["bias"]).astype(np.float32) if "bias" in spec else None
        w_t = np.ascontiguousarray(weight.T)

        def op(x: np.ndarray) -> np.ndarray:
            out = linear_spec(x, w_t)
            return out + bias if bias is not None else out

        return op, (int(spec["out_features"]),)

    def _op_batch_norm(
        self, spec: dict, parsed: ParsedModel, in_shape: tuple[int, ...]
    ) -> tuple[Callable, tuple[int, ...]]:
        gamma = parsed.buffer(spec["gamma"]).astype(np.float32)
        beta = parsed.buffer(spec["beta"]).astype(np.float32)
        mean = parsed.buffer(spec["running_mean"]).astype(np.float32)
        var = parsed.buffer(spec["running_var"]).astype(np.float32)
        eps = float(spec["eps"])
        scale = gamma / np.sqrt(var + eps)
        shift = beta - mean * scale
        scale_nchw = scale[None, :, None, None]
        shift_nchw = shift[None, :, None, None]

        def op(x: np.ndarray) -> np.ndarray:
            if x.ndim == 4:
                return x * scale_nchw + shift_nchw
            return x * scale + shift

        return op, in_shape

    def _op_relu(
        self, spec: dict, parsed: ParsedModel, in_shape: tuple[int, ...]
    ) -> tuple[Callable, tuple[int, ...]]:
        return (lambda x: np.maximum(x, 0.0)), in_shape

    def _op_flatten(
        self, spec: dict, parsed: ParsedModel, in_shape: tuple[int, ...]
    ) -> tuple[Callable, tuple[int, ...]]:
        flat = int(np.prod(in_shape))
        return (lambda x: x.reshape(x.shape[0], -1)), (flat,)

    def _op_max_pool2d(
        self, spec: dict, parsed: ParsedModel, in_shape: tuple[int, ...]
    ) -> tuple[Callable, tuple[int, ...]]:
        k = int(spec["kernel_size"])
        stride = int(spec["stride"])
        c, h, w = in_shape
        geom = conv_geometry(c, h, w, k, stride, 0)
        oh, ow = geom.out_height, geom.out_width

        if stride == k and h % k == 0 and w % k == 0:
            # Non-overlapping windows tile the input exactly: pool as an
            # elementwise maximum over the k² window offsets — strided
            # views, no im2col materialisation, one pass per offset.
            offsets = [(di, dj) for di in range(k) for dj in range(k)]

            def op(x: np.ndarray) -> np.ndarray:
                out = np.ascontiguousarray(x[:, :, 0::k, 0::k])
                for di, dj in offsets[1:]:
                    np.maximum(out, x[:, :, di::k, dj::k], out=out)
                return out

        else:

            def op(x: np.ndarray) -> np.ndarray:
                n = x.shape[0]
                cols = _im2col(x, geom).reshape(-1, c, k * k)
                return cols.max(axis=2).reshape(n, oh, ow, c).transpose(0, 3, 1, 2)

        return op, (c, oh, ow)

    def _op_global_avg_pool2d(
        self, spec: dict, parsed: ParsedModel, in_shape: tuple[int, ...]
    ) -> tuple[Callable, tuple[int, ...]]:
        return (lambda x: x.mean(axis=(2, 3))), (in_shape[0],)

    # -- binary layers ----------------------------------------------------
    def _op_binary_conv2d(
        self, spec: dict, parsed: ParsedModel, in_shape: tuple[int, ...]
    ) -> tuple[Callable, tuple[int, ...]]:
        packed_w = parsed.buffer(spec["weight_bits"]).astype(np.uint8)
        alpha = parsed.buffer(spec["alpha"]).astype(np.float32)
        bias = parsed.buffer(spec["bias"]).astype(np.float32) if "bias" in spec else None
        oc = int(spec["out_channels"])
        binarize_input = bool(spec["binarize_input"])
        geom = self._conv_geom(spec, in_shape)
        out_shape = (oc, geom.out_height, geom.out_width)
        alpha_row = alpha[None, :]

        if binarize_input:
            bit_length = geom.row_len

            def op(x: np.ndarray) -> np.ndarray:
                n = x.shape[0]
                # One unfold serves both Eq. 4 factors: the K sub-tensor
                # factor is the window mean of mean_c|x|, which (uniform
                # weights) equals the row mean of |columns| — padded
                # positions contribute their true zeros.
                cols = _im2col(x, geom)
                kfac = np.abs(cols).mean(axis=1)
                bits = cols >= 0  # sign(0) = +1, as in training sign_ste
                if geom.valid_cols is not None:
                    bits = bits.reshape(n, geom.rows, geom.row_len)
                    bits &= geom.valid_cols[None]
                    bits = bits.reshape(n * geom.rows, geom.row_len)
                    vbits = np.packbits(bits, axis=1)
                    # The geometry mask applies cyclically across samples.
                    dots = packed_dot(vbits, packed_w, mask=geom.mbits)
                else:
                    vbits = np.packbits(bits, axis=1)
                    dots = packed_dot(vbits, packed_w, length=bit_length)
                out = dots * alpha_row * kfac[:, None]
                if bias is not None:
                    out += bias
                return (
                    out.reshape(n, geom.out_height, geom.out_width, oc)
                    .transpose(0, 3, 1, 2)
                    .astype(np.float32)
                )

        else:
            signs_t = np.ascontiguousarray(
                unpack_signs(packed_w, int(spec["bit_length"])).T
            )

            def op(x: np.ndarray) -> np.ndarray:
                n = x.shape[0]
                out = (_im2col(x, geom) @ signs_t) * alpha_row
                if bias is not None:
                    out += bias
                return (
                    out.reshape(n, geom.out_height, geom.out_width, oc)
                    .transpose(0, 3, 1, 2)
                    .astype(np.float32)
                )

        return op, out_shape

    def _op_binary_linear(
        self, spec: dict, parsed: ParsedModel, in_shape: tuple[int, ...]
    ) -> tuple[Callable, tuple[int, ...]]:
        packed_w = parsed.buffer(spec["weight_bits"]).astype(np.uint8)
        alpha = parsed.buffer(spec["alpha"]).astype(np.float32)
        bias = parsed.buffer(spec["bias"]).astype(np.float32) if "bias" in spec else None
        bit_length = int(spec["bit_length"])
        binarize_input = bool(spec["binarize_input"])
        alpha_row = alpha[None, :]

        if binarize_input:

            def op(x: np.ndarray) -> np.ndarray:
                beta = np.abs(x).mean(axis=1, keepdims=True)
                vbits = np.packbits((x >= 0), axis=1)
                dots = packed_dot(vbits, packed_w, length=bit_length)
                out = dots * alpha_row * beta
                if bias is not None:
                    out += bias
                return out.astype(np.float32)

        else:
            signs_t = np.ascontiguousarray(unpack_signs(packed_w, bit_length).T)

            def op(x: np.ndarray) -> np.ndarray:
                out = linear_spec(x, signs_t) * alpha_row
                if bias is not None:
                    out += bias
                return out.astype(np.float32)

        return op, (int(spec["out_features"]),)

    def _op_base_fold(
        self, spec: dict, parsed: ParsedModel, in_shape: tuple[int, ...]
    ) -> tuple[Callable, tuple[int, ...]]:
        """Sum the K base groups of a widened ABC-Net binary layer.

        The preceding binary layer carries K base sign-planes stacked
        base-major along its output axis; this op reshapes the widened
        activation to ``(n, K, ...)`` and sums over the base axis,
        recovering ``Σ_k α_k·(B_k ⊛ x̃)`` — plus the layer bias, which
        serialization relocates here so it is added once, not K times.
        """
        groups = int(spec["groups"])
        if groups < 1:
            raise ModelFormatError("base_fold groups must be at least 1")
        bias = parsed.buffer(spec["bias"]).astype(np.float32) if "bias" in spec else None
        if len(in_shape) == 3:
            kc, h, w = in_shape
            if kc % groups:
                raise ModelFormatError(
                    f"base_fold: {kc} channels not divisible by {groups} groups"
                )
            oc = kc // groups
            bias_nchw = bias[None, :, None, None] if bias is not None else None

            def op(x: np.ndarray) -> np.ndarray:
                n = x.shape[0]
                out = x.reshape(n, groups, oc, h, w).sum(axis=1)
                if bias_nchw is not None:
                    out = out + bias_nchw
                return out.astype(np.float32)

            return op, (oc, h, w)

        if len(in_shape) == 1:
            kf = in_shape[0]
            if kf % groups:
                raise ModelFormatError(
                    f"base_fold: {kf} features not divisible by {groups} groups"
                )
            f = kf // groups

            def op(x: np.ndarray) -> np.ndarray:
                n = x.shape[0]
                out = x.reshape(n, groups, f).sum(axis=1)
                if bias is not None:
                    out = out + bias
                return out.astype(np.float32)

            return op, (f,)

        raise ModelFormatError(
            f"base_fold expects a CHW or flat input, got shape {in_shape}"
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        """Run the full bundle on an NCHW float32 batch."""
        x = np.ascontiguousarray(x, dtype=np.float32)
        expected = tuple(self.input_shape)
        if tuple(x.shape[1:]) != expected:
            raise ValueError(f"expected input shape (N, {expected}), got {x.shape}")
        for op in self._ops:
            x = op(x)
        return x

    __call__ = forward

    # ------------------------------------------------------------------
    # Compiled plans (record-once / replay-many fast path)
    # ------------------------------------------------------------------
    def plan_for(self, batch_size: int):
        """The compiled plan serving batches of up to ``batch_size``.

        The cache key is the capacity rounded up to a power of two, so a
        session's ragged tail chunks reuse the full-chunk plan (replay
        slices every arena buffer to the live batch).  Returns ``None``
        when compilation or bit-identity verification failed — callers
        fall back to :meth:`forward`, which stays the reference path.
        """
        batch_size = int(batch_size)
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        capacity = 1 << (batch_size - 1).bit_length()
        with self._plan_cache_lock:
            cached = self._plan_cache.get(capacity, _PLAN_UNSET)
            if cached is not _PLAN_UNSET:
                self._plan_cache_stats["hits"] += 1
                self._plan_cache.move_to_end(capacity)
                return cached
            from .plan import compile_wasm_plan

            self._plan_cache_stats["misses"] += 1
            try:
                plan = compile_wasm_plan(self, capacity)
            except Exception:
                plan = None
            if plan is None:
                self._plan_cache_stats["failures"] += 1
            self._plan_cache[capacity] = plan
            while len(self._plan_cache) > self._plan_cache_maxsize:
                self._plan_cache.popitem(last=False)
            return plan

    def forward_planned(
        self,
        x: np.ndarray,
        *,
        recorder=None,
        trace_id: str = "",
        track: str = "browser",
    ) -> np.ndarray:
        """Run via the compiled plan, falling back to :meth:`forward`.

        Bit-identical to :meth:`forward` by construction: every plan is
        probe-verified against the interpreter at compile time, and any
        model the compiler cannot handle transparently falls back.  The
        input is made a contiguous float32 array once, by whichever of
        the two runs it.
        """
        plan = self.plan_for(max(len(x), 1))
        if plan is None:
            return self.forward(x)
        return plan.execute(x, recorder=recorder, trace_id=trace_id, track=track)

    def plan_cache_info(self) -> dict[str, object]:
        """Occupancy and hit/miss/failure counts of the plan cache."""
        with self._plan_cache_lock:
            return {
                "size": len(self._plan_cache),
                "maxsize": self._plan_cache_maxsize,
                "capacities": list(self._plan_cache.keys()),
                **self._plan_cache_stats,
            }

    def clear_plan_cache(self) -> None:
        with self._plan_cache_lock:
            self._plan_cache.clear()
            self._plan_cache_stats.update(hits=0, misses=0, failures=0)

    @property
    def num_ops(self) -> int:
        return len(self._ops)


#: Sentinel distinguishing "never compiled" from a cached failure.
_PLAN_UNSET = object()
