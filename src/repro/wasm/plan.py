"""Trace-compiled fused inference plans: record once, replay flat.

``BENCH_kernels.json`` showed per-sample cost dominated by Python per-op
dispatch — many tiny relu/batch-norm/pool ops around each conv — not by
popcount math.  This module is the record-once/replay-many answer
(ROADMAP item 2): walking a model's layer specs for a *fixed* input
geometry and batch capacity compiles a flat list of :class:`PlanStep`
objects, each a handful of C kernels (:mod:`.plan_compile`), all
reading and writing preallocated arena buffers.  A step's consecutive C
kernels are int64 records in a plan-owned table and replay in one
native call; when every step is native, an untraced replay runs the
whole plan's records in one call, with the GIL released throughout.
Replay touches zero Python-level layer or ``Tensor`` objects.

Fusion set (one step per *anchor* op, adjacent elementwise ops ride
along):

* ``unfold → XNOR → popcount → scale → bias`` for binarized convs, with
  the padding-validity mask applied inside the popcount loop;
* ``conv → relu`` (and ``linear → relu``) fused into the kernel's
  epilogue; pooling and batch-norm run as fused trailing micro-kernels
  of the same step;
* ``batch_norm`` folded to the interpreter's per-channel affine.

Every plan replicates :class:`~repro.wasm.interpreter.WasmModel`: the
browser stem and branch, and the edge trunk, which compiles from its
serialized bundle (:func:`compile_trunk_plan`).  Linear layers follow
the interpreter's specified reduction order
(:func:`~repro.wasm.interpreter.linear_spec`), implemented by the
``linear_seq`` kernel.  Convs keep the interpreter's ``im2col @ W``;
the direct-conv kernel mirrors the BLAS order at skinny shapes, and a
wider conv calls ``np.matmul``, the one BLAS call left on the request
path.  A plan promises **bit identity** with its interpreter — every
compiled plan is probe-verified against it on randomized inputs
(including exact zeros) before use, and any model the compiler cannot
express raises :class:`PlanCompileError`, which callers treat as
"transparently fall back to the interpreter".
"""

from __future__ import annotations

import itertools
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from ..observability.tracing import NULL_RECORDER, Tracer
from .bitpack import unpack_signs
from .interpreter import WasmModel, conv_geometry
from .model_format import (
    ModelFormatError,
    ParsedModel,
    serialize_browser_bundle,
)
from .plan_compile import (
    ISA_LEVELS,
    OPCODES,
    RECORD_FIELDS,
    KernelBackendError,
    get_backend,
    host_isa,
)

__all__ = [
    "CompiledPlan",
    "PlanCompileError",
    "PlanExecutionError",
    "PlanStep",
    "PlanVerificationError",
    "compile_trunk_plan",
    "compile_wasm_plan",
    "load_trunk_engine",
]

#: Ops that anchor a fused step (they own the step's heavy kernel).
ANCHOR_KINDS = frozenset({"conv2d", "binary_conv2d", "linear", "binary_linear"})
#: Ops that fuse into the nearest anchor's step as micro-kernels.
APPEND_KINDS = frozenset(
    {"relu", "batch_norm", "max_pool2d", "flatten", "global_avg_pool2d", "base_fold"}
)


class PlanCompileError(RuntimeError):
    """The model cannot be expressed as a compiled plan (fall back)."""


class PlanVerificationError(PlanCompileError):
    """A compiled plan failed the bit-identity probe against its reference."""


class PlanExecutionError(RuntimeError):
    """A replay request does not fit the plan (batch too large, bad shape)."""


class Arena:
    """Named preallocated scratch buffers owned by one plan."""

    def __init__(self) -> None:
        self._buffers: "OrderedDict[str, np.ndarray]" = OrderedDict()

    def new(self, name: str, shape: tuple, dtype=np.float32) -> np.ndarray:
        if name in self._buffers:
            name = f"{name}#{len(self._buffers)}"
        arr = np.zeros(shape, dtype=dtype)
        self._buffers[name] = arr
        return arr

    @property
    def total_bytes(self) -> int:
        return sum(a.nbytes for a in self._buffers.values())

    def describe(self) -> list:
        return [
            {"name": name, "shape": list(a.shape), "dtype": str(a.dtype), "bytes": a.nbytes}
            for name, a in self._buffers.items()
        ]


class _Record(NamedTuple):
    """One C kernel call: its table words and the arrays they point to.

    ``fields`` maps each record field to the value it was built from.
    """

    kernel: str
    words: tuple
    arrays: tuple
    fields: dict


class NativeSegment:
    """A run of consecutive C kernel records, replayed in one native call.

    The segment owns its int64 record table and every array a record
    points to, so no address it hands the kernels can outlive its buffer.
    ``isa`` caps the kernels' SIMD level (an :data:`ISA_LEVELS` value);
    ``variants`` names the kernel variant that serves each record, e.g.
    ``"conv_direct:chan_avx512"``.
    """

    def __init__(self, backend, records: Sequence[_Record], isa: int) -> None:
        self.kernels = tuple(r.kernel for r in records)
        self.table = np.array([w for r in records for w in r.words], dtype=np.int64)
        self._arrays = [a for r in records for a in r.arrays]
        self._run = backend.run_program
        self._isa = isa
        self._table_ptr = self.table.ctypes.data
        self._count = len(records)
        starts = itertools.accumulate((len(r.words) for r in records), initial=0)
        self.variants = tuple(
            f"{r.kernel}:{backend.record_variant(self._table_ptr + 8 * start, isa).decode()}"
            for r, start in zip(records, starts)
        )

    def __call__(self, n: int) -> None:
        status = self._run(self._table_ptr, self._count, n, self._isa)
        if status:
            raise PlanExecutionError(
                f"native segment record {status - 1} has an unknown opcode"
            )


@dataclass
class PlanStep:
    """One fused step: a short list of runners over arena buffers."""

    index: int
    #: Attribution label, e.g. ``"binary_conv2d+max_pool2d+batch_norm"``.
    name: str
    #: Source op kinds fused into this step, in execution order.
    kinds: list
    #: Callables ``runner(n)``: :class:`NativeSegment`\ s and the NumPy
    #: matmuls/reductions between them.
    runners: list = field(default_factory=list)


class CompiledPlan:
    """A replayable flat plan for one (model, geometry, capacity) tuple.

    ``execute`` serves any batch of 1..capacity samples by slicing every
    arena buffer to the live batch.  Per-step wall time comes only from
    the ``plan.step[i]`` spans emitted when a recorder is passed, so
    profiling attribution survives fusion; the default
    :data:`~repro.observability.tracing.NULL_RECORDER` path does no
    instrumentation work at all.

    One instance owns one preallocated arena.  The program replays a
    plan on the caller's thread and keeps one instance per key (see
    ``EdgeEndpoint`` in :mod:`repro.runtime.session`); callers that
    share it across their own threads stay correct, because an internal
    lock serializes ``execute`` calls on the same plan.
    """

    def __init__(
        self,
        *,
        capacity: int,
        input_shape: tuple,
        output_shape: tuple,
        steps: Sequence[PlanStep],
        arena: Arena,
        input_buf: np.ndarray,
        output_buf: np.ndarray,
        program: Optional[NativeSegment] = None,
    ) -> None:
        self.capacity = int(capacity)
        self.input_shape = tuple(input_shape)
        self.output_shape = tuple(output_shape)
        self.steps = list(steps)
        self.arena = arena
        #: The probe tier this plan was built at: the ``_PlanBuilder``
        #: options, ``{}`` for the first (fastest) tier.
        self.tier: dict = {}
        #: Every step's records in one table, when every runner is
        #: native: an untraced replay is then one ``run_program`` call.
        self.program = program
        self._input_buf = input_buf
        self._output_view = output_buf.reshape((self.capacity,) + self.output_shape)
        # Guards the shared arena during execute; see class docstring.
        self._exec_lock = threading.Lock()

    @property
    def num_steps(self) -> int:
        return len(self.steps)

    def execute(
        self,
        x: np.ndarray,
        *,
        recorder=None,
        trace_id: str = "",
        track: str = "browser",
    ) -> np.ndarray:
        """Replay the plan on an NCHW float32 batch of ≤ capacity samples."""
        rec = NULL_RECORDER if recorder is None else recorder
        x = np.ascontiguousarray(x, dtype=np.float32)
        if x.shape[1:] != self.input_shape:
            raise PlanExecutionError(
                f"expected input shape (N, {self.input_shape}), got {x.shape}"
            )
        n = x.shape[0]
        if n > self.capacity:
            raise PlanExecutionError(
                f"batch of {n} exceeds plan capacity {self.capacity}"
            )
        with self._exec_lock:
            self._input_buf[:n] = x
            if not rec.enabled and self.program is not None:
                self.program(n)
            else:
                for step in self.steps:
                    if rec.enabled:
                        with rec.span(
                            f"plan.step[{step.index}]",
                            track=track,
                            trace_id=trace_id,
                            step=step.name,
                            samples=int(n),
                        ):
                            self._run_step(step, n)
                    else:
                        self._run_step(step, n)
            return self._output_view[:n].copy()

    @staticmethod
    def _run_step(step: PlanStep, n: int) -> None:
        for runner in step.runners:
            runner(n)

    def describe(self) -> dict:
        """Inspection record for the ``repro plan`` CLI subcommand."""
        return {
            "capacity": self.capacity,
            "input_shape": list(self.input_shape),
            "output_shape": list(self.output_shape),
            "num_steps": self.num_steps,
            "arena_bytes": self.arena.total_bytes,
            "tier": dict(self.tier),
            "steps": [
                {
                    "index": step.index,
                    "name": step.name,
                    "kinds": list(step.kinds),
                    "runners": len(step.runners),
                    "kernels": [
                        variant
                        for runner in step.runners
                        if isinstance(runner, NativeSegment)
                        for variant in runner.variants
                    ],
                }
                for step in self.steps
            ],
        }


# ----------------------------------------------------------------------
# Compilation
# ----------------------------------------------------------------------
def _split_groups(specs: Sequence[dict]) -> list:
    """Partition the layer specs into fused anchor groups.

    Appendable ops before the first anchor become the first group's
    pre-ops; every other appendable fuses into the preceding anchor.
    """
    groups: list = []
    current = {"anchor": None, "pre": [], "post": []}
    for spec in specs:
        kind = spec["type"]
        if kind in ANCHOR_KINDS:
            if current["anchor"] is not None:
                groups.append(current)
                current = {"anchor": None, "pre": [], "post": []}
            current["anchor"] = spec
        elif kind in APPEND_KINDS:
            bucket = "post" if current["anchor"] is not None else "pre"
            current[bucket].append(spec)
        else:
            raise PlanCompileError(f"plan compiler does not support {kind!r}")
    if current["anchor"] is not None or current["pre"]:
        groups.append(current)
    if not groups:
        raise PlanCompileError("model has no layers to compile")
    return groups


def _widen_to_words(packed: np.ndarray, word_count: int) -> np.ndarray:
    """View MSB-first packed bytes as little-endian u64 words, zero padded."""
    rows, nbytes = packed.shape
    wide = np.zeros((rows, word_count * 8), dtype=np.uint8)
    wide[:, :nbytes] = packed
    return np.ascontiguousarray(wide.view("<u8"))


class _PlanBuilder:
    """Walks parsed layer specs once, emitting ops over an arena.

    Each step's ops are C kernel records (:meth:`_kernel`) and NumPy
    runners; :meth:`_runners` merges every run of consecutive records
    into one :class:`NativeSegment`.  Every runner replicates the
    interpreter's float semantics.
    """

    def __init__(
        self,
        parsed: ParsedModel,
        capacity: int,
        c_mean: bool = True,
        direct_conv: bool = True,
        isa: Optional[str] = None,
    ) -> None:
        capacity = int(capacity)
        if capacity < 1:
            raise PlanCompileError("plan capacity must be positive")
        self.parsed = parsed
        self.capacity = capacity
        #: Fold the binary layers' |x| means (binary-conv kfac, binary
        #: linear beta) into C, replicating NumPy's pairwise sum.
        #: ``compile_wasm_plan`` retries with False if probe verification
        #: ever disagrees.
        self.c_mean = bool(c_mean)
        #: Use the fused direct-conv kernel (sequential-K fmaf, the
        #: reduction BLAS sgemm applies at narrow output widths) instead
        #: of im2col + np.matmul for convs with 2 <= oc <= 16 and at
        #: least two output positions.  Probe-guarded the same way.
        self.direct_conv = bool(direct_conv)
        #: Cap on the kernels' SIMD level, an ``ISA_LEVELS`` name (None:
        #: the host's best).  The probe tiers step down to "avx2" before
        #: they drop the direct conv; the tests run every level the host
        #: supports.
        if isa is not None and isa not in ISA_LEVELS:
            raise PlanCompileError(f"unknown SIMD level {isa!r}")
        self.isa = ISA_LEVELS[isa] if isa else max(ISA_LEVELS.values())
        # KernelBackendError → caller falls back
        self.backend = get_backend()
        self.arena = Arena()
        self.input_shape = tuple(int(d) for d in parsed.input_shape)
        self.buf = self.arena.new("input", (capacity, *self.input_shape))
        #: Logical per-sample activation shape (tracks flatten).
        self.shape: tuple = self.input_shape
        self.steps: list = []

    # -- helpers --------------------------------------------------------
    @staticmethod
    def _kernel(ops: list, kernel: str, **fields) -> None:
        """Append one C kernel record: arrays become (owned) addresses."""
        layout = RECORD_FIELDS[kernel]
        if len(fields) != len(layout):
            raise PlanCompileError(f"{kernel} record needs fields {layout}")
        words = [OPCODES[kernel]]
        arrays = []
        for name in layout:
            value = fields[name]
            if value is None:
                words.append(0)
            elif isinstance(value, np.ndarray):
                if not value.flags.c_contiguous:
                    raise PlanCompileError(f"{kernel}.{name} is not C-contiguous")
                arrays.append(value)
                words.append(value.ctypes.data)
            else:
                words.append(int(value))
        ops.append(_Record(kernel, tuple(words), tuple(arrays), fields))

    @staticmethod
    def _last_record(ops: list, kernel: str, **fields) -> Optional[_Record]:
        """The last op if it is a ``kernel`` record whose fields include
        ``fields`` (compared by identity), else None."""
        last = ops[-1] if ops else None
        if not isinstance(last, _Record) or last.kernel != kernel:
            return None
        if any(last.fields[name] is not value for name, value in fields.items()):
            return None
        return last

    def _runners(self, ops: list) -> list:
        """Merge each run of consecutive kernel records into one call."""
        runners: list = []
        for is_record, run in itertools.groupby(
            ops, key=lambda op: isinstance(op, _Record)
        ):
            if is_record:
                runners.append(NativeSegment(self.backend, list(run), self.isa))
            else:
                runners.extend(run)
        return runners

    def _param(self, spec: dict, key: str, required: bool = True):
        if key not in spec:
            if required:
                raise PlanCompileError(f"{spec['type']} spec missing {key!r}")
            return None
        return self.parsed.buffer(spec[key]).astype(np.float32)

    def _require_chw(self, spec: dict) -> tuple:
        if len(self.shape) != 3:
            raise PlanCompileError(
                f"{spec['type']} expects a CHW activation, got {self.shape}"
            )
        return self.shape

    # -- build ----------------------------------------------------------
    def build(self) -> CompiledPlan:
        input_buf = self.buf
        all_ops: list = []
        for index, group in enumerate(_split_groups(self.parsed.layers)):
            ops: list = []
            kinds: list = []
            for spec in group["pre"]:
                self._emit_append(spec, ops, kinds)
            if group["anchor"] is not None:
                post = list(group["post"])
                self._emit_anchor(group["anchor"], post, ops, kinds)
                for spec in post:
                    self._emit_append(spec, ops, kinds)
            self.steps.append(
                PlanStep(
                    index=index,
                    name="+".join(kinds),
                    kinds=kinds,
                    runners=self._runners(ops),
                )
            )
            all_ops.extend(ops)
        native = all(isinstance(op, _Record) for op in all_ops)
        return CompiledPlan(
            capacity=self.capacity,
            input_shape=self.input_shape,
            output_shape=self.shape,
            steps=self.steps,
            arena=self.arena,
            input_buf=input_buf,
            output_buf=self.buf,
            program=NativeSegment(self.backend, all_ops, self.isa) if native else None,
        )

    # -- appendable micro-kernels --------------------------------------
    def _emit_append(self, spec: dict, ops: list, kinds: list) -> None:
        kind = spec["type"]
        kinds.append(kind)
        if kind == "relu":
            self._kernel(
                ops, "relu_inplace", x=self.buf, elems=int(np.prod(self.shape))
            )
        elif kind == "flatten":
            self.shape = (int(np.prod(self.shape)),)
        elif kind == "batch_norm":
            gamma = self._param(spec, "gamma")
            beta = self._param(spec, "beta")
            mean = self._param(spec, "running_mean")
            var = self._param(spec, "running_var")
            eps = float(spec["eps"])
            c = int(self.shape[0])
            hw = int(np.prod(self.shape[1:])) if len(self.shape) > 1 else 1
            # Interpreter folds BN to affine at load: exactly two float32
            # roundings per element.
            scale = gamma / np.sqrt(var + eps)
            shift = beta - mean * scale
            pool = self._last_record(ops, "maxpool_nchw", out=self.buf, scale=None)
            if pool is not None and (c, hw) == (
                pool.fields["c"], pool.fields["oh"] * pool.fields["ow"]
            ):
                # The pool's store applies the affine.
                ops.pop()
                self._kernel(
                    ops, "maxpool_nchw",
                    **{**pool.fields, "scale": scale, "shift": shift},
                )
            else:
                self._kernel(
                    ops, "affine_ch",
                    x=self.buf, out=self.buf, scale=scale, shift=shift,
                    c=c, hw=hw,
                )
        elif kind == "max_pool2d":
            c, h, w = self._require_chw(spec)
            k = int(spec["kernel_size"])
            stride = int(spec["stride"])
            geom = conv_geometry(c, h, w, k, stride, 0)
            oh, ow = geom.out_height, geom.out_width
            dst = self.arena.new("pool", (self.capacity, c, oh, ow))
            self._kernel(
                ops, "maxpool_nchw",
                x=self.buf, out=dst, c=c, h=h, w=w, k=k, stride=stride,
                oh=oh, ow=ow, scale=None, shift=None,
            )
            self.buf = dst
            self.shape = (c, oh, ow)
        elif kind == "global_avg_pool2d":
            c, h, w = self._require_chw(spec)
            dst = self.arena.new("gap", (self.capacity, c))
            src = self.buf.reshape(self.capacity, c, h, w)

            def runner(n, src=src, dst=dst):
                dst[:n] = src[:n].mean(axis=(2, 3))

            ops.append(runner)
            self.buf = dst
            self.shape = (c,)
        elif kind == "base_fold":
            # Group-sum of a widened ABC-Net binary layer (plus its
            # relocated bias); the reshape/sum expression mirrors the
            # interpreter's _op_base_fold exactly, so it is bit-identical
            # by construction.
            groups = int(spec["groups"])
            bias = self._param(spec, "bias", required=False)
            if len(self.shape) == 3:
                kc, h, w = self.shape
                if kc % groups:
                    raise PlanCompileError(
                        f"base_fold: {kc} channels not divisible by {groups}"
                    )
                oc = kc // groups
                dst = self.arena.new("fold", (self.capacity, oc, h, w))
                src = self.buf
                bias_nchw = bias[None, :, None, None] if bias is not None else None

                def runner(n, src=src, dst=dst, bias=bias_nchw):
                    out = src[:n].reshape(n, groups, oc, h, w).sum(axis=1)
                    if bias is not None:
                        out = out + bias
                    dst[:n] = out

                ops.append(runner)
                self.buf = dst
                self.shape = (oc, h, w)
            elif len(self.shape) == 1:
                kf = int(self.shape[0])
                if kf % groups:
                    raise PlanCompileError(
                        f"base_fold: {kf} features not divisible by {groups}"
                    )
                f = kf // groups
                dst = self.arena.new("fold", (self.capacity, f))
                src = self.buf

                def runner(n, src=src, dst=dst, bias=bias):
                    out = src[:n].reshape(n, groups, f).sum(axis=1)
                    if bias is not None:
                        out = out + bias
                    dst[:n] = out

                ops.append(runner)
                self.buf = dst
                self.shape = (f,)
            else:
                raise PlanCompileError(
                    f"base_fold expects CHW or flat activation, got {self.shape}"
                )
        else:  # pragma: no cover - _split_groups filters kinds
            raise PlanCompileError(f"cannot fuse op kind {kind!r}")

    # -- anchors --------------------------------------------------------
    def _emit_anchor(self, spec: dict, post: list, ops: list, kinds: list) -> None:
        kind = spec["type"]
        kinds.append(kind)
        relu_mode = int(bool(post) and post[0]["type"] == "relu")
        if relu_mode:
            post.pop(0)
            kinds.append("relu")

        if kind == "conv2d":
            self._emit_conv_matmul(
                ops, spec, self._param(spec, "weight"), None, relu_mode
            )
        elif kind == "binary_conv2d":
            if bool(spec["binarize_input"]):
                self._emit_binary_conv(ops, spec, relu_mode)
            else:
                packed_w = self.parsed.buffer(spec["weight_bits"]).astype(np.uint8)
                signs = unpack_signs(packed_w, int(spec["bit_length"]))
                alpha = self._param(spec, "alpha")
                self._emit_conv_matmul(ops, spec, signs, alpha, relu_mode)
        elif kind == "linear":
            weight = self._param(spec, "weight")
            bias = self._param(spec, "bias", required=False)
            self._emit_linear_seq(ops, spec, weight, None, bias, relu_mode)
        elif kind == "binary_linear":
            if bool(spec["binarize_input"]):
                self._emit_binary_linear(ops, spec, relu_mode)
            else:
                packed_w = self.parsed.buffer(spec["weight_bits"]).astype(np.uint8)
                signs = unpack_signs(packed_w, int(spec["bit_length"]))
                alpha = self._param(spec, "alpha")
                bias = self._param(spec, "bias", required=False)
                self._emit_linear_seq(ops, spec, signs, alpha, bias, relu_mode)
        else:  # pragma: no cover - _split_groups filters kinds
            raise PlanCompileError(f"unknown anchor kind {kind!r}")

    def _emit_padded_source(self, ops: list, c: int, h: int, w: int, pad: int):
        """Return (buffer, h, w) of a zero-bordered copy of the current buffer.

        The border is zeroed once when the arena allocates the buffer and
        never written afterwards; the per-call kernel copies only interior
        rows.  Downstream kernels then gather with pad=0 and no fringe
        branches — padded entries contribute ``fmaf(+0, w, acc)``, exactly
        what the zero-filled im2col columns fed to the GEMM.  An in-place
        batch-norm affine right before folds into the copy.
        """
        if pad == 0:
            return self.buf, h, w
        hp, wp = h + 2 * pad, w + 2 * pad
        xpad = self.arena.new("xpad", (self.capacity, c, hp, wp))
        affine = self._last_record(ops, "affine_ch", out=self.buf)
        if affine is not None:
            ops.pop()
        self._kernel(
            ops, "pad_nchw", x=self.buf, xp=xpad, c=c, h=h, w=w, pad=pad,
            scale=affine.fields["scale"] if affine else None,
            shift=affine.fields["shift"] if affine else None,
        )
        return xpad, hp, wp

    def _emit_conv_direct(
        self,
        ops: list,
        geom,
        c: int,
        h: int,
        w: int,
        oc: int,
        w_flat: np.ndarray,
        alpha: Optional[np.ndarray],
        bias: Optional[np.ndarray],
        relu_mode: int,
    ) -> None:
        """Fused direct conv: padded gather → FMA → scale/bias/relu → store.

        Sequential-K ``fmaf`` accumulation reproduces the GEMM's dot
        products bit-for-bit for these skinny shapes (probe-verified; the
        matmul tier takes over via ``compile_wasm_plan`` if a BLAS build
        ever blocks the K loop for them).  Weights are laid out as
        ``row_len × 16`` lanes: one load holds every output channel of
        a window tap, and one broadcast serves one channel.  The C side
        picks the SIMD variant from ``oc``, ``ow`` and the stride.
        """
        wt = np.zeros((geom.row_len, 16), dtype=np.float32)
        wt[:, :oc] = w_flat.T
        scale16 = None
        if alpha is not None:
            scale16 = np.ones(16, dtype=np.float32)
            scale16[:oc] = alpha
        bias16 = None
        if bias is not None:
            bias16 = np.zeros(16, dtype=np.float32)
            bias16[:oc] = bias
        src, hp, wp = self._emit_padded_source(ops, c, h, w, geom.padding)
        oh, ow = geom.out_height, geom.out_width
        out = self.arena.new("act", (self.capacity, oc, oh, ow))
        self._kernel(
            ops, "conv_direct",
            xp=src, wt=wt, scale=scale16, bias=bias16, out=out,
            c=c, hp=hp, wp=wp, k=geom.kernel, stride=geom.stride,
            oh=oh, ow=ow, oc=oc, relu_mode=relu_mode,
        )
        self.buf = out
        self.shape = (oc, oh, ow)

    def _emit_conv_matmul(
        self,
        ops: list,
        spec: dict,
        weight: np.ndarray,
        alpha: Optional[np.ndarray],
        relu_mode: int,
    ) -> None:
        """Float conv (or non-binarized binary conv): gather → GEMM → epilogue."""
        c, h, w = self._require_chw(spec)
        oc = int(spec["out_channels"])
        geom = conv_geometry(
            c, h, w, int(spec["kernel_size"]), int(spec["stride"]), int(spec["padding"])
        )
        bias = self._param(spec, "bias", required=False)
        w_flat = weight.reshape(oc, -1) if weight.ndim != 2 else weight
        if w_flat.shape[1] != geom.row_len:
            raise PlanCompileError("conv weight does not match geometry")
        # With one output channel, or one output position (the whole
        # product at batch 1), the reference matmul is a matrix-vector
        # product, which BLAS does not reduce sequentially: the direct
        # conv could never match it, so such a conv keeps the matmul.
        if self.direct_conv and 2 <= oc <= 16 and geom.rows >= 2:
            self._emit_conv_direct(
                ops, geom, c, h, w, oc, w_flat, alpha, bias, relu_mode
            )
            return
        wmat = np.ascontiguousarray(w_flat.T)
        rows = geom.rows
        oh, ow = geom.out_height, geom.out_width
        cols = self.arena.new("cols", (self.capacity * rows, geom.row_len))
        mm = self.arena.new("mm", (self.capacity * rows, oc))
        out = self.arena.new("act", (self.capacity, oc, oh, ow))
        self._kernel(
            ops, "im2col_f32",
            x=self.buf, cols=cols, c=c, h=h, w=w, k=geom.kernel,
            stride=geom.stride, pad=geom.padding, oh=oh, ow=ow,
        )

        def matmul(n, cols=cols, wmat=wmat, mm=mm, rows=rows):
            np.matmul(cols[: n * rows], wmat, out=mm[: n * rows])

        ops.append(matmul)
        self._kernel(
            ops, "conv_post",
            mm=mm, scale=alpha, bias=bias, out=out, rows=rows, oc=oc,
            relu_mode=relu_mode,
        )
        self.buf = out
        self.shape = (oc, oh, ow)

    def _emit_binary_conv(self, ops: list, spec: dict, relu_mode: int) -> None:
        """Fused unfold → XNOR → popcount → scale chain for binarized convs."""
        c, h, w = self._require_chw(spec)
        oc = int(spec["out_channels"])
        geom = conv_geometry(
            c, h, w, int(spec["kernel_size"]), int(spec["stride"]), int(spec["padding"])
        )
        packed_w = self.parsed.buffer(spec["weight_bits"]).astype(np.uint8)
        alpha = self._param(spec, "alpha")
        bias = self._param(spec, "bias", required=False)
        row_len, rows = geom.row_len, geom.rows
        word_count = (row_len + 63) // 64
        wwords = _widen_to_words(packed_w, word_count)
        if geom.valid_cols is not None:
            mwords = _widen_to_words(np.ascontiguousarray(geom.mbits), word_count)
            valid = np.ascontiguousarray(geom.valid_cols.sum(axis=1).astype(np.int32))
            # Premasked weight table (oc, rows, W): prepare masks the
            # activation words, so (a&m)^(b&m) == (a^b)&m drops the mask
            # load + AND from the popcount inner loop.
            wmasked = np.ascontiguousarray(wwords[:, None, :] & mwords[None, :, :])
            wplain = None
        else:
            mwords = valid = wmasked = None
            wplain = wwords
        # The kfac mean folds into the gather: each |v| row lives on the
        # C kernel's stack (row_len <= 128) or in one scratch row — no
        # abscols matrix, no separate NumPy pass.
        if not self.c_mean:
            abscols = self.arena.new("abscols", (self.capacity * rows, row_len))
        elif row_len > 128:
            abscols = self.arena.new("absrow", (row_len,))
        else:
            abscols = None
        words = self.arena.new("bits", (self.capacity * rows, word_count), dtype=np.uint64)
        kfac = self.arena.new("kfac", (self.capacity * rows,))
        oh, ow = geom.out_height, geom.out_width
        out = self.arena.new("act", (self.capacity, oc, oh, ow))
        # Pre-padding lets the gather run fringe-free (pad=0 below):
        # padded entries are +0.0 → fabsf gives +0 and the sign bit is 1,
        # exactly what the kernel's zero-fill produced.  The validity
        # masks/counts from the *original* geometry still apply unchanged.
        src, hp, wp = self._emit_padded_source(ops, c, h, w, geom.padding)
        self._kernel(
            ops, "binconv_prepare",
            x=src, abscols=abscols, kfac=kfac if self.c_mean else None,
            words=words, maskw=mwords, c=c, h=hp, w=wp, k=geom.kernel,
            stride=geom.stride, pad=0, oh=oh, ow=ow, W=word_count,
        )
        if not self.c_mean:

            def kfac_mean(n, abscols=abscols, kfac=kfac, rows=rows):
                m = n * rows
                np.mean(abscols[:m], axis=1, out=kfac[:m])

            ops.append(kfac_mean)
        self._kernel(
            ops, "popdot_scale",
            va=words, vw=wplain, vwm=wmasked, valid=valid, alpha=alpha,
            kfac=kfac, bias=bias, out=out, rows=rows, oc=oc, W=word_count,
            fallback_valid=row_len,
        )
        # popdot's epilogue ends at the bias; a directly-adjacent relu
        # (rare — zoo binary convs feed BN/pool) runs as one extra pass.
        if relu_mode:
            self._kernel(ops, "relu_inplace", x=out, elems=oc * oh * ow)
        self.buf = out
        self.shape = (oc, oh, ow)

    def _emit_linear_seq(
        self,
        ops: list,
        spec: dict,
        weight: np.ndarray,
        alpha: Optional[np.ndarray],
        bias: Optional[np.ndarray],
        relu_mode: int,
    ) -> None:
        """Float linear (or non-binarized binary linear): the interpreter's
        specified reduction order with the scale/bias/relu epilogue, in
        one ``linear_seq`` record.

        The kernel loads full 16-lane vectors, so the transposed weight
        and the epilogue vectors are zero-padded to ``ldw`` columns.
        """
        features = int(np.prod(self.shape))
        out_features = int(spec["out_features"])
        if weight.shape != (out_features, features):
            raise PlanCompileError("linear weight does not match activation shape")
        ldw = -(-out_features // 16) * 16

        def padded(rows: np.ndarray) -> np.ndarray:
            wide = np.zeros(rows.shape[:-1] + (ldw,), dtype=np.float32)
            wide[..., :out_features] = rows
            return wide

        out = self.arena.new("act", (self.capacity, out_features))
        self._kernel(
            ops, "linear_seq",
            x=self.buf, wt=padded(weight.T),
            scale=None if alpha is None else padded(alpha),
            bias=None if bias is None else padded(bias),
            out=out, k=features, out_features=out_features, ldw=ldw,
            relu_mode=relu_mode,
        )
        self.buf = out
        self.shape = (out_features,)

    def _emit_binary_linear(self, ops: list, spec: dict, relu_mode: int) -> None:
        """Fused abs-mean → pack → XNOR popcount → scale for binary linear."""
        features = int(np.prod(self.shape))
        bit_length = int(spec["bit_length"])
        if bit_length != features:
            raise PlanCompileError("binary_linear bit length mismatch")
        oc = int(spec["out_features"])
        packed_w = self.parsed.buffer(spec["weight_bits"]).astype(np.uint8)
        alpha = self._param(spec, "alpha")
        bias = self._param(spec, "bias", required=False)
        word_count = (bit_length + 63) // 64
        wwords = _widen_to_words(packed_w, word_count)
        words = self.arena.new("bits", (self.capacity, word_count), dtype=np.uint64)
        betabuf = self.arena.new("beta", (self.capacity,))
        out = self.arena.new("act", (self.capacity, oc))
        if self.c_mean:
            self._kernel(ops, "absmean_rows", x=self.buf, out=betabuf, f=features)
        else:
            absbuf = self.arena.new("abs", (self.capacity, features))
            x2d = self.buf.reshape(self.capacity, -1)

            def absmean(n, x2d=x2d, absbuf=absbuf, betabuf=betabuf):
                np.abs(x2d[:n], out=absbuf[:n])
                np.mean(absbuf[:n], axis=1, out=betabuf[:n])

            ops.append(absmean)
        self._kernel(
            ops, "pack_rows", x=self.buf, words=words, f=features, W=word_count
        )
        self._kernel(
            ops, "popdot_scale",
            va=words, vw=wwords, vwm=None, valid=None, alpha=alpha,
            kfac=betabuf, bias=bias, out=out, rows=1, oc=oc, W=word_count,
            fallback_valid=bit_length,
        )
        if relu_mode:
            self._kernel(ops, "relu_inplace", x=out, elems=oc)
        self.buf = out
        self.shape = (oc,)


# ----------------------------------------------------------------------
# Probe verification + public entry points
# ----------------------------------------------------------------------
def _probe_batch(input_shape: tuple, capacity: int) -> np.ndarray:
    """Randomized probe including exact ±0.0 values (sign/tie edge cases)."""
    rng = np.random.default_rng(20260808)
    x = rng.standard_normal((capacity, *input_shape)).astype(np.float32)
    flat = x.reshape(-1)
    flat[::97] = 0.0
    if flat.size > 5:
        flat[5::193] = -0.0
    return x


#: Probe step-down order: the host's best kernels, its AVX2 kernels, then
#: each library-call fallback.
_TIERS = (
    {},
    {"isa": "avx2"},
    {"direct_conv": False},
    {"c_mean": False},
    {"direct_conv": False, "c_mean": False},
)


def _verify(plan: CompiledPlan, reference: Callable, x: np.ndarray) -> CompiledPlan:
    for n in sorted({1, x.shape[0]}):
        got = plan.execute(x[:n])
        want = np.asarray(reference(np.ascontiguousarray(x[:n])))
        if got.shape != want.shape or not np.array_equal(got, want):
            raise PlanVerificationError(
                f"compiled plan diverges from its reference at batch size {n}"
            )
    return plan


def profile_plan(plan: CompiledPlan, x: np.ndarray) -> tuple:
    """Replay ``plan`` once on its own :class:`Tracer`.

    Returns the output and :meth:`CompiledPlan.describe` with each step
    row's ``wall_ms`` read from its ``plan.step[i]`` span.  Stem, branch
    and trunk plans all name their spans ``plan.step[0..]``, so every
    plan needs a fresh tracer.
    """
    tracer = Tracer()
    out = plan.execute(x, recorder=tracer)
    by_name = tracer.summary().by_name
    desc = plan.describe()
    desc["samples"] = int(x.shape[0])
    for row in desc["steps"]:
        row["wall_ms"] = by_name[f"plan.step[{row['index']}]"]["wall_ms"]
    return out, desc


def compile_wasm_plan(model: WasmModel, capacity: int) -> CompiledPlan:
    """Compile + probe-verify a plan replicating ``model.forward``,
    stepping down through kernel variants.

    The linear kernel implements the interpreter's specified order, so
    it needs no fallback.  Two fused kernels still replicate library
    numerics rather than a spec: the direct conv's sequential-K FMA loop
    mirrors the BLAS GEMM microkernel for skinny shapes, and the in-C
    |x| means mirror NumPy's pairwise sum.  If a BLAS/NumPy build ever
    reduces otherwise (an ``OPENBLAS_CORETYPE`` without FMA, say), the
    probe catches it and a later tier swaps the offending fusion back to
    the library call — the plan survives, slightly slower, instead of
    being lost.  Before that, an AVX-512 host retries with its AVX2
    kernels.  ``plan.tier`` records the tier that passed.

    Raises :class:`PlanCompileError` (including verification failures and
    a missing C backend) — ``WasmModel.plan_for`` turns that into a cached
    ``None`` and callers fall back to the interpreter.
    """
    try:
        best = ISA_LEVELS[host_isa()]
    except KernelBackendError as exc:
        raise PlanCompileError(str(exc)) from exc
    last: Optional[PlanVerificationError] = None
    for options in _TIERS:
        if "isa" in options and ISA_LEVELS[options["isa"]] >= best:
            continue  # tier 0 already ran the host's best kernels
        plan = _PlanBuilder(model.parsed, capacity, **options).build()
        try:
            _verify(plan, model.forward, _probe_batch(plan.input_shape, capacity))
        except PlanVerificationError as exc:
            last = exc
            continue
        plan.tier = dict(options)
        return plan
    raise last  # type: ignore[misc]  # loop always ran


def load_trunk_engine(trunk, input_shape: tuple) -> WasmModel:
    """The edge trunk as an interpreter engine.

    The trunk module is serialized to its ``.lcrs`` bundle (a bit-exact
    float32 round trip of its weights) and loaded.  Raises
    :class:`~repro.wasm.model_format.ModelFormatError` for a trunk the
    format cannot express (a composite module, an unsupported layer).
    """
    return WasmModel.load(
        serialize_browser_bundle(trunk, tuple(int(d) for d in input_shape))
    )


def compile_trunk_plan(trunk, input_shape: tuple, capacity: int) -> CompiledPlan:
    """Compile + probe-verify a plan of the trunk's interpreter engine.

    See :func:`load_trunk_engine`; a trunk the format cannot express
    raises :class:`PlanCompileError`.
    """
    try:
        engine = load_trunk_engine(trunk, input_shape)
    except ModelFormatError as exc:
        raise PlanCompileError(f"trunk not serializable: {exc}") from exc
    return compile_wasm_plan(engine, capacity)
