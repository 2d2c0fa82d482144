"""Browser inference library analog: model format, bit-packed interpreter.

Reproduces the paper's JavaScript/WASM pipeline (Figure 3): serialize the
browser bundle, execute it standalone with XNOR+popcount kernels, and
validate against the training framework.
"""

from .bitpack import (
    DEFAULT_BLOCK_BYTES,
    PackedDotStats,
    last_dot_stats,
    pack_rows_with_mask,
    pack_signs,
    packed_dot,
    total_bytes_popcounted,
    unpack_signs,
)
from .interpreter import ConvGeometry, WasmModel, conv_geometry, linear_spec
from .plan import (
    CompiledPlan,
    PlanCompileError,
    PlanExecutionError,
    PlanVerificationError,
    compile_trunk_plan,
    compile_wasm_plan,
    load_trunk_engine,
    profile_plan,
)
from .plan_compile import backend_available, backend_error
from .model_format import (
    FORMAT_VERSION,
    MAGIC,
    ModelFormatError,
    ParsedModel,
    iter_leaf_modules,
    parse_model,
    serialize_browser_bundle,
)
from .validation import ValidationReport, validate_bundle

__all__ = [
    "DEFAULT_BLOCK_BYTES",
    "FORMAT_VERSION",
    "MAGIC",
    "CompiledPlan",
    "ConvGeometry",
    "ModelFormatError",
    "PackedDotStats",
    "ParsedModel",
    "PlanCompileError",
    "PlanExecutionError",
    "PlanVerificationError",
    "ValidationReport",
    "WasmModel",
    "backend_available",
    "backend_error",
    "compile_trunk_plan",
    "compile_wasm_plan",
    "conv_geometry",
    "iter_leaf_modules",
    "last_dot_stats",
    "linear_spec",
    "load_trunk_engine",
    "pack_rows_with_mask",
    "pack_signs",
    "packed_dot",
    "parse_model",
    "profile_plan",
    "serialize_browser_bundle",
    "total_bytes_popcounted",
    "unpack_signs",
    "validate_bundle",
]
