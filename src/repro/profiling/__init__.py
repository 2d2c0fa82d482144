"""Profiling: per-layer FLOPs, parameter bytes, and activation sizes."""

from .layer_stats import (
    FLOAT_BYTES,
    LayerProfile,
    NetworkProfile,
    binary_param_bytes,
    model_size_bytes,
    model_size_mb,
    profile_layer,
)
from .tracer import TracedLayer, trace

__all__ = [
    "FLOAT_BYTES",
    "LayerProfile",
    "NetworkProfile",
    "TracedLayer",
    "binary_param_bytes",
    "model_size_bytes",
    "model_size_mb",
    "profile_layer",
    "trace",
]
