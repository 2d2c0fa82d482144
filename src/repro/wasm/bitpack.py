"""Bit-packing utilities for binary weights and activations.

The browser library ships binary filters as packed bitplanes (1 bit per
weight) and executes convolutions as XNOR + popcount.  For ±1 vectors a
and b of length n, the dot product is::

    a · b = popcount(~(va ^ vb)) - popcount(va ^ vb) = n - 2·popcount(va ^ vb)

where ``va``/``vb`` are the value bitplanes (bit = 1 encodes +1).  Zero
padding introduces a third symbol, so activations carry a *mask* bitplane
(bit = 1 where the element is real); the dot product then only counts
positions where the mask is set::

    a · b = popcount(~(va ^ vb) & m) - popcount((va ^ vb) & m)

``popcount`` maps to ``numpy.bitwise_count`` — the same single-instruction
primitive a WASM/SIMD implementation uses.

The dot-product kernel is *blocked*: the ``(p, q)`` output is computed
tile by tile through a pair of reused scratch buffers, so peak temporary
memory is bounded by a configurable block size (default 4 MB) instead of
the ``p·q·bytes`` an outer-product broadcast would allocate.  This is the
layout a WASM SIMD kernel uses to stay inside linear memory and keep the
working set in cache — XNOR-Net's reported conv speedups assume exactly
this kind of bit-blocked inner loop.  Per-call allocation accounting is
exposed through :func:`last_dot_stats` so tests can assert the bound, and
:func:`total_bytes_popcounted` sums the popcount traffic of every
:func:`packed_dot` call (compiled plans run their own C popcount loops
and are not counted).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np

#: Default ceiling for a single ``packed_dot`` call's scratch buffers.
DEFAULT_BLOCK_BYTES = 4 * 1024 * 1024


@dataclass
class PackedDotStats:
    """Allocation/work accounting for one popcount dot-product call."""

    peak_temp_bytes: int = 0
    tile_count: int = 0
    bytes_popcounted: int = 0
    block_bytes: int = DEFAULT_BLOCK_BYTES
    output_shape: tuple[int, int] = (0, 0)


class _ThreadDotState(threading.local):
    """Per-thread kernel bookkeeping.

    ``last`` is the most recent :class:`PackedDotStats` recorded *by
    this thread* — "last call" is only a meaningful question per caller
    when callers share the library across their own threads, so the
    answer lives in thread-local storage instead of a keyed global that
    another thread can clobber.
    """

    last: Optional[PackedDotStats] = None


_THREAD_STATE = _ThreadDotState()


class _DotStatsRegistry:
    """The lock-guarded process-global popcount total.

    Concurrent :func:`packed_dot` calls add under one lock, so they
    never lose counts; each call's own stats go to the calling thread's
    :class:`_ThreadDotState`.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._total_bytes = 0

    def add_bytes(self, n: int) -> None:
        with self._lock:
            self._total_bytes += n

    @property
    def total_bytes(self) -> int:
        with self._lock:
            return self._total_bytes

    # -- scoped snapshot/restore (tests) -------------------------------
    def state(self) -> tuple:
        with self._lock:
            return (self._total_bytes, _THREAD_STATE.last)

    def restore(self, state: tuple) -> None:
        total, last = state
        with self._lock:
            self._total_bytes = total
        _THREAD_STATE.last = last


_REGISTRY = _DotStatsRegistry()

def last_dot_stats() -> PackedDotStats:
    """Stats of the calling thread's most recent :func:`packed_dot` call.

    Thread-local, so a test or profiling hook that reads right after its
    own kernel call can never observe a concurrent thread's stats.
    Returns an empty :class:`PackedDotStats` before the first call.
    """
    last = _THREAD_STATE.last
    return last if last is not None else PackedDotStats()


def total_bytes_popcounted() -> int:
    """Cumulative bytes :func:`packed_dot` has popcounted since import.

    A monotone process-wide counter, summed over every thread and
    updated under a lock, so concurrent kernels never lose counts.  Per
    call, :func:`last_dot_stats` carries the calling thread's own
    ``bytes_popcounted``.
    """
    return _REGISTRY.total_bytes


def pack_signs(signs: np.ndarray) -> tuple[np.ndarray, int]:
    """Pack a ±1 (or boolean) array's rows into uint8 bitplanes.

    Input shape ``(rows, n)``; output shape ``(rows, ceil(n/8))`` plus the
    original row length.  Bit order is big-endian within each byte
    (numpy ``packbits`` default).
    """
    signs = np.asarray(signs)
    if signs.ndim != 2:
        raise ValueError(f"expected 2-D (rows, n), got shape {signs.shape}")
    bits = (signs > 0).astype(np.uint8)
    return np.packbits(bits, axis=1), signs.shape[1]


def unpack_signs(packed: np.ndarray, length: int) -> np.ndarray:
    """Inverse of :func:`pack_signs`: returns float32 ±1 rows."""
    bits = np.unpackbits(packed, axis=1, count=length)
    return np.where(bits > 0, 1.0, -1.0).astype(np.float32)


def _tile_sizes(
    p: int, q: int, nwords: int, widened: bool, masked: bool, budget: int
) -> tuple[int, int]:
    """Choose (p_tile, q_tile) so one tile's scratch fits ``budget`` bytes.

    Scratch per output cell: the XOR words (``8·nwords``), their popcounts
    (``nwords`` uint8), and the int64 mismatch sums (8 B).  Scratch per
    tile row: the widened ``va`` words (when rows are not word-aligned),
    plus the mask words and valid-bit sums when masked.
    """
    per_cell = 9 * nwords + 8
    per_row = (8 * nwords if widened else 0) + (9 * nwords + 16 if masked else 0)
    qt = max(1, min(q, max(0, budget - per_row) // per_cell))
    pt = max(1, min(p, budget // (qt * per_cell + per_row)))
    return pt, qt


def _as_words(packed: np.ndarray, nwords: int) -> np.ndarray:
    """View/copy packed uint8 rows as little-endian uint64 words.

    Rows are zero-padded up to a word multiple; the pad bits are zero in
    value and mask planes alike, so they count as matches discounted by
    ``length`` (unmasked) or masked off (masked) — exactly like the
    byte-alignment bits ``packbits`` introduces.
    """
    rows, nbytes = packed.shape
    if nbytes == nwords * 8:
        return packed.view("<u8")
    widened = np.zeros((rows, nwords * 8), dtype=np.uint8)
    widened[:, :nbytes] = packed
    return widened.view("<u8")


def packed_dot(
    va: np.ndarray,
    vb: np.ndarray,
    mask: np.ndarray | None = None,
    length: int | None = None,
    block_bytes: int | None = None,
) -> np.ndarray:
    """Signed dot products between two packed bitplane matrices.

    ``va`` has shape ``(p, bytes)``, ``vb`` has shape ``(q, bytes)``;
    the result is the ``(p, q)`` matrix of ±1 dot products.  ``mask``
    marks valid bit positions of each ``va`` row — pass it when rows
    contain zero padding.  Its byte width must equal ``va``'s; its row
    count must either equal ``p`` or evenly divide it, in which case the
    mask is applied cyclically (row ``i`` uses ``mask[i % m]`` — the
    batched-im2col case, where every sample shares one geometry mask).
    Without a mask, ``length`` (the true bit count) must be given so
    byte-alignment padding bits are discounted.

    The output is computed in tiles whose scratch buffers are bounded by
    ``block_bytes`` (default :data:`DEFAULT_BLOCK_BYTES`); buffers are
    reused across tiles, so peak temporary memory is one tile regardless
    of ``p·q``.  :func:`last_dot_stats` reports the realised peak.
    The kernel runs on the caller's thread.
    """
    va = np.ascontiguousarray(va, dtype=np.uint8)
    vb = np.ascontiguousarray(vb, dtype=np.uint8)
    if va.ndim != 2 or vb.ndim != 2:
        raise ValueError("va and vb must be 2-D packed bitplanes")
    if va.shape[1] != vb.shape[1]:
        raise ValueError("bitplane byte widths differ")

    p, nbytes = va.shape
    q = vb.shape[0]

    if mask is not None:
        mask = np.ascontiguousarray(mask, dtype=np.uint8)
        if mask.ndim != 2:
            raise ValueError(f"mask must be 2-D, got shape {mask.shape}")
        if mask.shape[1] != nbytes:
            raise ValueError(
                f"mask byte width {mask.shape[1]} does not match bitplane "
                f"byte width {nbytes}"
            )
        if mask.shape[0] != p and (mask.shape[0] == 0 or p % mask.shape[0] != 0):
            raise ValueError(
                f"mask has {mask.shape[0]} rows; expected {p} or a divisor "
                f"of {p} for cyclic application"
            )
    elif length is None:
        raise ValueError("length is required when no mask is given")

    block = int(block_bytes) if block_bytes is not None else DEFAULT_BLOCK_BYTES
    if block <= 0:
        raise ValueError("block_bytes must be positive")
    nwords = (nbytes + 7) // 8
    widened = nbytes != nwords * 8
    m = mask.shape[0] if mask is not None else 0

    # Input-scale preprocessing (word-widened copies of vb and the mask,
    # mask valid-bit totals) is reserved out of the block budget up front
    # so the realised peak stays within ``block`` whenever the inputs
    # themselves fit; the reused per-tile scratch gets the remainder.
    overhead = q * nwords * 8 * (2 if widened else 1)  # vb words + transpose
    if mask is not None and widened:
        overhead += m * nwords * 8  # word-widened mask copy
    budget = max(block - overhead, 64)
    pt, qt = _tile_sizes(p, q, nwords, widened, mask is not None, budget)

    # The kernel works on little-endian uint64 words with the q axis
    # innermost — long contiguous inner loops for the XOR/popcount ufuncs
    # regardless of how few bytes one bitplane row occupies (a branch
    # conv's row is often < 8 bytes, where a bytes-innermost layout
    # drowns in per-row ufunc setup).
    vb_words_t = np.ascontiguousarray(_as_words(vb, nwords).T)  # (nwords, q)

    out = np.empty((p, q), dtype=np.float32)
    mask_words: Optional[np.ndarray] = None
    if mask is not None:
        mask_words = _as_words(mask, nwords)  # view unless widened

    # Scratch, allocated once at the chosen tile size and reused by
    # every tile: the XOR words, their popcounts, the int64 mismatch
    # sums, the row-widening copy, and (masked) the per-tile mask rows,
    # popcounts, and valid-bit totals.
    scratch = pt * nwords * qt * 8 + pt * nwords * qt + pt * qt * 8
    if widened:
        scratch += pt * nwords * 8
    if mask is not None:
        scratch += pt * nwords * 8 + pt * nwords + pt * 16

    xor_buf = np.empty((pt, nwords, qt), dtype=np.uint64)
    count_buf = np.empty((pt, nwords, qt), dtype=np.uint8)
    va_widened = None if not widened else np.zeros((pt, nwords * 8), dtype=np.uint8)
    tiles = 0
    popcounted = 0
    for i0 in range(0, p, pt):
        i1 = min(i0 + pt, p)
        rows = i1 - i0
        if va_widened is None:
            va_words = va[i0:i1].view("<u8")
        else:
            va_widened[:rows, :nbytes] = va[i0:i1]
            va_words = va_widened[:rows].view("<u8")
        if mask is not None:
            if m == p:
                mrows = mask_words[i0:i1]
            else:
                mrows = mask_words[np.arange(i0, i1) % m]
            valid = np.bitwise_count(mrows).sum(axis=1, dtype=np.int64)[:, None]
            popcounted += mrows.nbytes
        for j0 in range(0, q, qt):
            j1 = min(j0 + qt, q)
            cols = j1 - j0
            buf = xor_buf[:rows, :, :cols]
            np.bitwise_xor(va_words[:, :, None], vb_words_t[None, :, j0:j1], out=buf)
            if mask is not None:
                np.bitwise_and(buf, mrows[:, :, None], out=buf)
            counts = count_buf[:rows, :, :cols]
            np.bitwise_count(buf, out=counts)
            mismatches = counts.sum(axis=1, dtype=np.int64)
            popcounted += buf.nbytes
            tiles += 1
            if mask is not None:
                out[i0:i1, j0:j1] = valid - 2 * mismatches
            else:
                # Alignment/word padding bits are zero in both planes,
                # so they register as matches; the true length
                # discounts them: matches - mismatches = length - 2·mismatches.
                out[i0:i1, j0:j1] = length - 2 * mismatches

    _THREAD_STATE.last = PackedDotStats(
        peak_temp_bytes=overhead + scratch,
        tile_count=tiles,
        bytes_popcounted=popcounted,
        block_bytes=block,
        output_shape=(p, q),
    )
    _REGISTRY.add_bytes(popcounted)
    return out


def pack_rows_with_mask(
    values: np.ndarray, valid: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Pack activation rows that may contain zero padding.

    ``values`` holds the signed data (sign of zero is +1, matching the
    training framework's ``sign_ste``); ``valid`` is a boolean array of
    the same shape marking real (non-padding) positions.
    """
    if values.shape != valid.shape:
        raise ValueError("values and valid must have equal shapes")
    vbits = np.packbits((values > 0).astype(np.uint8) & valid.astype(np.uint8), axis=1)
    mbits = np.packbits(valid.astype(np.uint8), axis=1)
    return vbits, mbits
