"""Runtime-compiled C kernels backing the trace-compiled inference plans.

The plan compiler (``plan.py``) fuses each anchor op (conv / binary conv /
linear) with its adjacent elementwise ops into one flat step.  The hot
inner loops of those steps — window gather, bit packing, XNOR+popcount,
scale/bias/relu epilogues, pooling, batch-norm affines — live here as a
single C translation unit compiled once per process with the system C
compiler and loaded through :mod:`ctypes`.  Python calls exactly one
function, ``run_program``, which replays a table of kernel records (see
:data:`RECORD_FIELDS`).

Everything about the build is defensive:

* no compiler on ``PATH``, a failed compile, or ``REPRO_PLAN_NO_CC=1``
  in the environment simply raises :class:`KernelBackendError`; the plan
  compiler treats that as "plan unavailable" and the interpreter keeps
  serving requests;
* the shared object is cached under ``src/repro/wasm/_kernels/`` (git
  ignored) keyed by a hash of the source + flags, so repeated processes
  pay nothing; an unwritable tree falls back to the system temp dir;
* the flags pin IEEE semantics (``-fno-fast-math -ffp-contract=off``)
  because the plans promise *bit identity* with the NumPy interpreter,
  not just numerical closeness.  Each C formula mirrors one specific
  NumPy expression — see the comments in the source string — and every
  compiled plan is additionally probe-verified against the interpreter
  before it is ever used (``plan.py``).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
import threading
from pathlib import Path
from shutil import which
from types import MappingProxyType
from typing import Mapping, Optional

__all__ = [
    "ISA_LEVELS",
    "OPCODES",
    "RECORD_FIELDS",
    "KernelBackendError",
    "backend_available",
    "backend_error",
    "get_backend",
    "host_isa",
    "kill_switch_engaged",
]


class KernelBackendError(RuntimeError):
    """The C kernel backend could not be built or was disabled."""


#: Environment variable that disables the C backend (and therefore all
#: compiled plans) without code changes — sessions fall back to the
#: interpreter transparently.
KILL_SWITCH = "REPRO_PLAN_NO_CC"

_CFLAGS = ("-O3", "-std=c99", "-fPIC", "-shared", "-fno-fast-math", "-ffp-contract=off")

# Bit layout note: activation bits are packed to match ``np.packbits``
# (MSB-first within each byte) viewed as little-endian uint64, so the
# weight/mask planes prepared in NumPy from the serialized bitplanes line
# up word-for-word.  Only popcount((a ^ b) & mask) is ever read, so the
# layout just has to be *consistent* across the three planes.
_C_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <math.h>
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define HAVE_SIMD 1
/* AVX-512 kernels need the compiler's avx512f intrinsics (GCC >= 5,
   clang >= 4); PLAN_NO_AVX512 compiles them out explicitly. */
#if !defined(PLAN_NO_AVX512) && \
    ((defined(__clang__) && __clang_major__ >= 4) || \
     (!defined(__clang__) && __GNUC__ >= 5))
#define HAVE_AVX512 1
/* ... and the VPOPCNTDQ popcount, GCC >= 8, clang >= 6. */
#if (defined(__clang__) && __clang_major__ >= 6) || \
    (!defined(__clang__) && __GNUC__ >= 8)
#define HAVE_VPOPCNTDQ 1
#endif
#endif
#endif

#define API __attribute__((visibility("default")))

/* SIMD levels.  run_program serves every record at
   min(requested cap, host_isa()); each kernel's *_pick function maps
   its shape and that level to the variant that runs, and
   record_variant() reports the same choice to Python. */
enum { ISA_SCALAR = 0, ISA_AVX2 = 1, ISA_AVX512 = 2 };

API long host_isa(void)
{
    /* Benign race: every thread computes the same value. */
    static long cached = -1;
    if (cached < 0) {
        long level = ISA_SCALAR;
#ifdef HAVE_SIMD
        if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"))
            level = ISA_AVX2;
#ifdef HAVE_AVX512
        if (level == ISA_AVX2 && __builtin_cpu_supports("avx512f"))
            level = ISA_AVX512;
#endif
#endif
        cached = level;
    }
    return cached;
}

/* Whether the AVX-512 popdot can use VPOPCNTDQ (an AVX-512 extension
   that not every AVX-512 CPU has). */
static int host_vpopcntdq(void)
{
#ifdef HAVE_VPOPCNTDQ
    static int cached = -1;
    if (cached < 0)
        cached = host_isa() == ISA_AVX512 &&
                 __builtin_cpu_supports("avx512vpopcntdq");
    return cached;
#else
    return 0;
#endif
}

/* Zero-padded copy: interior rows only — the destination borders were
   zero-initialised once at arena creation and are never written again.
   With scale, the interior receives the interpreter's batch-norm affine
   x*scale[c] + shift[c] instead (affine_ch's two roundings), so a
   batch norm right before a padded conv costs no pass of its own; the
   borders stay 0, as padding after the affine leaves them. */
API void pad_nchw(const float *x, float *xp,
                  long n, long c, long h, long w, long pad,
                  const float *scale, const float *shift)
{
    long hp = h + 2 * pad, wp = w + 2 * pad;
    for (long i = 0; i < n * c; i++) {
        const float *src = x + i * h * w;
        float *dst = xp + i * hp * wp + pad * wp + pad;
        if (!scale) {
            for (long iy = 0; iy < h; iy++)
                memcpy(dst + iy * wp, src + iy * w, (size_t)w * sizeof(float));
            continue;
        }
        float s = scale[i % c], sh = shift[i % c];
        for (long iy = 0; iy < h; iy++) {
            for (long ix = 0; ix < w; ix++) {
                float t = src[iy * w + ix] * s;
                dst[iy * wp + ix] = t + sh;
            }
        }
    }
}

/* Position of logical bit j inside its 64-bit word under the
   np.packbits(MSB-first) + little-endian-u64 view convention. */
static inline uint64_t bitmask(long j)
{
    long within = j & 63;
    return 1ULL << (((within >> 3) << 3) + (7 - (within & 7)));
}

/* Mirror of interpreter._im2col: zero-padded window gather into rows of
   length c*k*k, row index (i*oh + oy)*ow + ox, column (ci*k + ki)*k + kj.
   The kj loop is fringe-split (explicit zero-fill + unchecked copy) so
   the interior carries no per-element bounds branches. */
static inline void im2col_impl(const float *x, float *cols,
                               long n, long c, long h, long w,
                               long k, long stride, long pad,
                               long oh, long ow)
{
    for (long i = 0; i < n; i++) {
        const float *xi = x + i * c * h * w;
        float *crow = cols + i * oh * ow * c * k * k;
        for (long oy = 0; oy < oh; oy++) {
            for (long ox = 0; ox < ow; ox++) {
                long ix0 = ox * stride - pad;
                long kj_lo = ix0 < 0 ? -ix0 : 0;
                long kj_hi = w - ix0 < k ? w - ix0 : k;
                if (kj_hi < kj_lo) kj_hi = kj_lo;
                for (long ci = 0; ci < c; ci++) {
                    const float *xc = xi + ci * h * w;
                    for (long ki = 0; ki < k; ki++) {
                        long iy = oy * stride + ki - pad;
                        if (iy < 0 || iy >= h) {
                            for (long kj = 0; kj < k; kj++) *crow++ = 0.0f;
                            continue;
                        }
                        const float *src = xc + iy * w + ix0;
                        if (kj_lo == 0 && kj_hi == k) {
                            /* full-width segment: constant trip count
                               when k is a literal (see clones below) */
                            for (long kj = 0; kj < k; kj++) crow[kj] = src[kj];
                            crow += k;
                            continue;
                        }
                        for (long kj = 0; kj < kj_lo; kj++) *crow++ = 0.0f;
                        for (long kj = kj_lo; kj < kj_hi; kj++) *crow++ = src[kj];
                        for (long kj = kj_hi; kj < k; kj++) *crow++ = 0.0f;
                    }
                }
            }
        }
    }
}

/* Constant-k clones let the compiler unroll (and for full-width rows
   vectorize) the k-element interior copies; k in {2,3,5,7} covers every
   conv in the model zoo. */
API void im2col_f32(const float *x, float *cols,
                    long n, long c, long h, long w,
                    long k, long stride, long pad, long oh, long ow)
{
    switch (k) {
    case 2: im2col_impl(x, cols, n, c, h, w, 2, stride, pad, oh, ow); break;
    case 3: im2col_impl(x, cols, n, c, h, w, 3, stride, pad, oh, ow); break;
    case 5: im2col_impl(x, cols, n, c, h, w, 5, stride, pad, oh, ow); break;
    case 7: im2col_impl(x, cols, n, c, h, w, 7, stride, pad, oh, ow); break;
    default: im2col_impl(x, cols, n, c, h, w, k, stride, pad, oh, ow); break;
    }
}

/* The interpreter's relu, np.maximum(x, 0.0): NaN propagates,
   -0.0 -> +0.0.  Branchless (data-dependent float branches mispredict
   ~50%).  A nonzero relu_mode in a record applies it. */
static inline float relu_max0(float v)
{
    float t = (v > 0.0f) ? v : 0.0f;
    return (v != v) ? v : t;
}

/* Epilogue after the conv matmul: optional per-channel scale, optional
   bias, optional relu, written back in NCHW. */
API void conv_post(const float *mm, const float *scale, const float *bias,
                   float *out, long n, long rows, long oc, int relu_mode)
{
    /* Channel-outer: the (rows, oc) GEMM block stays cache-resident for
       its strided reads while every NCHW write is contiguous. */
    for (long i = 0; i < n; i++) {
        const float *mi = mm + i * rows * oc;
        float *oi = out + i * oc * rows;
        for (long o = 0; o < oc; o++) {
            const float *mo = mi + o;
            float *oo = oi + o * rows;
            float sc = scale ? scale[o] : 1.0f;
            float bi = bias ? bias[o] : 0.0f;
            for (long r = 0; r < rows; r++) {
                float v = mo[r * oc];
                if (scale) v = v * sc;
                if (bias) v = v + bi;
                if (relu_mode) v = relu_max0(v);
                oo[r] = v;
            }
        }
    }
}

/* Fused direct convolution (oc <= 16): gathers each window straight
   from the zero-padded image and accumulates with sequential-K fmaf —
   the exact reduction OpenBLAS sgemm performs for these skinny shapes,
   so the result is bit-identical to the interpreter's im2col +
   np.matmul without materialising the cols matrix or the (rows, oc)
   GEMM block.  Padded positions contribute fmaf(+0, w, acc) just as the
   zero-filled cols entries do.  The scale/bias/relu epilogue and the
   NCHW transpose happen in registers.  Weight layout: wt[kidx][lane]
   padded to 16 lanes.  Probe verification (plan.py) guards the
   sequential-K assumption; if a BLAS swap ever changes the reduction
   order the plan compiler falls back to the im2col + np.matmul path.

   Every variant below keeps one independent fmaf chain per output in
   (ci, ki, kj) order, so they all agree bit for bit; they differ only
   in what the vector lanes hold (see conv_direct_pick). */
static void conv_direct_scalar(const float *xp, const float *wt,
                               const float *scale, const float *bias,
                               float *out,
                               long n, long c, long hp, long wp,
                               long k, long stride,
                               long oh, long ow, long oc, int relu_mode)
{
    long rows = oh * ow;
    for (long i = 0; i < n; i++) {
        const float *base = xp + i * c * hp * wp;
        float *oi = out + i * oc * rows;
        for (long oy = 0; oy < oh; oy++) {
            for (long ox = 0; ox < ow; ox++) {
                long r = oy * ow + ox;
                for (long j = 0; j < oc; j++) {
                    float acc = 0.0f;
                    long kidx = 0;
                    for (long ci = 0; ci < c; ci++) {
                        const float *xc = base + ci * hp * wp;
                        for (long ki = 0; ki < k; ki++) {
                            const float *src =
                                xc + (oy * stride + ki) * wp + ox * stride;
                            for (long kj = 0; kj < k; kj++, kidx++)
                                acc = fmaf(src[kj], wt[kidx * 16 + j], acc);
                        }
                    }
                    if (scale) acc = acc * scale[j];
                    if (bias) acc = acc + bias[j];
                    if (relu_mode) acc = relu_max0(acc);
                    oi[j * rows + r] = acc;
                }
            }
        }
    }
}

enum {
    CONV_SCALAR, CONV_POS_AVX2, CONV_CHAN_AVX2,
    CONV_POS_AVX512, CONV_CHAN_AVX512,
};

/* Lane-filling rule.  "Positions in lanes" puts consecutive output
   columns of one row in a vector (stride 1 only: the loads must be
   contiguous) and keeps one accumulator per live channel; "channels in
   lanes" puts one position's channels in a vector and blocks several
   positions per weight load (any stride).  Positions win when a row
   fills the lanes at least as well as the channels would:
   ow / ceil(ow / lanes) >= oc. */
static int conv_direct_pick(long oc, long ow, long stride, long isa)
{
    if (isa < ISA_AVX2) return CONV_SCALAR;
    long lanes = isa >= ISA_AVX512 ? 16 : 8;
    int pos = stride == 1 && oc <= 8 &&
              ow >= oc * ((ow + lanes - 1) / lanes);
    if (isa >= ISA_AVX512) return pos ? CONV_POS_AVX512 : CONV_CHAN_AVX512;
    return pos ? CONV_POS_AVX2 : CONV_CHAN_AVX2;
}

/* Positions q .. q+np-1 of the flattened (n, oh, ow) output: each
   window's origin in the padded input and its channel-0 slot in the
   NCHW output. */
static inline void conv_positions(long q, int np, const float *xp,
                                  float *out, long c, long hp, long wp,
                                  long stride, long oh, long ow, long oc,
                                  const float **src, float **dst)
{
    long rows = oh * ow;
    long i = q / rows, r = q - i * rows;
    long oy = r / ow, ox = r - oy * ow;
    for (int p = 0; p < np; p++) {
        src[p] = xp + i * c * hp * wp + oy * stride * wp + ox * stride;
        dst[p] = out + i * oc * rows + oy * ow + ox;
        if (++ox == ow) {
            ox = 0;
            if (++oy == oh) { oy = 0; i++; }
        }
    }
}

#ifdef HAVE_SIMD
#define AVX2_FN __attribute__((target("avx2,fma"), always_inline)) static inline
#define AVX2_KERNEL __attribute__((target("avx2,fma"))) static

static const int32_t lanemask8[9][8] = {
    {0, 0, 0, 0, 0, 0, 0, 0},
    {-1, 0, 0, 0, 0, 0, 0, 0},
    {-1, -1, 0, 0, 0, 0, 0, 0},
    {-1, -1, -1, 0, 0, 0, 0, 0},
    {-1, -1, -1, -1, 0, 0, 0, 0},
    {-1, -1, -1, -1, -1, 0, 0, 0},
    {-1, -1, -1, -1, -1, -1, 0, 0},
    {-1, -1, -1, -1, -1, -1, -1, 0},
    {-1, -1, -1, -1, -1, -1, -1, -1},
};

/* The scalar epilogue, lanewise: a*scale, +bias, then relu_max0. */
AVX2_FN __m256 epilogue256(__m256 a, const float *scale, __m256 sc,
                           const float *bias, __m256 bi, int relu_mode)
{
    __m256 zero = _mm256_setzero_ps();
    if (scale) a = _mm256_mul_ps(a, sc);
    if (bias) a = _mm256_add_ps(a, bi);
    if (relu_mode) {
        __m256 gt = _mm256_cmp_ps(a, zero, _CMP_GT_OQ);
        __m256 nn = _mm256_cmp_ps(a, a, _CMP_UNORD_Q);
        return _mm256_blendv_ps(_mm256_blendv_ps(zero, a, gt), a, nn);
    }
    return a;
}

/* EACH8(X) expands X(0) .. X(7).  The SIMD conv kernels name their
   accumulators (an indexed array of vectors is spilled to the stack
   inside the window loop); guards on the clone constants (NP, NV, OC)
   fold the unused ones away. */
#define EACH8(X) X(0) X(1) X(2) X(3) X(4) X(5) X(6) X(7)

/* Channels in lanes, AVX2: NV ymm hold one position's channels (NV = 2
   when oc > 8) and NP = 8 / NV positions share each weight load, so
   the 8 accumulators are all live: position p owns lo##p (channels
   0-7) and hi##p (channels 8-15). */
AVX2_FN void chan256_block(const float *const *src, float *const *dst,
                           int NP, int NV, const float *wt,
                           long c, long plane, long wp, long k,
                           long rows, long oc, const float *scale,
                           const float *bias, int relu_mode)
{
    __m256 zero = _mm256_setzero_ps();
#define ACC(p) __m256 lo##p = zero, hi##p = zero;
    EACH8(ACC)
#undef ACC
    const float *wk = wt;
    for (long ci = 0; ci < c; ci++) {
        for (long ki = 0; ki < k; ki++) {
            long off = ci * plane + ki * wp;
            for (long kj = 0; kj < k; kj++, wk += 16) {
                __m256 w0 = _mm256_loadu_ps(wk);
                __m256 w1 = NV == 2 ? _mm256_loadu_ps(wk + 8) : w0;
#define FMA(p) if (p < NP) { \
    __m256 b = _mm256_set1_ps(src[p][off + kj]); \
    lo##p = _mm256_fmadd_ps(b, w0, lo##p); \
    if (NV == 2) hi##p = _mm256_fmadd_ps(b, w1, hi##p); }
                EACH8(FMA)
#undef FMA
            }
        }
    }
    __m256 sc0 = scale ? _mm256_loadu_ps(scale) : zero;
    __m256 sc1 = scale && NV == 2 ? _mm256_loadu_ps(scale + 8) : zero;
    __m256 bi0 = bias ? _mm256_loadu_ps(bias) : zero;
    __m256 bi1 = bias && NV == 2 ? _mm256_loadu_ps(bias + 8) : zero;
    float tmp[8][16];
#define EPI(p) if (p < NP) { \
    _mm256_storeu_ps(tmp[p], \
                     epilogue256(lo##p, scale, sc0, bias, bi0, relu_mode)); \
    if (NV == 2) \
        _mm256_storeu_ps(tmp[p] + 8, \
                         epilogue256(hi##p, scale, sc1, bias, bi1, relu_mode)); }
    EACH8(EPI)
#undef EPI
    for (long j = 0; j < oc; j++)
        for (int p = 0; p < NP; p++) dst[p][j * rows] = tmp[p][j];
}

AVX2_FN void conv_chan_avx2_impl(const float *xp, const float *wt,
                                 const float *scale, const float *bias,
                                 float *out, long n, long c, long hp, long wp,
                                 long stride, long oh, long ow, long oc,
                                 int relu_mode, int NV, long k)
{
    const int NP = 8 / NV;
    long rows = oh * ow, total = n * rows;
    const float *src[8];
    float *dst[8];
    if (total < NP) {
        /* narrow block: fewer positions than one block */
        for (long q = 0; q < total; q++) {
            conv_positions(q, 1, xp, out, c, hp, wp, stride, oh, ow, oc,
                           src, dst);
            chan256_block(src, dst, 1, NV, wt, c, hp * wp, wp, k,
                          rows, oc, scale, bias, relu_mode);
        }
        return;
    }
    for (long q = 0; q < total; q += NP) {
        /* the last block overlaps the previous one */
        long qb = q + NP <= total ? q : total - NP;
        conv_positions(qb, NP, xp, out, c, hp, wp, stride, oh, ow, oc,
                       src, dst);
        chan256_block(src, dst, NP, NV, wt, c, hp * wp, wp, k,
                      rows, oc, scale, bias, relu_mode);
    }
}

/* Constant-k clones unroll the channels-in-lanes kernels' kj window
   walk (k is the last argument of IMPL; 3 and 5 cover the model zoo).
   The positions-in-lanes kernels gain nothing from it. */
#define K_CLONES(IMPL, ...) do { switch (k) { \
    case 3: IMPL(__VA_ARGS__, 3); break; \
    case 5: IMPL(__VA_ARGS__, 5); break; \
    default: IMPL(__VA_ARGS__, k); break; \
    } } while (0)

AVX2_KERNEL void conv_chan_avx2(const float *xp, const float *wt,
                                const float *scale, const float *bias,
                                float *out, long n, long c, long hp, long wp,
                                long k, long stride, long oh, long ow,
                                long oc, int relu_mode)
{
    if (oc > 8)
        K_CLONES(conv_chan_avx2_impl, xp, wt, scale, bias, out, n, c, hp, wp,
                 stride, oh, ow, oc, relu_mode, 2);
    else
        K_CLONES(conv_chan_avx2_impl, xp, wt, scale, bias, out, n, c, hp, wp,
                 stride, oh, ow, oc, relu_mode, 1);
}

/* Positions in lanes, AVX2 (stride 1): eight output columns of one row
   per vector and one accumulator per live channel (OC is a literal in
   each clone).  Rows of at least 8 columns run full blocks, the last
   one overlapping its neighbour; narrower rows use a masked block. */
AVX2_FN void conv_pos_avx2_impl(const float *xp, const float *wt,
                                const float *scale, const float *bias,
                                float *out, long n, long c, long hp, long wp,
                                long k, long oh, long ow, int relu_mode,
                                int OC)
{
    long rows = oh * ow, plane = hp * wp;
    __m256i m = _mm256_loadu_si256(
        (const __m256i *)lanemask8[ow < 8 ? ow : 8]);
    __m256 one = _mm256_set1_ps(1.0f), zero = _mm256_setzero_ps();
    for (long i = 0; i < n; i++) {
        for (long oy = 0; oy < oh; oy++) {
            const float *srow = xp + i * c * plane + oy * wp;
            float *orow = out + i * OC * rows + oy * ow;
            for (long ox = 0; ox < ow; ox += 8) {
                long ob = ow < 8 ? 0 : (ox + 8 <= ow ? ox : ow - 8);
                __m256 a0 = zero, a1 = zero, a2 = zero, a3 = zero;
                __m256 a4 = zero, a5 = zero, a6 = zero, a7 = zero;
                const float *wk = wt;
                for (long ci = 0; ci < c; ci++) {
                    for (long ki = 0; ki < k; ki++) {
                        const float *s = srow + ci * plane + ki * wp + ob;
                        for (long kj = 0; kj < k; kj++, wk += 16) {
                            __m256 v = ow < 8 ? _mm256_maskload_ps(s + kj, m)
                                              : _mm256_loadu_ps(s + kj);
#define FMA(j) if (OC > j) \
    a##j = _mm256_fmadd_ps(v, _mm256_set1_ps(wk[j]), a##j);
                            EACH8(FMA)
#undef FMA
                        }
                    }
                }
#define STORE(j) if (OC > j) { \
    __m256 r = epilogue256(a##j, scale, scale ? _mm256_set1_ps(scale[j]) : one, \
                           bias, bias ? _mm256_set1_ps(bias[j]) : zero, \
                           relu_mode); \
    if (ow < 8) _mm256_maskstore_ps(orow + j * rows + ob, m, r); \
    else _mm256_storeu_ps(orow + j * rows + ob, r); }
                EACH8(STORE)
#undef STORE
            }
        }
    }
}

#define POS_CLONES(IMPL, ...) do { switch (oc) { \
    case 1: IMPL(__VA_ARGS__, 1); break; case 2: IMPL(__VA_ARGS__, 2); break; \
    case 3: IMPL(__VA_ARGS__, 3); break; case 4: IMPL(__VA_ARGS__, 4); break; \
    case 5: IMPL(__VA_ARGS__, 5); break; case 6: IMPL(__VA_ARGS__, 6); break; \
    case 7: IMPL(__VA_ARGS__, 7); break; default: IMPL(__VA_ARGS__, 8); break; \
    } } while (0)

AVX2_KERNEL void conv_pos_avx2(const float *xp, const float *wt,
                               const float *scale, const float *bias,
                               float *out, long n, long c, long hp, long wp,
                               long k, long oh, long ow, long oc,
                               int relu_mode)
{
    POS_CLONES(conv_pos_avx2_impl, xp, wt, scale, bias, out, n, c, hp, wp,
               k, oh, ow, relu_mode);
}

#ifdef HAVE_AVX512
#define AVX512_FN __attribute__((target("avx512f"), always_inline)) static inline
#define AVX512_KERNEL __attribute__((target("avx512f"))) static

/* epilogue256 on 16 lanes, with mask registers for the relu selects. */
AVX512_FN __m512 epilogue512(__m512 a, const float *scale, __m512 sc,
                             const float *bias, __m512 bi, int relu_mode)
{
    __m512 zero = _mm512_setzero_ps();
    if (scale) a = _mm512_mul_ps(a, sc);
    if (bias) a = _mm512_add_ps(a, bi);
    if (relu_mode) {
        __mmask16 keep = _mm512_cmp_ps_mask(a, zero, _CMP_GT_OQ) |
                         _mm512_cmp_ps_mask(a, a, _CMP_UNORD_Q);
        return _mm512_mask_mov_ps(zero, keep, a);
    }
    return a;
}

/* Channels in lanes, AVX-512: one zmm holds all of a position's (<= 16)
   channels and NP = 8 positions share each weight load. */
AVX512_FN void chan512_block(const float *const *src, float *const *dst,
                             int NP, const float *wt,
                             long c, long plane, long wp, long k,
                             long rows, long oc, const float *scale,
                             __m512 sc, const float *bias, __m512 bi,
                             int relu_mode)
{
    __m512 zero = _mm512_setzero_ps();
    __m512 a0 = zero, a1 = zero, a2 = zero, a3 = zero;
    __m512 a4 = zero, a5 = zero, a6 = zero, a7 = zero;
    const float *wk = wt;
    for (long ci = 0; ci < c; ci++) {
        for (long ki = 0; ki < k; ki++) {
            long off = ci * plane + ki * wp;
            for (long kj = 0; kj < k; kj++, wk += 16) {
                __m512 w = _mm512_loadu_ps(wk);
#define FMA(p) if (p < NP) \
    a##p = _mm512_fmadd_ps(_mm512_set1_ps(src[p][off + kj]), w, a##p);
                EACH8(FMA)
#undef FMA
            }
        }
    }
    float tmp[8][16];
#define EPI(p) if (p < NP) \
    _mm512_storeu_ps(tmp[p], epilogue512(a##p, scale, sc, bias, bi, relu_mode));
    EACH8(EPI)
#undef EPI
    for (long j = 0; j < oc; j++)
        for (int p = 0; p < NP; p++) dst[p][j * rows] = tmp[p][j];
}

AVX512_FN void conv_chan_avx512_impl(const float *xp, const float *wt,
                                     const float *scale, const float *bias,
                                     float *out, long n, long c, long hp,
                                     long wp, long stride, long oh, long ow,
                                     long oc, int relu_mode, long k)
{
    long rows = oh * ow, total = n * rows;
    __m512 sc = scale ? _mm512_loadu_ps(scale) : _mm512_set1_ps(1.0f);
    __m512 bi = bias ? _mm512_loadu_ps(bias) : _mm512_setzero_ps();
    const float *src[8];
    float *dst[8];
    if (total < 8) {
        /* narrow block: fewer positions than one block */
        for (long q = 0; q < total; q++) {
            conv_positions(q, 1, xp, out, c, hp, wp, stride, oh, ow, oc,
                           src, dst);
            chan512_block(src, dst, 1, wt, c, hp * wp, wp, k, rows, oc,
                          scale, sc, bias, bi, relu_mode);
        }
        return;
    }
    for (long q = 0; q < total; q += 8) {
        /* the last block overlaps the previous one */
        long qb = q + 8 <= total ? q : total - 8;
        conv_positions(qb, 8, xp, out, c, hp, wp, stride, oh, ow, oc,
                       src, dst);
        chan512_block(src, dst, 8, wt, c, hp * wp, wp, k, rows, oc,
                      scale, sc, bias, bi, relu_mode);
    }
}

AVX512_KERNEL void conv_chan_avx512(const float *xp, const float *wt,
                                    const float *scale, const float *bias,
                                    float *out, long n, long c, long hp,
                                    long wp, long k, long stride, long oh,
                                    long ow, long oc, int relu_mode)
{
    K_CLONES(conv_chan_avx512_impl, xp, wt, scale, bias, out, n, c, hp, wp,
             stride, oh, ow, oc, relu_mode);
}

/* Positions in lanes, AVX-512 (stride 1): sixteen output columns per
   vector, one accumulator per live channel.  Masked loads and stores
   cover rows narrower than 16 columns; wider rows run full blocks with
   the last one overlapping its neighbour. */
AVX512_FN void conv_pos_avx512_impl(const float *xp, const float *wt,
                                    const float *scale, const float *bias,
                                    float *out, long n, long c, long hp,
                                    long wp, long k, long oh, long ow,
                                    int relu_mode, int OC)
{
    long rows = oh * ow, plane = hp * wp;
    __mmask16 m = ow < 16 ? (__mmask16)((1u << ow) - 1) : (__mmask16)0xFFFF;
    __m512 one = _mm512_set1_ps(1.0f), zero = _mm512_setzero_ps();
    for (long i = 0; i < n; i++) {
        for (long oy = 0; oy < oh; oy++) {
            const float *srow = xp + i * c * plane + oy * wp;
            float *orow = out + i * OC * rows + oy * ow;
            for (long ox = 0; ox < ow; ox += 16) {
                long ob = ow < 16 ? 0 : (ox + 16 <= ow ? ox : ow - 16);
                __m512 a0 = zero, a1 = zero, a2 = zero, a3 = zero;
                __m512 a4 = zero, a5 = zero, a6 = zero, a7 = zero;
                const float *wk = wt;
                for (long ci = 0; ci < c; ci++) {
                    for (long ki = 0; ki < k; ki++) {
                        const float *s = srow + ci * plane + ki * wp + ob;
                        for (long kj = 0; kj < k; kj++, wk += 16) {
                            __m512 v = _mm512_maskz_loadu_ps(m, s + kj);
#define FMA(j) if (OC > j) \
    a##j = _mm512_fmadd_ps(v, _mm512_set1_ps(wk[j]), a##j);
                            EACH8(FMA)
#undef FMA
                        }
                    }
                }
#define STORE(j) if (OC > j) \
    _mm512_mask_storeu_ps( \
        orow + j * rows + ob, m, \
        epilogue512(a##j, scale, scale ? _mm512_set1_ps(scale[j]) : one, \
                    bias, bias ? _mm512_set1_ps(bias[j]) : zero, relu_mode));
                EACH8(STORE)
#undef STORE
            }
        }
    }
}

AVX512_KERNEL void conv_pos_avx512(const float *xp, const float *wt,
                                   const float *scale, const float *bias,
                                   float *out, long n, long c, long hp,
                                   long wp, long k, long oh, long ow,
                                   long oc, int relu_mode)
{
    POS_CLONES(conv_pos_avx512_impl, xp, wt, scale, bias, out, n, c, hp, wp,
               k, oh, ow, relu_mode);
}
#endif /* HAVE_AVX512 */
#endif /* HAVE_SIMD */

API void conv_direct(const float *xp, const float *wt,
                     const float *scale, const float *bias, float *out,
                     long n, long c, long hp, long wp,
                     long k, long stride,
                     long oh, long ow, long oc, int relu_mode, long isa)
{
    switch (conv_direct_pick(oc, ow, stride, isa)) {
#ifdef HAVE_SIMD
    case CONV_POS_AVX2:
        conv_pos_avx2(xp, wt, scale, bias, out, n, c, hp, wp, k, oh, ow,
                      oc, relu_mode);
        return;
    case CONV_CHAN_AVX2:
        conv_chan_avx2(xp, wt, scale, bias, out, n, c, hp, wp, k, stride,
                       oh, ow, oc, relu_mode);
        return;
#ifdef HAVE_AVX512
    case CONV_POS_AVX512:
        conv_pos_avx512(xp, wt, scale, bias, out, n, c, hp, wp, k, oh, ow,
                        oc, relu_mode);
        return;
    case CONV_CHAN_AVX512:
        conv_chan_avx512(xp, wt, scale, bias, out, n, c, hp, wp, k, stride,
                         oh, ow, oc, relu_mode);
        return;
#endif
#endif
    default:
        conv_direct_scalar(xp, wt, scale, bias, out, n, c, hp, wp,
                           k, stride, oh, ow, oc, relu_mode);
    }
}

/* Max pooling over non-overlapping-or-strided windows, valid region
   only (matches conv_geometry with pad 0), as the interpreter's chained
   np.maximum: a tie takes the new value, a NaN accumulator sticks. */
static inline void maxpool_impl(const float *x, float *out,
                                long n, long c, long h, long w,
                                long k, long stride, long oh, long ow,
                                const float *scale, const float *shift)
{
    for (long i = 0; i < n; i++) {
        for (long ci = 0; ci < c; ci++) {
            const float *xc = x + (i * c + ci) * h * w;
            float *op = out + (i * c + ci) * oh * ow;
            float s = scale ? scale[ci] : 1.0f, sh = scale ? shift[ci] : 0.0f;
            for (long oy = 0; oy < oh; oy++) {
                for (long ox = 0; ox < ow; ox++) {
                    long y0 = oy * stride, x0 = ox * stride;
                    float m = xc[y0 * w + x0];
                    for (long ki = 0; ki < k; ki++) {
                        for (long kj = 0; kj < k; kj++) {
                            if (ki == 0 && kj == 0) continue;
                            float v = xc[(y0 + ki) * w + (x0 + kj)];
                            float t = (m > v) ? m : v;
                            m = (m != m) ? m : t;
                        }
                    }
                    if (scale) {
                        float t = m * s;
                        m = t + sh;
                    }
                    op[oy * ow + ox] = m;
                }
            }
        }
    }
}

#ifdef HAVE_SIMD
/* 2x2/stride-2 pool, eight output columns per iteration.  The window
   chain runs lanewise with the exact scalar tie/NaN semantics: each
   step is the branchless cmp+blendv transliteration of the chain step
   in maxpool_impl, so results match bit-for-bit, and so is
   the optional affine store (a mul, then an add). */
AVX2_KERNEL
void maxpool_k2s2_avx2(const float *x, float *out,
                       long n, long c, long h, long w,
                       long oh, long ow,
                       const float *scale, const float *shift)
{
    /* lanemask8[cnt] selects the first cnt lanes for maskload and
       maskstore; masked-off lanes never fault, so partial groups at the
       row end stay in bounds without a scalar tail. */
    __m256i idx_ev = _mm256_setr_epi32(0, 1, 4, 5, 2, 3, 6, 7);
    for (long i = 0; i < n * c; i++) {
        const float *xc = x + i * h * w;
        float *op = out + i * oh * ow;
        __m256 s8 = _mm256_set1_ps(scale ? scale[i % c] : 1.0f);
        __m256 sh8 = _mm256_set1_ps(scale ? shift[i % c] : 0.0f);
        for (long oy = 0; oy < oh; oy++) {
            const float *r0 = xc + (2 * oy) * w;
            const float *r1 = r0 + w;
            for (long ox = 0; ox < ow; ox += 8) {
                long nl = ow - ox < 8 ? ow - ox : 8;
                __m256 u0, u1, v0, v1;
                if (nl == 8) {
                    u0 = _mm256_loadu_ps(r0 + 2 * ox);
                    u1 = _mm256_loadu_ps(r0 + 2 * ox + 8);
                    v0 = _mm256_loadu_ps(r1 + 2 * ox);
                    v1 = _mm256_loadu_ps(r1 + 2 * ox + 8);
                } else {
                    long len = 2 * nl;
                    long c0 = len < 8 ? len : 8;
                    __m256i m0 = _mm256_loadu_si256((const __m256i *)lanemask8[c0]);
                    __m256i m1 = _mm256_loadu_si256((const __m256i *)lanemask8[len - c0]);
                    u0 = _mm256_maskload_ps(r0 + 2 * ox, m0);
                    u1 = _mm256_maskload_ps(r0 + 2 * ox + 8, m1);
                    v0 = _mm256_maskload_ps(r1 + 2 * ox, m0);
                    v1 = _mm256_maskload_ps(r1 + 2 * ox + 8, m1);
                }
                __m256 m = _mm256_permutevar8x32_ps(
                    _mm256_shuffle_ps(u0, u1, 0x88), idx_ev);
                __m256 wv[3];
                wv[0] = _mm256_permutevar8x32_ps(
                    _mm256_shuffle_ps(u0, u1, 0xDD), idx_ev);
                wv[1] = _mm256_permutevar8x32_ps(
                    _mm256_shuffle_ps(v0, v1, 0x88), idx_ev);
                wv[2] = _mm256_permutevar8x32_ps(
                    _mm256_shuffle_ps(v0, v1, 0xDD), idx_ev);
                for (int s = 0; s < 3; s++) {
                    __m256 v = wv[s];
                    __m256 gt = _mm256_cmp_ps(m, v, _CMP_GT_OQ);
                    __m256 t = _mm256_blendv_ps(v, m, gt);
                    __m256 nn = _mm256_cmp_ps(m, m, _CMP_UNORD_Q);
                    m = _mm256_blendv_ps(t, m, nn);
                }
                if (scale) m = _mm256_add_ps(_mm256_mul_ps(m, s8), sh8);
                if (nl == 8)
                    _mm256_storeu_ps(op + oy * ow + ox, m);
                else
                    _mm256_maskstore_ps(
                        op + oy * ow + ox,
                        _mm256_loadu_si256((const __m256i *)lanemask8[nl]), m);
            }
        }
    }
}
#endif /* HAVE_SIMD */

static int maxpool_pick(long k, long stride, long isa)
{
    return k == 2 && stride == 2 && isa >= ISA_AVX2;
}

/* With scale, each pooled value is stored as m*scale[c] + shift[c]:
   the interpreter's batch-norm affine right after the pool, with
   affine_ch's two roundings, folded into the pool's store. */
API void maxpool_nchw(const float *x, float *out,
                      long n, long c, long h, long w,
                      long k, long stride, long oh, long ow,
                      const float *scale, const float *shift, long isa)
{
#ifdef HAVE_SIMD
    if (maxpool_pick(k, stride, isa)) {
        maxpool_k2s2_avx2(x, out, n, c, h, w, oh, ow, scale, shift);
        return;
    }
#endif
    /* Constant-k clones unroll the window walk (and fold away the
       skip-first-element branch). */
    switch (k) {
    case 2:
        maxpool_impl(x, out, n, c, h, w, 2, stride, oh, ow, scale, shift);
        break;
    case 3:
        maxpool_impl(x, out, n, c, h, w, 3, stride, oh, ow, scale, shift);
        break;
    default:
        maxpool_impl(x, out, n, c, h, w, k, stride, oh, ow, scale, shift);
        break;
    }
}

/* Interpreter batch-norm folded to affine: out = x*scale[c] + shift[c]
   with exactly two float32 roundings per element. */
API void affine_ch(const float *x, float *out, const float *scale,
                   const float *shift, long n, long c, long hw)
{
    for (long i = 0; i < n; i++) {
        for (long ci = 0; ci < c; ci++) {
            const float *xi = x + (i * c + ci) * hw;
            float *oi = out + (i * c + ci) * hw;
            float s = scale[ci], sh = shift[ci];
            for (long j = 0; j < hw; j++) {
                float t = xi[j] * s;
                oi[j] = t + sh;
            }
        }
    }
}

/* Standalone relu pass (unfused). */
API void relu_inplace(float *x, long size)
{
    for (long j = 0; j < size; j++) x[j] = relu_max0(x[j]);
}

/* Linear layers in the interpreter's specified order (linear_spec):
   out[i][j] is the sum over k = 0 .. K-1, in ascending order from +0.0,
   of the float32 products x[i][k] * wt[k][j], each product rounded
   before its add (the SIMD variants multiply, then add: no FMA).  The
   epilogue follows in registers: *scale[j], +bias[j], relu_max0.  wt
   is (K, ldw) and scale/bias have ldw entries, ldw >= N a multiple of
   16 zero-padded past N, so every load is a full vector and only the
   stores are masked.  The variants block rows and columns differently
   but keep one add chain per output, in that order, so they agree bit
   for bit.  x and out are (n, K) and (n, N), row-major. */
static void linear_seq_scalar(const float *x, const float *wt,
                              const float *scale, const float *bias,
                              float *out, long n, long K, long N, long ldw,
                              int relu_mode)
{
    for (long i = 0; i < n; i++) {
        const float *xi = x + i * K;
        float *oi = out + i * N;
        for (long j = 0; j < N; j++) oi[j] = 0.0f;
        for (long k = 0; k < K; k++) {
            float xv = xi[k];
            const float *wk = wt + k * ldw;
            for (long j = 0; j < N; j++) {
                float p = xv * wk[j];
                oi[j] = oi[j] + p;
            }
        }
        for (long j = 0; j < N; j++) {
            float v = oi[j];
            if (scale) v = v * scale[j];
            if (bias) v = v + bias[j];
            if (relu_mode) v = relu_max0(v);
            oi[j] = v;
        }
    }
}

enum { LIN_SCALAR, LIN_AVX2, LIN_AVX512 };

static int linear_seq_pick(long isa)
{
    if (isa >= ISA_AVX512) return LIN_AVX512;
    return isa >= ISA_AVX2 ? LIN_AVX2 : LIN_SCALAR;
}

#ifdef HAVE_SIMD
/* EACH_RV(X) expands X(r, v) over a block's NR <= 4 rows and NV <= 2
   vectors of columns: NR * NV named chains, so they stay in registers;
   guards on the clone constants fold the unused ones away. */
#define EACH_RV(X) X(0, 0) X(0, 1) X(1, 0) X(1, 1) \
                   X(2, 0) X(2, 1) X(3, 0) X(3, 1)

/* NR and NV as literals: the clones a row/column block dispatches to. */
#define LINEAR_CLONES(IMPL, nr, nv, ...) do { \
    if ((nv) == 2) { switch (nr) { \
        case 1: IMPL(__VA_ARGS__, 1, 2); break; \
        case 2: IMPL(__VA_ARGS__, 2, 2); break; \
        case 3: IMPL(__VA_ARGS__, 3, 2); break; \
        default: IMPL(__VA_ARGS__, 4, 2); break; } \
    } else { switch (nr) { \
        case 1: IMPL(__VA_ARGS__, 1, 1); break; \
        case 2: IMPL(__VA_ARGS__, 2, 1); break; \
        case 3: IMPL(__VA_ARGS__, 3, 1); break; \
        default: IMPL(__VA_ARGS__, 4, 1); break; } } \
    } while (0)

/* Rows x[0 .. NR) by columns j0 .. j0 + 8 * NV, AVX2. */
AVX2_FN void linear_block_avx2(const float *x, const float *wt,
                               const float *scale, const float *bias,
                               float *out, long K, long N, long ldw,
                               long j0, int relu_mode, int NR, int NV)
{
    __m256 zero = _mm256_setzero_ps();
#define ACC(r, v) __m256 a##r##v = zero;
    EACH_RV(ACC)
#undef ACC
    const float *wk = wt + j0;
    for (long k = 0; k < K; k++, wk += ldw) {
        __m256 w0 = _mm256_loadu_ps(wk);
        __m256 w1 = NV == 2 ? _mm256_loadu_ps(wk + 8) : zero;
#define MAC(r, v) if (r < NR && v < NV) \
    a##r##v = _mm256_add_ps( \
        a##r##v, _mm256_mul_ps(_mm256_set1_ps(x[r * K + k]), w##v));
        EACH_RV(MAC)
#undef MAC
    }
#define STORE(r, v) if (r < NR && v < NV) { \
    long j = j0 + 8 * v, cnt = N - j < 8 ? N - j : 8; \
    __m256 e = epilogue256( \
        a##r##v, scale, scale ? _mm256_loadu_ps(scale + j) : zero, \
        bias, bias ? _mm256_loadu_ps(bias + j) : zero, relu_mode); \
    if (cnt == 8) _mm256_storeu_ps(out + r * N + j, e); \
    else _mm256_maskstore_ps( \
        out + r * N + j, \
        _mm256_loadu_si256((const __m256i *)lanemask8[cnt]), e); }
    EACH_RV(STORE)
#undef STORE
}

/* Column blocks outermost: a block's K x 16 weight panel stays in L1
   while the row blocks pass over it.  With n >= 4 the last row block
   overlaps its neighbour and rewrites the same values. */
AVX2_KERNEL void linear_seq_avx2(const float *x, const float *wt,
                                 const float *scale, const float *bias,
                                 float *out, long n, long K, long N,
                                 long ldw, int relu_mode)
{
    int nr = n < 4 ? (int)n : 4;
    for (long j0 = 0; j0 < N; j0 += 16) {
        int nv = N - j0 > 8 ? 2 : 1;
        for (long i0 = 0; i0 < n; i0 += 4) {
            long ib = i0 + nr <= n ? i0 : n - nr;
            LINEAR_CLONES(linear_block_avx2, nr, nv, x + ib * K, wt, scale,
                          bias, out + ib * N, K, N, ldw, j0, relu_mode);
        }
    }
}

#ifdef HAVE_AVX512
/* Rows x[0 .. NR) by columns j0 .. j0 + 16 * NV, AVX-512. */
AVX512_FN void linear_block_avx512(const float *x, const float *wt,
                                   const float *scale, const float *bias,
                                   float *out, long K, long N, long ldw,
                                   long j0, int relu_mode, int NR, int NV)
{
    __m512 zero = _mm512_setzero_ps();
#define ACC(r, v) __m512 a##r##v = zero;
    EACH_RV(ACC)
#undef ACC
    const float *wk = wt + j0;
    for (long k = 0; k < K; k++, wk += ldw) {
        __m512 w0 = _mm512_loadu_ps(wk);
        __m512 w1 = NV == 2 ? _mm512_loadu_ps(wk + 16) : zero;
#define MAC(r, v) if (r < NR && v < NV) \
    a##r##v = _mm512_add_ps( \
        a##r##v, _mm512_mul_ps(_mm512_set1_ps(x[r * K + k]), w##v));
        EACH_RV(MAC)
#undef MAC
    }
#define STORE(r, v) if (r < NR && v < NV) { \
    long j = j0 + 16 * v, cnt = N - j < 16 ? N - j : 16; \
    _mm512_mask_storeu_ps( \
        out + r * N + j, (__mmask16)((1u << cnt) - 1), \
        epilogue512(a##r##v, scale, \
                    scale ? _mm512_loadu_ps(scale + j) : zero, bias, \
                    bias ? _mm512_loadu_ps(bias + j) : zero, relu_mode)); }
    EACH_RV(STORE)
#undef STORE
}

AVX512_KERNEL void linear_seq_avx512(const float *x, const float *wt,
                                     const float *scale, const float *bias,
                                     float *out, long n, long K, long N,
                                     long ldw, int relu_mode)
{
    int nr = n < 4 ? (int)n : 4;
    for (long j0 = 0; j0 < N; j0 += 32) {
        int nv = N - j0 > 16 ? 2 : 1;
        for (long i0 = 0; i0 < n; i0 += 4) {
            long ib = i0 + nr <= n ? i0 : n - nr;
            LINEAR_CLONES(linear_block_avx512, nr, nv, x + ib * K, wt, scale,
                          bias, out + ib * N, K, N, ldw, j0, relu_mode);
        }
    }
}
#endif /* HAVE_AVX512 */
#undef LINEAR_CLONES
#undef EACH_RV
#endif /* HAVE_SIMD */

API void linear_seq(const float *x, const float *wt, const float *scale,
                    const float *bias, float *out, long n, long K, long N,
                    long ldw, int relu_mode, long isa)
{
    switch (linear_seq_pick(isa)) {
#ifdef HAVE_SIMD
#ifdef HAVE_AVX512
    case LIN_AVX512:
        linear_seq_avx512(x, wt, scale, bias, out, n, K, N, ldw, relu_mode);
        return;
#endif
    case LIN_AVX2:
        linear_seq_avx2(x, wt, scale, bias, out, n, K, N, ldw, relu_mode);
        return;
#endif
    default:
        linear_seq_scalar(x, wt, scale, bias, out, n, K, N, ldw, relu_mode);
    }
}

/* NumPy's pairwise float32 sum over |a[0..n)|: below 8 elements a
   sequential sum; up to 128, eight independent accumulators seeded from
   the first block, combined as ((r0+r1)+(r2+r3)) + ((r4+r5)+(r6+r7)),
   then a sequential tail; above 128, split at half the length rounded
   down to a multiple of 8 and recurse.  fabsf is applied on every load
   (idempotent on rows that already hold |v|).  This folds the binary
   layers' |x| means into C; every plan is probe-verified against the
   interpreter, so if a NumPy upgrade ever changes the reduction the
   plan compiler steps down to np.mean instead (the c_mean tier in
   plan.py). */
static float pairwise_abs_sum(const float *a, long n)
{
    if (n < 8) {
        float res = 0.0f;
        for (long i = 0; i < n; i++) res += fabsf(a[i]);
        return res;
    }
    if (n <= 128) {
        float r0 = fabsf(a[0]), r1 = fabsf(a[1]);
        float r2 = fabsf(a[2]), r3 = fabsf(a[3]);
        float r4 = fabsf(a[4]), r5 = fabsf(a[5]);
        float r6 = fabsf(a[6]), r7 = fabsf(a[7]);
        long i = 8;
        for (; i + 8 <= n; i += 8) {
            r0 += fabsf(a[i]);     r1 += fabsf(a[i + 1]);
            r2 += fabsf(a[i + 2]); r3 += fabsf(a[i + 3]);
            r4 += fabsf(a[i + 4]); r5 += fabsf(a[i + 5]);
            r6 += fabsf(a[i + 6]); r7 += fabsf(a[i + 7]);
        }
        float res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7));
        for (; i < n; i++) res += fabsf(a[i]);
        return res;
    }
    long n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_abs_sum(a, n2) + pairwise_abs_sum(a + n2, n - n2);
}

/* Binary-linear input scale: out[i] = np.abs(x[i]).mean() for each of
   the m rows of f features (pairwise sum, then one division). */
API void absmean_rows(const float *x, float *out, long m, long f)
{
    for (long i = 0; i < m; i++)
        out[i] = pairwise_abs_sum(x + i * f, f) / (float)f;
}

/* Fused window gather for binary convs: writes |value| rows (for the
   NumPy kfac mean, bitwise-identical to np.abs) and packs the sign bit
   (v >= 0, matching the interpreter's cols >= 0; padded zeros pack as 1)
   into zeroed u64 words.  When maskw is given (padding present), the
   per-row validity mask is pre-applied to the activation words, so the
   popcount loop can use premasked weights: (a&m)^(b&m) == (a^b)&m.

   Without kfac, abscols receives every |v| row for the NumPy mean.
   With kfac, the mean is computed here, row by row, and abscols is one
   row_len scratch row — or NULL when row_len <= 128 and the row fits a
   stack buffer. */
static inline void binconv_prepare_impl(const float *x, float *abscols,
                                        float *kfac,
                                        uint64_t *words, const uint64_t *maskw,
                                        long n, long c, long h, long w,
                                        long k, long stride, long pad,
                                        long oh, long ow, long W)
{
    long row_len = c * k * k;
    long rows = oh * ow;
    float stackrow[128];
    for (long i = 0; i < n; i++) {
        const float *xi = x + i * c * h * w;
        for (long oy = 0; oy < oh; oy++) {
            for (long ox = 0; ox < ow; ox++) {
                long r = i * rows + oy * ow + ox;
                float *arow = !kfac ? abscols + r * row_len
                                    : abscols ? abscols : stackrow;
                uint64_t *wrow = words + r * W;
                long ix0 = ox * stride - pad;
                long kj_lo = ix0 < 0 ? -ix0 : 0;
                long kj_hi = w - ix0 < k ? w - ix0 : k;
                if (kj_hi < kj_lo) kj_hi = kj_lo;
                long j = 0;
                /* Bits accumulate in a register word and flush once per
                   64 positions; j is strictly increasing, so every word
                   0..W-1 is assigned exactly once (no pre-zero, no RMW
                   store-to-load chain). */
                uint64_t acc = 0;
                long cw = 0;
#define PUT_BIT(on) do { \
        long wi_ = j >> 6; \
        if (wi_ != cw) { wrow[cw] = acc; acc = 0; cw = wi_; } \
        acc |= bitmask(j) & (uint64_t)(on); } while (0)
                for (long ci = 0; ci < c; ci++) {
                    const float *xc = xi + ci * h * w;
                    for (long ki = 0; ki < k; ki++) {
                        long iy = oy * stride + ki - pad;
                        if (iy < 0 || iy >= h) {
                            /* zero padding: |0| = 0, sign bit 0>=0 set */
                            for (long kj = 0; kj < k; kj++, j++) {
                                arow[j] = 0.0f;
                                PUT_BIT(~(uint64_t)0);
                            }
                            continue;
                        }
                        const float *src = xc + iy * w + ix0;
                        if (kj_lo == 0 && kj_hi == k) {
                            for (long kj = 0; kj < k; kj++, j++) {
                                float v = src[kj];
                                arow[j] = fabsf(v);
                                PUT_BIT((uint64_t)0 - (uint64_t)(v >= 0.0f));
                            }
                            continue;
                        }
                        for (long kj = 0; kj < kj_lo; kj++, j++) {
                            arow[j] = 0.0f;
                            PUT_BIT(~(uint64_t)0);
                        }
                        for (long kj = kj_lo; kj < kj_hi; kj++, j++) {
                            float v = src[kj];
                            arow[j] = fabsf(v);
                            PUT_BIT((uint64_t)0 - (uint64_t)(v >= 0.0f));
                        }
                        for (long kj = kj_hi; kj < k; kj++, j++) {
                            arow[j] = 0.0f;
                            PUT_BIT(~(uint64_t)0);
                        }
                    }
                }
#undef PUT_BIT
                wrow[cw] = acc;
                if (maskw) {
                    const uint64_t *mk = maskw + (oy * ow + ox) * W;
                    for (long wi = 0; wi < W; wi++) wrow[wi] &= mk[wi];
                }
                if (kfac)
                    kfac[r] = pairwise_abs_sum(arow, row_len) / (float)row_len;
            }
        }
    }
}

#ifdef HAVE_SIMD
/* Row-sign gather: the SIMD prepare for the pre-padded stride-1
   fused-mean case (row_len <= 128, ow >= 8), which signs every input
   value once instead of once per window covering it.

   Per sample, one compare + movemask per 8 (AVX2) or 16 (AVX-512)
   floats turns each padded input row of each channel into a sign mask,
   bit x = (v >= 0) in natural order (-0.0 and the zero borders give 1).
   A window's logical bit j = (ci*k + ki)*k + kj is bit ox + kj of row
   (ci, oy + ki), so each of its c*k row slices is the row mask shifted
   right by ox, cut to k bits and shifted left to (ci*k + ki)*k.  The
   u64 lanes hold eight consecutive windows; as in every 8-window
   block, the last block of a row overlaps its neighbour and rewrites
   the shared windows with identical values.  A bytewise bit reverse
   turns natural order into the np.packbits order, so the words equal
   binconv_prepare_impl's.  kfac replays pairwise_abs_sum's
   8-accumulator scheme lanewise over the same eight windows, loading
   each value straight from x: IEEE lanewise add/div make every lane
   bit-identical to the scalar reduction. */

/* Bytes per row-sign mask: the row's bits plus 8 bytes of slack, so an
   unaligned 8-byte read at any window's byte stays inside the row. */
static inline long sign_row_bytes(long w)
{
    return ((w + 7) >> 3) + 8;
}

/* Bits ox, ox+1, ... of a row-sign mask, from bit 0 up (at least 57 of
   them; a block of eight k-wide windows needs 7 + k <= 18). */
static inline uint64_t sign_bits_from(const uint8_t *row, long ox)
{
    uint64_t u;
    memcpy(&u, row + (ox >> 3), 8);
    return u >> (ox & 7);
}

/* The offsets, from a window's origin in x, of its row_len values in
   (ci, ki, kj) order, and of its c*k row-sign masks from the sample's
   first mask. */
static inline void window_offsets(long *off, long *slice_off,
                                  long c, long k, long h, long w, long rb)
{
    long j = 0;
    for (long ci = 0; ci < c; ci++) {
        for (long ki = 0; ki < k; ki++) {
            slice_off[ci * k + ki] = (ci * h + ki) * rb;
            for (long kj = 0; kj < k; kj++) off[j++] = (ci * h + ki) * w + kj;
        }
    }
}

#define AVX_FN __attribute__((target("avx2"), always_inline)) static inline

/* kfac for the eight windows whose origins are base .. base+7. */
AVX_FN __m256 absmean8(const float *base, const long *off, long row_len)
{
    __m256 zero = _mm256_setzero_ps();
    __m256 absm = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
#define ABS8(j) _mm256_and_ps(absm, _mm256_loadu_ps(base + off[j]))
    __m256 a0 = zero, a1 = zero, a2 = zero, a3 = zero;
    __m256 a4 = zero, a5 = zero, a6 = zero, a7 = zero;
    long j = 0;
    for (; j + 8 <= row_len; j += 8) {
        a0 = _mm256_add_ps(a0, ABS8(j));
        a1 = _mm256_add_ps(a1, ABS8(j + 1));
        a2 = _mm256_add_ps(a2, ABS8(j + 2));
        a3 = _mm256_add_ps(a3, ABS8(j + 3));
        a4 = _mm256_add_ps(a4, ABS8(j + 4));
        a5 = _mm256_add_ps(a5, ABS8(j + 5));
        a6 = _mm256_add_ps(a6, ABS8(j + 6));
        a7 = _mm256_add_ps(a7, ABS8(j + 7));
    }
    __m256 res = _mm256_add_ps(
        _mm256_add_ps(_mm256_add_ps(a0, a1), _mm256_add_ps(a2, a3)),
        _mm256_add_ps(_mm256_add_ps(a4, a5), _mm256_add_ps(a6, a7)));
    for (; j < row_len; j++) res = _mm256_add_ps(res, ABS8(j));
#undef ABS8
    return _mm256_div_ps(res, _mm256_set1_ps((float)row_len));
}

/* Reverses the bits of every byte: natural order -> np.packbits order. */
AVX2_FN __m256i bitrev_bytes256(__m256i v)
{
    const __m256i m1 = _mm256_set1_epi8(0x55), m2 = _mm256_set1_epi8(0x33);
    const __m256i m4 = _mm256_set1_epi8(0x0F);
    v = _mm256_or_si256(_mm256_and_si256(_mm256_srli_epi64(v, 1), m1),
                        _mm256_slli_epi64(_mm256_and_si256(v, m1), 1));
    v = _mm256_or_si256(_mm256_and_si256(_mm256_srli_epi64(v, 2), m2),
                        _mm256_slli_epi64(_mm256_and_si256(v, m2), 2));
    return _mm256_or_si256(_mm256_and_si256(_mm256_srli_epi64(v, 4), m4),
                           _mm256_slli_epi64(_mm256_and_si256(v, m4), 4));
}

/* Sign masks of rows rows of w floats, one byte per 8 values. */
AVX2_FN void sign_rows_avx2(const float *x, uint8_t *signs,
                            long rows, long w, long rb)
{
    __m256 zero = _mm256_setzero_ps();
    for (long r = 0; r < rows; r++) {
        const float *xr = x + r * w;
        for (long ix = 0; ix < w; ix += 8) {
            __m256 v = ix + 8 <= w
                ? _mm256_loadu_ps(xr + ix)
                : _mm256_maskload_ps(xr + ix, _mm256_loadu_si256(
                      (const __m256i *)lanemask8[w - ix]));
            signs[r * rb + (ix >> 3)] = (uint8_t)_mm256_movemask_ps(
                _mm256_cmp_ps(v, zero, _CMP_GE_OQ));
        }
    }
}

/* Words of the four windows ox .. ox+3 of output row oy: w0 holds
   logical bits 0-63, w1 (W == 2) bits 64-127, in natural order. */
AVX2_FN void window_words4(const uint8_t *srow, const long *slice_off,
                           long slices, long k, long ox, int W,
                           __m256i *w0, __m256i *w1)
{
    const __m256i lane = _mm256_setr_epi64x(0, 1, 2, 3);
    const __m256i kbits = _mm256_set1_epi64x((1LL << k) - 1);
    __m256i a = _mm256_setzero_si256(), b = _mm256_setzero_si256();
    for (long s = 0; s < slices; s++) {
        __m256i v = _mm256_and_si256(
            _mm256_srlv_epi64(_mm256_set1_epi64x((long long)sign_bits_from(
                                  srow + slice_off[s], ox)),
                              lane),
            kbits);
        long pos = s * k;
        /* shift counts >= 64 give 0: bits past a word drop out */
        a = _mm256_or_si256(a, _mm256_sll_epi64(v, _mm_cvtsi64_si128(pos)));
        if (W == 2)
            b = _mm256_or_si256(b, pos >= 64
                ? _mm256_sll_epi64(v, _mm_cvtsi64_si128(pos - 64))
                : _mm256_srl_epi64(v, _mm_cvtsi64_si128(64 - pos)));
    }
    *w0 = bitrev_bytes256(a);
    *w1 = bitrev_bytes256(b);
}

/* Stores the words of windows r .. r+3 (mk: their masks, or NULL). */
AVX2_FN void store_words4(uint64_t *words, const uint64_t *mk, int W,
                          __m256i w0, __m256i w1)
{
    if (W == 2) {
        /* rows interleave their two words */
        __m256i lo = _mm256_unpacklo_epi64(w0, w1);
        __m256i hi = _mm256_unpackhi_epi64(w0, w1);
        w0 = _mm256_permute2x128_si256(lo, hi, 0x20);
        w1 = _mm256_permute2x128_si256(lo, hi, 0x31);
        if (mk) {
            w1 = _mm256_and_si256(w1, _mm256_loadu_si256((const __m256i *)(mk + 4)));
        }
        _mm256_storeu_si256((__m256i *)(words + 4), w1);
    }
    if (mk) w0 = _mm256_and_si256(w0, _mm256_loadu_si256((const __m256i *)mk));
    _mm256_storeu_si256((__m256i *)words, w0);
}

AVX2_FN void binconv_prepare_avx2_impl(const float *x, float *kfac,
                                       uint64_t *words, const uint64_t *maskw,
                                       uint8_t *signs, long n, long c,
                                       long h, long w, long k, long oh,
                                       long ow, int W)
{
    long row_len = c * k * k, rows = oh * ow, rb = sign_row_bytes(w);
    long off[128], slice_off[128];
    window_offsets(off, slice_off, c, k, h, w, rb);
    for (long i = 0; i < n; i++) {
        const float *xi = x + i * c * h * w;
        sign_rows_avx2(xi, signs, c * h, w, rb);
        for (long oy = 0; oy < oh; oy++) {
            for (long ox0 = 0; ox0 < ow; ox0 += 8) {
                long ox = ox0 + 8 <= ow ? ox0 : ow - 8;
                long r = oy * ow + ox;
                for (long half = 0; half < 8; half += 4) {
                    __m256i w0, w1;
                    window_words4(signs + oy * rb, slice_off, c * k, k,
                                  ox + half, W, &w0, &w1);
                    store_words4(words + (i * rows + r + half) * W,
                                 maskw ? maskw + (r + half) * W : 0, W, w0, w1);
                }
                _mm256_storeu_ps(kfac + i * rows + r,
                                 absmean8(xi + oy * w + ox, off, row_len));
            }
        }
    }
}

AVX2_KERNEL void binconv_prepare_avx2(const float *x, float *kfac,
                                      uint64_t *words, const uint64_t *maskw,
                                      uint8_t *signs, long n, long c, long h,
                                      long w, long k, long oh, long ow, long W)
{
    if (W == 1)
        binconv_prepare_avx2_impl(x, kfac, words, maskw, signs, n, c, h, w,
                                  k, oh, ow, 1);
    else
        binconv_prepare_avx2_impl(x, kfac, words, maskw, signs, n, c, h, w,
                                  k, oh, ow, 2);
}

#ifdef HAVE_AVX512
/* The row-sign gather on 8 u64 lanes and 16-float sign compares. */
AVX512_FN __m512i bitrev_bytes512(__m512i v)
{
    const __m512i m1 = _mm512_set1_epi8(0x55), m2 = _mm512_set1_epi8(0x33);
    const __m512i m4 = _mm512_set1_epi8(0x0F);
    v = _mm512_or_si512(_mm512_and_si512(_mm512_srli_epi64(v, 1), m1),
                        _mm512_slli_epi64(_mm512_and_si512(v, m1), 1));
    v = _mm512_or_si512(_mm512_and_si512(_mm512_srli_epi64(v, 2), m2),
                        _mm512_slli_epi64(_mm512_and_si512(v, m2), 2));
    return _mm512_or_si512(_mm512_and_si512(_mm512_srli_epi64(v, 4), m4),
                           _mm512_slli_epi64(_mm512_and_si512(v, m4), 4));
}

AVX512_FN void binconv_prepare_avx512_impl(const float *x, float *kfac,
                                           uint64_t *words,
                                           const uint64_t *maskw,
                                           uint8_t *signs, long n, long c,
                                           long h, long w, long k, long oh,
                                           long ow, int W)
{
    long row_len = c * k * k, rows = oh * ow, rb = sign_row_bytes(w);
    long slices = c * k;
    long off[128], slice_off[128];
    window_offsets(off, slice_off, c, k, h, w, rb);
    const __m512 zero = _mm512_setzero_ps();
    const __m512i lane = _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7);
    const __m512i kbits = _mm512_set1_epi64((1LL << k) - 1);
    /* rows interleave their two words: row l takes w0[l], w1[l] */
    const __m512i il0 = _mm512_setr_epi64(0, 8, 1, 9, 2, 10, 3, 11);
    const __m512i il1 = _mm512_setr_epi64(4, 12, 5, 13, 6, 14, 7, 15);
    for (long i = 0; i < n; i++) {
        const float *xi = x + i * c * h * w;
        for (long r = 0; r < c * h; r++) {
            for (long ix = 0; ix < w; ix += 16) {
                __mmask16 live = w - ix >= 16 ? (__mmask16)0xFFFF
                                              : (__mmask16)((1u << (w - ix)) - 1);
                __mmask16 sg = _mm512_cmp_ps_mask(
                    _mm512_maskz_loadu_ps(live, xi + r * w + ix), zero,
                    _CMP_GE_OQ);
                memcpy(signs + r * rb + (ix >> 3), &sg, 2);
            }
        }
        for (long oy = 0; oy < oh; oy++) {
            const uint8_t *srow = signs + oy * rb;
            for (long ox0 = 0; ox0 < ow; ox0 += 8) {
                long ox = ox0 + 8 <= ow ? ox0 : ow - 8;
                __m512i w0 = _mm512_setzero_si512(), w1 = w0;
                for (long s = 0; s < slices; s++) {
                    __m512i v = _mm512_and_si512(
                        _mm512_srlv_epi64(
                            _mm512_set1_epi64((long long)sign_bits_from(
                                srow + slice_off[s], ox)),
                            lane),
                        kbits);
                    long pos = s * k;
                    w0 = _mm512_or_si512(
                        w0, _mm512_sll_epi64(v, _mm_cvtsi64_si128(pos)));
                    if (W == 2)
                        w1 = _mm512_or_si512(w1, pos >= 64
                            ? _mm512_sll_epi64(v, _mm_cvtsi64_si128(pos - 64))
                            : _mm512_srl_epi64(v, _mm_cvtsi64_si128(64 - pos)));
                }
                w0 = bitrev_bytes512(w0);
                long r = oy * ow + ox;
                uint64_t *dst = words + (i * rows + r) * W;
                const uint64_t *mk = maskw ? maskw + r * W : 0;
                if (W == 2) {
                    w1 = bitrev_bytes512(w1);
                    __m512i lo = _mm512_permutex2var_epi64(w0, il0, w1);
                    __m512i hi = _mm512_permutex2var_epi64(w0, il1, w1);
                    if (mk) {
                        lo = _mm512_and_si512(lo, _mm512_loadu_si512(mk));
                        hi = _mm512_and_si512(hi, _mm512_loadu_si512(mk + 8));
                    }
                    _mm512_storeu_si512(dst, lo);
                    _mm512_storeu_si512(dst + 8, hi);
                } else {
                    if (mk) w0 = _mm512_and_si512(w0, _mm512_loadu_si512(mk));
                    _mm512_storeu_si512(dst, w0);
                }
                _mm256_storeu_ps(kfac + i * rows + r,
                                 absmean8(xi + oy * w + ox, off, row_len));
            }
        }
    }
}

AVX512_KERNEL void binconv_prepare_avx512(const float *x, float *kfac,
                                          uint64_t *words,
                                          const uint64_t *maskw,
                                          uint8_t *signs, long n, long c,
                                          long h, long w, long k, long oh,
                                          long ow, long W)
{
    if (W == 1)
        binconv_prepare_avx512_impl(x, kfac, words, maskw, signs, n, c, h, w,
                                    k, oh, ow, 1);
    else
        binconv_prepare_avx512_impl(x, kfac, words, maskw, signs, n, c, h, w,
                                    k, oh, ow, 2);
}
#endif /* HAVE_AVX512 */
#endif /* HAVE_SIMD */

enum { PREP_SCALAR, PREP_AVX2, PREP_AVX512 };

static int binconv_prepare_pick(long c, long k, long stride, long pad,
                                long ow, const float *abscols,
                                const float *kfac, long isa)
{
    if (!(stride == 1 && pad == 0 && kfac && !abscols &&
          c * k * k <= 128 && ow >= 8) || isa < ISA_AVX2)
        return PREP_SCALAR;
    return isa >= ISA_AVX512 ? PREP_AVX512 : PREP_AVX2;
}

API void binconv_prepare(const float *x, float *abscols, float *kfac,
                         uint64_t *words, const uint64_t *maskw,
                         long n, long c, long h, long w,
                         long k, long stride, long pad,
                         long oh, long ow, long W, long isa)
{
#ifdef HAVE_SIMD
    int variant = binconv_prepare_pick(c, k, stride, pad, ow, abscols, kfac,
                                       isa);
    if (variant != PREP_SCALAR) {
        /* one sample's row-sign masks, zeroed so that the slack bytes
           a window read runs into (and masks off) are defined */
        uint8_t stackbuf[8192];
        size_t bytes = (size_t)(c * h * sign_row_bytes(w));
        uint8_t *signs = bytes <= sizeof stackbuf ? stackbuf : malloc(bytes);
        if (signs) {
            memset(signs, 0, bytes);
#ifdef HAVE_AVX512
            if (variant == PREP_AVX512)
                binconv_prepare_avx512(x, kfac, words, maskw, signs,
                                       n, c, h, w, k, oh, ow, W);
            else
#endif
                binconv_prepare_avx2(x, kfac, words, maskw, signs,
                                     n, c, h, w, k, oh, ow, W);
            if (signs != stackbuf) free(signs);
            return;
        }
    }
#endif
    switch (k) {
    case 3:
        binconv_prepare_impl(x, abscols, kfac, words, maskw,
                             n, c, h, w, 3, stride, pad, oh, ow, W);
        break;
    case 5:
        binconv_prepare_impl(x, abscols, kfac, words, maskw,
                             n, c, h, w, 5, stride, pad, oh, ow, W);
        break;
    default:
        binconv_prepare_impl(x, abscols, kfac, words, maskw,
                             n, c, h, w, k, stride, pad, oh, ow, W);
        break;
    }
}

/* Row-wise sign packing for binary linear layers (x >= 0 per element).
   Same register-accumulated word trick as binconv_prepare. */
static void pack_rows_scalar(const float *x, uint64_t *words,
                             long m, long f, long W)
{
    for (long i = 0; i < m; i++) {
        const float *xi = x + i * f;
        uint64_t *wrow = words + i * W;
        uint64_t acc = 0;
        long cw = 0;
        for (long j = 0; j < f; j++) {
            long wi = j >> 6;
            if (wi != cw) { wrow[cw] = acc; acc = 0; cw = wi; }
            acc |= bitmask(j) & ((uint64_t)0 - (uint64_t)(xi[j] >= 0.0f));
        }
        wrow[cw] = acc;
    }
}

#ifdef HAVE_SIMD
/* Bit-reversal table: movemask emits lane 0 in bit 0, packbits wants
   element 0 in bit 7 of its byte. */
#define RV2(n) n, (n) + 2 * 64, (n) + 1 * 64, (n) + 3 * 64
#define RV4(n) RV2(n), RV2((n) + 2 * 16), RV2((n) + 1 * 16), RV2((n) + 3 * 16)
#define RV6(n) RV4(n), RV4((n) + 2 * 4), RV4((n) + 1 * 4), RV4((n) + 3 * 4)
static const uint8_t bitrev8[256] = { RV6(0), RV6(2), RV6(1), RV6(3) };
#undef RV6
#undef RV4
#undef RV2

/* Eight signs per compare: movemask the lanewise x >= 0, bit-reverse
   the byte into packbits order, accumulate eight bytes per u64 store.
   Trailing bits past f stay zero, as in the scalar register path. */
AVX2_KERNEL
void pack_rows_avx2(const float *x, uint64_t *words, long m, long f, long W)
{
    __m256 zero = _mm256_setzero_ps();
    long f8 = f & ~7L;
    for (long i = 0; i < m; i++) {
        const float *xi = x + i * f;
        uint64_t *wrow = words + i * W;
        uint64_t acc = 0;
        long j = 0;
        for (; j < f8; j += 8) {
            int msk = _mm256_movemask_ps(
                _mm256_cmp_ps(_mm256_loadu_ps(xi + j), zero, _CMP_GE_OQ));
            acc |= (uint64_t)bitrev8[(uint8_t)msk] << (8 * ((j >> 3) & 7));
            if ((j & 63) == 56) { wrow[j >> 6] = acc; acc = 0; }
        }
        for (; j < f; j++)
            acc |= bitmask(j) & ((uint64_t)0 - (uint64_t)(xi[j] >= 0.0f));
        if (f & 63 || f == 0) wrow[f >> 6] = acc;
    }
}
#endif /* HAVE_SIMD */

static int pack_rows_pick(long f, long isa)
{
    return f >= 8 && isa >= ISA_AVX2;
}

API void pack_rows(const float *x, uint64_t *words, long m, long f, long W,
                   long isa)
{
#ifdef HAVE_SIMD
    if (pack_rows_pick(f, isa)) {
        pack_rows_avx2(x, words, m, f, W);
        return;
    }
#endif
    pack_rows_scalar(x, words, m, f, W);
}

/* Fused XNOR dot + scale chain.  For activation row p = i*rows + r and
   output channel o: mismatches = popcount(a ^ w); then exactly the
   interpreter's float32 chain  d = float(valid - 2*mismatches);
   t = d*alpha[o]; t = t*kfac[p]; t += bias[o].  Channel-outer so every
   NCHW write (out[i][o][r]; rows == 1 degenerates to NC linear layout)
   is contiguous; activation words restream per channel from L2.

   With padding, both planes arrive premasked: binconv_prepare applies
   the validity mask to the activation words, and the caller passes
   vwm — per-row premasked weight words, layout (oc, rows, W) — plus
   the per-row valid counts; (a&m)^(b&m) == (a^b)&m makes this exact.
   Without padding, vw is the plain (oc, W) weight plane and every row
   has fallback_valid usable bits. */
static void popdot_impl(const uint64_t *va, const uint64_t *vw,
                        const uint64_t *vwm, const int32_t *valid,
                        const float *alpha, const float *kfac,
                        const float *bias, float *out,
                        long n, long rows, long oc, long W,
                        long fallback_valid)
{
    for (long o = 0; o < oc; o++) {
        const uint64_t *b_plain = vw ? vw + o * W : 0;
        const uint64_t *b_rows = vwm ? vwm + o * rows * W : 0;
        float al = alpha[o];
        float bi = bias ? bias[o] : 0.0f;
        for (long i = 0; i < n; i++) {
            const uint64_t *ai = va + i * rows * W;
            const float *kfi = kfac + i * rows;
            float *oo = out + (i * oc + o) * rows;
            for (long r = 0; r < rows; r++) {
                const uint64_t *a = ai + r * W;
                const uint64_t *b = vwm ? b_rows + r * W : b_plain;
                uint64_t mism = 0;
                for (long wi = 0; wi < W; wi++)
                    mism += (uint64_t)__builtin_popcountll(a[wi] ^ b[wi]);
                long vld = valid ? (long)valid[r] : fallback_valid;
                float d = (float)(vld - 2 * (long long)mism);
                float t = d * al;
                t = t * kfi[r];
                if (bias) t = t + bi;
                oo[r] = t;
            }
        }
    }
}

#ifdef HAVE_SIMD

/* Byte-wise nibble-LUT popcount; _mm256_sad_epu8 then sums the 8 bytes
   of each 64-bit lane, so each u64 lane of the result holds the exact
   popcount of the corresponding input word. */
AVX2_FN __m256i popcnt256(__m256i v)
{
    const __m256i lut = _mm256_setr_epi8(
        0,1,1,2,1,2,2,3,1,2,2,3,2,3,3,4,
        0,1,1,2,1,2,2,3,1,2,2,3,2,3,3,4);
    const __m256i low = _mm256_set1_epi8(0x0f);
    __m256i lo = _mm256_and_si256(v, low);
    __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low);
    __m256i cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                  _mm256_shuffle_epi8(lut, hi));
    return _mm256_sad_epu8(cnt, _mm256_setzero_si256());
}

/* Shared epilogue: m holds the 8 mismatch counts as epi32; run the exact
   interpreter float chain lanewise (lane ops are IEEE-identical to the
   scalar chain, and (float)(int32) conversion is exact for these small
   counts, matching the scalar (float)(long long) cast). */
AVX2_FN void popdot_store8(__m256i m, const int32_t *valid, long r,
                           __m256i vfb, __m256 al8, __m256 bi8,
                           int has_bias, const float *kfi, float *oo)
{
    __m256i vld = valid
        ? _mm256_loadu_si256((const __m256i *)(valid + r))
        : vfb;
    __m256i dif = _mm256_sub_epi32(vld, _mm256_slli_epi32(m, 1));
    __m256 t = _mm256_mul_ps(_mm256_cvtepi32_ps(dif), al8);
    t = _mm256_mul_ps(t, _mm256_loadu_ps(kfi + r));
    if (has_bias) t = _mm256_add_ps(t, bi8);
    _mm256_storeu_ps(oo + r, t);
}

/* W == 2: 8 rows per iteration.  Activation rows are 16 bytes apart, so
   4 rows span one 256-bit load ([rA.w0 rA.w1 rB.w0 rB.w1]); per-row
   mismatch = sum of the two u64 popcounts, gathered across the four
   partial vectors into one epi32 vector of 8 row counts. */
AVX2_KERNEL void popdot_w2_avx2(const uint64_t *va, const uint64_t *vw,
                                const uint64_t *vwm, const int32_t *valid,
                                const float *alpha, const float *kfac,
                                const float *bias, float *out,
                                long n, long rows, long oc,
                                long fallback_valid)
{
    const __m256i idx0 = _mm256_setr_epi32(0, 4, 0, 0, 0, 0, 0, 0);
    const __m256i idx1 = _mm256_setr_epi32(0, 0, 0, 4, 0, 0, 0, 0);
    const __m256i idx2 = _mm256_setr_epi32(0, 0, 0, 0, 0, 4, 0, 0);
    const __m256i idx3 = _mm256_setr_epi32(0, 0, 0, 0, 0, 0, 0, 4);
    __m256i vfb = _mm256_set1_epi32((int)fallback_valid);
    int has_bias = bias != 0;
    for (long o = 0; o < oc; o++) {
        const uint64_t *b_plain = vw ? vw + o * 2 : 0;
        const uint64_t *b_rows = vwm ? vwm + o * rows * 2 : 0;
        __m256i bb = vwm ? _mm256_setzero_si256()
            : _mm256_broadcastsi128_si256(
                  _mm_loadu_si128((const __m128i *)b_plain));
        __m256 al8 = _mm256_set1_ps(alpha[o]);
        __m256 bi8 = _mm256_set1_ps(has_bias ? bias[o] : 0.0f);
        for (long i = 0; i < n; i++) {
            const uint64_t *ai = va + i * rows * 2;
            const float *kfi = kfac + i * rows;
            float *oo = out + (i * oc + o) * rows;
            long r = 0;
            for (; r + 8 <= rows; r += 8) {
                __m256i s[4];
                for (int q = 0; q < 4; q++) {
                    __m256i av = _mm256_loadu_si256(
                        (const __m256i *)(ai + (r + 2 * q) * 2));
                    __m256i bv = vwm
                        ? _mm256_loadu_si256(
                              (const __m256i *)(b_rows + (r + 2 * q) * 2))
                        : bb;
                    __m256i ct = popcnt256(_mm256_xor_si256(av, bv));
                    /* u64 lanes [p0 p1 p2 p3] -> row sums p0+p1, p2+p3
                       at dword lanes 0 and 4. */
                    s[q] = _mm256_add_epi64(
                        ct, _mm256_shuffle_epi32(ct, 0x4E));
                }
                __m256i m = _mm256_blend_epi32(
                    _mm256_blend_epi32(
                        _mm256_permutevar8x32_epi32(s[0], idx0),
                        _mm256_permutevar8x32_epi32(s[1], idx1), 0x0C),
                    _mm256_blend_epi32(
                        _mm256_permutevar8x32_epi32(s[2], idx2),
                        _mm256_permutevar8x32_epi32(s[3], idx3), 0xC0),
                    0xF0);
                popdot_store8(m, valid, r, vfb, al8, bi8,
                              has_bias, kfi, oo);
            }
            for (; r < rows; r++) {
                const uint64_t *a = ai + r * 2;
                const uint64_t *b = vwm ? b_rows + r * 2 : b_plain;
                uint64_t mism =
                    (uint64_t)__builtin_popcountll(a[0] ^ b[0]) +
                    (uint64_t)__builtin_popcountll(a[1] ^ b[1]);
                long vld = valid ? (long)valid[r] : fallback_valid;
                float d = (float)(vld - 2 * (long long)mism);
                float t = d * al8[0];
                t = t * kfi[r];
                if (has_bias) t = t + bi8[0];
                oo[r] = t;
            }
        }
    }
}

/* W == 1: 8 rows = 8 contiguous u64 words = two 256-bit loads. */
AVX2_KERNEL void popdot_w1_avx2(const uint64_t *va, const uint64_t *vw,
                                const uint64_t *vwm, const int32_t *valid,
                                const float *alpha, const float *kfac,
                                const float *bias, float *out,
                                long n, long rows, long oc,
                                long fallback_valid)
{
    const __m256i idx_lo = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
    const __m256i idx_hi = _mm256_setr_epi32(0, 0, 0, 0, 0, 2, 4, 6);
    __m256i vfb = _mm256_set1_epi32((int)fallback_valid);
    int has_bias = bias != 0;
    for (long o = 0; o < oc; o++) {
        const uint64_t *b_plain = vw ? vw + o : 0;
        const uint64_t *b_rows = vwm ? vwm + o * rows : 0;
        __m256i bb = vwm ? _mm256_setzero_si256()
                         : _mm256_set1_epi64x((long long)b_plain[0]);
        __m256 al8 = _mm256_set1_ps(alpha[o]);
        __m256 bi8 = _mm256_set1_ps(has_bias ? bias[o] : 0.0f);
        for (long i = 0; i < n; i++) {
            const uint64_t *ai = va + i * rows;
            const float *kfi = kfac + i * rows;
            float *oo = out + (i * oc + o) * rows;
            long r = 0;
            for (; r + 8 <= rows; r += 8) {
                __m256i a0 = _mm256_loadu_si256((const __m256i *)(ai + r));
                __m256i a1 = _mm256_loadu_si256((const __m256i *)(ai + r + 4));
                __m256i b0 = vwm
                    ? _mm256_loadu_si256((const __m256i *)(b_rows + r)) : bb;
                __m256i b1 = vwm
                    ? _mm256_loadu_si256((const __m256i *)(b_rows + r + 4)) : bb;
                __m256i c0 = popcnt256(_mm256_xor_si256(a0, b0));
                __m256i c1 = popcnt256(_mm256_xor_si256(a1, b1));
                __m256i m = _mm256_blend_epi32(
                    _mm256_permutevar8x32_epi32(c0, idx_lo),
                    _mm256_permutevar8x32_epi32(c1, idx_hi), 0xF0);
                popdot_store8(m, valid, r, vfb, al8, bi8,
                              has_bias, kfi, oo);
            }
            for (; r < rows; r++) {
                uint64_t b = vwm ? b_rows[r] : b_plain[0];
                uint64_t mism = (uint64_t)__builtin_popcountll(ai[r] ^ b);
                long vld = valid ? (long)valid[r] : fallback_valid;
                float d = (float)(vld - 2 * (long long)mism);
                float t = d * al8[0];
                t = t * kfi[r];
                if (has_bias) t = t + bi8[0];
                oo[r] = t;
            }
        }
    }
}

/* Generic W >= 3: one row at a time, 256-bit chunks over the word axis
   (maskload covers the W % 4 remainder — masked lanes read as zero and
   0^0 popcounts to 0).  Used by e.g. the 784-bit binary linear rows,
   where the scalar path's software popcount dominates. */
AVX2_KERNEL void popdot_genw_avx2(const uint64_t *va, const uint64_t *vw,
                                  const uint64_t *vwm, const int32_t *valid,
                                  const float *alpha, const float *kfac,
                                  const float *bias, float *out,
                                  long n, long rows, long oc, long W,
                                  long fallback_valid)
{
    static const long long qmtab[4][4] = {
        {0, 0, 0, 0}, {-1, 0, 0, 0}, {-1, -1, 0, 0}, {-1, -1, -1, 0},
    };
    long W4 = W & ~3L;
    __m256i qm = _mm256_loadu_si256((const __m256i *)qmtab[W - W4]);
    int has_bias = bias != 0;
    for (long o = 0; o < oc; o++) {
        const uint64_t *b_plain = vw ? vw + o * W : 0;
        const uint64_t *b_rows = vwm ? vwm + o * rows * W : 0;
        float al = alpha[o];
        float bi = has_bias ? bias[o] : 0.0f;
        for (long i = 0; i < n; i++) {
            const uint64_t *ai = va + i * rows * W;
            const float *kfi = kfac + i * rows;
            float *oo = out + (i * oc + o) * rows;
            for (long r = 0; r < rows; r++) {
                const uint64_t *a = ai + r * W;
                const uint64_t *b = vwm ? b_rows + r * W : b_plain;
                __m256i acc = _mm256_setzero_si256();
                long wi = 0;
                for (; wi < W4; wi += 4)
                    acc = _mm256_add_epi64(acc, popcnt256(_mm256_xor_si256(
                        _mm256_loadu_si256((const __m256i *)(a + wi)),
                        _mm256_loadu_si256((const __m256i *)(b + wi)))));
                if (wi < W)
                    acc = _mm256_add_epi64(acc, popcnt256(_mm256_xor_si256(
                        _mm256_maskload_epi64((const long long *)(a + wi), qm),
                        _mm256_maskload_epi64((const long long *)(b + wi), qm))));
                __m128i s = _mm_add_epi64(_mm256_castsi256_si128(acc),
                                          _mm256_extracti128_si256(acc, 1));
                uint64_t mism = (uint64_t)_mm_cvtsi128_si64(s) +
                                (uint64_t)_mm_extract_epi64(s, 1);
                long vld = valid ? (long)valid[r] : fallback_valid;
                float d = (float)(vld - 2 * (long long)mism);
                float t = d * al;
                t = t * kfi[r];
                if (has_bias) t = t + bi;
                oo[r] = t;
            }
        }
    }
}

#ifdef HAVE_VPOPCNTDQ
/* VPOPCNTDQ counts the bits of eight u64 lanes in one instruction, in
   place of popcnt256's nibble lookups.  The epilogue is popdot_store8's
   (fma only makes it inlinable here; nothing is contracted). */
#define VPOPCNT_KERNEL \
    __attribute__((target("avx512f,avx512vpopcntdq,fma"))) static

/* W == 1: 8 rows = 8 contiguous u64 words = one popcount. */
VPOPCNT_KERNEL void popdot_w1_vpopcnt(const uint64_t *va, const uint64_t *vw,
                                      const uint64_t *vwm,
                                      const int32_t *valid,
                                      const float *alpha, const float *kfac,
                                      const float *bias, float *out,
                                      long n, long rows, long oc,
                                      long fallback_valid)
{
    __m256i vfb = _mm256_set1_epi32((int)fallback_valid);
    int has_bias = bias != 0;
    for (long o = 0; o < oc; o++) {
        const uint64_t *b_plain = vw ? vw + o : 0;
        const uint64_t *b_rows = vwm ? vwm + o * rows : 0;
        __m512i bb = vwm ? _mm512_setzero_si512()
                         : _mm512_set1_epi64((long long)b_plain[0]);
        __m256 al8 = _mm256_set1_ps(alpha[o]);
        __m256 bi8 = _mm256_set1_ps(has_bias ? bias[o] : 0.0f);
        for (long i = 0; i < n; i++) {
            const uint64_t *ai = va + i * rows;
            const float *kfi = kfac + i * rows;
            float *oo = out + (i * oc + o) * rows;
            long r = 0;
            for (; r + 8 <= rows; r += 8) {
                __m512i b = vwm ? _mm512_loadu_si512(b_rows + r) : bb;
                __m512i ct = _mm512_popcnt_epi64(
                    _mm512_xor_si512(_mm512_loadu_si512(ai + r), b));
                popdot_store8(_mm512_cvtepi64_epi32(ct), valid, r, vfb, al8,
                              bi8, has_bias, kfi, oo);
            }
            for (; r < rows; r++) {
                uint64_t b = vwm ? b_rows[r] : b_plain[0];
                uint64_t mism = (uint64_t)__builtin_popcountll(ai[r] ^ b);
                long vld = valid ? (long)valid[r] : fallback_valid;
                float d = (float)(vld - 2 * (long long)mism);
                float t = d * al8[0];
                t = t * kfi[r];
                if (has_bias) t = t + bi8[0];
                oo[r] = t;
            }
        }
    }
}

/* Any other W: one row at a time, 8 words per popcount; a masked load
   covers the W % 8 remainder (masked lanes read as zero, 0^0 counts 0). */
VPOPCNT_KERNEL void popdot_genw_vpopcnt(const uint64_t *va, const uint64_t *vw,
                                        const uint64_t *vwm,
                                        const int32_t *valid,
                                        const float *alpha, const float *kfac,
                                        const float *bias, float *out,
                                        long n, long rows, long oc, long W,
                                        long fallback_valid)
{
    long W8 = W & ~7L;
    __mmask8 tail = (__mmask8)((1u << (W - W8)) - 1);
    int has_bias = bias != 0;
    for (long o = 0; o < oc; o++) {
        const uint64_t *b_plain = vw ? vw + o * W : 0;
        const uint64_t *b_rows = vwm ? vwm + o * rows * W : 0;
        float al = alpha[o];
        float bi = has_bias ? bias[o] : 0.0f;
        for (long i = 0; i < n; i++) {
            const uint64_t *ai = va + i * rows * W;
            const float *kfi = kfac + i * rows;
            float *oo = out + (i * oc + o) * rows;
            for (long r = 0; r < rows; r++) {
                const uint64_t *a = ai + r * W;
                const uint64_t *b = vwm ? b_rows + r * W : b_plain;
                __m512i acc = _mm512_setzero_si512();
                for (long wi = 0; wi < W8; wi += 8)
                    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(
                        _mm512_xor_si512(_mm512_loadu_si512(a + wi),
                                         _mm512_loadu_si512(b + wi))));
                if (tail)
                    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(
                        _mm512_xor_si512(_mm512_maskz_loadu_epi64(tail, a + W8),
                                         _mm512_maskz_loadu_epi64(tail, b + W8))));
                uint64_t mism = (uint64_t)_mm512_reduce_add_epi64(acc);
                long vld = valid ? (long)valid[r] : fallback_valid;
                float d = (float)(vld - 2 * (long long)mism);
                float t = d * al;
                t = t * kfi[r];
                if (has_bias) t = t + bi;
                oo[r] = t;
            }
        }
    }
}
#endif /* HAVE_VPOPCNTDQ */
#endif /* HAVE_SIMD */

enum {
    POP_SCALAR, POP_W1_AVX2, POP_W2_AVX2, POP_GENW_AVX2,
    POP_W1_VPOPCNT, POP_GENW_VPOPCNT,
};

/* VPOPCNTDQ serves every W on AVX-512 hosts that have it; the AVX2
   lookup-table kernels serve the rest. */
static int popdot_pick(long W, long isa)
{
    if (isa < ISA_AVX2) return POP_SCALAR;
    if (isa >= ISA_AVX512 && host_vpopcntdq())
        return W == 1 ? POP_W1_VPOPCNT : POP_GENW_VPOPCNT;
    return W == 1 ? POP_W1_AVX2 : W == 2 ? POP_W2_AVX2 : POP_GENW_AVX2;
}

API void popdot_scale(const uint64_t *va, const uint64_t *vw,
                      const uint64_t *vwm, const int32_t *valid,
                      const float *alpha, const float *kfac,
                      const float *bias, float *out,
                      long n, long rows, long oc, long W,
                      long fallback_valid, long isa)
{
    switch (popdot_pick(W, isa)) {
#ifdef HAVE_SIMD
    case POP_W1_AVX2:
        popdot_w1_avx2(va, vw, vwm, valid, alpha, kfac, bias, out,
                       n, rows, oc, fallback_valid);
        return;
    case POP_W2_AVX2:
        popdot_w2_avx2(va, vw, vwm, valid, alpha, kfac, bias, out,
                       n, rows, oc, fallback_valid);
        return;
    case POP_GENW_AVX2:
        popdot_genw_avx2(va, vw, vwm, valid, alpha, kfac, bias, out,
                         n, rows, oc, W, fallback_valid);
        return;
#ifdef HAVE_VPOPCNTDQ
    case POP_W1_VPOPCNT:
        popdot_w1_vpopcnt(va, vw, vwm, valid, alpha, kfac, bias, out,
                          n, rows, oc, fallback_valid);
        return;
    case POP_GENW_VPOPCNT:
        popdot_genw_vpopcnt(va, vw, vwm, valid, alpha, kfac, bias, out,
                            n, rows, oc, W, fallback_valid);
        return;
#endif
#endif
    default:
        break;
    }
    /* Constant W lets -O3 fully unroll the popcount loop. */
    if (W == 1)
        popdot_impl(va, vw, vwm, valid, alpha, kfac, bias, out,
                    n, rows, oc, 1, fallback_valid);
    else if (W == 2)
        popdot_impl(va, vw, vwm, valid, alpha, kfac, bias, out,
                    n, rows, oc, 2, fallback_valid);
    else
        popdot_impl(va, vw, vwm, valid, alpha, kfac, bias, out,
                    n, rows, oc, W, fallback_valid);
}

/* The one entry point Python calls.  A plan step's consecutive kernels
   arrive as a table of int64 records [opcode, fields...] (pointers as
   addresses, 0 for NULL; layouts in RECORD_FIELDS on the Python side,
   which also generates the OP_ and LEN_ constants).  n, the live batch,
   is the only per-call argument; isa caps the SIMD level (a plan-build
   constant, see host_isa).  Returns 0, or 1 + the index of the first
   record with an unknown opcode — nothing from it on runs. */
#define P(T, i) ((T *)(intptr_t)rec[i])
#define L(i) ((long)rec[i])
API long run_program(const int64_t *rec, long count, long n, long isa)
{
    if (isa > host_isa()) isa = host_isa();
    for (long i = 0; i < count; i++) {
        switch (rec[0]) {
        case OP_pad_nchw:
            pad_nchw(P(const float, 1), P(float, 2), n, L(3), L(4), L(5), L(6),
                     P(const float, 7), P(const float, 8));
            rec += LEN_pad_nchw;
            break;
        case OP_im2col_f32:
            im2col_f32(P(const float, 1), P(float, 2), n, L(3), L(4), L(5),
                       L(6), L(7), L(8), L(9), L(10));
            rec += LEN_im2col_f32;
            break;
        case OP_conv_direct:
            conv_direct(P(const float, 1), P(const float, 2),
                        P(const float, 3), P(const float, 4), P(float, 5),
                        n, L(6), L(7), L(8), L(9), L(10), L(11), L(12),
                        L(13), (int)L(14), isa);
            rec += LEN_conv_direct;
            break;
        case OP_conv_post:
            conv_post(P(const float, 1), P(const float, 2), P(const float, 3),
                      P(float, 4), n, L(5), L(6), (int)L(7));
            rec += LEN_conv_post;
            break;
        case OP_maxpool_nchw:
            maxpool_nchw(P(const float, 1), P(float, 2), n, L(3), L(4), L(5),
                         L(6), L(7), L(8), L(9),
                         P(const float, 10), P(const float, 11), isa);
            rec += LEN_maxpool_nchw;
            break;
        case OP_affine_ch:
            affine_ch(P(const float, 1), P(float, 2), P(const float, 3),
                      P(const float, 4), n, L(5), L(6));
            rec += LEN_affine_ch;
            break;
        case OP_relu_inplace:
            relu_inplace(P(float, 1), n * L(2));
            rec += LEN_relu_inplace;
            break;
        case OP_linear_seq:
            linear_seq(P(const float, 1), P(const float, 2),
                       P(const float, 3), P(const float, 4), P(float, 5),
                       n, L(6), L(7), L(8), (int)L(9), isa);
            rec += LEN_linear_seq;
            break;
        case OP_binconv_prepare:
            binconv_prepare(P(const float, 1), P(float, 2), P(float, 3),
                            P(uint64_t, 4), P(const uint64_t, 5), n, L(6),
                            L(7), L(8), L(9), L(10), L(11), L(12), L(13),
                            L(14), isa);
            rec += LEN_binconv_prepare;
            break;
        case OP_absmean_rows:
            absmean_rows(P(const float, 1), P(float, 2), n, L(3));
            rec += LEN_absmean_rows;
            break;
        case OP_pack_rows:
            pack_rows(P(const float, 1), P(uint64_t, 2), n, L(3), L(4), isa);
            rec += LEN_pack_rows;
            break;
        case OP_popdot_scale:
            popdot_scale(P(const uint64_t, 1), P(const uint64_t, 2),
                         P(const uint64_t, 3), P(const int32_t, 4),
                         P(const float, 5), P(const float, 6),
                         P(const float, 7), P(float, 8), n, L(9), L(10),
                         L(11), L(12), isa);
            rec += LEN_popdot_scale;
            break;
        default:
            return i + 1;
        }
    }
    return 0;
}

/* Names the variant run_program(rec, 1, n, isa) runs for the record rec
   (the same *_pick rules), for CompiledPlan.describe. */
API const char *record_variant(const int64_t *rec, long isa)
{
    static const char *const conv_names[] = {
        "scalar", "pos_avx2", "chan_avx2", "pos_avx512", "chan_avx512",
    };
    static const char *const simd_names[] = {"scalar", "avx2", "avx512"};
    static const char *const popdot_names[] = {
        "scalar", "w1_avx2", "w2_avx2", "avx2", "w1_vpopcntdq", "vpopcntdq",
    };
    if (isa > host_isa()) isa = host_isa();
    switch (rec[0]) {
    case OP_conv_direct:
        return conv_names[conv_direct_pick(L(13), L(12), L(10), isa)];
    case OP_maxpool_nchw:
        return maxpool_pick(L(6), L(7), isa) ? "k2s2_avx2" : "scalar";
    case OP_binconv_prepare:
        return simd_names[binconv_prepare_pick(L(6), L(9), L(10), L(11), L(13),
                                               P(const float, 2),
                                               P(const float, 3), isa)];
    case OP_pack_rows:
        return pack_rows_pick(L(3), isa) ? "avx2" : "scalar";
    case OP_linear_seq:
        return simd_names[linear_seq_pick(isa)];
    case OP_popdot_scale:
        return popdot_names[popdot_pick(L(11), isa)];
    default:
        return "scalar";
    }
}
#undef P
#undef L
"""

#: The record-table ABI of ``run_program``: kernel name → the fields its
#: record stores after the opcode, in order.  Opcodes are the 1-based
#: positions in this table; the C ``OP_<name>``/``LEN_<name>`` constants
#: are generated from it, so each opcode is defined exactly once.
RECORD_FIELDS: Mapping[str, tuple] = MappingProxyType(
    {
        "pad_nchw": ("x", "xp", "c", "h", "w", "pad", "scale", "shift"),
        "im2col_f32": ("x", "cols", "c", "h", "w", "k", "stride", "pad", "oh", "ow"),
        "conv_direct": (
            "xp", "wt", "scale", "bias", "out",
            "c", "hp", "wp", "k", "stride", "oh", "ow", "oc", "relu_mode",
        ),
        "conv_post": ("mm", "scale", "bias", "out", "rows", "oc", "relu_mode"),
        "maxpool_nchw": (
            "x", "out", "c", "h", "w", "k", "stride", "oh", "ow", "scale", "shift",
        ),
        "affine_ch": ("x", "out", "scale", "shift", "c", "hw"),
        # elems is per sample: the kernel relus n * elems values.
        "relu_inplace": ("x", "elems"),
        "linear_seq": (
            "x", "wt", "scale", "bias", "out", "k", "out_features", "ldw",
            "relu_mode",
        ),
        "binconv_prepare": (
            "x", "abscols", "kfac", "words", "maskw",
            "c", "h", "w", "k", "stride", "pad", "oh", "ow", "W",
        ),
        "absmean_rows": ("x", "out", "f"),
        "pack_rows": ("x", "words", "f", "W"),
        "popdot_scale": (
            "va", "vw", "vwm", "valid", "alpha", "kfac", "bias", "out",
            "rows", "oc", "W", "fallback_valid",
        ),
    }
)
OPCODES: Mapping[str, int] = MappingProxyType(
    {name: code for code, name in enumerate(RECORD_FIELDS, start=1)}
)


#: SIMD levels, lowest first (the C ``ISA_*`` enum).  ``run_program``
#: serves a table at the lower of its ``isa`` argument and
#: :func:`host_isa`.
ISA_LEVELS: Mapping[str, int] = MappingProxyType({"scalar": 0, "avx2": 1, "avx512": 2})


def _abi_header() -> str:
    return "".join(
        f"#define OP_{name} {code}\n#define LEN_{name} {len(RECORD_FIELDS[name]) + 1}\n"
        for name, code in OPCODES.items()
    )


_SOURCE = _abi_header() + _C_SOURCE

_BACKEND: Optional[ctypes.CDLL] = None
_BACKEND_ERROR: Optional[str] = None
_TRIED = False
#: Serializes first-use backend init: without it two threads racing into
#: ``get_backend`` could both run the compile/load (wasted work, and a
#: torn ``_TRIED``/``_BACKEND_ERROR`` pair on the failure path).
_BACKEND_LOCK = threading.Lock()


def kill_switch_engaged() -> bool:
    """True when ``REPRO_PLAN_NO_CC`` disables the backend."""
    return bool(os.environ.get(KILL_SWITCH))


def _find_compiler() -> Optional[str]:
    for candidate in ("cc", "gcc", "clang"):
        path = which(candidate)
        if path:
            return path
    return None


def _declare(lib: ctypes.CDLL) -> ctypes.CDLL:
    lib.run_program.argtypes = [ctypes.c_void_p, ctypes.c_long, ctypes.c_long, ctypes.c_long]
    lib.run_program.restype = ctypes.c_long
    lib.record_variant.argtypes = [ctypes.c_void_p, ctypes.c_long]
    lib.record_variant.restype = ctypes.c_char_p
    lib.host_isa.argtypes = []
    lib.host_isa.restype = ctypes.c_long
    return lib


def _source_digest() -> str:
    payload = (" ".join(_CFLAGS) + "\n" + _SOURCE).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def _build_library() -> ctypes.CDLL:
    digest = _source_digest()
    so_name = f"plan_kernels_{digest}.so"
    cache_dir = Path(__file__).resolve().parent / "_kernels"
    for directory in (cache_dir, Path(tempfile.gettempdir()) / "repro_plan_kernels"):
        so_path = directory / so_name
        if so_path.exists():
            return _declare(ctypes.CDLL(str(so_path)))
        try:
            directory.mkdir(parents=True, exist_ok=True)
            probe = directory / f".w{os.getpid()}"
            probe.write_text("")
            probe.unlink()
        except OSError:
            continue
        cc = _find_compiler()
        if cc is None:
            raise KernelBackendError("no C compiler (cc/gcc/clang) on PATH")
        src_path = directory / f"plan_kernels_{digest}.c"
        src_path.write_text(_SOURCE)
        tmp_so = directory / f"{so_name}.tmp{os.getpid()}"
        cmd = [cc, *_CFLAGS, str(src_path), "-lm", "-o", str(tmp_so)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            raise KernelBackendError(
                f"kernel compile failed ({' '.join(cmd)}): {proc.stderr.strip()[:400]}"
            )
        os.replace(tmp_so, so_path)
        return _declare(ctypes.CDLL(str(so_path)))
    raise KernelBackendError("no writable directory for the kernel cache")


def get_backend() -> ctypes.CDLL:
    """Return the loaded kernel library, building it on first use.

    Raises :class:`KernelBackendError` when the kill switch is set or the
    build failed; the failure is cached so later calls fail fast.
    Safe for concurrent first-use: the build runs at most once, under
    ``_BACKEND_LOCK`` (double-checked — the hot path reads ``_BACKEND``
    without taking it).
    """
    global _BACKEND, _BACKEND_ERROR, _TRIED
    if kill_switch_engaged():
        raise KernelBackendError(f"{KILL_SWITCH} is set; compiled plans disabled")
    if _BACKEND is not None:
        return _BACKEND
    with _BACKEND_LOCK:
        if _BACKEND is not None:
            return _BACKEND
        if _TRIED and _BACKEND_ERROR is not None:
            raise KernelBackendError(_BACKEND_ERROR)
        _TRIED = True
        try:
            _BACKEND = _build_library()
        except KernelBackendError as exc:
            _BACKEND_ERROR = str(exc)
            raise
        except Exception as exc:  # defensive: any loader surprise
            _BACKEND_ERROR = f"{type(exc).__name__}: {exc}"
            raise KernelBackendError(_BACKEND_ERROR) from exc
        return _BACKEND


def backend_available() -> bool:
    """True when the C backend can be (or has been) loaded."""
    try:
        get_backend()
    except KernelBackendError:
        return False
    return True


def host_isa() -> str:
    """The highest SIMD level this CPU (and the built kernels) support."""
    level = get_backend().host_isa()
    return next(name for name, value in ISA_LEVELS.items() if value == level)


def backend_error() -> Optional[str]:
    """The cached build failure message, if any."""
    if kill_switch_engaged():
        return f"{KILL_SWITCH} is set"
    return _BACKEND_ERROR
