"""Optional native (C) kernels for the compact model's build and chains.

Every reconnaissance chain is ``steps`` sparse matvecs against the
transposed transition matrix.  scipy runs one ``csr_matvec`` per step
from a Python loop, and each row sum is one dependency chain, so the
loop is latency-bound, not bandwidth-bound (the matrices fit in L2).
This module holds small C kernels, compiled on demand with the system
``gcc``.  Two of them run a whole chain in one call, on a sliced-ELL
layout: rows sorted by length, slices of 8 rows with one row per lane,
so uneven row lengths cost little padding.  Three more build what the
chains read, so a screened candidate's only numpy work between the
model's hazard tables and its pair chain is the bookkeeping around
these calls.

* :func:`pair_chain_f32` -- *approximate*: powers the full and the
  target-excluded chain together on one shared transposed pattern
  (:func:`entry_pair_layout`).  Each stored entry holds both matrices'
  ``float32`` values, and the state interleaves both chains as
  ``float32`` pairs, so one 64-bit gather per 8 entries feeds both
  chains.  Each lane sums in float64 and rounds to float32 once per
  step.  A float32 x float32 product is exact in float64, so the
  AVX-512 loop's FMA and the scalar loop's multiply-then-add round
  identically and the two builds are bit-identical.  Rows are
  renumbered by their sorted position, so each slice's sums are stored
  contiguously.  The chain runs in chunks: a :class:`PairChain` keeps
  the interleaved sorted-order state and the kernel's scratch between
  calls, and each call resumes from that state, so a run split into
  chunks is bit-identical to one call of the same total.  The certified
  screen (:mod:`repro.experiments.fastscreen`), its only user, reads the
  sorted state at checkpoints, stops as soon as its certificate holds
  and falls back to the exact float64 path whenever its derived bound
  cannot certify a verdict.
* :func:`chain_f64` -- *exact*: the float64 chain behind
  :class:`~repro.core.chain.TransitionOperator`, bit-identical to
  scipy's ``csr_matvec`` loop by construction (:func:`sell8_layout`).
  Each lane sums its own row in CSR index order as ``s = s + d*x`` -- a
  rounded multiply, then a rounded add, exactly scipy's order.  Lanes
  past their row's end are masked out of the add, so padding never
  enters a sum (not even as ``0 * inf``).
* :func:`eviction_tables` -- *exact*: the eviction splits of the
  at-capacity states (Eqns. 3-5) behind
  :func:`repro.core.transition_build.recency_tables`, one state at a
  time, padded to its largest cached timeout as the numpy grouping
  pads it.
* :func:`expiry_entries` -- *exact*: the compact model's entries behind
  :func:`repro.core.transition_build.build_entries`.  Row by row it
  enumerates the arrival events in the order the numpy ``lexsort``
  reaches and expands each into its at-most-one-expiry branches, with
  the same float operations in the same order as the numpy expansion;
  it writes the entries already in stable ``(row, col)`` order (each
  row's entries are counted into place by column), and no event array
  is built.
* :func:`entry_pair_layout` -- *exact*: :func:`pair_chain_f32`'s layout
  and bound inputs behind :func:`repro.experiments.fastscreen.pair_layout`,
  straight from the sorted entries: each ``(row, col)`` run summed, then
  transposed by a stable counting sort by column.  It has no numpy twin
  in the package: the screen runs only where the kernel loads, so the
  numpy build is a test oracle (``tests/oracles/pairlayout.py``).

The exact kernels reproduce numpy's summation orders where numpy sums:
``.sum(axis=...)`` along a contiguous axis is pairwise -- left to right
from 0.0 below 8 terms, eight accumulators combined
``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))`` for 8 to 128 terms, a recursive
split above 128 -- and ``np.add.reduceat`` over a run ``a`` is ``a[0] +
pairwise(a[1:])``; a left-to-right loop differs from both in the last
ulp.  Running sums (``cumsum``, ``bincount``) are left to right.  The
source is compiled with ``-ffp-contract=off`` so the compiler cannot
fuse a multiply and an add into an FMA, which would round once instead
of twice.  ``tests/core/test_build_native_diff.py``,
``tests/core/test_eviction_native_diff.py`` and
``tests/experiments/test_pair_layout_diff.py`` pin every output
byte-identical to the numpy path's (for the pair layout, the oracle's).

Each chain kernel has a portable scalar loop and an AVX-512 loop,
exported as separate symbols; :func:`simd_level` picks one per process
from ``__builtin_cpu_supports``.  The build kernels are scalar only.

When ``gcc`` (or a writable cache directory) is unavailable, or
``REPRO_NO_CKERNEL=1`` is set, the module degrades to
``available() == False``: the screen runs exact-only, the chains run
on the scipy loop and the model is built by numpy -- behaviour stays
correct, only slower.

Shared objects are cached under :func:`cache_dir`, keyed by a digest of
the C source, the compiler command line and the compiler version
(:func:`kernel_path`), so the one-time compile (~1 s) is paid per
machine and toolchain, not per run.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import subprocess
import tempfile
import threading
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

#: Environment override for the shared-object cache directory.
CACHE_ENV_VAR = "REPRO_CKERNEL_CACHE"

#: Environment kill switch: set to "1" to refuse the native kernels even
#: when they would compile (the screen runs exact-only, the chains run
#: on scipy and the model is built by numpy; used by the differential
#: tests to exercise the fallbacks).
DISABLE_ENV_VAR = "REPRO_NO_CKERNEL"

#: Rows per slice of both kernels' sliced-ELL layouts (one per AVX-512
#: double lane).
SLICE = 8

#: The compiler command line, less the source and output paths.  It is
#: part of the cache key.
COMPILE_ARGV: Tuple[str, ...] = (
    "gcc", "-O3", "-ffp-contract=off", "-shared", "-fPIC",
)

#: SIMD builds of each chain kernel entry point (``repro_<kernel>_<level>``).
LEVELS = ("scalar", "avx512")

_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <immintrin.h>

#define AVX512 __attribute__((target("avx512f,avx512bw,avx512vl")))

/* ---- float32 pair chain (approximate; the screening pre-pass) ----

   Two transposed operators (full and target-excluded) on one pattern,
   in sliced ELL: 8 rows per slice, one row per lane, rows sorted by
   length (descending) and numbered by their sorted position, so slice s
   writes y[8s .. 8s+7].  Entry k of lane l of slice s sits at
   e = ptr[s] + 8*k + l: its column is cols[e], its values are
   vals[2e] (full) and vals[2e+1] (excluded).  The state interleaves the
   two chains, x[2j] (full) and x[2j+1] (excluded), so one 64-bit load
   (one 8-lane gather) fetches both chains' inputs for 8 entries.
   Each lane sums in float64, in k order, from 0.0, and the sum is
   rounded to float32 once per step.  A float32 x float32 product is
   exact in float64, so the AVX-512 loop's FMA and the scalar loop's
   multiply-then-add round identically: the builds are bit-identical.
   Padding entries hold column 0 and values 0.0f; with x finite they add
   +0.0, which leaves every sum unchanged. */

typedef void (*pair_matvec_fn)(int64_t, const int64_t *, const int32_t *,
                               const float *, const float *, float *);

static void pair_matvec_scalar(int64_t nslices, const int64_t *ptr,
                               const int32_t *cols, const float *vals,
                               const float *x, float *y) {
    for (int64_t s = 0; s < nslices; s++) {
        int64_t width = (ptr[s + 1] - ptr[s]) / 8;
        const int32_t *c = cols + ptr[s];
        const float *v = vals + 2 * ptr[s];
        double full[8] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
        double excl[8] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
        for (int64_t k = 0; k < width; k++)
            for (int l = 0; l < 8; l++) {
                const float *xj = x + 2 * (int64_t)c[8 * k + l];
                full[l] = full[l] + (double)v[16 * k + 2 * l] * (double)xj[0];
                excl[l] = excl[l]
                          + (double)v[16 * k + 2 * l + 1] * (double)xj[1];
            }
        for (int l = 0; l < 8; l++) {
            y[16 * s + 2 * l] = (float)full[l];
            y[16 * s + 2 * l + 1] = (float)excl[l];
        }
    }
}

/* One column of a slice: lo holds lanes 0-3 as (full, excl) double
   pairs, hi lanes 4-7. */
AVX512
static inline void pair_column(__m512d *lo, __m512d *hi, const int32_t *c,
                               const float *v, const float *x) {
    __m256i idx = _mm256_loadu_si256((const __m256i *)c);
    /* A fresh zeroed merge source under an opaque mask: otherwise gcc
       drops the source, merges into the last gather's register and so
       chains every gather to the one before. */
    __m512d z = _mm512_setzero_pd();
    __mmask8 all = 0xFF;
    __asm__ volatile("" : "+v"(z), "+k"(all));
    __m512d xg = _mm512_mask_i32gather_pd(z, all, idx, (const void *)x, 8);
    *lo = _mm512_fmadd_pd(
        _mm512_cvtps_pd(_mm256_loadu_ps(v)),
        _mm512_cvtps_pd(_mm256_castpd_ps(_mm512_castpd512_pd256(xg))), *lo);
    *hi = _mm512_fmadd_pd(
        _mm512_cvtps_pd(_mm256_loadu_ps(v + 8)),
        _mm512_cvtps_pd(_mm256_castpd_ps(_mm512_extractf64x4_pd(xg, 1))), *hi);
}

AVX512
static inline void pair_store(float *y, __m512d lo, __m512d hi) {
    _mm256_storeu_ps(y, _mm512_cvtpd_ps(lo));
    _mm256_storeu_ps(y + 8, _mm512_cvtpd_ps(hi));
}

/* Two slices in flight: slice s+1 is never wider than slice s. */
AVX512
static void pair_matvec_avx512(int64_t nslices, const int64_t *ptr,
                               const int32_t *cols, const float *vals,
                               const float *x, float *y) {
    int64_t s = 0;
    for (; s + 2 <= nslices; s += 2) {
        const int32_t *c0 = cols + ptr[s], *c1 = cols + ptr[s + 1];
        const float *v0 = vals + 2 * ptr[s], *v1 = vals + 2 * ptr[s + 1];
        int64_t w0 = (ptr[s + 1] - ptr[s]) / 8;
        int64_t w1 = (ptr[s + 2] - ptr[s + 1]) / 8;
        __m512d lo0 = _mm512_setzero_pd(), hi0 = _mm512_setzero_pd();
        __m512d lo1 = _mm512_setzero_pd(), hi1 = _mm512_setzero_pd();
        int64_t k = 0;
        for (; k < w1; k++) {
            pair_column(&lo0, &hi0, c0 + 8 * k, v0 + 16 * k, x);
            pair_column(&lo1, &hi1, c1 + 8 * k, v1 + 16 * k, x);
        }
        for (; k < w0; k++)
            pair_column(&lo0, &hi0, c0 + 8 * k, v0 + 16 * k, x);
        pair_store(y + 16 * s, lo0, hi0);
        pair_store(y + 16 * s + 16, lo1, hi1);
    }
    if (s < nslices) {
        const int32_t *c0 = cols + ptr[s];
        const float *v0 = vals + 2 * ptr[s];
        int64_t w0 = (ptr[s + 1] - ptr[s]) / 8;
        __m512d lo0 = _mm512_setzero_pd(), hi0 = _mm512_setzero_pd();
        for (int64_t k = 0; k < w0; k++)
            pair_column(&lo0, &hi0, c0 + 8 * k, v0 + 16 * k, x);
        pair_store(y + 16 * s, lo0, hi0);
    }
}

/* Power both chains for `steps` steps: x holds the interleaved initial
   pairs on entry and the final ones on return; t is caller-provided
   scratch of the same size (16 floats per slice). */
static void pair_chain_f32(pair_matvec_fn matvec, int64_t nslices,
                           int64_t steps, const int64_t *ptr,
                           const int32_t *cols, const float *vals,
                           float *x, float *t) {
    for (int64_t s = 0; s < steps; s++) {
        matvec(nslices, ptr, cols, vals, x, t);
        float *tmp = x; x = t; t = tmp;
    }
    if (steps & 1)  /* the result sits in the caller's scratch: copy back */
        memcpy(t, x, (size_t)nslices * 16 * sizeof(float));
}

#define PAIR_CHAIN_F32_ARGS                                              \
    int64_t nslices, int64_t steps, const int64_t *ptr,                  \
    const int32_t *cols, const float *vals, float *x, float *t
#define PAIR_CHAIN_F32_PASS nslices, steps, ptr, cols, vals, x, t

void repro_pair_chain_f32_scalar(PAIR_CHAIN_F32_ARGS) {
    pair_chain_f32(pair_matvec_scalar, PAIR_CHAIN_F32_PASS);
}

void repro_pair_chain_f32_avx512(PAIR_CHAIN_F32_ARGS) {
    pair_chain_f32(pair_matvec_avx512, PAIR_CHAIN_F32_PASS);
}

/* ---- float64 chain (exact; bit-identical to scipy's csr_matvec) ----

   Sliced ELL, 8 rows per slice, one row per lane.  Rows are sorted by
   length, descending, so lens[8*s] is slice s's width.  Entry k of
   lane l of slice s sits at ptr[s] + 8*k + l (column-major within the
   slice); perm[8*s + l] is that lane's original row.  Each lane sums
   its row in CSR index order as acc = acc + d*x, a rounded multiply
   then a rounded add, from acc = 0.0: scipy's order.  Entries past a
   row's end are skipped (scalar) or masked out of the add (AVX-512). */

typedef void (*matvec_f64_fn)(int64_t, int64_t, const int64_t *,
                              const int32_t *, const int32_t *,
                              const double *, const int32_t *,
                              const double *, double *);

static void sell8_matvec_scalar(int64_t n, int64_t nslices,
                                const int64_t *ptr, const int32_t *lens,
                                const int32_t *cols, const double *vals,
                                const int32_t *perm,
                                const double *x, double *y) {
    for (int64_t s = 0; s < nslices; s++) {
        const int32_t *len = lens + 8 * s;
        const int32_t *c = cols + ptr[s];
        const double *v = vals + ptr[s];
        double acc[8] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
        int32_t k = 0;
        for (; k < len[7]; k++)  /* every lane still in its row */
            for (int l = 0; l < 8; l++)
                acc[l] = acc[l] + v[8 * k + l] * x[c[8 * k + l]];
        for (; k < len[0]; k++)  /* lanes 0..l-1, as lens descend */
            for (int l = 0; l < 8 && k < len[l]; l++)
                acc[l] = acc[l] + v[8 * k + l] * x[c[8 * k + l]];
        int64_t lanes = n - 8 * s < 8 ? n - 8 * s : 8;
        for (int64_t l = 0; l < lanes; l++)
            y[perm[8 * s + l]] = acc[l];
    }
}

AVX512
static inline __m512d sell8_column(__m512d acc, __mmask8 active,
                                   const int32_t *c, const double *v,
                                   const double *x) {
    __m256i idx = _mm256_loadu_si256((const __m256i *)c);
    __m512d xv = _mm512_i32gather_pd(idx, x, 8);
    return _mm512_mask_add_pd(acc, active, acc,
                              _mm512_mul_pd(_mm512_loadu_pd(v), xv));
}

AVX512
static inline void sell8_store(int64_t n, int64_t s, __m512d acc,
                               const int32_t *perm, double *y) {
    int64_t lanes = n - 8 * s < 8 ? n - 8 * s : 8;
    __mmask8 m = (__mmask8)((1u << lanes) - 1u);
    __m256i rows = _mm256_maskz_loadu_epi32(m, perm + 8 * s);
    _mm512_mask_i32scatter_pd(y, m, rows, acc, 8);
}

/* Two slices in flight: slice s+1 is never wider than slice s. */
AVX512
static void sell8_matvec_avx512(int64_t n, int64_t nslices,
                                const int64_t *ptr, const int32_t *lens,
                                const int32_t *cols, const double *vals,
                                const int32_t *perm,
                                const double *x, double *y) {
    int64_t s = 0;
    for (; s + 2 <= nslices; s += 2) {
        const int32_t *c0 = cols + ptr[s], *c1 = cols + ptr[s + 1];
        const double *v0 = vals + ptr[s], *v1 = vals + ptr[s + 1];
        __m256i len0 = _mm256_loadu_si256((const __m256i *)(lens + 8 * s));
        __m256i len1 = _mm256_loadu_si256((const __m256i *)(lens + 8 * s + 8));
        int32_t w0 = lens[8 * s], w1 = lens[8 * s + 8];
        __m512d a0 = _mm512_setzero_pd(), a1 = _mm512_setzero_pd();
        int32_t k = 0;
        for (; k < w1; k++) {
            __m256i kv = _mm256_set1_epi32(k);
            a0 = sell8_column(a0, _mm256_cmpgt_epi32_mask(len0, kv),
                              c0 + 8 * k, v0 + 8 * k, x);
            a1 = sell8_column(a1, _mm256_cmpgt_epi32_mask(len1, kv),
                              c1 + 8 * k, v1 + 8 * k, x);
        }
        for (; k < w0; k++)
            a0 = sell8_column(a0,
                              _mm256_cmpgt_epi32_mask(len0, _mm256_set1_epi32(k)),
                              c0 + 8 * k, v0 + 8 * k, x);
        sell8_store(n, s, a0, perm, y);
        sell8_store(n, s + 1, a1, perm, y);
    }
    if (s < nslices) {
        const int32_t *c0 = cols + ptr[s];
        const double *v0 = vals + ptr[s];
        __m256i len0 = _mm256_loadu_si256((const __m256i *)(lens + 8 * s));
        __m512d a0 = _mm512_setzero_pd();
        for (int32_t k = 0; k < lens[8 * s]; k++)
            a0 = sell8_column(a0,
                              _mm256_cmpgt_epi32_mask(len0, _mm256_set1_epi32(k)),
                              c0 + 8 * k, v0 + 8 * k, x);
        sell8_store(n, s, a0, perm, y);
    }
}

/* Power one chain for `steps` steps: x holds the initial distribution on
   entry and the final one on return; t is caller-provided scratch. */
static void chain_f64(matvec_f64_fn matvec, int64_t n, int64_t nslices,
                      int64_t steps, const int64_t *ptr, const int32_t *lens,
                      const int32_t *cols, const double *vals,
                      const int32_t *perm, double *x, double *t) {
    for (int64_t s = 0; s < steps; s++) {
        matvec(n, nslices, ptr, lens, cols, vals, perm, x, t);
        double *tmp = x; x = t; t = tmp;
    }
    if (steps & 1)  /* the result sits in the caller's scratch: copy back */
        memcpy(t, x, (size_t)n * sizeof(double));
}

#define CHAIN_F64_ARGS                                                   \
    int64_t n, int64_t nslices, int64_t steps,                           \
    const int64_t *ptr, const int32_t *lens, const int32_t *cols,        \
    const double *vals, const int32_t *perm, double *x, double *t
#define CHAIN_F64_PASS n, nslices, steps, ptr, lens, cols, vals, perm, x, t

void repro_chain_f64_scalar(CHAIN_F64_ARGS) {
    chain_f64(sell8_matvec_scalar, CHAIN_F64_PASS);
}

void repro_chain_f64_avx512(CHAIN_F64_ARGS) {
    chain_f64(sell8_matvec_avx512, CHAIN_F64_PASS);
}

/* ---- numpy's summation orders (exact kernels below) ----

   np.add.reduce along a contiguous axis, as .sum(axis=...) runs it:
   plain left-to-right from 0.0 below 8 terms; 8 to 128 terms into
   eight accumulators, combined ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)),
   then the tail left to right; above 128 terms a split at half the
   length (rounded down to a multiple of 8), each half summed the same
   way.  np.add.reduceat over a run a[0..n) is a[0] + pairwise(a[1..n))
   (a[0] alone when n == 1). */

static double pairwise_sum(const double *a, int64_t n) {
    if (n < 8) {
        double res = 0.0;
        for (int64_t i = 0; i < n; i++)
            res = res + a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        int64_t i;
        for (int j = 0; j < 8; j++)
            r[j] = a[j];
        for (i = 8; i < n - n % 8; i += 8)
            for (int j = 0; j < 8; j++)
                r[j] = r[j] + a[i + j];
        double res = ((r[0] + r[1]) + (r[2] + r[3]))
                     + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res = res + a[i];
        return res;
    }
    int64_t half = n / 2;
    half -= half % 8;
    return pairwise_sum(a, half) + pairwise_sum(a + half, n - half);
}

static double reduceat_sum(const double *a, int64_t n) {
    return n == 1 ? a[0] : a[0] + pairwise_sum(a + 1, n - 1);
}

/* ---- eviction splits (Eqns. 3-5; exact) ----

   For each at-capacity state, its cached rules ascending and the
   probability that each is evicted, with the same float operations in
   the same order as the numpy build (transition_build._eviction_tables):
   every rule's remaining-time pmf padded with zeros to the state's
   largest cached timeout S, the reversed running sum, the exclusive
   survival and the midpoint term, the prefix and suffix products along
   the rule axis, and the two axis sums in numpy's pairwise order.  Rule
   r's recency pmf row starts at pmf[start[r] + inverse[r][i] * t_r] for
   state i.  Returns 0, -1 when a state does not hold capacity rules, or
   -2 when scratch cannot be allocated. */

int64_t repro_eviction_tables(
        int64_t n_full, int64_t capacity, int64_t n_rules, int64_t n_states,
        const int64_t *states, const int64_t *full_idx,
        const int64_t *timeouts, const double *pmf, const int64_t *start,
        const int64_t *inverse, int64_t *out_rules, double *out_probs) {
    int64_t longest = 1;
    for (int64_t r = 0; r < n_rules; r++)
        if (timeouts[r] > longest)
            longest = timeouts[r];
    size_t cells = (size_t)(capacity + 1) * (size_t)longest;
    double *rem = malloc(cells * sizeof *rem);
    double *term = malloc(cells * sizeof *term);
    double *prefix = malloc(cells * sizeof *prefix);
    double *suffix = malloc(cells * sizeof *suffix);
    double *product = malloc((size_t)longest * sizeof *product);
    double *raw = malloc((size_t)(capacity + 1) * sizeof *raw);
    int64_t status = 0;
    if (!rem || !term || !prefix || !suffix || !product || !raw) {
        status = -2;
        goto done;
    }
    for (int64_t p = 0; p < n_full; p++) {
        int64_t state = full_idx[p], support = 0, slot = 0;
        int64_t *rules = out_rules + p * capacity;
        double *probs = out_probs + p * capacity;
        if (__builtin_popcountll((uint64_t)states[state]) != capacity) {
            status = -1;
            goto done;
        }
        for (uint64_t bits = (uint64_t)states[state]; bits; bits &= bits - 1) {
            int64_t rule = __builtin_ctzll(bits);
            rules[slot++] = rule;
            if (timeouts[rule] > support)
                support = timeouts[rule];
        }
        if (capacity == 1) {
            probs[0] = 1.0;
            continue;
        }
        for (int64_t r = 0; r < capacity; r++) {
            int64_t rule = rules[r], t = timeouts[rule];
            const double *row = pmf + start[rule]
                                + inverse[rule * n_states + state] * t;
            double *m = rem + r * support, *q = term + r * support;
            for (int64_t k = 0; k < support; k++)
                m[k] = k < t ? row[t - 1 - k] : 0.0;
            double tail = m[support - 1];
            q[support - 1] = (tail - m[support - 1]) + 0.5 * m[support - 1];
            for (int64_t k = support - 2; k >= 0; k--) {
                tail = tail + m[k];
                q[k] = (tail - m[k]) + 0.5 * m[k];
            }
        }
        for (int64_t k = 0; k < support; k++) {
            prefix[k] = 1.0;
            suffix[capacity * support + k] = 1.0;
        }
        for (int64_t r = 0; r < capacity; r++)
            for (int64_t k = 0; k < support; k++)
                prefix[(r + 1) * support + k] =
                    prefix[r * support + k] * term[r * support + k];
        for (int64_t r = capacity - 1; r >= 0; r--)
            for (int64_t k = 0; k < support; k++)
                suffix[r * support + k] =
                    suffix[(r + 1) * support + k] * term[r * support + k];
        for (int64_t r = 0; r < capacity; r++) {
            const double *m = rem + r * support;
            for (int64_t k = 0; k < support; k++)
                product[k] = m[k] * (prefix[r * support + k]
                                     * suffix[(r + 1) * support + k]);
            raw[r] = 0.0 + pairwise_sum(product, support);
        }
        double total = 0.0 + pairwise_sum(raw, capacity);
        for (int64_t r = 0; r < capacity; r++)
            probs[r] = total > 0.0 ? raw[r] / total : 1.0 / (double)capacity;
    }
done:
    free(rem);
    free(term);
    free(prefix);
    free(suffix);
    free(product);
    free(raw);
    return status;
}

/* ---- compact-model entries (exact; arrival events and expiry split) ----

   Row by row, the row's arrival events in emission order: the
   no-arrival event (weight p_none, tag -1); then each flow whose
   probability is not <= 0, ascending: one event for a hit (the first
   cached covering rule is protected), for an uncovered flow, or for an
   install with room, else one per eviction slot of positive split (the
   victim leaves, the install is protected, weight p_flow * split).
   That is the order transition_build._arrival_events reaches by its
   lexsort.  Then each event's state loses its certain rules (hazard 1)
   unless protected, and at most one of its candidate rules (hazard in
   (0, 1)) still cached and not protected -- the live rules -- expires:
   the keep-all branch first, then one branch per live rule, ascending.
   The products and the normaliser accumulate over live rules in
   ascending order, exactly as the numpy builder
   (transition_build._expand_expiries) does, so every float equals its
   own.  Entries of probability p > 0 are written in stable (row, col)
   order: each row's entries are emitted into scratch, then counted into
   place by column. */

typedef struct {
    int64_t n_states, n_rules, n_flows, capacity;
    const int64_t *states;
    const int64_t *cover_ptr, *cover_rules;
    const double *p_flows;
    double p_none;
    const double *hazard;
    const int64_t *full_position, *evict_rules;
    const double *evict_probs;
    const int64_t *lookup;
} entry_model;

/* One arrival event: the state it leaves, the rule it protects (-1:
   none), its probability and its flow (-1: no arrival). */
typedef struct {
    int64_t interim, protect, tag;
    double base;
} arrival;

/* The row's events into ev; returns their number, or -3 when a state at
   capacity has no eviction row. */
static int64_t arrival_events(const entry_model *m, int64_t row,
                              arrival *ev) {
    int64_t state = m->states[row], n = 0;
    int64_t load = __builtin_popcountll((uint64_t)state);
    ev[n++] = (arrival){state, -1, -1, m->p_none};
    for (int64_t f = 0; f < m->n_flows; f++) {
        double p = m->p_flows[f];
        if (p <= 0.0)
            continue;
        const int64_t *cover = m->cover_rules + m->cover_ptr[f];
        int64_t n_cover = m->cover_ptr[f + 1] - m->cover_ptr[f];
        int64_t matched = -1;
        for (int64_t i = 0; i < n_cover && matched < 0; i++)
            if ((state >> cover[i]) & 1)
                matched = cover[i];
        if (n_cover == 0 || matched >= 0) {
            ev[n++] = (arrival){state, matched, f, p * 1.0};
            continue;
        }
        int64_t install = cover[0], install_bit = (int64_t)1 << install;
        if (load < m->capacity) {
            ev[n++] = (arrival){state | install_bit, install, f, p * 1.0};
        } else if (load == m->capacity) {
            int64_t position = m->full_position[row];
            if (position < 0)
                return -3;
            for (int64_t slot = 0; slot < m->capacity; slot++) {
                double split = m->evict_probs[position * m->capacity + slot];
                if (!(split > 0.0))
                    continue;
                int64_t victim = m->evict_rules[position * m->capacity + slot];
                ev[n++] = (arrival){(state & ~((int64_t)1 << victim))
                                        | install_bit,
                                    install, f, p * split};
            }
        }
    }
    return n;
}

/* The row's certain and candidate rule masks, from its hazards. */
static void expiry_masks(const entry_model *m, int64_t row,
                         int64_t *certain, int64_t *candidate) {
    const double *h = m->hazard + row * m->n_rules;
    *certain = *candidate = 0;
    for (uint64_t bits = (uint64_t)m->states[row]; bits; bits &= bits - 1) {
        int rule = __builtin_ctzll(bits);
        if (h[rule] >= 1.0)
            *certain |= (int64_t)1 << rule;
        else if (h[rule] > 0.0 && h[rule] < 1.0)
            *candidate |= (int64_t)1 << rule;
    }
}

static inline int64_t expiry_live(int64_t interim, int64_t protect,
                                  int64_t certain, int64_t candidate,
                                  int64_t *kept) {
    int64_t protected_bit = protect >= 0 ? (int64_t)1 << protect : 0;
    *kept = interim & ~(certain & ~protected_bit);
    return *kept & candidate & ~protected_bit;
}

/* Scratch for the most events one row can have. */
static arrival *alloc_events(const entry_model *m) {
    int64_t most = 1 + m->n_flows * (m->capacity > 1 ? m->capacity : 1);
    return malloc((size_t)most * sizeof(arrival));
}

/* Entries before the p > 0 filter: the total (or -2, -3 as above), and
   the most in one row. */
int64_t repro_expiry_count(const entry_model *m, int64_t *longest_row) {
    arrival *ev = alloc_events(m);
    int64_t total = 0, longest = 0;
    if (!ev) {
        total = -2;
        goto done;
    }
    for (int64_t row = 0; row < m->n_states; row++) {
        int64_t n = arrival_events(m, row, ev), here = 0, certain,
                candidate, kept;
        if (n < 0) {
            total = n;
            goto done;
        }
        expiry_masks(m, row, &certain, &candidate);
        for (int64_t e = 0; e < n; e++)
            here += 1 + __builtin_popcountll((uint64_t)expiry_live(
                ev[e].interim, ev[e].protect, certain, candidate, &kept));
        total += here;
        if (here > longest)
            longest = here;
    }
    *longest_row = longest;
done:
    free(ev);
    return total;
}

/* Returns the number of entries written, -1 when a successor is not a
   state (its mask in *escaped; the first in emission order), -2 when
   scratch cannot be allocated, or -3 as above. */
int64_t repro_expiry_entries(
        const entry_model *m, int64_t longest_row,
        int64_t *out_rows, int64_t *out_cols, double *out_probs,
        int64_t *out_tags, int64_t *escaped) {
    int64_t n_states = m->n_states, words = (n_states + 63) / 64;
    int64_t written = 0;
    arrival *ev = alloc_events(m);
    int32_t *col = malloc((size_t)(longest_row + 1) * sizeof *col);
    int32_t *distinct = malloc((size_t)(longest_row + 1) * sizeof *distinct);
    double *prob = malloc((size_t)(longest_row + 1) * sizeof *prob);
    int64_t *tag = malloc((size_t)(longest_row + 1) * sizeof *tag);
    int64_t *slot = calloc((size_t)n_states + 1, sizeof *slot);
    uint64_t *seen = calloc((size_t)words + 1, sizeof *seen);
    if (!ev || !col || !distinct || !prob || !tag || !slot || !seen) {
        written = -2;
        goto done;
    }
    for (int64_t row = 0; row < n_states; row++) {
        int64_t n = arrival_events(m, row, ev), k = 0, certain, candidate;
        if (n < 0) {
            written = n;
            goto done;
        }
        expiry_masks(m, row, &certain, &candidate);
        const double *h = m->hazard + row * m->n_rules;
        for (int64_t e = 0; e < n; e++) {
            int64_t kept, live = expiry_live(ev[e].interim, ev[e].protect,
                                             certain, candidate, &kept);
            int rule[64];
            double factor[64], weight[64], keep = 1.0;
            int n_live = 0;
            for (uint64_t bits = (uint64_t)live; bits; bits &= bits - 1) {
                rule[n_live] = __builtin_ctzll(bits);
                factor[n_live] = 1.0 - h[rule[n_live]];
                keep = keep * factor[n_live];
                n_live++;
            }
            for (int i = 0; i < n_live; i++) {
                double w = h[rule[i]];
                for (int j = 0; j < n_live; j++)
                    if (j != i)
                        w = w * factor[j];
                weight[i] = w;
            }
            double total = keep;
            for (int i = 0; i < n_live; i++)
                total = total + weight[i];
            for (int i = -1; i < n_live; i++) {
                int64_t successor =
                    i < 0 ? kept : kept & ~((int64_t)1 << rule[i]);
                int64_t c = m->lookup[successor];
                if (c < 0) {
                    *escaped = successor;
                    written = -1;
                    goto done;
                }
                double p = ev[e].base * ((i < 0 ? keep : weight[i]) / total);
                if (p > 0.0) {
                    col[k] = (int32_t)c;
                    prob[k] = p;
                    tag[k] = ev[e].tag;
                    k++;
                }
            }
        }
        /* The row's distinct columns, ascending, from a bitmap scanned
           over the words they span: at most n_states / 64 a row. */
        int64_t d = 0, low = n_states, high = -1;
        for (int64_t i = 0; i < k; i++) {
            int32_t c = col[i];
            if (slot[c]++ == 0) {
                seen[c >> 6] |= (uint64_t)1 << (c & 63);
                if (c < low) low = c;
                if (c > high) high = c;
            }
        }
        for (int64_t w = low >> 6; w <= high >> 6; w++) {
            for (uint64_t bits = seen[w]; bits; bits &= bits - 1)
                distinct[d++] = (int32_t)(64 * w + __builtin_ctzll(bits));
            seen[w] = 0;
        }
        /* slot[c]: the column's count, then its next output position. */
        int64_t at = written;
        for (int64_t j = 0; j < d; j++) {
            int64_t count = slot[distinct[j]];
            slot[distinct[j]] = at;
            at += count;
        }
        for (int64_t i = 0; i < k; i++) {
            int64_t dst = slot[col[i]]++;
            out_rows[dst] = row;
            out_cols[dst] = col[i];
            out_probs[dst] = prob[i];
            out_tags[dst] = tag[i];
        }
        for (int64_t j = 0; j < d; j++)
            slot[distinct[j]] = 0;
        written += k;
    }
done:
    free(ev);
    free(col);
    free(distinct);
    free(prob);
    free(tag);
    free(slot);
    free(seen);
    return written;
}

/* ---- the fast screen's pair layout (exact; PairSell8 from entries) ----

   From the (row, col)-sorted entries: each (row, col) run collapses to
   one transposed entry, summed as np.add.reduceat sums it, over every
   entry (first) and with the target's entries as 0.0 (second).  The
   transposed rows (the columns) are ordered by run count, descending,
   ties by index (a stable counting sort); within a transposed row the
   runs keep their row order.  Rows and columns are renumbered by that
   order.  Two calls: repro_pair_shape sizes the layout, then
   repro_pair_fill writes it into zeroed arrays. */

/* Fills perm (n), ptr (slices + 1) and *max_run; returns the stored
   entries, -1 when entries are out of range or not (row, col)-sorted,
   or -2 when scratch cannot be allocated. */
int64_t repro_pair_shape(int64_t n_entries, int64_t n, const int64_t *rows,
                         const int64_t *cols, int32_t *perm, int64_t *ptr,
                         int64_t *max_run) {
    int64_t *runs = calloc((size_t)n + 1, sizeof *runs);
    int64_t *first = calloc((size_t)n + 2, sizeof *first);
    int64_t status = 0, longest = 0;
    if (!runs || !first) {
        status = -2;
        goto done;
    }
    for (int64_t e = 0, start = 0; e < n_entries; e++) {
        if (rows[e] < 0 || rows[e] >= n || cols[e] < 0 || cols[e] >= n
            || (e > 0 && (rows[e] < rows[e - 1]
                          || (rows[e] == rows[e - 1]
                              && cols[e] < cols[e - 1])))) {
            status = -1;
            goto done;
        }
        if (e == 0 || rows[e] != rows[e - 1] || cols[e] != cols[e - 1]) {
            runs[cols[e]]++;
            start = e;
        }
        if (e - start + 1 > longest)
            longest = e - start + 1;
    }
    /* first[len]: the sorted position of the first row of that run count
       (counts descending). */
    for (int64_t c = 0; c < n; c++)
        first[runs[c]]++;
    for (int64_t len = n, at = 0; len >= 0; len--) {
        int64_t count = first[len];
        first[len] = at;
        at += count;
    }
    for (int64_t c = 0; c < n; c++)
        perm[first[runs[c]]++] = (int32_t)c;
    int64_t slices = (n + 7) / 8;
    ptr[0] = 0;
    for (int64_t s = 0; s < slices; s++)
        ptr[s + 1] = ptr[s] + 8 * runs[perm[8 * s]];
    status = ptr[slices];
done:
    free(runs);
    free(first);
    *max_run = longest;
    return status;
}

/* Writes the layout's cols and (first, second) vals and the largest
   row sum of the first matrix (np.bincount's sequential sums, NaN if
   any is); returns 0, or -2 when scratch cannot be allocated. */
int64_t repro_pair_fill(int64_t n_entries, int64_t n, int64_t target,
                        int64_t max_run, const int64_t *rows,
                        const int64_t *cols, const double *probs,
                        const int64_t *tags, const int32_t *perm,
                        const int64_t *ptr, int32_t *out_cols,
                        float *out_vals, double *row_sum) {
    int32_t *position = malloc((size_t)(n + 1) * sizeof *position);
    int64_t *next = calloc((size_t)n + 1, sizeof *next);
    double *sums = calloc((size_t)n + 1, sizeof *sums);
    double *kept = malloc((size_t)(max_run + 1) * sizeof *kept);
    int64_t status = 0;
    if (!position || !next || !sums || !kept) {
        status = -2;
        goto done;
    }
    for (int64_t i = 0; i < n; i++)
        position[perm[i]] = (int32_t)i;
    for (int64_t e = 0; e < n_entries;) {
        int64_t row = rows[e], c = cols[e], start = e;
        for (; e < n_entries && rows[e] == row && cols[e] == c; e++)
            kept[e - start] = tags[e] != target ? probs[e] : 0.0;
        double full = reduceat_sum(probs + start, e - start);
        double excluded = reduceat_sum(kept, e - start);
        int64_t lane = position[c];
        int64_t at = ptr[lane / 8] + 8 * next[c]++ + lane % 8;
        out_cols[at] = position[row];
        out_vals[2 * at] = (float)full;
        out_vals[2 * at + 1] = (float)excluded;
        sums[row] = sums[row] + full;
    }
    double best = n ? sums[0] : 0.0;
    for (int64_t i = 0; i < n && best == best; i++)
        if (sums[i] != sums[i] || sums[i] > best)
            best = sums[i];
    *row_sum = best;
done:
    free(position);
    free(next);
    free(sums);
    free(kept);
    return status;
}

int repro_simd_level(void) {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512f")
           && __builtin_cpu_supports("avx512bw")
           && __builtin_cpu_supports("avx512vl");
}
"""

_lock = threading.Lock()
_library: Optional[ctypes.CDLL] = None
_load_attempted = False
_load_error: Optional[str] = None
_simd_level = "none"


def cache_dir() -> str:
    """Directory holding compiled kernels (override: ``REPRO_CKERNEL_CACHE``)."""
    override = os.environ.get(CACHE_ENV_VAR, "").strip()
    if override:
        return override
    return os.path.join(
        tempfile.gettempdir(), f"repro-ckernels-{os.getuid()}"
    )


@functools.lru_cache(maxsize=None)
def _compiler_version(compiler: str) -> str:
    return subprocess.run(
        [compiler, "-dumpfullversion"],
        check=True,
        capture_output=True,
        text=True,
        timeout=60,
    ).stdout.strip()


def kernel_path(argv: Sequence[str] = COMPILE_ARGV) -> str:
    """Cached shared object for the source built with ``argv``.

    The name digests the C source, every compiler argument and the
    compiler's version, so a new flag or a compiler upgrade builds a
    fresh object instead of loading a stale one.
    """
    digest = hashlib.sha256()
    for part in (_SOURCE, *argv, _compiler_version(argv[0])):
        digest.update(part.encode("utf-8"))
        digest.update(b"\0")
    return os.path.join(cache_dir(), f"kernels-{digest.hexdigest()[:16]}.so")


def _compile(target: str) -> None:
    """Compile the kernels to ``target`` (atomic rename, race-safe)."""
    directory = os.path.dirname(target)
    os.makedirs(directory, exist_ok=True)
    source_path = None
    object_path = None
    try:
        fd, source_path = tempfile.mkstemp(suffix=".c", dir=directory)
        with os.fdopen(fd, "w") as handle:
            handle.write(_SOURCE)
        object_path = source_path[:-2] + ".so"
        subprocess.run(
            [*COMPILE_ARGV, source_path, "-o", object_path],
            check=True,
            capture_output=True,
            timeout=120,
        )
        os.replace(object_path, target)  # atomic: concurrent builds race safely
        object_path = None
    finally:
        for path in (source_path, object_path):
            if path is not None:
                try:
                    os.unlink(path)
                except OSError:
                    pass


class _EntryModel(ctypes.Structure):
    """The C ``entry_model``: what the entry builder reads, per state."""

    _fields_ = [
        ("n_states", ctypes.c_int64),
        ("n_rules", ctypes.c_int64),
        ("n_flows", ctypes.c_int64),
        ("capacity", ctypes.c_int64),
        ("states", ctypes.POINTER(ctypes.c_int64)),
        ("cover_ptr", ctypes.POINTER(ctypes.c_int64)),
        ("cover_rules", ctypes.POINTER(ctypes.c_int64)),
        ("p_flows", ctypes.POINTER(ctypes.c_double)),
        ("p_none", ctypes.c_double),
        ("hazard", ctypes.POINTER(ctypes.c_double)),
        ("full_position", ctypes.POINTER(ctypes.c_int64)),
        ("evict_rules", ctypes.POINTER(ctypes.c_int64)),
        ("evict_probs", ctypes.POINTER(ctypes.c_double)),
        ("lookup", ctypes.POINTER(ctypes.c_int64)),
    ]


def _bind(library: ctypes.CDLL) -> ctypes.CDLL:
    i32p = ctypes.POINTER(ctypes.c_int32)
    i64p = ctypes.POINTER(ctypes.c_int64)
    f32p = ctypes.POINTER(ctypes.c_float)
    f64p = ctypes.POINTER(ctypes.c_double)
    i64 = ctypes.c_int64
    argtypes = {
        "pair_chain_f32": [i64, i64, i64p, i32p, f32p, f32p, f32p],
        "chain_f64": [
            i64, i64, i64, i64p, i32p, i32p, f64p, i32p, f64p, f64p,
        ],
    }
    library.repro_simd_level.restype = ctypes.c_int
    library.repro_simd_level.argtypes = []
    kernels = {
        "eviction_tables": [
            i64, i64, i64, i64, i64p, i64p, i64p, f64p, i64p, i64p, i64p, f64p,
        ],
        "expiry_count": [ctypes.POINTER(_EntryModel), i64p],
        "expiry_entries": [
            ctypes.POINTER(_EntryModel), i64, i64p, i64p, f64p, i64p, i64p,
        ],
        "pair_shape": [i64, i64, i64p, i64p, i32p, i64p, i64p],
        "pair_fill": [
            i64, i64, i64, i64, i64p, i64p, f64p, i64p, i32p, i64p, i32p,
            f32p, f64p,
        ],
    }
    for kernel, types in kernels.items():
        entry = getattr(library, f"repro_{kernel}")
        entry.restype = i64
        entry.argtypes = types
    for kernel, types in argtypes.items():
        for level in LEVELS:
            entry = getattr(library, f"repro_{kernel}_{level}")
            entry.restype = None
            entry.argtypes = types
    return library


def _load() -> Optional[ctypes.CDLL]:
    global _library, _load_attempted, _load_error, _simd_level
    if _load_attempted:
        return _library
    with _lock:
        if _load_attempted:
            return _library
        if os.environ.get(DISABLE_ENV_VAR, "").strip() == "1":
            _load_error = f"disabled via {DISABLE_ENV_VAR}=1"
            _load_attempted = True
            return None
        try:
            target = kernel_path()
            if not os.path.exists(target):
                _compile(target)
            _library = _bind(ctypes.CDLL(target))
            _simd_level = "avx512" if _library.repro_simd_level() else "scalar"
        except Exception as exc:  # gcc missing, unwritable cache, ...
            _load_error = f"{type(exc).__name__}: {exc}"
            _library = None
        _load_attempted = True
        return _library


def available() -> bool:
    """Whether the compiled kernels loaded (compiling them if needed)."""
    return _load() is not None


def load_error() -> Optional[str]:
    """Why the kernels are unavailable, or ``None`` when they loaded."""
    _load()
    return _load_error


def simd_level() -> str:
    """``"avx512"``, ``"scalar"``, or ``"none"`` (no native kernel)."""
    _load()
    return _simd_level


def _reset_for_tests() -> None:
    """Forget the loaded library so env overrides take effect (tests)."""
    global _library, _load_attempted, _load_error, _simd_level
    with _lock:
        _library = None
        _load_attempted = False
        _load_error = None
        _simd_level = "none"


def _native() -> ctypes.CDLL:
    library = _load()
    if library is None:
        raise RuntimeError(f"native kernel unavailable: {_load_error}")
    return library


def _entry(kernel: str, level: str):
    """The ``level`` build of ``kernel`` (the private SIMD binding).

    Production passes :func:`simd_level`; the tests also run the scalar
    loop on AVX-512 hosts.  Asking for AVX-512 on a CPU without it
    raises instead of faulting.
    """
    library = _native()
    if level not in LEVELS:
        raise ValueError(f"unknown SIMD level {level!r}")
    if level == "avx512" and _simd_level != "avx512":
        raise RuntimeError("this CPU has no AVX-512")
    return getattr(library, f"repro_{kernel}_{level}")


def _as_ptr(array: np.ndarray, ctype) -> "ctypes._Pointer":
    return array.ctypes.data_as(ctypes.POINTER(ctype))


class Sell8(NamedTuple):
    """A square CSR matrix in sliced-ELL layout, 8 rows per slice.

    Rows are sorted by length, descending (stable), and cut into
    slices of :data:`SLICE` rows, one row per lane.  Within slice ``s``
    entry ``k`` of lane ``l`` sits at ``ptr[s] + 8*k + l``; entries past
    a row's end are padding (column 0, value 0.0) that the kernel
    masks out.
    """

    #: Number of rows (and columns).
    n: int
    #: ``int64`` start of each slice in ``cols``/``vals``, plus the end.
    ptr: np.ndarray
    #: ``int32`` row length per lane, ``0`` on lanes past ``n``.
    lens: np.ndarray
    #: ``int32`` column index per stored entry.
    cols: np.ndarray
    #: ``float64`` value per stored entry.
    vals: np.ndarray
    #: ``int32`` original row of each lane (``0`` past ``n``).
    perm: np.ndarray

    @property
    def n_slices(self) -> int:
        return len(self.ptr) - 1


def _sell8_slots(
    indptr: np.ndarray, indices: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Where each CSR entry of a square matrix sits in sliced ELL.

    Returns ``(order, lens, ptr, slot)``: the rows sorted by length
    (descending, stable), the row length per lane (``0`` past ``n``),
    the start of each slice plus the end, and each entry's slot.
    """
    n = len(indptr) - 1
    nnz = int(indptr[-1])
    if nnz and (indices[:nnz].min() < 0 or indices[:nnz].max() >= n):
        raise ValueError(f"column index outside a square {n}x{n} matrix")
    lengths = np.diff(indptr)
    order = np.argsort(-lengths, kind="stable")
    n_slices = -(-n // SLICE)
    lens = np.zeros(n_slices * SLICE, dtype=np.int32)
    lens[:n] = lengths[order]
    ptr = np.zeros(n_slices + 1, dtype=np.int64)
    np.cumsum(lens[::SLICE].astype(np.int64) * SLICE, out=ptr[1:])
    # Sorted position of each entry's row, and the entry's rank in it.
    position = np.empty(n, dtype=np.int64)
    position[order] = np.arange(n)
    row = np.repeat(np.arange(n), lengths)
    rank = np.arange(nnz) - indptr[row]
    lane = position[row]
    slot = ptr[lane // SLICE] + rank * SLICE + lane % SLICE
    return order, lens, ptr, slot


def sell8_layout(indptr: np.ndarray, indices: np.ndarray, data: np.ndarray) -> Sell8:
    """Sliced-ELL copy of a square CSR matrix, for :func:`chain_f64`.

    Every row keeps its CSR index order, so each lane's sum runs in the
    order scipy's ``csr_matvec`` uses.
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    n = len(indptr) - 1
    nnz = int(indptr[-1])
    indices = np.asarray(indices)
    order, lens, ptr, slot = _sell8_slots(indptr, indices)
    cols = np.zeros(ptr[-1], dtype=np.int32)
    vals = np.zeros(ptr[-1], dtype=np.float64)
    cols[slot] = indices[:nnz]
    vals[slot] = np.asarray(data)[:nnz]
    perm = np.zeros(len(lens), dtype=np.int32)
    perm[:n] = order
    return Sell8(n, ptr, lens, cols, vals, perm)


def chain_f64(layout: Sell8, x0: np.ndarray, steps: int) -> np.ndarray:
    """``steps`` exact float64 matvecs ``x <- M x`` on a :func:`sell8_layout`.

    Bit-identical to the same number of scipy ``csr_matvec`` calls on
    the CSR matrix the layout was built from.
    """
    return _chain_f64(simd_level(), layout, x0, steps)


def _chain_f64(level: str, layout: Sell8, x0: np.ndarray, steps: int) -> np.ndarray:
    entry = _entry("chain_f64", level)
    if x0.shape != (layout.n,):
        raise ValueError(f"expected a vector of {layout.n} states, got {x0.shape}")
    if steps < 0:
        raise ValueError("steps must be non-negative")
    x = np.array(x0, dtype=np.float64, order="C")
    scratch = np.empty_like(x)
    entry(
        ctypes.c_int64(layout.n),
        ctypes.c_int64(layout.n_slices),
        ctypes.c_int64(int(steps)),
        _as_ptr(layout.ptr, ctypes.c_int64),
        _as_ptr(layout.lens, ctypes.c_int32),
        _as_ptr(layout.cols, ctypes.c_int32),
        _as_ptr(layout.vals, ctypes.c_double),
        _as_ptr(layout.perm, ctypes.c_int32),
        _as_ptr(x, ctypes.c_double),
        _as_ptr(scratch, ctypes.c_double),
    )
    return x


class PairSell8(NamedTuple):
    """Two square matrices on one pattern, for :func:`pair_chain_f32`.

    The sliced-ELL arrangement of :class:`Sell8` (rows sorted by length,
    slices of :data:`SLICE` rows, entry ``k`` of lane ``l`` of slice
    ``s`` at ``ptr[s] + 8*k + l``), with two changes.  Every row and
    column is renumbered by its sorted position, so the kernel writes
    each slice's sums contiguously and ``perm`` is applied once per
    chain, not once per step.  And every entry holds a ``(first,
    second)`` pair of ``float32`` values; a matrix that lacks an entry
    of the shared pattern stores ``0`` there.  Padding entries hold
    column 0 and values 0.
    """

    #: Number of rows (and columns).
    n: int
    #: ``int64`` start of each slice in ``cols``/``vals``, plus the end.
    ptr: np.ndarray
    #: ``int32`` sorted position of each stored entry's column.
    cols: np.ndarray
    #: ``float32`` ``(entries, 2)``: the two matrices' values.
    vals: np.ndarray
    #: ``int32`` original row at each sorted position (length ``n``).
    perm: np.ndarray

    @property
    def n_slices(self) -> int:
        return len(self.ptr) - 1

    @property
    def max_row_length(self) -> int:
        """Entries in the longest row (the first slice's width)."""
        return int(self.ptr[1] // SLICE) if self.n else 0


class PairChain:
    """Both chains of a :class:`PairSell8` layout, advanced in chunks.

    Holds the interleaved ``(full, excluded)`` float32 pairs in the
    layout's sorted row order, padded to whole slices, and the kernel's
    scratch; :func:`pair_chain_f32` advances them in place, so chunks of
    any length resume where the last one stopped and ``a`` steps then
    ``b`` steps are bit-identical to one run of ``a + b``.  Both chains
    start from ``x0`` rounded to float32, which must be finite.
    """

    def __init__(self, layout: PairSell8, x0: np.ndarray) -> None:
        n = layout.n
        if np.shape(x0) != (n,):
            raise ValueError(f"expected a vector of {n} states, got {np.shape(x0)}")
        # Padding lanes past n stay 0 (no column refers to them).
        state = np.zeros((layout.n_slices * SLICE, 2), dtype=np.float32)
        with np.errstate(over="ignore"):
            state[:n] = np.asarray(x0)[layout.perm, np.newaxis]
        if not np.isfinite(state).all():
            # An infinite x[0] would turn every padding entry's 0 * x[0]
            # into NaN; a NaN would be summed silently.
            raise ValueError("the initial vector must be finite in float32")
        self.layout = layout
        #: Steps run so far.
        self.steps = 0
        self._state = state
        # The sorted position of each original row (``perm`` inverted).
        self._position = np.empty(n, dtype=np.intp)
        self._position[layout.perm] = np.arange(n)
        self._scratch = np.empty_like(state)
        self._args = (
            ctypes.c_int64(layout.n_slices),
            _as_ptr(layout.ptr, ctypes.c_int64),
            _as_ptr(layout.cols, ctypes.c_int32),
            _as_ptr(layout.vals, ctypes.c_float),
            _as_ptr(state, ctypes.c_float),
            _as_ptr(self._scratch, ctypes.c_float),
        )

    @property
    def chains(self) -> np.ndarray:
        """The current ``(full, excluded)`` rows, ``(2, n)``, in sorted
        row order (a view)."""
        return self._state[: self.layout.n].T

    def unsorted(self, values: np.ndarray) -> np.ndarray:
        """``values`` indexed by sorted row position along the last axis,
        reordered to the original rows (a copy)."""
        return np.take(values, self._position, axis=-1)


def pair_chain_f32(chain: PairChain, steps: int) -> None:
    """Advance both chains by ``steps`` float32 matvecs ``x <- M x``.

    Sums run in float64 and are rounded to float32 once per step.
    """
    _pair_chain_f32(simd_level(), chain, steps)


def _pair_chain_f32(level: str, chain: PairChain, steps: int) -> None:
    entry = _entry("pair_chain_f32", level)
    if steps < 0:
        raise ValueError("steps must be non-negative")
    count, *pointers = chain._args
    entry(count, ctypes.c_int64(int(steps)), *pointers)
    chain.steps += int(steps)


def _scratch_failed(status: int, what: str) -> None:
    if status == -2:
        raise MemoryError(f"native {what} could not allocate its scratch")


def eviction_tables(
    states: np.ndarray,
    full_idx: np.ndarray,
    capacity: int,
    timeouts: Sequence[int],
    pmfs: Sequence[Tuple[np.ndarray, np.ndarray]],
) -> Tuple[np.ndarray, np.ndarray]:
    """Eviction splits of the at-capacity states (Eqns. 3-5).

    ``states`` are the model's state masks, ``full_idx`` the indices of
    those holding ``capacity`` rules, and ``pmfs[r]`` rule ``r``'s
    recency pmf rows as ``(unique_rows, inverse)``: state ``i``'s row is
    ``unique_rows[inverse[i]]``, of length ``timeouts[r]``.  Returns
    ``(rules, probs)``, both ``(len(full_idx), capacity)``: each state's
    cached rules ascending and the probability that each is evicted,
    byte-identical to :func:`repro.core.transition_build.recency_tables`
    without the kernel.
    """
    library = _native()
    i64 = ctypes.c_int64
    states = np.ascontiguousarray(states, dtype=np.int64)
    full_idx = np.ascontiguousarray(full_idx, dtype=np.int64)
    timeouts = np.ascontiguousarray(timeouts, dtype=np.int64)
    n_states, n_rules, n_full = states.size, timeouts.size, full_idx.size
    if len(pmfs) != n_rules or any(
        np.shape(rows)[1:] != (timeout,) or np.shape(inverse) != (n_states,)
        for (rows, inverse), timeout in zip(pmfs, timeouts)
    ):
        raise ValueError("expected one (rows, inverse) pmf table per rule")
    if n_full and (full_idx.min() < 0 or full_idx.max() >= n_states):
        raise ValueError("full_idx out of range")
    rules = np.empty((n_full, capacity), dtype=np.int64)
    probs = np.empty((n_full, capacity), dtype=np.float64)
    if n_full == 0:
        return rules, probs
    if (timeouts < 1).any() or states.min() < 0 or states.max() >> n_rules:
        raise ValueError("timeouts must be positive and states rule masks")
    sizes = [np.size(rows) for rows, _ in pmfs]
    table = np.concatenate(
        [np.asarray(rows, dtype=np.float64).ravel() for rows, _ in pmfs]
    )
    start = np.zeros(n_rules, dtype=np.int64)
    np.cumsum(sizes[:-1], out=start[1:])
    inverse = np.ascontiguousarray(
        np.stack([inverse for _, inverse in pmfs]), dtype=np.int64
    )
    if inverse.min() < 0 or (
        inverse.max(axis=1) >= np.array(sizes) // timeouts
    ).any():
        raise ValueError("pmf inverse indices out of range")
    status = library.repro_eviction_tables(
        i64(n_full), i64(capacity), i64(n_rules), i64(n_states),
        _as_ptr(states, i64), _as_ptr(full_idx, i64),
        _as_ptr(timeouts, i64), _as_ptr(table, ctypes.c_double),
        _as_ptr(start, i64), _as_ptr(inverse, i64),
        _as_ptr(rules, i64), _as_ptr(probs, ctypes.c_double),
    )
    if status == -1:
        raise ValueError("full_idx must name states holding capacity rules")
    _scratch_failed(status, "eviction tables")
    return rules, probs


class EscapedSuccessor(Exception):
    """A successor mask that is not in the state list (:attr:`mask`)."""

    def __init__(self, mask: int) -> None:
        super().__init__(f"successor mask {mask:#x} is not a state")
        self.mask = mask


def expiry_entries(
    states: np.ndarray,
    covering: Sequence[Sequence[int]],
    p_flows: np.ndarray,
    p_none: float,
    capacity: int,
    tables: Sequence[np.ndarray],
    lookup: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The compact model's transition entries, in stable (row, col) order.

    ``states`` are the state masks; ``covering[f]`` flow ``f``'s
    covering rules, highest priority first; ``p_flows`` and ``p_none``
    the per-step arrival probabilities; ``tables`` the recency tables
    ``(hazard, full_position, evict_rules, evict_probs)`` of
    :class:`repro.core.transition_build.RecencyTables`; and ``lookup``
    the dense ``mask -> state index`` table (-1: not a state).  Each
    row's arrival events are enumerated and expanded in one pass, so no
    event array is built.  Returns ``(rows, cols, probs, tags)``, every
    array byte-identical to the numpy builder's
    (:func:`repro.core.transition_build.build_entries` without the
    kernel).  A successor outside the state list raises
    :class:`EscapedSuccessor` with the first one in emission order.
    """
    library = _native()
    i64 = ctypes.c_int64
    hazard, full_position, evict_rules, evict_probs = (
        np.ascontiguousarray(array, dtype=dtype)
        for array, dtype in zip(
            tables, (np.float64, np.int64, np.int64, np.float64)
        )
    )
    states = np.ascontiguousarray(states, dtype=np.int64)
    p_flows = np.ascontiguousarray(p_flows, dtype=np.float64)
    lookup = np.ascontiguousarray(lookup, dtype=np.int64)
    n_states, n_rules = hazard.shape
    n_flows = len(covering)
    cover_ptr = np.zeros(n_flows + 1, dtype=np.int64)
    np.cumsum([len(rules) for rules in covering], out=cover_ptr[1:])
    cover_rules = np.fromiter(
        (rule for rules in covering for rule in rules), dtype=np.int64,
        count=int(cover_ptr[-1]),
    )
    if states.shape != (n_states,) or full_position.shape != (n_states,):
        raise ValueError("expected one state mask and full position per state")
    if lookup.shape != (1 << n_rules,) or lookup.max() >= n_states:
        raise ValueError("lookup must map every rule mask to -1 or a state")
    if p_flows.shape != (n_flows,) or (
        cover_rules.size and (cover_rules.min() < 0 or cover_rules.max() >= n_rules)
    ):
        raise ValueError("expected one arrival probability and cover per flow")
    n_full = evict_rules.shape[0]
    if evict_rules.shape != (n_full, capacity) or (
        evict_probs.shape != evict_rules.shape
    ):
        raise ValueError("eviction tables must be (full states, capacity)")
    if n_states and (
        states.min() < 0 or states.max() >= lookup.size
        or full_position.min() < -1 or full_position.max() >= n_full
    ):
        raise ValueError("states or full positions out of range")
    if evict_rules.size and (
        evict_rules.min() < 0 or evict_rules.max() >= n_rules
    ):
        raise ValueError("eviction victims out of range")
    model = _EntryModel(
        n_states, n_rules, n_flows, capacity,
        _as_ptr(states, i64), _as_ptr(cover_ptr, i64),
        _as_ptr(cover_rules, i64), _as_ptr(p_flows, ctypes.c_double),
        float(p_none), _as_ptr(hazard, ctypes.c_double),
        _as_ptr(full_position, i64), _as_ptr(evict_rules, i64),
        _as_ptr(evict_probs, ctypes.c_double), _as_ptr(lookup, i64),
    )
    longest_row = i64(0)
    total = library.repro_expiry_count(
        ctypes.byref(model), ctypes.byref(longest_row)
    )
    _check_entry_status(total)
    out = (
        np.empty(total, dtype=np.int64),
        np.empty(total, dtype=np.int64),
        np.empty(total, dtype=np.float64),
        np.empty(total, dtype=np.int64),
    )
    escaped = i64(0)
    written = library.repro_expiry_entries(
        ctypes.byref(model), longest_row,
        _as_ptr(out[0], i64), _as_ptr(out[1], i64),
        _as_ptr(out[2], ctypes.c_double), _as_ptr(out[3], i64),
        ctypes.byref(escaped),
    )
    if written == -1:
        raise EscapedSuccessor(escaped.value)
    _check_entry_status(written)
    if written < total:  # entries of probability 0 were dropped
        return (
            out[0][:written].copy(), out[1][:written].copy(),
            out[2][:written].copy(), out[3][:written].copy(),
        )
    return out


def _check_entry_status(status: int) -> None:
    _scratch_failed(status, "entry build")
    if status == -3:
        raise ValueError("a state at capacity has no eviction row")


def entry_pair_layout(
    rows: np.ndarray,
    cols: np.ndarray,
    probs: np.ndarray,
    tags: np.ndarray,
    target: int,
    n: int,
) -> Tuple[PairSell8, int, float]:
    """:class:`PairSell8` of a transposed chain and its target-excluded copy.

    ``(rows, cols, probs, tags)`` are an ``n``-state chain's entries in
    ``(row, col)`` order.  Each ``(row, col)`` run collapses to one
    entry, summed as ``np.add.reduceat`` sums it: over every entry for
    the first value, with ``target``'s entries zeroed for the second.
    Returns the layout of the transposed pattern, the longest run, and
    the largest row sum of the first matrix, each byte-identical to the
    numpy build in ``tests/oracles/pairlayout.py``.
    """
    library = _native()
    i64 = ctypes.c_int64
    rows, cols, tags = (
        np.ascontiguousarray(array, dtype=np.int64) for array in (rows, cols, tags)
    )
    probs = np.ascontiguousarray(probs, dtype=np.float64)
    n_entries = rows.size
    if any(array.shape != (n_entries,) for array in (cols, probs, tags)):
        raise ValueError("entry arrays differ in length")
    n_slices = -(-n // SLICE)
    perm = np.empty(n, dtype=np.int32)
    ptr = np.empty(n_slices + 1, dtype=np.int64)
    max_run = i64(0)
    stored = library.repro_pair_shape(
        i64(n_entries), i64(n), _as_ptr(rows, i64), _as_ptr(cols, i64),
        _as_ptr(perm, ctypes.c_int32), _as_ptr(ptr, i64),
        ctypes.byref(max_run),
    )
    if stored == -1:
        raise ValueError("entries out of range or not (row, col)-sorted")
    _scratch_failed(stored, "pair layout")
    layout_cols = np.zeros(stored, dtype=np.int32)
    vals = np.zeros((stored, 2), dtype=np.float32)
    row_sum = ctypes.c_double(0.0)
    status = library.repro_pair_fill(
        i64(n_entries), i64(n), i64(target), max_run,
        _as_ptr(rows, i64), _as_ptr(cols, i64),
        _as_ptr(probs, ctypes.c_double), _as_ptr(tags, i64),
        _as_ptr(perm, ctypes.c_int32), _as_ptr(ptr, i64),
        _as_ptr(layout_cols, ctypes.c_int32), _as_ptr(vals, ctypes.c_float),
        ctypes.byref(row_sum),
    )
    _scratch_failed(status, "pair layout")
    return (
        PairSell8(n, ptr, layout_cols, vals, perm), max_run.value,
        row_sum.value,
    )
