"""Optional native (C) kernels for chain powering.

Every reconnaissance chain is ``steps`` sparse matvecs against the
transposed transition matrix.  scipy runs one ``csr_matvec`` per step
from a Python loop, and each row sum is one dependency chain, so the
loop is latency-bound, not bandwidth-bound (the matrices fit in L2).
This module holds two small C kernels, compiled on demand with the
system ``gcc``, that run a whole chain in one call:

* :func:`pair_chain_f32` -- *approximate*: powers the full and the
  target-excluded chain together in ``float32`` with ``uint16`` column
  indices, two 16-lane gather+FMA streams in flight (~2.2x over scipy).
  It is only ever used behind the certified screen
  (:mod:`repro.experiments.fastscreen`), which falls back to the exact
  float64 path whenever the float32 error bounds cannot certify a
  verdict.
* :func:`chain_f64` -- *exact*: the float64 chain behind
  :class:`~repro.core.chain.TransitionOperator`, bit-identical to
  scipy's ``csr_matvec`` loop by construction.  It runs on a sliced-ELL
  layout (:func:`sell8_layout`): rows sorted by length, slices of 8 rows
  with one row per lane, so uneven row lengths cost little padding.
  Each lane sums its own row in CSR index order as ``s = s + d*x`` -- a
  rounded multiply, then a rounded add, exactly scipy's order.  Lanes
  past their row's end are masked out of the add, so padding never
  enters a sum (not even as ``0 * inf``).  The source is compiled with
  ``-ffp-contract=off`` so the compiler cannot fuse the multiply and
  the add into an FMA, which would round once instead of twice.

Each kernel has a portable scalar loop and an AVX-512 loop, exported as
separate symbols; :func:`simd_level` picks one per process from
``__builtin_cpu_supports``.  (The f32 AVX-512 loop uses explicit FMA
intrinsics; its scalar loop is built for the baseline target, which has
no FMA.)

When ``gcc`` (or a writable cache directory) is unavailable, or
``REPRO_NO_CKERNEL=1`` is set, the module degrades to
``available() == False``: the screen runs exact-only and the chains run
on the scipy loop -- behaviour stays correct, only slower.

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
#: when they would compile (the screen runs exact-only and the chains
#: run on scipy; used by the differential tests to exercise the
#: fallbacks).
DISABLE_ENV_VAR = "REPRO_NO_CKERNEL"

#: uint16 column indices bound the state-space size the f32 kernel accepts.
MAX_STATES = 65536

#: Rows per slice of the float64 kernel's sliced-ELL layout (one per
#: AVX-512 double lane).
SLICE = 8

#: The compiler command line, less the source and output paths.  It is
#: part of the cache key.
COMPILE_ARGV: Tuple[str, ...] = (
    "gcc", "-O3", "-ffp-contract=off", "-shared", "-fPIC",
)

#: SIMD builds of each kernel entry point (``repro_<kernel>_<level>``).
LEVELS = ("scalar", "avx512")

_SOURCE = r"""
#include <stdint.h>
#include <string.h>
#include <immintrin.h>

#define AVX512 __attribute__((target("avx512f,avx512bw,avx512vl")))

/* ---- float32 pair chain (approximate; the screening pre-pass) ---- */

typedef void (*matvec_f32_fn)(int64_t, const int32_t *, const uint16_t *,
                              const float *, const float *, float *);

/* Portable scalar inner matvec: f32 data, u16 column indices, four
   accumulators to break the dependency chain. */
static void matvec_f32_scalar(int64_t n, const int32_t *indptr,
                              const uint16_t *indices, const float *data,
                              const float *x, float *y) {
    for (int64_t i = 0; i < n; i++) {
        int32_t lo = indptr[i], hi = indptr[i + 1];
        float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
        int32_t jj = lo;
        for (; jj + 4 <= hi; jj += 4) {
            s0 += data[jj] * x[indices[jj]];
            s1 += data[jj + 1] * x[indices[jj + 1]];
            s2 += data[jj + 2] * x[indices[jj + 2]];
            s3 += data[jj + 3] * x[indices[jj + 3]];
        }
        for (; jj < hi; jj++)
            s0 += data[jj] * x[indices[jj]];
        y[i] = (s0 + s1) + (s2 + s3);
    }
}

/* AVX-512 inner matvec: two 16-lane gather+FMA streams in flight. */
AVX512
static void matvec_f32_avx512(int64_t n, const int32_t *indptr,
                              const uint16_t *indices, const float *data,
                              const float *x, float *y) {
    const __m512 vz = _mm512_setzero_ps();
    for (int64_t i = 0; i < n; i++) {
        int32_t lo = indptr[i], hi = indptr[i + 1];
        __m512 acc0 = vz, acc1 = vz;
        int32_t jj = lo;
        for (; jj + 32 <= hi; jj += 32) {
            __m512i idx0 = _mm512_cvtepu16_epi32(
                _mm256_loadu_si256((const __m256i *)(indices + jj)));
            __m512i idx1 = _mm512_cvtepu16_epi32(
                _mm256_loadu_si256((const __m256i *)(indices + jj + 16)));
            __m512 xv0 = _mm512_i32gather_ps(idx0, x, 4);
            __m512 xv1 = _mm512_i32gather_ps(idx1, x, 4);
            acc0 = _mm512_fmadd_ps(_mm512_loadu_ps(data + jj), xv0, acc0);
            acc1 = _mm512_fmadd_ps(_mm512_loadu_ps(data + jj + 16), xv1, acc1);
        }
        for (; jj + 16 <= hi; jj += 16) {
            __m512i idx = _mm512_cvtepu16_epi32(
                _mm256_loadu_si256((const __m256i *)(indices + jj)));
            __m512 xv = _mm512_i32gather_ps(idx, x, 4);
            acc0 = _mm512_fmadd_ps(_mm512_loadu_ps(data + jj), xv, acc0);
        }
        int32_t rem = hi - jj;
        if (rem) {
            __mmask16 m = (__mmask16)((1u << rem) - 1u);
            __m512i idx = _mm512_cvtepu16_epi32(
                _mm256_maskz_loadu_epi16(m, (const void *)(indices + jj)));
            __m512 d = _mm512_maskz_loadu_ps(m, data + jj);
            __m512 xv = _mm512_mask_i32gather_ps(vz, m, idx, x, 4);
            acc0 = _mm512_fmadd_ps(d, xv, acc0);
        }
        y[i] = _mm512_reduce_add_ps(_mm512_add_ps(acc0, acc1));
    }
}

/* Power two chains (full / target-excluded) for `steps` steps.  x1/x2
   hold the initial distributions on entry and the final ones on
   return; t1/t2 are caller-provided scratch. */
static void pair_chain_f32(matvec_f32_fn matvec, int64_t n, int64_t steps,
                           const int32_t *aptr, const uint16_t *aidx,
                           const float *adata,
                           const int32_t *bptr, const uint16_t *bidx,
                           const float *bdata,
                           float *x1, float *x2, float *t1, float *t2) {
    for (int64_t s = 0; s < steps; s++) {
        matvec(n, aptr, aidx, adata, x1, t1);
        matvec(n, bptr, bidx, bdata, x2, t2);
        float *tmp;
        tmp = x1; x1 = t1; t1 = tmp;
        tmp = x2; x2 = t2; t2 = tmp;
    }
    if (steps & 1) {  /* results sit in the caller's scratch: copy back */
        memcpy(t1, x1, (size_t)n * sizeof(float));
        memcpy(t2, x2, (size_t)n * sizeof(float));
    }
}

#define PAIR_CHAIN_F32_ARGS                                              \
    int64_t n, int64_t steps,                                            \
    const int32_t *aptr, const uint16_t *aidx, const float *adata,       \
    const int32_t *bptr, const uint16_t *bidx, const float *bdata,       \
    float *x1, float *x2, float *t1, float *t2
#define PAIR_CHAIN_F32_PASS                                              \
    n, steps, aptr, aidx, adata, bptr, bidx, bdata, x1, x2, t1, t2

void repro_pair_chain_f32_scalar(PAIR_CHAIN_F32_ARGS) {
    pair_chain_f32(matvec_f32_scalar, PAIR_CHAIN_F32_PASS);
}

void repro_pair_chain_f32_avx512(PAIR_CHAIN_F32_ARGS) {
    pair_chain_f32(matvec_f32_avx512, PAIR_CHAIN_F32_PASS);
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


def _bind(library: ctypes.CDLL) -> ctypes.CDLL:
    i32p = ctypes.POINTER(ctypes.c_int32)
    i64p = ctypes.POINTER(ctypes.c_int64)
    u16p = ctypes.POINTER(ctypes.c_uint16)
    f32p = ctypes.POINTER(ctypes.c_float)
    f64p = ctypes.POINTER(ctypes.c_double)
    i64 = ctypes.c_int64
    argtypes = {
        "pair_chain_f32": [
            i64, i64, i32p, u16p, f32p, i32p, u16p, f32p,
            f32p, f32p, f32p, f32p,
        ],
        "chain_f64": [
            i64, i64, i64, i64p, i32p, i32p, f64p, i32p, f64p, f64p,
        ],
    }
    library.repro_simd_level.restype = ctypes.c_int
    library.repro_simd_level.argtypes = []
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


def _entry(kernel: str, level: str):
    """The ``level`` build of ``kernel`` (the private SIMD binding).

    Production passes :func:`simd_level`; the tests also run the scalar
    loop on AVX-512 hosts.  Asking for AVX-512 on a CPU without it
    raises instead of faulting.
    """
    library = _load()
    if library is None:
        raise RuntimeError(f"native kernel unavailable: {_load_error}")
    if level not in LEVELS:
        raise ValueError(f"unknown SIMD level {level!r}")
    if level == "avx512" and _simd_level != "avx512":
        raise RuntimeError("this CPU has no AVX-512")
    return getattr(library, f"repro_{kernel}_{level}")


def _as_ptr(array: np.ndarray, ctype) -> "ctypes._Pointer":
    return array.ctypes.data_as(ctypes.POINTER(ctype))


def pair_chain_f32(
    indptr_a: np.ndarray,
    indices_a: np.ndarray,
    data_a: np.ndarray,
    indptr_b: np.ndarray,
    indices_b: np.ndarray,
    data_b: np.ndarray,
    x0: np.ndarray,
    steps: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Power two float32 chains ``steps`` times; returns the final pair.

    The matrices arrive pre-transposed in CSR pieces (``int32`` indptr,
    ``uint16`` indices, ``float32`` data) so ``y = M x`` walks rows of
    the transposed operator -- the same orientation scipy's reference
    chains use.  ``x0`` is the shared float32 initial distribution.
    """
    return _pair_chain_f32(
        simd_level(),
        indptr_a, indices_a, data_a, indptr_b, indices_b, data_b, x0, steps,
    )


def _pair_chain_f32(
    level: str,
    indptr_a: np.ndarray,
    indices_a: np.ndarray,
    data_a: np.ndarray,
    indptr_b: np.ndarray,
    indices_b: np.ndarray,
    data_b: np.ndarray,
    x0: np.ndarray,
    steps: int,
) -> Tuple[np.ndarray, np.ndarray]:
    entry = _entry("pair_chain_f32", level)
    n = x0.shape[0]
    if n > MAX_STATES:
        raise ValueError(f"state space too large for uint16 indices: {n}")
    x1 = np.ascontiguousarray(x0, dtype=np.float32).copy()
    x2 = x1.copy()
    t1 = np.empty_like(x1)
    t2 = np.empty_like(x2)
    entry(
        ctypes.c_int64(n),
        ctypes.c_int64(int(steps)),
        _as_ptr(indptr_a, ctypes.c_int32),
        _as_ptr(indices_a, ctypes.c_uint16),
        _as_ptr(data_a, ctypes.c_float),
        _as_ptr(indptr_b, ctypes.c_int32),
        _as_ptr(indices_b, ctypes.c_uint16),
        _as_ptr(data_b, ctypes.c_float),
        _as_ptr(x1, ctypes.c_float),
        _as_ptr(x2, ctypes.c_float),
        _as_ptr(t1, ctypes.c_float),
        _as_ptr(t2, ctypes.c_float),
    )
    return x1, x2


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


def sell8_layout(indptr: np.ndarray, indices: np.ndarray, data: np.ndarray) -> Sell8:
    """Sliced-ELL copy of a square CSR matrix, for :func:`chain_f64`.

    Every row keeps its CSR index order, so each lane's sum runs in the
    order scipy's ``csr_matvec`` uses.
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    n = len(indptr) - 1
    nnz = int(indptr[-1])
    indices = np.asarray(indices)[:nnz]
    if nnz and (indices.min() < 0 or indices.max() >= n):
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
    cols = np.zeros(ptr[-1], dtype=np.int32)
    vals = np.zeros(ptr[-1], dtype=np.float64)
    cols[slot] = indices
    vals[slot] = np.asarray(data)[:nnz]
    perm = np.zeros(n_slices * SLICE, dtype=np.int32)
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
