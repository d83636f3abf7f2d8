"""Optional native (C) kernel for the float32 screening pre-pass.

The certified candidate screen (:mod:`repro.experiments.fastscreen`) spends
nearly all of its time powering two transition chains per candidate --
``window_steps`` sparse matvecs against the full and target-excluded
matrices.  scipy's float64 matvec is the exact reference; profiling
showed the float32 screen gets no speedup from scipy (the matrices fit
in L2, so the loop is core-bound on scalar index gathers, not
memory-bound), which is why this module exists: a small C kernel,
compiled on demand with the system ``gcc``, that fuses the whole
``steps``-long pair of chains into one call using

* ``float32`` data with ``uint16`` column indices (halves the per-entry
  footprint and decode cost; transition spaces here are far below the
  65536-state limit), and
* an AVX-512 inner loop with two 16-lane gather+FMA streams in flight
  (~2.2x over scipy on the headline workload), guarded by
  ``__builtin_cpu_supports`` with a portable unrolled-scalar fallback
  selected at runtime.

The kernel is *approximate by construction* (float32); it is only ever
used behind the certified screen, which falls back to the exact float64
path whenever the float32 error bounds cannot certify a verdict.  When
``gcc`` (or a writable cache directory) is unavailable the module
degrades to ``available() == False`` and the screen runs exact-only --
behaviour stays correct, only slower.

Shared objects are cached under :func:`cache_dir` keyed by a digest of
the C source and compiler, so the one-time compile (~1 s) is paid per
machine, not per run.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
import threading
from typing import Optional, Tuple

import numpy as np

#: Environment override for the shared-object cache directory.
CACHE_ENV_VAR = "REPRO_CKERNEL_CACHE"

#: Environment kill switch: set to "1" to refuse the native kernel even
#: when it would compile (forces the exact screening path; used by the
#: differential tests to exercise the fallback).
DISABLE_ENV_VAR = "REPRO_NO_CKERNEL"

#: uint16 column indices bound the state-space size the kernel accepts.
MAX_STATES = 65536

_SOURCE = r"""
#include <stdint.h>
#include <string.h>
#include <immintrin.h>

/* Portable scalar inner matvec: f32 data, u16 column indices, four
   accumulators to break the dependency chain. */
static void matvec_scalar(int64_t n, const int32_t *indptr,
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
__attribute__((target("avx512f,avx512bw,avx512vl")))
static void matvec_avx512(int64_t n, const int32_t *indptr,
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

static int avx512_supported(void) {
    static int cached = -1;
    if (cached < 0) {
        __builtin_cpu_init();
        cached = __builtin_cpu_supports("avx512f")
                 && __builtin_cpu_supports("avx512bw")
                 && __builtin_cpu_supports("avx512vl");
    }
    return cached;
}

int repro_simd_level(void) { return avx512_supported() ? 1 : 0; }

/* The fused entry point: power two chains (full / target-excluded)
   for `steps` steps.  x1/x2 hold the initial distributions on entry
   and the final ones on return; t1/t2 are caller-provided scratch. */
void repro_pair_chain_f32(int64_t n, int64_t steps,
                          const int32_t *aptr, const uint16_t *aidx,
                          const float *adata,
                          const int32_t *bptr, const uint16_t *bidx,
                          const float *bdata,
                          float *x1, float *x2, float *t1, float *t2) {
    void (*matvec)(int64_t, const int32_t *, const uint16_t *,
                   const float *, const float *, float *) =
        avx512_supported() ? matvec_avx512 : matvec_scalar;
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
"""

_lock = threading.Lock()
_library: Optional[ctypes.CDLL] = None
_load_attempted = False
_load_error: Optional[str] = None


def cache_dir() -> str:
    """Directory holding compiled kernels (override: ``REPRO_CKERNEL_CACHE``)."""
    override = os.environ.get(CACHE_ENV_VAR, "").strip()
    if override:
        return override
    return os.path.join(
        tempfile.gettempdir(), f"repro-ckernels-{os.getuid()}"
    )


def _source_digest() -> str:
    return hashlib.sha256(_SOURCE.encode("utf-8")).hexdigest()[:16]


def _compile(target: str) -> None:
    """Compile the kernel to ``target`` (atomic rename, race-safe)."""
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
            ["gcc", "-O3", "-shared", "-fPIC", source_path, "-o", object_path],
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
    u16p = ctypes.POINTER(ctypes.c_uint16)
    f32p = ctypes.POINTER(ctypes.c_float)
    library.repro_simd_level.restype = ctypes.c_int
    library.repro_simd_level.argtypes = []
    library.repro_pair_chain_f32.restype = None
    library.repro_pair_chain_f32.argtypes = [
        ctypes.c_int64, ctypes.c_int64,
        i32p, u16p, f32p,
        i32p, u16p, f32p,
        f32p, f32p, f32p, f32p,
    ]
    return library


def _load() -> Optional[ctypes.CDLL]:
    global _library, _load_attempted, _load_error
    if _load_attempted:
        return _library
    with _lock:
        if _load_attempted:
            return _library
        if os.environ.get(DISABLE_ENV_VAR, "").strip() == "1":
            _load_error = f"disabled via {DISABLE_ENV_VAR}=1"
            _load_attempted = True
            return None
        target = os.path.join(
            cache_dir(), f"screenkernel-{_source_digest()}.so"
        )
        try:
            if not os.path.exists(target):
                _compile(target)
            _library = _bind(ctypes.CDLL(target))
        except Exception as exc:  # gcc missing, unwritable cache, ...
            _load_error = f"{type(exc).__name__}: {exc}"
            _library = None
        _load_attempted = True
        return _library


def available() -> bool:
    """Whether the compiled kernel loaded (compiling it if needed)."""
    return _load() is not None


def load_error() -> Optional[str]:
    """Why the kernel is unavailable, or ``None`` when it loaded."""
    _load()
    return _load_error


def simd_level() -> str:
    """``"avx512"``, ``"scalar"``, or ``"none"`` (no native kernel)."""
    library = _load()
    if library is None:
        return "none"
    return "avx512" if library.repro_simd_level() else "scalar"


def _reset_for_tests() -> None:
    """Forget the loaded library so env overrides take effect (tests)."""
    global _library, _load_attempted, _load_error
    with _lock:
        _library = None
        _load_attempted = False
        _load_error = None


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
    library = _load()
    if library is None:
        raise RuntimeError(f"native kernel unavailable: {_load_error}")
    n = x0.shape[0]
    if n > MAX_STATES:
        raise ValueError(f"state space too large for uint16 indices: {n}")
    x1 = np.ascontiguousarray(x0, dtype=np.float32).copy()
    x2 = x1.copy()
    t1 = np.empty_like(x1)
    t2 = np.empty_like(x2)
    library.repro_pair_chain_f32(
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
