"""The runtime determinism sanitizer (``REPRO_SANITIZE=1`` / ``--sanitize``).

The static project rules (docs/STATIC_ANALYSIS.md) prove determinism
properties the AST can express; this module checks the two it cannot at
runtime, with zero cost when disabled:

* **frozen-buffer integrity** -- the cache accessors hand out shared
  read-only arrays (``evolution``, ``prefix_distribution``,
  ``dist_full``, the compact model's membership/coverage/CSR buffers).
  Registered arrays are checksummed (CRC32) when guarded and
  re-verified at every observability span boundary: a thawed
  ``writeable`` flag or a drifted checksum raises
  :class:`DeterminismError` at the first boundary after the corruption,
  instead of as a wrong number three experiments later.
* **seed provenance** -- while the sanitizer is active,
  ``np.random.default_rng()`` *without* a seed raises immediately (an
  OS-entropy draw makes the whole run unreproducible), and registered
  generators have their bit-generator state hashed at each boundary, so
  two runs of the same seed can be diffed span-by-span via
  :func:`report`.

Activation is explicit: the CLI's ``--sanitize`` flag or the
``REPRO_SANITIZE=1`` environment variable wraps the command in
:func:`sanitized`.  Every hook in library code is gated on
:func:`is_active` -- a single module-global read -- so the disabled
path stays off the profile (pinned by
``benchmarks/test_bench_obs_overhead.py``).
"""

from __future__ import annotations

import json
import os
import zlib
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np


class DeterminismError(AssertionError):
    """A determinism contract was broken at runtime."""


def _array_crc(array: np.ndarray) -> int:
    return zlib.crc32(np.ascontiguousarray(array).tobytes())


def _rng_state_hash(generator: np.random.Generator) -> int:
    state = generator.bit_generator.state
    payload = json.dumps(state, sort_keys=True, default=str)
    return zlib.crc32(payload.encode("utf-8"))


class Sanitizer:
    """One activation's guards, checkpoints, and findings."""

    def __init__(self) -> None:
        #: name -> (array, checksum at guard time).
        self._arrays: Dict[str, Tuple[np.ndarray, int]] = {}
        #: name -> generator (state hashed at each checkpoint).
        self._rngs: Dict[str, np.random.Generator] = {}
        #: Ordered boundary records: label + per-generator state hashes.
        self.checkpoints: List[Dict[str, Any]] = []

    # -- registration --------------------------------------------------
    def guard_array(self, name: str, array: np.ndarray) -> None:
        """Register a frozen cache array (idempotent per name+object)."""
        known = self._arrays.get(name)
        if known is not None and known[0] is array:
            return
        if array.flags.writeable:
            raise DeterminismError(
                f"cache array '{name}' registered with the sanitizer is "
                "writeable; freeze it with setflags(write=False) before "
                "sharing"
            )
        self._arrays[name] = (array, _array_crc(array))

    def guard_rng(self, name: str, generator: np.random.Generator) -> None:
        """Register a generator whose state is hashed at boundaries."""
        self._rngs[name] = generator

    # -- verification --------------------------------------------------
    def verify_arrays(self, label: str) -> None:
        for name, (array, checksum) in sorted(self._arrays.items()):
            if array.flags.writeable:
                raise DeterminismError(
                    f"at '{label}': cache array '{name}' was thawed "
                    "(writeable flag re-enabled); some caller is "
                    "preparing to mutate shared cache state"
                )
            current = _array_crc(array)
            if current != checksum:
                raise DeterminismError(
                    f"at '{label}': cache array '{name}' changed "
                    f"underneath its checksum ({checksum:#010x} -> "
                    f"{current:#010x}); a shared frozen buffer was "
                    "mutated"
                )

    def checkpoint(self, label: str) -> None:
        """Verify every guard and record generator states at ``label``."""
        self.verify_arrays(label)
        self.checkpoints.append(
            {
                "label": label,
                "rng_state": {
                    name: _rng_state_hash(generator)
                    for name, generator in sorted(self._rngs.items())
                },
            }
        )

    def report(self) -> Dict[str, Any]:
        """The activation's summary (diffable across same-seed runs)."""
        return {
            "guarded_arrays": sorted(self._arrays),
            "guarded_rngs": sorted(self._rngs),
            "checkpoints": list(self.checkpoints),
        }


#: The active sanitizer, or ``None`` -- the one global every hook reads.
_ACTIVE: Optional[Sanitizer] = None


def is_active() -> bool:
    """Whether a sanitizer is installed (the cheap gate for hooks)."""
    return _ACTIVE is not None


def guard_array(name: str, array: np.ndarray) -> None:
    """Register ``array`` when the sanitizer is active; no-op otherwise."""
    if _ACTIVE is not None:
        _ACTIVE.guard_array(name, array)


def guard_rng(name: str, generator: np.random.Generator) -> None:
    """Register ``generator`` when active; no-op otherwise."""
    if _ACTIVE is not None:
        _ACTIVE.guard_rng(name, generator)


def checkpoint(label: str) -> None:
    """Run a boundary check when active; no-op otherwise."""
    if _ACTIVE is not None:
        _ACTIVE.checkpoint(label)


def enabled_by_env() -> bool:
    """Whether ``REPRO_SANITIZE`` requests activation."""
    return os.environ.get("REPRO_SANITIZE", "").strip().lower() in (
        "1",
        "true",
        "yes",
        "on",
    )


@contextmanager
def sanitized() -> Iterator[Sanitizer]:
    """Activate the sanitizer for a ``with`` block.

    Installs the module-global sanitizer, patches
    ``np.random.default_rng`` to reject unseeded construction, runs a
    final verification pass on exit, and always restores both.  Nested
    activations reuse the outer sanitizer.
    """
    global _ACTIVE
    if _ACTIVE is not None:
        yield _ACTIVE
        return
    sanitizer = Sanitizer()
    real_default_rng = np.random.default_rng

    def checked_default_rng(seed: Any = None) -> np.random.Generator:
        if seed is None:
            raise DeterminismError(
                "np.random.default_rng() called without a seed while the "
                "determinism sanitizer is active; an OS-entropy stream "
                "makes the run unreproducible -- thread the run seed down "
                "(see DETERMINISM.md)"
            )
        return real_default_rng(seed)

    _ACTIVE = sanitizer
    np.random.default_rng = checked_default_rng  # type: ignore[assignment]
    try:
        yield sanitizer
        sanitizer.checkpoint("sanitize.exit")
    finally:
        np.random.default_rng = real_default_rng  # type: ignore[assignment]
        _ACTIVE = None
