"""A small bounded memo: a dict that forgets its least recently used key.

Two per-process caches use it: the template networks of network-mode
trials (:func:`repro.experiments.trials._window_world`) and the service
pool's per-scenario compact models (:class:`repro.service.pool.
SessionPool`).  Both hold objects that are cheap to rebuild relative to
what they save and costly to keep without bound.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Generic, Hashable, Optional, TypeVar

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


class BoundedMemo(Generic[K, V]):
    """At most ``maxsize`` entries; storing one more evicts the least
    recently read or stored key."""

    def __init__(self, maxsize: int) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        self._entries: "OrderedDict[K, V]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: K) -> Optional[V]:
        """The value stored under ``key`` (now the most recent), or ``None``."""
        value = self._entries.get(key)
        if value is not None:
            self._entries.move_to_end(key)
        return value

    def __setitem__(self, key: K, value: V) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
