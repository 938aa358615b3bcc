"""A lock-protected ordered map with optional LRU eviction.

Shared machinery of the library's two content-keyed stores — the render
cache (:class:`repro.render.cache.RenderCache`, which memoises images) and
the artifact store (:class:`repro.exec.artifacts.ArtifactStore`, which
memoises profile curves and baked models).  Both wrap this class and layer
their own hit/miss statistics on top; compound operations take
:attr:`lock` (re-entrant) so a wrapper can make "look up + count" atomic.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

#: Sentinel distinguishing "stored None" from "absent" in :meth:`LockedLRU.get`.
MISS = object()


class LockedLRU:
    """An ordered ``key -> value`` map, thread-safe, optionally bounded.

    Args:
        max_entries: optional bound on the number of entries; the least
            recently used entry is evicted beyond it.  ``None`` = unbounded.
    """

    def __init__(self, max_entries: "int | None" = None) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be positive (or None)")
        self.max_entries = max_entries
        self.lock = threading.RLock()
        self._store: OrderedDict = OrderedDict()

    def __len__(self) -> int:
        with self.lock:
            return len(self._store)

    def __contains__(self, key) -> bool:
        with self.lock:
            return key in self._store

    def get(self, key, default=MISS):
        """Value for ``key`` (refreshing its LRU position), else ``default``."""
        with self.lock:
            if key in self._store:
                self._store.move_to_end(key)
                return self._store[key]
            return default

    def put(self, key, value) -> bool:
        """Store ``value`` under ``key``; returns whether an entry was evicted."""
        with self.lock:
            self._store[key] = value
            self._store.move_to_end(key)
            if self.max_entries is not None and len(self._store) > self.max_entries:
                self._store.popitem(last=False)
                return True
            return False

    def remove_where(self, predicate) -> int:
        """Drop every entry whose key satisfies ``predicate``; returns the count."""
        with self.lock:
            doomed = [key for key in self._store if predicate(key)]
            for key in doomed:
                del self._store[key]
            return len(doomed)

    def clear(self) -> int:
        """Drop every entry; returns how many were stored."""
        with self.lock:
            dropped = len(self._store)
            self._store.clear()
            return dropped
