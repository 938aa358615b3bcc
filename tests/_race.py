"""Test-only helpers that widen thread races so a dropped lock shows.

Under the GIL a plain ``self.stats.hits += 1`` has no switch point between
its read and its write, so removing a store's lock rarely loses an update
and a stress test that only checks ``requests == hits + misses`` keeps
passing.  These helpers put a ~1 µs sleep, which releases the GIL, inside
the read-modify-write windows of the library's stores:

* :class:`SlowKey` — a key whose ``__hash__`` sleeps, so every dict probe
  of a store operation can hand the interpreter to another thread;
* :class:`SlowTag` — the same for a ``str`` kind tag (artifact keys);
* :func:`yielding_counters` — a stats subclass whose counters sleep after
  being read, i.e. between a ``+=``'s read and its write;
* :func:`run_racing` — barrier-started worker threads under a 1 µs switch
  interval (restored in ``finally``), joined with timeouts.
"""

from __future__ import annotations

import sys
import threading
import time

#: Sleep that releases the GIL inside a race window.
YIELD_S = 1e-6


class SlowKey:
    """A hashable wrapper whose ``__hash__`` yields the interpreter."""

    __slots__ = ("value",)

    def __init__(self, value) -> None:
        self.value = value

    def __hash__(self) -> int:
        time.sleep(YIELD_S)
        return hash(self.value)

    def __eq__(self, other) -> bool:
        return isinstance(other, SlowKey) and self.value == other.value


class SlowTag(str):
    """A ``str`` kind tag whose ``__hash__`` yields the interpreter."""

    def __hash__(self) -> int:
        time.sleep(YIELD_S)
        return str.__hash__(self)


def yielding_counters(stats_cls, *names):
    """A subclass of ``stats_cls`` whose ``names`` attributes yield after being read."""

    class YieldingStats(stats_cls):
        def __getattribute__(self, name):
            value = object.__getattribute__(self, name)
            if name in names:
                time.sleep(YIELD_S)
            return value

    return YieldingStats


def run_racing(target, workers: int, timeout: float = 60.0) -> list:
    """Run ``target(worker_index)`` on ``workers`` barrier-started threads.

    Returns the exceptions the workers raised; asserts every thread joined.
    """
    start = threading.Barrier(workers, timeout=timeout)
    errors: list = []

    def body(index):
        try:
            start.wait()
            target(index)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=body, args=(index,)) for index in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=timeout)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    return errors
