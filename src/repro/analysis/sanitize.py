"""The runtime concurrency sanitizer (``REPRO_SANITIZE=1``).

The static pass (:mod:`repro.analysis.callgraph`) proves what *can*
happen; this module watches what *does*.  When ``REPRO_SANITIZE`` is set
at import time, the library's own locks — ``LockedLRU``, the transport
lifecycle lock, the stage-timer lock — are constructed through the
:func:`make_lock`/:func:`make_rlock` seams and wrapped so every
acquisition is recorded against the acquiring thread:

* **Lock-order graph.**  Acquiring B while holding A adds the edge
  ``A -> B``; a cycle in that graph is a potential deadlock (two threads
  interleaving the opposite orders), reported even if this run happened
  not to interleave them.
* **Map boundaries.**  ``Backend.map`` / ``WorkerHost.run`` mark a
  boundary; entering one while holding a sanitized lock — or acquiring a
  new lock inside one while still holding a pre-boundary lock — is
  reported: the map blocks on worker completion, so any worker that
  needs the held lock deadlocks.
* **Global-state mutation.**  The same mutators rule ``REP-G501`` flags
  statically (``warnings.simplefilter``/``filterwarnings`` with a
  non-``"ignore"`` action, ``random.seed``, ``np.seterr``,
  ``os.putenv`` — which ``os.environ[...] =`` routes through) are
  patched; a mutation while more than one sanitized task is in flight is
  the PR 8 ``QualityModel`` race class, reported with the mutator and
  thread names.

Findings accumulate in a machine-readable report
(:func:`sanitize_report`); when ``REPRO_SANITIZE_REPORT`` names a path,
the report is written there as JSON at interpreter exit — CI's
``sanitize`` leg runs the whole unit tier under the sanitizer and fails
on any finding.  Tests exercise private :class:`Sanitizer` instances so
deliberate findings never leak into the global report.

Everything here is observability: wrapped locks delegate to real
``threading`` locks, spans are no-ops when the sanitizer is off, and no
recorded fact ever feeds a golden artefact.
"""

from __future__ import annotations

import atexit
import json
import os
import threading
import warnings
from dataclasses import dataclass, field

from repro.config import env as repro_env


@dataclass
class _ThreadState:
    """Per-thread sanitizer state (lives in a ``threading.local``)."""

    #: keys of sanitized locks currently held, in acquisition order
    held: list = field(default_factory=list)
    #: ``len(held)`` snapshots at each open map boundary, innermost last
    boundaries: list = field(default_factory=list)
    #: nesting depth of task spans on this thread
    spans: int = 0


class SanitizedLock:
    """A recording wrapper around a real ``threading`` lock.

    Supports the context-manager protocol plus ``acquire``/``release``
    with the underlying signatures; re-entrant acquisition (RLock) is
    tracked but adds no self-edges.
    """

    def __init__(self, sanitizer: "Sanitizer", lock, name: str, key: int):
        self._sanitizer = sanitizer
        self._lock = lock
        self.name = name
        self.key = key

    def acquire(self, *args, **kwargs) -> bool:
        acquired = self._lock.acquire(*args, **kwargs)
        if acquired:
            self._sanitizer._note_acquire(self)
        return acquired

    def release(self) -> None:
        self._sanitizer._note_release(self)
        self._lock.release()

    def locked(self) -> bool:  # pragma: no cover - parity shim
        probe = getattr(self._lock, "locked", None)
        return probe() if probe is not None else False

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc) -> bool:
        self.release()
        return False


class _Span:
    """One task span: counts the thread as in flight while open."""

    def __init__(self, sanitizer: "Sanitizer"):
        self._sanitizer = sanitizer

    def __enter__(self):
        self._sanitizer._enter_span()
        return self

    def __exit__(self, *exc) -> bool:
        self._sanitizer._exit_span()
        return False


class _Boundary:
    """One ``Backend.map``-shaped boundary on the entering thread."""

    def __init__(self, sanitizer: "Sanitizer", label: str):
        self._sanitizer = sanitizer
        self.label = label

    def __enter__(self):
        self._sanitizer._enter_boundary(self.label)
        return self

    def __exit__(self, *exc) -> bool:
        self._sanitizer._exit_boundary()
        return False


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class Sanitizer:
    """One independent sanitizer: lock graph, spans, watchers, findings.

    The process-wide instance lives behind :func:`install`; tests build
    private instances so deliberate findings stay out of the global
    report.
    """

    def __init__(self, name: str = "sanitizer"):
        self.name = name
        self._mutex = threading.Lock()  # guards everything below
        self._local = threading.local()
        self._next_key = 0
        self._lock_names: dict = {}      # key -> name
        self._edges: dict = {}           # key -> {key: (holder name, taken name)}
        self._findings: list = []
        self._finding_keys: set = set()
        self._in_flight = 0
        self._watching = False
        self._patched: dict = {}

    # -- per-thread state ----------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            # repro-analysis: allow=REP-L301 thread-local slot, no shared state
            state = self._local.state = _ThreadState()
        return state

    # -- findings ------------------------------------------------------------

    def _record(self, kind: str, detail: str, **extra) -> None:
        with self._mutex:
            key = (kind, detail)
            if key in self._finding_keys:
                return
            self._finding_keys.add(key)
            entry = {"kind": kind, "detail": detail,
                     "thread": threading.current_thread().name}
            entry.update(extra)
            self._findings.append(entry)

    @property
    def findings(self) -> list:
        with self._mutex:
            return list(self._findings)

    def report(self) -> dict:
        with self._mutex:
            return {
                "enabled": True,
                "name": self.name,
                "locks": len(self._lock_names),
                "edges": sum(len(out) for out in self._edges.values()),
                "findings": [dict(entry) for entry in self._findings],
            }

    # -- lock wrapping and the order graph -----------------------------------

    def wrap_lock(self, lock, name: str) -> SanitizedLock:
        with self._mutex:
            key = self._next_key
            self._next_key += 1
            self._lock_names[key] = name
        return SanitizedLock(self, lock, name, key)

    def make_lock(self, name: str = "lock") -> SanitizedLock:
        return self.wrap_lock(threading.Lock(), name)

    def make_rlock(self, name: str = "lock") -> SanitizedLock:
        return self.wrap_lock(threading.RLock(), name)

    def _note_acquire(self, lock: SanitizedLock) -> None:
        state = self._state()
        reentrant = lock.key in state.held
        if not reentrant:
            for held_key in state.held:
                if held_key != lock.key:
                    self._add_edge(held_key, lock.key)
            outermost = min(state.boundaries) if state.boundaries else 0
            if outermost > 0 and len(state.held) >= outermost:
                self._record(
                    "lock-across-map",
                    f"acquired {lock.name!r} inside a map boundary while "
                    f"holding {self._lock_names.get(state.held[0], '?')!r} "
                    "from outside it",
                )
        state.held.append(lock.key)

    def _note_release(self, lock: SanitizedLock) -> None:
        state = self._state()
        for index in range(len(state.held) - 1, -1, -1):
            if state.held[index] == lock.key:
                del state.held[index]
                break

    def _add_edge(self, source: int, target: int) -> None:
        with self._mutex:
            out = self._edges.setdefault(source, {})
            if target in out:
                return
            out[target] = (self._lock_names[source], self._lock_names[target])
            cycle = self._find_cycle(target, source)
        if cycle is not None:
            names = [self._lock_names[key] for key in cycle]
            self._record(
                "lock-order-cycle",
                "lock order cycle " + " -> ".join(names + [names[0]]) +
                " (two threads interleaving opposite orders deadlock)",
                locks=sorted(set(names)),
            )

    def _find_cycle(self, start: int, goal: int) -> "list | None":
        """A path ``start -> ... -> goal`` in the edge graph (caller holds
        the mutex); with the new edge ``goal -> start`` it is a cycle."""
        stack = [(start, [goal, start])]
        seen = set()
        while stack:
            node, path = stack.pop()
            if node == goal and len(path) > 2:
                return path[:-1]
            if node in seen:
                continue
            seen.add(node)
            for neighbour in sorted(self._edges.get(node, ())):
                if neighbour == goal:
                    return path
                stack.append((neighbour, path + [neighbour]))
        return None

    # -- spans and boundaries ------------------------------------------------

    def task_span(self) -> _Span:
        return _Span(self)

    def _enter_span(self) -> None:
        state = self._state()
        state.spans += 1
        if state.spans == 1:
            with self._mutex:
                self._in_flight += 1

    def _exit_span(self) -> None:
        state = self._state()
        state.spans -= 1
        if state.spans == 0:
            with self._mutex:
                self._in_flight -= 1

    def map_boundary(self, label: str = "map") -> _Boundary:
        return _Boundary(self, label)

    def _enter_boundary(self, label: str) -> None:
        state = self._state()
        if state.held:
            names = [self._lock_names.get(key, "?") for key in state.held]
            self._record(
                "lock-across-map",
                f"entered map boundary {label!r} holding "
                f"{', '.join(repr(name) for name in names)}; the map blocks "
                "on workers, so any worker needing the lock deadlocks",
            )
        state.boundaries.append(len(state.held))

    def _exit_boundary(self) -> None:
        state = self._state()
        if state.boundaries:
            state.boundaries.pop()

    # -- global-state watchers -----------------------------------------------

    def _flag_mutation(self, mutator: str, detail: str) -> None:
        with self._mutex:
            in_flight = self._in_flight
        if in_flight > 1:
            self._record(
                "global-state-mutation",
                f"{mutator} {detail} while {in_flight} sanitized tasks were "
                "in flight; every concurrent task sees the flip "
                "mid-computation",
                mutator=mutator,
            )

    def _watched_filter(self, original, mutator):
        def wrapper(action, *args, **kwargs):
            if action != "ignore":
                self._flag_mutation(mutator, f"set action {action!r}")
            return original(action, *args, **kwargs)
        return wrapper

    def _watched_mutator(self, original, mutator):
        def wrapper(*args, **kwargs):
            self._flag_mutation(mutator, "called")
            return original(*args, **kwargs)
        return wrapper

    def install_watchers(self) -> None:
        """Patch the process-global mutators REP-G501 names (idempotent).

        ``os.putenv`` covers ``os.environ[...] =`` (CPython routes item
        assignment through the module-global ``putenv``).  ``np.errstate``
        uses internal entry points and is not covered — the static rule
        still sees direct ``np.seterr`` calls.
        """
        with self._mutex:
            if self._watching:
                return
            self._watching = True
        import random

        targets = [
            (warnings, "simplefilter", self._watched_filter),
            (warnings, "filterwarnings", self._watched_filter),
            (random, "seed", self._watched_mutator),
            (os, "putenv", self._watched_mutator),
        ]
        try:
            import numpy
        except ImportError:  # pragma: no cover - numpy is a hard dep here
            numpy = None
        if numpy is not None:
            targets.append((numpy, "seterr", self._watched_mutator))
        for owner, attr, wrap in targets:
            original = getattr(owner, attr)
            mutator = f"{owner.__name__}.{attr}"
            with self._mutex:
                self._patched[(id(owner), attr)] = (owner, attr, original)
            setattr(owner, attr, wrap(original, mutator))

    def uninstall_watchers(self) -> None:
        with self._mutex:
            if not self._watching:
                return
            self._watching = False
            patched = list(self._patched.values())
            self._patched.clear()
        for owner, attr, original in patched:
            setattr(owner, attr, original)

    def watch(self):
        """Context manager: watchers installed inside the block (tests)."""
        sanitizer = self

        class _Watch:
            def __enter__(self):
                sanitizer.install_watchers()
                return sanitizer

            def __exit__(self, *exc):
                sanitizer.uninstall_watchers()
                return False

        return _Watch()

    def reset_runtime(self) -> None:
        """Forget in-flight threads and held stacks (fork handler: the
        child inherits only the forking thread, so inherited counts lie)."""
        with self._mutex:
            self._in_flight = 0
        # repro-analysis: allow=REP-L301 fork child is single-threaded
        self._local = threading.local()


# ---------------------------------------------------------------------------
# The process-wide instance and the hook seams
# ---------------------------------------------------------------------------

_GLOBAL: "Sanitizer | None" = None
_FORK_HOOKED = False


def enabled() -> bool:
    """Whether the process-wide sanitizer is installed."""
    return _GLOBAL is not None


def install(sanitizer: "Sanitizer | None" = None) -> Sanitizer:
    """Install the process-wide sanitizer (idempotent) and its watchers."""
    global _GLOBAL, _FORK_HOOKED
    if _GLOBAL is not None:
        return _GLOBAL
    _GLOBAL = sanitizer if sanitizer is not None else Sanitizer(name="global")
    _GLOBAL.install_watchers()
    if not _FORK_HOOKED and hasattr(os, "register_at_fork"):
        _FORK_HOOKED = True
        os.register_at_fork(after_in_child=_reset_after_fork)
    return _GLOBAL


def uninstall() -> None:
    """Remove the process-wide sanitizer and restore the patched mutators."""
    global _GLOBAL
    if _GLOBAL is not None:
        _GLOBAL.uninstall_watchers()
        _GLOBAL = None


def _reset_after_fork() -> None:
    if _GLOBAL is not None:
        _GLOBAL.reset_runtime()


def make_lock(name: str = "lock"):
    """A ``threading.Lock`` — sanitized when the sanitizer is installed."""
    return _GLOBAL.make_lock(name) if _GLOBAL is not None else threading.Lock()


def make_rlock(name: str = "lock"):
    """A ``threading.RLock`` — sanitized when the sanitizer is installed."""
    return _GLOBAL.make_rlock(name) if _GLOBAL is not None else threading.RLock()


def task_span():
    """Context manager marking one concurrently-running task (no-op when
    the sanitizer is off); the thread backend and ``run_corpus``'s pool
    open one around every task and corpus job they run."""
    return _GLOBAL.task_span() if _GLOBAL is not None else _NULL_SPAN


def map_boundary(label: str = "map"):
    """Context manager marking a blocking ``Backend.map``-shaped dispatch
    on the calling thread (no-op when the sanitizer is off)."""
    return _GLOBAL.map_boundary(label) if _GLOBAL is not None else _NULL_SPAN


def sanitize_report() -> dict:
    """The machine-readable end-of-run report of the global sanitizer."""
    if _GLOBAL is None:
        return {"enabled": False, "findings": []}
    return _GLOBAL.report()


def _write_report_at_exit() -> None:
    path = repro_env.REPRO_SANITIZE_REPORT.get()
    if _GLOBAL is None or path is None:
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(sanitize_report(), handle, indent=2, sort_keys=True)
            handle.write("\n")
    except OSError:  # pragma: no cover - report path unwritable
        pass


atexit.register(_write_report_at_exit)

if repro_env.REPRO_SANITIZE.get():
    install()
