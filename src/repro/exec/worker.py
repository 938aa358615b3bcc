"""The worker-daemon lifecycle behind the process backend.

:class:`WorkerHost` owns the daemons :class:`~repro.exec.backends.
ProcessBackend` runs on: it spawns them over the fork+socketpair launcher
of :mod:`repro.exec.transport`, detects deaths, re-enqueues lost work,
respawns within a budget and shuts down cleanly.

* **Persistent daemons with a callable-token registry.**  The first map
  registers its callable under a fresh token and spawns daemons;
  consecutive maps with the *same* callable reuse the live daemons — zero
  respawns, items cross the wire pickled.  A map with a *different*
  callable re-registers: the fleet is disposed and a fresh one forked (the
  callable travels by memory image).
* **One-shot maps for unpicklable items.**  Items that cannot cross the
  wire ride the fork memory image instead — dedicated daemons are forked
  for that map alone (inheriting callable *and* items by image) and reaped
  at its end, while the persistent fleet stays intact for the next
  reusable map.
* **Death detection and lost-item re-enqueue.**  A daemon that dies
  mid-item (killed, OOMed, crashed) is detected by its connection closing;
  its in-flight item is re-queued at the front, a replacement is spawned
  within a per-map respawn budget, and chronic death surfaces as a
  ``RuntimeError`` instead of an infinite respawn loop.  Daemons found
  dead *between* maps (e.g. SIGKILLed while idle) are pruned and replaced
  transparently at the next map's start.
* **Pull-based dispatch, one item per frame.**  Work is handed to
  whichever daemon is idle.  A failing task re-raises its original
  exception (when it pickles) with the remote traceback chained as a
  :class:`WorkerTaskError` cause — the serial loop's semantics.
* **Bounded idle fleets and clean shutdown.**  Hosts with live daemons are
  tracked in an LRU bounded at :data:`_MAX_LIVE_FLEETS` (each idle daemon
  pins a copy-on-write image of the parent); beyond it, the
  least-recently-used host's fleet is disposed.  ``atexit`` reaps
  everything at interpreter exit.

Results are reassembled by item index, so the backend stays bit-identical
to the serial loop.
"""

from __future__ import annotations

import atexit
import itertools
import os
import pickle
import selectors
import signal
import weakref
from collections import deque
from dataclasses import dataclass

from repro.exec.transport import (
    LIFECYCLE_LOCK,
    _IMAGE_ITEMS,
    _IMAGE_TASKS,
    fork_available,
    recv_frame,
    send_frame,
    spawn_worker,
)

#: Task-token source shared by every host (tokens are process-global because
#: the fork-image registries they key are).
_TASK_TOKENS = itertools.count()

#: Live hosts, for interpreter-exit cleanup.
_LIVE_HOSTS: "weakref.WeakSet" = weakref.WeakSet()

#: Bound on hosts with live (idle) daemon fleets across all backend
#: instances.  Pipelines, engines and baselines each resolve their own
#: backend; without a bound, every instance's last fleet would idle until
#: interpreter exit, each daemon pinning a copy-on-write image of the
#: parent.  Fleets are disposed least-recently-used beyond this.
_MAX_LIVE_FLEETS = 2

#: Hosts owning live fleets, oldest first (weakrefs; callers hold
#: :data:`~repro.exec.transport.LIFECYCLE_LOCK`).
_FLEET_OWNERS: list = []


def _note_fleet_owner(host) -> None:
    """Mark ``host``'s fleet most-recently-used; dispose idle fleets beyond
    the global bound.  Caller holds the lifecycle lock, so no disposed
    fleet can have a map in flight."""
    _FLEET_OWNERS[:] = [
        ref
        for ref in _FLEET_OWNERS
        if ref() is not None and ref() is not host and ref()._daemons
    ]
    _FLEET_OWNERS.append(weakref.ref(host))
    while len(_FLEET_OWNERS) > _MAX_LIVE_FLEETS:
        oldest = _FLEET_OWNERS.pop(0)()
        if oldest is not None:
            oldest._dispose_fleet()


def shutdown_worker_hosts() -> None:
    """Shut down every live :class:`WorkerHost` (atexit hook)."""
    for host in list(_LIVE_HOSTS):
        host.shutdown()


atexit.register(shutdown_worker_hosts)


def _reap_fleet_at_gc(daemons: dict, token_box: list) -> None:
    """Reap a host's daemons when the host is garbage-collected without an
    explicit :meth:`WorkerHost.shutdown` (module-level so
    :func:`weakref.finalize` can run it without referencing the host).

    Runs without the lifecycle lock — a finalizer can fire mid-map of an
    unrelated host on the same thread, and taking the lock there would
    deadlock.  That is safe: this host is unreachable, so nothing else
    touches its daemons, and the registry pop is atomic under the GIL.

    The task token is retired first and every daemon is reaped on its own:
    an exception escaping a finalizer is only reported, so one failing
    stop must neither skip the rest of the fleet (leaving zombies) nor
    leave the token pinning the task closure for the life of the process.
    """
    token = token_box[0]
    token_box[0] = None
    if token is not None:
        _IMAGE_TASKS.pop(token, None)
    fleet = list(daemons.values())
    daemons.clear()
    for daemon in fleet:
        try:
            _stop_daemon(daemon)
        except Exception:
            _kill_and_reap(daemon)


def _stop_daemon(daemon) -> None:
    """Ask one daemon to exit, close its connection, and reap the process."""
    try:
        send_frame(daemon.conn, ("stop",))
    except OSError:
        pass
    try:
        daemon.conn.close()
    except OSError:  # pragma: no cover - already closed
        pass
    daemon.process.join(timeout=0.2)
    if daemon.process.is_alive():
        daemon.process.terminate()
        daemon.process.join(timeout=2.0)


def _kill_and_reap(daemon) -> None:
    """Last-resort reap that avoids :mod:`multiprocessing`'s helpers."""
    pid = daemon.process.pid
    try:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    except OSError:
        pass  # already gone, or already reaped


def _discard_buffer(buffer) -> None:
    """``buffer_callback`` of the picklability probe: drop the bytes."""


class WorkerTaskError(RuntimeError):
    """A task callable raised inside a worker daemon (remote traceback attached)."""


class _Daemon:
    """Host-side bookkeeping for one live worker daemon."""

    __slots__ = ("worker_id", "process", "conn", "item")

    def __init__(self, worker_id: int, process, conn) -> None:
        self.worker_id = worker_id
        self.process = process
        self.conn = conn
        #: Index of the item in flight on this daemon (``None`` when idle).
        self.item: "int | None" = None


@dataclass
class HostRunReport:
    """Observability of one :meth:`WorkerHost.run` call."""

    #: Daemons spawned during this run (0 on a fully reused map).
    spawned: int = 0
    #: Live daemons reused from the persistent fleet at run start.
    reused_workers: int = 0
    #: Item dispatches (re-dispatches after a death included).
    dispatched: int = 0
    #: Worker deaths detected during the run (idle pruning included).
    deaths: int = 0
    #: Lost items re-enqueued after a death.
    requeued: int = 0
    #: Whether this run installed a new task token (callable changed).
    task_registered: bool = False
    #: Whether the items rode the fork image (one-shot daemons).
    one_shot: bool = False
    #: Summed task seconds of completed items.
    accepted_seconds: float = 0.0


class WorkerHost:
    """Owns forked worker daemons; executes ordered maps on them.

    Args:
        workers: maximum daemons kept live (``None`` = host CPU count).
        max_respawns: per-map budget of replacement daemons after deaths;
            ``None`` scales with the worker count.

    See the module docstring for the lifecycle contract.
    """

    def __init__(
        self,
        workers: "int | None" = None,
        max_respawns: "int | None" = None,
    ) -> None:
        default = os.cpu_count() or 1
        self.workers = max(int(workers) if workers is not None else default, 1)
        self.max_respawns = (
            2 * self.workers + 2 if max_respawns is None else max(int(max_respawns), 0)
        )
        self._daemons: dict = {}
        self._worker_ids = itertools.count()
        self._task_fn = None
        self._task_token: "int | None" = None
        #: Daemons ever spawned (persistent fleet + one-shot + respawns).
        self.spawn_count = 0
        #: Times a new task token was installed (first map = 1; +1 per
        #: callable change; one-shot maps never bump it).
        self.task_generations = 0
        #: Worker deaths ever detected (mid-map and between maps).
        self.worker_deaths = 0
        #: Maps served by the persistent fleet without spawning anything.
        self.reused_maps = 0
        #: Maps executed on daemons (one-shot included).
        self.maps = 0
        #: Current persistent task token, mirrored in a mutable box so the
        #: GC finalizer (which must not reference the host) can retire it.
        self._token_box: list = [None]
        _LIVE_HOSTS.add(self)
        # A host dropped without shutdown() must not orphan its daemons:
        # the finalizer reaps the fleet (and the image-task registration)
        # at garbage collection, like the old fork pool's finalize did.
        self._finalizer = weakref.finalize(
            self, _reap_fleet_at_gc, self._daemons, self._token_box
        )

    # -- availability --------------------------------------------------------

    def available(self) -> bool:
        """Whether workers can be forked on this platform."""
        return fork_available()

    def alive_workers(self) -> int:
        """Live daemons in the persistent fleet (health-checked)."""
        return sum(
            1 for daemon in self._daemons.values() if daemon.process.is_alive()
        )

    # -- task registration ---------------------------------------------------

    def _ensure_task(self, fn, report: HostRunReport) -> None:
        """Install ``fn`` as the fleet's task, reusing daemons when possible.

        Caller holds the lifecycle lock.  Same callable → nothing to do
        (the reuse path).  New callable → new token: the callable can only
        travel by fork memory image, so the fleet is disposed and the next
        spawn inherits the new registration.
        """
        if self._task_fn is fn and self._task_token is not None:
            return
        report.task_registered = True
        self.task_generations += 1
        self._dispose_fleet()
        self._retire_task()
        token = next(_TASK_TOKENS)
        _IMAGE_TASKS[token] = fn
        self._task_fn = fn
        self._task_token = token
        self._token_box[0] = token

    def _retire_task(self) -> None:
        if self._task_token is not None:
            _IMAGE_TASKS.pop(self._task_token, None)
        self._task_token = None
        self._token_box[0] = None
        self._task_fn = None

    # -- fleet management ----------------------------------------------------

    def _spawn_daemon(self, report: "HostRunReport | None" = None) -> _Daemon:
        process, conn = spawn_worker()
        daemon = _Daemon(next(self._worker_ids), process, conn)
        self.spawn_count += 1
        if report is not None:
            report.spawned += 1
        return daemon

    def _prune_dead_daemons(self, report: HostRunReport) -> None:
        """Drop fleet daemons that died between maps (e.g. SIGKILLed idle)."""
        for worker_id, daemon in list(self._daemons.items()):
            if daemon.process.is_alive():
                continue
            self.worker_deaths += 1
            report.deaths += 1
            try:
                daemon.conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
            daemon.process.join(timeout=0.5)
            del self._daemons[worker_id]

    def _dispose_fleet(self) -> None:
        """Tear the persistent fleet down (task registration kept)."""
        daemons = list(self._daemons.values())
        self._daemons.clear()
        for daemon in daemons:
            _stop_daemon(daemon)

    def shutdown(self) -> None:
        """Reap every daemon and retire the task (idempotent, thread-safe)."""
        with LIFECYCLE_LOCK:
            self._dispose_fleet()
            self._retire_task()

    # -- the run loop --------------------------------------------------------

    def run(self, fn, items) -> tuple:
        """Execute ``map(fn, items)`` on worker daemons, one item per frame.

        Args:
            fn: the task callable (``fn(item) -> result``; must be pure).
            items: the ordered item list.

        Returns:
            ``(ordered_results, report)`` where ``ordered_results`` is
            ``[fn(item) for item in items]`` and ``report`` is the run's
            :class:`HostRunReport` (accepted worker seconds included).

        Raises:
            Exception: the callable raised inside a daemon — its original
                exception is re-raised, with the :class:`WorkerTaskError`
                carrying the remote traceback as its cause; a
                :class:`WorkerTaskError` itself when the exception does not
                pickle.
            RuntimeError: daemons kept dying beyond the respawn budget.
        """
        items = list(items)
        report = HostRunReport()
        if not items:
            return [], report
        try:
            items_payload_ok = True
            # Picklability probe only — out-of-band buffers are discarded
            # unread, so array-heavy item lists are classified without
            # materialising a copy of their payload bytes (the dispatch
            # path re-pickles per item anyway).
            pickle.dumps(
                items,
                protocol=pickle.HIGHEST_PROTOCOL,
                buffer_callback=_discard_buffer,
            )
        except Exception:
            items_payload_ok = False
        # Serialise whole maps end to end: the fork-inherited registries
        # must stay stable while any daemon can be (re)spawned, and a
        # persistent fleet must never run two maps at once.  Parallelism
        # comes from the daemons inside one map, not from overlapping maps.
        with LIFECYCLE_LOCK:
            self.maps += 1
            if items_payload_ok:
                self._ensure_task(fn, report)
                self._prune_dead_daemons(report)
                reused = len(self._daemons)
                report.reused_workers = reused
                try:
                    results = self._run_items(
                        items, self._task_token, self._daemons, report,
                        one_shot=False,
                    )
                except BaseException:
                    # The fleet may be in an arbitrary state (half-dead,
                    # torn frames); dispose it so the next map starts clean.
                    self._dispose_fleet()
                    raise
                if reused and not report.spawned:
                    self.reused_maps += 1
                _note_fleet_owner(self)
                return results, report
            # One-shot map: items ride the fork image under a dedicated
            # token; ephemeral daemons are reaped at the end of the map and
            # the persistent fleet (if any) stays intact for the next
            # reusable map.
            report.one_shot = True
            token = next(_TASK_TOKENS)
            _IMAGE_TASKS[token] = fn
            _IMAGE_ITEMS[token] = items
            try:
                return self._run_items(items, token, {}, report, one_shot=True), report
            finally:
                _IMAGE_TASKS.pop(token, None)
                _IMAGE_ITEMS.pop(token, None)

    def _run_items(
        self,
        items: list,
        token: int,
        daemons: dict,
        report: HostRunReport,
        one_shot: bool,
    ) -> list:
        """The event loop: dispatch, collect, survive deaths.  Caller holds
        the lifecycle lock and has registered the task under ``token``."""
        pending = deque(range(len(items)))
        completed: dict = {}
        respawn_budget = self.max_respawns
        selector = selectors.DefaultSelector()
        failure: "BaseException | None" = None

        def spawn() -> _Daemon:
            daemon = self._spawn_daemon(report)
            daemons[daemon.worker_id] = daemon
            selector.register(daemon.conn, selectors.EVENT_READ, daemon)
            return daemon

        def item_frame(index: int) -> tuple:
            # One-pair "shard" frames: the frame format carries a list of
            # (item_index, item) pairs, and every dispatch is one item.
            if one_shot:
                return ("shard_image", token, index, (index,))
            return ("shard", token, index, [(index, items[index])])

        def dispatch(daemon: _Daemon) -> None:
            if not pending:
                daemon.item = None
                return
            index = pending.popleft()
            daemon.item = index
            try:
                send_frame(daemon.conn, item_frame(index))
            except OSError:
                # The daemon died while idle (its EOF may still be queued in
                # the selector); requeue the item and repair the fleet
                # instead of crashing the map.
                on_death(daemon)
                return
            report.dispatched += 1

        def on_death(daemon: _Daemon) -> None:
            # Shared by the EOF path and the dispatch send-failure path:
            # requeue the lost item, spawn a replacement within budget (so
            # the fleet holds its configured width instead of shrinking for
            # the rest of the map), and put any idle daemons back to work.
            nonlocal respawn_budget
            if daemon.worker_id not in daemons:
                return  # both paths fired for the same death
            self.worker_deaths += 1
            report.deaths += 1
            selector.unregister(daemon.conn)
            daemon.conn.close()
            daemons.pop(daemon.worker_id, None)
            if daemon.item is not None and daemon.item not in completed:
                pending.appendleft(daemon.item)  # lost work runs next
                report.requeued += 1
            daemon.process.join(timeout=0.5)
            if len(completed) < len(items) and respawn_budget > 0:
                respawn_budget -= 1
                dispatch(spawn())
            for idle in list(daemons.values()):
                if not pending:
                    break
                if idle.item is None:
                    dispatch(idle)

        try:
            # Reused fleet daemons re-register with this run's selector;
            # then top the fleet up to the map's useful width.
            for daemon in daemons.values():
                daemon.item = None
                selector.register(daemon.conn, selectors.EVENT_READ, daemon)
            wanted = min(self.workers, len(items))
            while len(daemons) < wanted:
                spawn()
            for daemon in list(daemons.values()):
                dispatch(daemon)

            while len(completed) < len(items) and failure is None:
                while not daemons:
                    if respawn_budget <= 0:
                        raise RuntimeError(
                            "worker host: all daemons died and the respawn "
                            f"budget ({self.max_respawns}) is exhausted"
                        )
                    respawn_budget -= 1
                    dispatch(spawn())
                for key, _ in selector.select(timeout=5.0):
                    daemon = key.data
                    if daemon.worker_id not in daemons:
                        continue  # retired earlier in this same event batch
                    try:
                        message = recv_frame(daemon.conn)
                    except (EOFError, OSError):
                        # Daemon death (killed, crashed, OOMed) or a
                        # poisoned stream (FrameProtocolError): requeue its
                        # item and spawn a replacement within budget.
                        on_death(daemon)
                        continue
                    kind = message[0]
                    if kind == "done":
                        _, index, elapsed, (result,) = message
                        completed[index] = result
                        report.accepted_seconds += float(elapsed)
                        dispatch(daemon)
                    elif kind == "fail":
                        _, _, trace, exc_bytes = message
                        failure = WorkerTaskError(
                            "task failed in worker daemon:\n" + trace
                        )
                        if exc_bytes is not None:
                            try:
                                original = pickle.loads(exc_bytes)
                            except Exception:
                                pass  # keep the WorkerTaskError
                            else:
                                # Serial-loop semantics: the caller's
                                # `except <OriginalType>:` must fire; the
                                # remote traceback rides along as the cause.
                                original.__cause__ = failure
                                failure = original
                        break
                    else:  # pragma: no cover - protocol violation
                        failure = WorkerTaskError(
                            f"unexpected worker message {message[0]!r}"
                        )
                        break
            if failure is not None:
                raise failure
        finally:
            for daemon in list(daemons.values()):
                selector.unregister(daemon.conn)
                if one_shot:
                    daemons.pop(daemon.worker_id, None)
                    _stop_daemon(daemon)
            selector.close()

        return [completed[index] for index in range(len(items))]
