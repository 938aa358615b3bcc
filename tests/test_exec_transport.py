"""Tests for the worker wire and the shared worker-daemon lifecycle.

Pins the frame codec — round trips, oversized length fields rejected
before allocation, no torn frames — and the :class:`~repro.exec.WorkerHost`
lifecycle behind the process backend: persistent daemons reused across
maps through the callable-token registry (zero respawns when the callable
is unchanged), transparent respawn after a SIGKILL between maps, chronic
death surfacing as an error, and shutdown (or garbage collection) reaping
every daemon and socket.  The parity matrix pins the process backend
byte-identical to the serial loop.

The codec's ndarray segments (the array plane) are pinned too: pickle
protocol 5 lifts each buffer out of the control pickle and
:func:`~repro.exec.transport.send_frame` writes it as its own raw,
length-prefixed segment of the same frame (inline segments; no shared
memory).  Large and small arrays round-trip byte-identically inside the
frame, a forged segment count is rejected before allocation, an
unpicklable message writes nothing, results arrive as views of their
received segment, a SIGKILL mid-map is requeued bit-identically, a
scheduler exiting without ``shutdown()`` leaves neither daemons nor
``/dev/shm`` residue, and one-shot maps credit the same timer channel as
persistent ones.
"""

from __future__ import annotations

import functools
import os
import signal
import socket
import struct
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.exec import (
    FrameProtocolError,
    MAX_FRAME_BYTES,
    ProcessBackend,
    WorkerHost,
    WorkerTaskError,
    fork_available,
)
from repro.exec.transport import (
    MAX_SEGMENTS_PER_FRAME,
    recv_frame,
    send_frame,
    spawn_worker,
)
from repro.utils.timing import StageTimer

needs_fork = pytest.mark.skipif(not fork_available(), reason="needs fork")

_HEADER = struct.Struct("<QI")
_SEG_SIZE = struct.Struct("<Q")


def _shm_entries(needle: str) -> list:
    """Names under ``/dev/shm`` containing ``needle`` (empty where the
    platform has no such directory)."""
    try:
        return sorted(name for name in os.listdir("/dev/shm") if needle in name)
    except FileNotFoundError:  # pragma: no cover - non-Linux hosts
        return []


# ---------------------------------------------------------------------------
# Frame codec
# ---------------------------------------------------------------------------


class TestFrameProtocol:
    def test_round_trip(self):
        a, b = socket.socketpair()
        try:
            message = ("shard", 3, 0, [(0, np.arange(4)), (1, "x")])
            send_frame(a, message)
            received = recv_frame(b)
            assert received[0] == "shard" and received[1] == 3
            assert np.array_equal(received[3][0][1], np.arange(4))
        finally:
            a.close()
            b.close()

    def test_eof_raises(self):
        a, b = socket.socketpair()
        a.close()
        with pytest.raises(EOFError):
            recv_frame(b)
        b.close()

    def test_unpicklable_send_leaves_no_torn_frame(self):
        a, b = socket.socketpair()
        try:
            with pytest.raises(Exception):
                send_frame(a, ("bad", threading.Lock(), np.arange(1 << 16)))
            # The stream is still clean: a well-formed frame follows.
            send_frame(a, ("ok",))
            assert recv_frame(b) == ("ok",)
        finally:
            a.close()
            b.close()

    def test_oversized_length_prefix_rejected_before_allocation(self):
        # Regression: a corrupt or hostile 8-byte prefix used to drive a
        # near-2**64-byte allocation attempt; it must fail fast instead.
        a, b = socket.socketpair()
        try:
            a.sendall(_HEADER.pack(MAX_FRAME_BYTES + 1, 0))
            with pytest.raises(FrameProtocolError, match="cap"):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_oversized_segment_size_rejected_before_allocation(self):
        a, b = socket.socketpair()
        try:
            control = b"\x80\x05N."  # pickle protocol 5: None
            a.sendall(_HEADER.pack(len(control), 1) + control)
            a.sendall(struct.pack("<Q", MAX_FRAME_BYTES + 1))
            with pytest.raises(FrameProtocolError, match="segment"):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_frame_error_is_a_connection_error(self):
        # Every dispatch loop treats (EOFError, OSError) as worker death;
        # protocol violations must flow through the same handling.
        assert issubclass(FrameProtocolError, ConnectionError)
        assert issubclass(FrameProtocolError, OSError)


# ---------------------------------------------------------------------------
# Worker-host lifecycle
# ---------------------------------------------------------------------------

#: Child script of the GC-finalizer regression: three process backends,
#: each host in a reference cycle, collected under ``gc.set_threshold(1)``
#: while the first daemon stop raises.  Prints
#: ``faults|unraisable|live tokens|daemon states``.
_GC_FLEET_CHILD = """
import gc
import sys

import multiprocessing.popen_fork as popen_fork

from repro.exec import ProcessBackend
from repro.exec.transport import _IMAGE_TASKS


def task(x):
    return x * 2


def state(pid):
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return "gone"


unraisable = []
sys.unraisablehook = lambda info: unraisable.append(repr(info.exc_value))
gc.disable()
pids = []
for _ in range(3):
    backend = ProcessBackend(workers=2)
    assert backend.map(task, [1, 2, 3, 4]) == [2, 4, 6, 8]
    pids += [daemon.process.pid for daemon in backend.host._daemons.values()]
    backend.host.cycle = backend.host  # reclaimable only by the collector
    del backend

original_wait = popen_fork.Popen.wait
faults = []


def failing_wait(self, timeout=None):
    if not faults:
        faults.append(self.pid)
        raise ImportError("cannot import name 'wait' (partially initialized)")
    return original_wait(self, timeout)


popen_fork.Popen.wait = failing_wait
gc.set_threshold(1)
gc.enable()
gc.collect()
print(len(faults), unraisable, len(_IMAGE_TASKS),
      " ".join(state(pid) for pid in pids), sep="|")
"""


def _pid_task(x):
    """Module-level (hence picklable) task with stable identity."""
    return (os.getpid(), x * 2)


def _pid_task_other(x):
    return (os.getpid(), x + 1000)


def _wait_until_dead(pids, what: str) -> None:
    for pid in pids:
        deadline = time.time() + 5.0
        while time.time() < deadline:
            try:
                os.kill(pid, 0)
                time.sleep(0.02)
            except OSError:
                break
        else:
            pytest.fail(f"daemon {pid} survived {what}")


#: Worker launchers, by name.  Fork+socketpair is the only one; the
#: lifecycle tests that hold for any launcher are keyed by it, so their ids
#: name the launcher they exercised.
LAUNCHERS = ["fork"]


@pytest.fixture(params=LAUNCHERS)
def host(request):
    """A two-worker host started by each launcher, shut down afterwards."""
    instance = WorkerHost(workers=2)
    yield instance
    instance.shutdown()


@needs_fork
class TestWorkerHostReuse:
    def test_daemons_reused_across_maps_same_callable(self, host):
        """The acceptance contract: zero respawns on the second map."""
        items = list(range(8))
        first, report_a = host.run(_pid_task, items)
        assert [v for _, v in first] == [x * 2 for x in items]
        assert report_a.spawned == 2 and host.spawn_count == 2
        second, report_b = host.run(_pid_task, items)
        assert [v for _, v in second] == [x * 2 for x in items]
        # Same callable: nothing respawned, the same daemons served it.
        assert report_b.spawned == 0
        assert report_b.reused_workers == 2
        assert host.spawn_count == 2
        assert host.reused_maps == 1
        assert {pid for pid, _ in second} <= {pid for pid, _ in first}

    def test_fork_transport_respawns_on_callable_change(self):
        host = WorkerHost(workers=2)
        try:
            host.run(_pid_task, [1, 2, 3, 4])
            assert host.task_generations == 1 and host.spawn_count == 2
            results, report = host.run(_pid_task_other, [1, 2])
            assert [v for _, v in results] == [1001, 1002]
            # A callable travels by fork memory image only, so a new one
            # means a fresh fleet.
            assert host.task_generations == 2
            assert report.task_registered and report.spawned == 2
        finally:
            host.shutdown()

    def test_unpicklable_callable_falls_back_to_fork_image(self, host):
        # A closure does not pickle; it reaches the daemons by the fork
        # memory image, like every callable.
        weights = np.arange(8, dtype=np.float64)
        closure = lambda x: float(weights[x] + x)  # noqa: E731
        results, _ = host.run(closure, list(range(8)))
        assert results == [float(2 * x) for x in range(8)]

    def test_one_shot_items_leave_fleet_intact(self):
        host = WorkerHost(workers=2)
        try:
            host.run(_pid_task, [1, 2, 3, 4])
            generations = host.task_generations
            spawned = host.spawn_count
            lock = threading.Lock()
            items = [(lock, value) for value in range(4)]
            results, report = host.run(lambda item: item[1] * 3, items)
            assert results == [0, 3, 6, 9]
            assert report.one_shot
            # One-shot daemons are extra spawns, but the persistent fleet
            # and its task registration survive for the next reusable map.
            assert host.task_generations == generations
            assert host.spawn_count == spawned + 2
            _, report = host.run(_pid_task, [5, 6])
            assert report.spawned == 0 and report.reused_workers == 2
        finally:
            host.shutdown()


@needs_fork
class TestWorkerHostFailure:
    def test_sigkill_between_maps_respawns_transparently(self, host):
        first, _ = host.run(_pid_task, list(range(8)))
        victim = sorted({pid for pid, _ in first})[0]
        os.kill(victim, signal.SIGKILL)
        deadline = time.time() + 10.0
        while host.alive_workers() > 1 and time.time() < deadline:
            time.sleep(0.02)
        second, report = host.run(_pid_task, list(range(8)))
        assert [v for _, v in second] == [x * 2 for x in range(8)]
        assert host.worker_deaths >= 1
        assert report.spawned >= 1  # the replacement
        assert victim not in {pid for pid, _ in second}

    def test_chronic_death_raises(self):
        def die(x):
            os.kill(os.getpid(), signal.SIGKILL)

        host = WorkerHost(workers=2, max_respawns=2)
        try:
            with pytest.raises(RuntimeError, match="respawn"):
                host.run(die, list(range(6)))
        finally:
            host.shutdown()

    def test_task_error_raises_worker_task_error(self, host):
        class LocalError(ValueError):
            """Defined in a function, so it cannot pickle back."""

        def boom(x):
            if x == 3:
                raise LocalError("worker task failed")
            return x

        with pytest.raises(WorkerTaskError, match="worker task failed"):
            host.run(boom, list(range(6)))
        # The host stays usable after a failed map.
        results, _ = host.run(_pid_task, [1, 2])
        assert [v for _, v in results] == [2, 4]

    def test_original_exception_type_is_restored(self, host):
        def boom(x):
            if x == 1:
                raise KeyError("lost-key")
            return x

        with pytest.raises(KeyError, match="lost-key") as excinfo:
            host.run(boom, [0, 1, 2, 3])
        # The remote traceback rides along as the cause.
        assert isinstance(excinfo.value.__cause__, WorkerTaskError)

    def test_gc_without_shutdown_reaps_daemons(self):
        # Regression: a host dropped without shutdown() must not orphan
        # its fleet (the old fork pool reaped at GC via weakref.finalize).
        import gc

        host = WorkerHost(workers=2)
        results, _ = host.run(_pid_task, list(range(4)))
        pids = {pid for pid, _ in results}
        del host
        gc.collect()
        _wait_until_dead(pids, "host garbage collection")

    def test_gc_finalizer_survives_a_failing_daemon_stop(self):
        # Regression: the GC finalizer stopped at the first daemon whose
        # stop raised (seen as an ImportError from a lazily imported
        # multiprocessing.connection), leaving the rest of the fleet as
        # zombies and the task token pinning its closure.
        src = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = src
        completed = subprocess.run(
            [sys.executable, "-c", _GC_FLEET_CHILD],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert completed.returncode == 0, completed.stderr
        failures, unraisable, tokens, states = completed.stdout.strip().split("|")
        assert failures == "1"  # the injected fault really fired
        assert unraisable == "[]"
        assert tokens == "0"
        assert states.split() and set(states.split()) == {"gone"}

    def test_fork_worker_exits_when_scheduler_side_closes(self):
        # Regression: the worker must not inherit a dup of its *own*
        # scheduler-side socket, or the scheduler-died EOF never fires.
        process, conn = spawn_worker()
        try:
            conn.close()  # no "stop" frame — simulate a dead scheduler
            process.join(timeout=5.0)
            assert not process.is_alive(), (
                "fork worker kept running after its scheduler connection "
                "closed — it is holding the socketpair open itself"
            )
        finally:
            if process.is_alive():  # pragma: no cover - failure path
                process.terminate()
                process.join(timeout=2.0)

    def test_shutdown_reaps_daemons_and_listener(self):
        host = WorkerHost(workers=2)
        results, _ = host.run(_pid_task, list(range(4)))
        # The scheduler-side socket each daemon's replies are received on.
        listeners = [daemon.conn for daemon in host._daemons.values()]
        assert len(listeners) == 2
        host.shutdown()
        _wait_until_dead({pid for pid, _ in results}, "shutdown")
        assert all(conn.fileno() == -1 for conn in listeners)


# ---------------------------------------------------------------------------
# Process-backend daemons are persistent
# ---------------------------------------------------------------------------


def _reuse_task(x):
    return (os.getpid(), x * 7)


@pytest.fixture(params=LAUNCHERS)
def process_backend(request):
    """A two-worker process backend per launcher, shut down afterwards."""
    backend = ProcessBackend(workers=2)
    yield backend
    backend.shutdown()


@needs_fork
class TestProcessDaemonReuse:
    def test_consecutive_maps_respawn_nothing(self, process_backend):
        first = process_backend.map(_reuse_task, list(range(12)))
        assert [v for _, v in first] == [x * 7 for x in range(12)]
        host = process_backend.host
        assert host.spawn_count == 2
        second = process_backend.map(_reuse_task, list(range(12, 24)))
        assert [v for _, v in second] == [x * 7 for x in range(12, 24)]
        # Daemons reused, respawn count zero.
        assert host.spawn_count == 2
        assert process_backend.fork_count == 1
        assert host.reused_maps == 1
        assert {pid for pid, _ in second} <= {pid for pid, _ in first}

    def test_sigkill_between_maps_is_transparent(self):
        backend = ProcessBackend(workers=2)
        try:
            first = backend.map(_reuse_task, list(range(8)))
            victim = sorted({pid for pid, _ in first})[0]
            os.kill(victim, signal.SIGKILL)
            deadline = time.time() + 10.0
            while backend.host.alive_workers() > 1 and time.time() < deadline:
                time.sleep(0.02)
            second = backend.map(_reuse_task, list(range(8)))
            assert [v for _, v in second] == [x * 7 for x in range(8)]
            assert backend.worker_revivals >= 1
        finally:
            backend.shutdown()


# ---------------------------------------------------------------------------
# Parity matrix: process x {1, 2, 5 workers} against serial
# ---------------------------------------------------------------------------


def _golden_array_task(x):
    """A pure, deterministic task whose 187 KiB result crosses the wire as
    an inline segment."""
    base = np.arange(24_000, dtype=np.float64)
    return np.sin(base * 1e-3) * float(x + 1)


PARITY_MATRIX = [(ProcessBackend, workers) for workers in (1, 2, 5)]


@needs_fork
class TestParityMatrix:
    @pytest.fixture(scope="class")
    def reference(self):
        return [_golden_array_task(x) for x in range(9)]

    @pytest.mark.parametrize(
        "backend_cls,workers", PARITY_MATRIX,
        ids=[f"{cls.name}-w{w}" for cls, w in PARITY_MATRIX],
    )
    def test_map_results_bit_identical_to_serial(
        self, backend_cls, workers, reference
    ):
        # The acceptance pin: the daemon backend is a pure carrier —
        # every cell returns byte-identical arrays in item order.
        backend = backend_cls(workers=workers)
        try:
            results = backend.map(_golden_array_task, list(range(9)))
            assert len(results) == len(reference)
            for got, want in zip(results, reference):
                assert got.dtype == want.dtype
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()
        finally:
            backend.shutdown()


# ---------------------------------------------------------------------------
# Codec: ndarray buffers as inline segments
# ---------------------------------------------------------------------------


class TestArrayPlaneCodec:
    def test_small_buffers_stay_inline(self):
        # A small array's bytes ride the stream as the frame's one segment,
        # right behind the control pickle: the frame is exactly header +
        # control + segment header + the array's bytes.
        a, b = socket.socketpair()
        try:
            payload = np.arange(16, dtype=np.float64)
            send_frame(a, ("shard", 0, payload))
            control_len, nseg = _HEADER.unpack(b.recv(_HEADER.size, socket.MSG_PEEK))
            assert nseg == 1
            expected = _HEADER.size + control_len + _SEG_SIZE.size + payload.nbytes
            raw = b.recv(expected + 1, socket.MSG_PEEK)
            assert len(raw) == expected
            assert raw.endswith(payload.tobytes())
            message = recv_frame(b)
            assert message[2].tobytes() == payload.tobytes()
        finally:
            a.close()
            b.close()

    def test_inline_plane_round_trips_large_arrays(self):
        # Large payloads need a pumping thread: the bytes genuinely cross
        # the socket, straight from the array's buffer.
        a, b = socket.socketpair()
        payload = np.arange(300_000, dtype=np.float64)  # 2.3 MB
        received = {}

        def pump():
            received["message"] = recv_frame(b)

        thread = threading.Thread(target=pump)
        thread.start()
        try:
            send_frame(a, ("shard", 1, payload))
            thread.join(timeout=30.0)
            assert not thread.is_alive()
            got = received["message"][2]
            assert got.dtype == payload.dtype
            assert got.tobytes() == payload.tobytes()
        finally:
            a.close()
            b.close()

    def test_forged_segment_count_is_capped(self):
        a, b = socket.socketpair()
        try:
            a.sendall(_HEADER.pack(4, MAX_SEGMENTS_PER_FRAME + 1))
            with pytest.raises(FrameProtocolError, match="segments"):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_unpicklable_message_allocates_nothing(self):
        # Pickle-first ordering: the failure surfaces before a single byte
        # (or segment) is written, so the stream carries no torn frame.
        a, b = socket.socketpair()
        try:
            with pytest.raises(Exception):
                send_frame(a, ("bad", threading.Lock(), np.arange(1 << 16)))
            b.setblocking(False)
            with pytest.raises(BlockingIOError):
                b.recv(1)
            b.setblocking(True)
            send_frame(a, ("ok",))
            assert recv_frame(b) == ("ok",)
        finally:
            a.close()
            b.close()


# ---------------------------------------------------------------------------
# End to end: maps over the plane, SIGKILL requeue, exit hygiene
# ---------------------------------------------------------------------------


def _array_result_task(x):
    base = np.arange(32_000, dtype=np.float64)  # 250 KiB result
    return np.cos(base * (x + 1) * 1e-4)


def _kill_once_then_array(x, sentinel=None):
    if x == 0:
        try:
            fd = os.open(sentinel, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            pass  # the re-dispatched item after the first victim died
        else:
            os.close(fd)
            os.kill(os.getpid(), signal.SIGKILL)
    return _array_result_task(x)


@needs_fork
class TestArraySegmentsEndToEnd:
    """End-to-end guards of the inline array segments that replaced the
    shared-memory plane: the same requeue and exit-hygiene contracts, and
    no shared-memory residue at all."""

    def test_map_rides_transfer_segments_and_leaves_no_residue(self):
        host = WorkerHost(workers=2)
        try:
            results, _ = host.run(_array_result_task, list(range(8)))
            pids = {daemon.process.pid for daemon in host._daemons.values()}
            reference = [_array_result_task(x) for x in range(8)]
            for got, want in zip(results, reference):
                assert got.tobytes() == want.tobytes()
                # The result views the segment it arrived in instead of
                # being copied out of a pickled payload.
                assert not got.flags["OWNDATA"]
        finally:
            host.shutdown()
        _wait_until_dead(pids, "shutdown")
        assert _shm_entries(str(os.getpid())) == []

    def test_sigkill_mid_map_reaps_and_stays_bit_identical(self, tmp_path):
        host = WorkerHost(workers=2)
        task = functools.partial(
            _kill_once_then_array, sentinel=str(tmp_path / "victim")
        )
        try:
            results, report = host.run(task, list(range(8)))
            reference = [_array_result_task(x) for x in range(8)]
            for got, want in zip(results, reference):
                assert got.tobytes() == want.tobytes()
            assert host.worker_deaths >= 1
            assert report.requeued >= 1
        finally:
            host.shutdown()

    def test_exit_without_shutdown_leaves_dev_shm_clean(self):
        # A scheduler that exits without host.shutdown() must leave no
        # daemon running and nothing in /dev/shm.
        src = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
        )
        child = """
import os
import numpy as np
from repro.exec import WorkerHost

def task(x):
    return np.arange(40_000, dtype=np.float64) * x

host = WorkerHost(workers=2)
results, _ = host.run(task, list(range(6)))
assert len(results) == 6
print(" ".join(str(d.process.pid) for d in host._daemons.values()))
print(os.getpid())
"""
        env = dict(os.environ)
        env["PYTHONPATH"] = src
        completed = subprocess.run(
            [sys.executable, "-c", child],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert completed.returncode == 0, completed.stderr
        *_, daemon_line, pid_line = completed.stdout.strip().splitlines()
        _wait_until_dead(
            [int(pid) for pid in daemon_line.split()], "scheduler exit"
        )
        assert _shm_entries(pid_line.strip()) == []
        assert "resource_tracker" not in completed.stderr
        assert "Traceback" not in completed.stderr


# ---------------------------------------------------------------------------
# One-shot maps: same timer channel as persistent ones (regression)
# ---------------------------------------------------------------------------


@needs_fork
class TestOneShotResultPlane:
    def test_one_shot_report_counts_accepted_seconds(self):
        host = WorkerHost(workers=2)
        try:
            lock = threading.Lock()  # unpicklable: forces the one-shot path
            items = [(lock, value) for value in range(4)]
            results, report = host.run(lambda item: item[1] * 2, items)
            assert results == [0, 2, 4, 6]
            assert report.one_shot
            assert report.accepted_seconds > 0.0
        finally:
            host.shutdown()

    def test_one_shot_map_credits_the_same_timer_channel(self):
        # Regression: the one-shot fallback must report worker seconds
        # through the same StageTimer channel as the persistent path — a
        # pipeline whose profile maps are all one-shot (the default) would
        # otherwise show zero worker time for its heaviest stage.
        backend = ProcessBackend(workers=2)
        try:
            lock = threading.Lock()
            items = [(lock, value) for value in range(4)]
            timer = StageTimer()
            results = backend.map(
                lambda item: item[1] * 3, items, timer=timer, stage="profile"
            )
            assert results == [0, 3, 6, 9]
            assert timer.worker_as_dict().get("profile", 0.0) > 0.0
        finally:
            backend.shutdown()
