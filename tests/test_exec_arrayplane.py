"""Tests for the array plane of the worker wire.

The array plane is how ndarray buffers cross between scheduler and worker
daemons: pickle protocol 5 lifts each buffer out of the control pickle,
and :func:`~repro.exec.transport.send_frame` writes it as its own raw,
length-prefixed segment of the same frame (inline segments; no shared
memory).  Pins the plane's contract: large and small arrays round-trip
byte-identically inside the frame, a forged segment count is rejected
before allocation, an unpicklable message writes nothing, results arrive
as views of their received segment, a SIGKILL mid-map is requeued
bit-identically, a scheduler exiting without ``shutdown()`` leaves
neither daemons nor ``/dev/shm`` residue, and one-shot maps credit the
same timer channel as persistent ones.
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
    ProcessBackend,
    WorkerHost,
    fork_available,
)
from repro.exec.transport import MAX_SEGMENTS_PER_FRAME, recv_frame, send_frame
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
class TestShmPlaneEndToEnd:
    """End-to-end guards of the plane that replaced the shared-memory one:
    the same requeue and exit-hygiene contracts, and no shared-memory
    residue at all."""

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
