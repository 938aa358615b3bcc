"""Sharded-map contract of the process backend's daemon cluster.

The process backend runs every map on a local cluster of forked worker
daemons (:class:`repro.exec.worker.WorkerHost`).  These tests pin what a
sharded evaluation relies on: results come back ordered and inherit the
caller's closures, a one-item map stays in the caller, worker-side state
dies with the worker, worker seconds land on the caller's stage, a failing
task surfaces its own exception without wedging the backend, and a killed
worker's item is retried on a replacement daemon.
"""

from __future__ import annotations

import os
import signal
import threading

import numpy as np
import pytest

from repro.exec import ProcessBackend, fork_available
from repro.utils.timing import StageTimer

needs_fork = pytest.mark.skipif(not fork_available(), reason="needs fork")


@pytest.fixture
def make_backend():
    """Build process backends and reap their daemons after the test."""
    backends = []

    def build(workers):
        backend = ProcessBackend(workers=workers)
        backends.append(backend)
        return backend

    yield build
    for backend in backends:
        backend.shutdown()


@needs_fork
class TestClusterMap:
    def test_ordered_results_and_closure_inheritance(self, make_backend):
        backend = make_backend(3)
        weights = np.arange(64, dtype=np.float64)  # closures never pickle
        items = list(range(64))
        assert backend.map(lambda x: float(weights[x] + x), items) == [
            float(2 * x) for x in items
        ]
        assert backend.host.maps == 1
        assert backend.host.spawn_count == 3

    def test_single_item_falls_back_to_serial(self, make_backend):
        backend = make_backend(4)
        state = {"touched": False}

        def task(x):
            state["touched"] = True
            return x

        assert backend.map(task, [7]) == [7]
        assert state["touched"]  # ran in this process
        assert backend.host.maps == 0 and backend.host.spawn_count == 0

    def test_side_effects_stay_in_workers(self, make_backend):
        backend = make_backend(2)
        state = {"count": 0}

        def task(x):
            state["count"] += 1  # dies with the worker
            return x + 1

        assert backend.map(task, [1, 2, 3, 4]) == [2, 3, 4, 5]
        assert state["count"] == 0

    def test_worker_seconds_attributed_to_stage(self, make_backend):
        backend = make_backend(2)
        timer = StageTimer()
        backend.map(
            lambda x: sum(range(4000)), list(range(8)), timer=timer, stage="shards"
        )
        assert timer.worker_as_dict()["shards"] > 0.0
        assert timer.as_dict() == {}  # wall-clock stays the caller's

    def test_task_exception_propagates(self, make_backend):
        backend = make_backend(2)

        def boom(x):
            if x == 5:
                raise ValueError("shard task failed")
            return x

        with pytest.raises(ValueError, match="shard task failed"):
            backend.map(boom, list(range(8)))
        # The backend stays usable after a failed map.
        assert backend.map(lambda x: x, [1, 2, 3]) == [1, 2, 3]


@needs_fork
class TestClusterWorkerDeath:
    def test_killed_worker_shard_is_retried(self, make_backend, tmp_path):
        sentinel = tmp_path / "killed-once"

        def task(x):
            if x == "kill" and not sentinel.exists():
                sentinel.touch()
                os.kill(os.getpid(), signal.SIGKILL)
            return ("ok", x)

        backend = make_backend(2)
        items = [0, 1, "kill", 3, 4, 5, 6, 7]
        outcome = {}

        def run():
            outcome["results"] = backend.map(task, items)

        thread = threading.Thread(target=run)
        thread.start()
        thread.join(timeout=60.0)
        assert not thread.is_alive(), "process map hung after a worker kill"
        assert outcome["results"] == [("ok", item) for item in items]
        assert backend.worker_revivals >= 1
        # A replacement daemon was forked beyond the initial set.
        assert backend.host.spawn_count >= 3
