"""Tests for how the process backend moves work to forked workers and back.

Each process map forks a fresh executor whose workers inherit the task and
its items by fork memory image; only item indices go out and each task's
return value comes back pickled.  The parity matrix pins that carrier
byte-identical to the serial loop at 1, 2 and 5 workers, and the executor
leaves no child process behind however the map ends.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.exec import ProcessBackend, fork_available

needs_fork = pytest.mark.skipif(not fork_available(), reason="needs fork")


# ---------------------------------------------------------------------------
# Parity matrix: process x {1, 2, 5 workers} against serial
# ---------------------------------------------------------------------------


def _golden_array_task(x):
    """A pure, deterministic task whose 187 KiB result is pickled back."""
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
        # The acceptance pin: the executor is a pure carrier — every cell
        # returns byte-identical arrays in item order.
        results = backend_cls(workers=workers).map(_golden_array_task, list(range(9)))
        assert len(results) == len(reference)
        for got, want in zip(results, reference):
            assert got.dtype == want.dtype
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# No worker outlives its map
# ---------------------------------------------------------------------------


def _double(x):
    return 2 * x


def _fail_on_three(x):
    if x == 3:
        raise ValueError("task failed")
    return x


def _die(x):
    os.kill(os.getpid(), signal.SIGKILL)


@needs_fork
class TestNoWorkerOutlivesItsMap:
    @pytest.mark.parametrize(
        "task,error",
        [(_double, None), (_fail_on_three, ValueError), (_die, BrokenProcessPool)],
        ids=["success", "task-exception", "chronic-death"],
    )
    def test_no_active_children_after_map(self, task, error):
        backend = ProcessBackend(workers=2)
        items = list(range(6))
        if error is None:
            assert backend.map(task, items) == [2 * x for x in items]
        else:
            with pytest.raises(error):
                backend.map(task, items)
        assert multiprocessing.active_children() == []
