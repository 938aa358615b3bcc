"""Pluggable execution backends for the library's bulk workloads.

Every embarrassingly parallel workload in the reproduction — ray chunks in
:class:`repro.render.RenderEngine`, profiler measurements, per-object bake
geometry, baseline evaluation — is expressed as an ordered ``map(fn, items)``
and routed through one of the interchangeable backends:

* :class:`SerialBackend` — a plain in-process loop; the bit-identical
  reference every other backend is pinned against.
* :class:`ThreadBackend` — a :class:`~concurrent.futures.ThreadPoolExecutor`
  fan-out (the engine's historical ``workers`` knob).  Threads share memory,
  so tasks may mutate caller state, but the Python-heavy marcher loops are
  GIL-bound and only numpy-releasing sections overlap.
* :class:`ProcessBackend` — true multi-core execution on persistent worker
  daemons, one item per dispatch.  The daemons are forked and owned by a
  :class:`~repro.exec.worker.WorkerHost`: consecutive maps with the same
  callable reuse the live daemons (items then cross the wire pickled); a
  new callable respawns them, and maps whose items do not pickle take a
  one-shot path that inherits callable *and* items by fork memory image
  (closures over scenes, SDF lambdas and lazy textures all work).
  Task side effects (cache writes) stay in the worker and are re-applied
  by the caller from the returned values.

Backends are selected by name — ``PipelineConfig.backend``, the
``REPRO_BACKEND`` environment variable, or :func:`resolve_backend` directly.
All backends produce bit-identical results for the workloads they run
(pinned in ``tests/test_exec_backends.py``): tasks are pure functions of
their item and results are assembled in item order.

What a backend shards is the caller's choice, and the pipeline makes it the
same on every backend: whole objects for the profile stage, sub-models for
bake geometry, ray chunks for rendering.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor

from repro.config import env as repro_env
from repro.exec.transport import (  # noqa: F401  (re-exported API)
    fork_available,
    in_worker_process,
)
from repro.exec.worker import WorkerHost

#: Environment variable that overrides the default backend selection.
BACKEND_ENV_VAR = repro_env.REPRO_BACKEND.name

#: Backend used when neither the caller nor the environment picks one.  The
#: thread backend with one worker degenerates to the serial loop, so the
#: default is behaviour-preserving.  Declared (with the parser) in
#: :mod:`repro.config.env`, the registry every environment read goes through.
DEFAULT_BACKEND_NAME = repro_env.REPRO_BACKEND.default


class Backend:
    """Ordered-map execution backend.

    ``map(fn, items)`` returns ``[fn(item) for item in items]`` — same
    length, same order, computed with the backend's execution strategy.
    When ``timer`` and ``stage`` are provided, the wall-clock time spent
    *inside the tasks* (summed across workers) is attributed to the stage
    via :meth:`repro.utils.timing.StageTimer.add_worker`, so multi-process
    runs do not silently drop worker-side time from the overhead analysis.
    """

    name = "base"
    workers = 1

    def map(self, fn, items, timer=None, stage=None) -> list:
        raise NotImplementedError

    def describe(self) -> str:
        return f"{self.name}({self.workers})"


def _timed(fn, item) -> tuple:
    start = time.perf_counter()
    result = fn(item)
    return time.perf_counter() - start, result


def _credit(timer, stage, pairs) -> list:
    """Record summed task seconds on the timer; return the bare results."""
    if timer is not None and stage is not None:
        timer.add_worker(stage, float(sum(elapsed for elapsed, _ in pairs)))
    return [result for _, result in pairs]


class SerialBackend(Backend):
    """The in-process reference backend: a plain ordered loop."""

    name = "serial"

    def __init__(self, workers: "int | None" = None) -> None:
        self.workers = 1

    def map(self, fn, items, timer=None, stage=None) -> list:
        items = list(items)
        if timer is None or stage is None:
            return [fn(item) for item in items]
        return _credit(timer, stage, [_timed(fn, item) for item in items])


class ThreadBackend(Backend):
    """Thread-pool fan-out (shared memory, GIL-bound for pure-Python tasks)."""

    name = "thread"

    def __init__(self, workers: "int | None" = None) -> None:
        self.workers = max(int(workers) if workers is not None else 1, 1)

    def map(self, fn, items, timer=None, stage=None) -> list:
        items = list(items)
        if self.workers <= 1 or len(items) <= 1:
            return SerialBackend().map(fn, items, timer=timer, stage=stage)
        with ThreadPoolExecutor(max_workers=self.workers) as pool:
            if timer is None or stage is None:
                return list(pool.map(fn, items))
            pairs = list(pool.map(lambda item: _timed(fn, item), items))
        return _credit(timer, stage, pairs)


class ProcessBackend(Backend):
    """Persistent worker daemons: true multi-core execution of Python tasks.

    Sharding contract: tasks must be pure functions of their item (caller
    state mutated inside a worker is lost — callers re-apply side effects
    from the returned values), return values must pickle, and any
    randomness must be seeded from the item
    (:func:`repro.utils.rng.make_rng`).

    Items run on the shared :class:`~repro.exec.worker.WorkerHost`, one
    item per dispatch, pulled by whichever daemon is idle.  Daemons are
    **persistent** — consecutive maps with the *same* callable reuse them
    (items cross the wire pickled, results come back pickled, nothing is
    respawned); a map with a different callable re-registers the task and
    respawns the daemons, which inherit it by fork memory image.
    Maps whose items do not pickle take the host's one-shot path instead,
    inheriting both callable and items by memory image; the persistent
    daemons stay intact for the next reusable map.  :meth:`shutdown`
    (also run at interpreter exit) reaps the daemons.

    Falls back to the serial loop when workers cannot be forked on this
    platform, when called from inside a worker daemon (daemons
    must not fork), or when the workload is too small to amortise a
    dispatch.
    """

    name = "process"

    def __init__(self, workers: "int | None" = None) -> None:
        default = os.cpu_count() or 1
        self.workers = max(int(workers) if workers is not None else default, 1)
        self.host = WorkerHost(workers=self.workers)

    @property
    def fork_count(self) -> int:
        """Task generations installed on the host; a map served without
        this increasing reused the persistent daemons."""
        return self.host.task_generations

    @property
    def worker_revivals(self) -> int:
        """Worker deaths detected (and their lost items re-enqueued)."""
        return self.host.worker_deaths

    def map(self, fn, items, timer=None, stage=None) -> list:
        items = list(items)
        if (
            self.workers <= 1
            or len(items) <= 1
            or not self.host.available()
            or in_worker_process()
        ):
            return SerialBackend().map(fn, items, timer=timer, stage=stage)
        results, report = self.host.run(fn, items)
        if timer is not None and stage is not None:
            timer.add_worker(stage, report.accepted_seconds)
        return results

    def shutdown(self) -> None:
        """Reap the persistent daemons (idempotent, thread-safe)."""
        self.host.shutdown()


#: Registry of selectable backends, keyed by the names accepted from
#: ``PipelineConfig.backend`` and the ``REPRO_BACKEND`` environment variable.
BACKENDS = {
    SerialBackend.name: SerialBackend,
    ThreadBackend.name: ThreadBackend,
    ProcessBackend.name: ProcessBackend,
}


def known_backend_names() -> list:
    """Every backend name :func:`resolve_backend` accepts."""
    return sorted(BACKENDS)


def resolve_backend(backend=None, workers: "int | None" = None) -> Backend:
    """Resolve a backend instance from a name, an instance, or the environment.

    Args:
        backend: a :class:`Backend` instance (returned unchanged), a backend
            name from :func:`known_backend_names`, or ``None`` to consult
            the ``REPRO_BACKEND`` environment variable and fall back to the
            behaviour-preserving default (``thread``).
        workers: worker count; ``None`` uses the backend's own default
            (1 for serial/thread — today's inline behaviour — and the host
            CPU count for the process backend).

    Raises:
        ValueError: the name is not a known backend; the message lists
            every valid name.
    """
    if isinstance(backend, Backend):
        return backend
    name = backend
    if name is None:
        name = repro_env.REPRO_BACKEND.get()
    name = str(name).strip().lower()
    if name not in BACKENDS:
        raise ValueError(
            f"unknown execution backend {name!r}; valid backends: "
            f"{', '.join(known_backend_names())} (select via "
            f"PipelineConfig.backend or the {BACKEND_ENV_VAR} environment "
            "variable)"
        )
    return BACKENDS[name](workers=workers)
