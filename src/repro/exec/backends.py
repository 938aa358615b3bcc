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
* :class:`ProcessBackend` — true multi-core execution: each map forks a
  :class:`~concurrent.futures.ProcessPoolExecutor` whose workers inherit
  the callable and the items by fork memory image (closures over scenes,
  SDF lambdas and lazy textures all work); only indices go out and return
  values come back.  Task side effects (cache writes) stay in the worker
  and are re-applied by the caller from the returned values.

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
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.config import env as repro_env

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


#: Executors one process map may fork after its first one broke: each
#: re-runs the items whose worker died before they finished.
MAX_MAP_RESTARTS = 2

#: Serialises process maps, so the stashed task below is the one every
#: worker forked while the lock is held inherits.
_MAP_LOCK = threading.Lock()

#: ``(fn, items)`` of the process map in flight, inherited by fork.
_MAP_TASK = None

#: Set by the executor's initializer in every forked worker.
_IN_WORKER = False


def fork_available() -> bool:
    """Whether this platform can fork worker processes."""
    return hasattr(os, "fork")


def in_worker_process() -> bool:
    """Whether the current process is a process-backend worker (workers
    must not fork, so their maps run serially)."""
    return _IN_WORKER


def _mark_worker() -> None:
    global _IN_WORKER
    _IN_WORKER = True


def _run_index(index: int) -> tuple:
    fn, items = _MAP_TASK
    return _timed(fn, items[index])


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
    """Forked worker processes: true multi-core execution of Python tasks.

    Each map forks a fresh :class:`~concurrent.futures.ProcessPoolExecutor`
    of ``min(workers, len(items))`` processes.  The callable and the items
    are stashed in this module right before the fork, so workers inherit
    them by memory image (closures over scenes, SDF lambdas and lazy
    textures need not pickle); only item indices go out and each task's
    return value comes back.  Maps are serialised by one module lock, so
    no map can fork while another's task is stashed.

    Sharding contract: tasks must be pure functions of their item (caller
    state mutated inside a worker is lost — callers re-apply side effects
    from the returned values), return values must pickle, and any
    randomness must be seeded from the item
    (:func:`repro.utils.rng.make_rng`).

    A task exception is re-raised as its own type, with the worker's
    traceback as ``__cause__``.  When a worker dies (killed, OOMed), the
    items that did not finish re-run on a fresh executor, at most
    :data:`MAX_MAP_RESTARTS` times per map, after which
    :class:`~concurrent.futures.process.BrokenProcessPool` is raised.

    Falls back to the serial loop when the platform cannot fork, when
    called from inside a worker (workers must not fork), or when the map
    has fewer than two items.
    """

    name = "process"

    def __init__(self, workers: "int | None" = None) -> None:
        default = os.cpu_count() or 1
        self.workers = max(int(workers) if workers is not None else default, 1)

    def map(self, fn, items, timer=None, stage=None) -> list:
        global _MAP_TASK
        items = list(items)
        if (
            self.workers <= 1
            or len(items) <= 1
            or in_worker_process()
            or not fork_available()
        ):
            return SerialBackend().map(fn, items, timer=timer, stage=stage)
        import multiprocessing
        from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

        context = multiprocessing.get_context("fork")
        pairs: dict = {}
        with _MAP_LOCK:
            _MAP_TASK = (fn, items)
            try:
                for _ in range(MAX_MAP_RESTARTS + 1):
                    todo = [index for index in range(len(items)) if index not in pairs]
                    pool = ProcessPoolExecutor(
                        min(self.workers, len(todo)),
                        mp_context=context,
                        initializer=_mark_worker,
                    )
                    try:
                        futures = [(index, pool.submit(_run_index, index)) for index in todo]
                        for index, future in futures:
                            try:
                                pairs[index] = future.result()
                            except BrokenProcessPool as error:
                                broken = error  # re-run on a fresh executor
                    finally:
                        pool.shutdown(cancel_futures=True)
                    if len(pairs) == len(items):
                        break
                else:
                    raise BrokenProcessPool(
                        f"worker processes kept dying: {len(items) - len(pairs)} "
                        f"of {len(items)} items unfinished after "
                        f"{MAX_MAP_RESTARTS + 1} executors"
                    ) from broken
            finally:
                _MAP_TASK = None
        return _credit(timer, stage, [pairs[index] for index in range(len(items))])


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
