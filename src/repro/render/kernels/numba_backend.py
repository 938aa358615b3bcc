"""The numba-compiled kernel backend.

This module compiles the per-ray loop kernels of
:mod:`repro.render.kernels.loops` with ``numba.njit`` and exposes them as
the plain :data:`COMPILED` mapping the registry assembles into a
:class:`~repro.render.kernels.registry.KernelSet`.  It imports cleanly —
and :data:`COMPILED` is simply empty — when numba is not installed, so the
registry can probe availability without a try/except at every call site.

Compilation flags, all load-bearing:

* ``fastmath=False`` — the parity tiers depend on IEEE-faithful codegen:
  no fma contraction, no reassociation, NaN/inf semantics preserved.  The
  "exact" tier kernels are pinned bit-identical to the numpy reference and
  stay that way only without fastmath.
* ``cache=True`` — compiled machine code is persisted next to the source
  (``__pycache__``), so forked workers and fresh CI processes warm
  from disk instead of re-JITting every kernel per process.
* ``nogil=True`` — kernels release the GIL while marching; the thread
  backend overlaps chunks for free.

Deliberately **no** ``parallel=True`` and no thread-count knob: numba's
threading layers (TBB/OpenMP/workqueue) start worker threads that do not
survive ``os.fork``, which would poison the forked workers.
Kernels stay single-threaded per call;
parallelism across rays belongs to the existing chunk sharding in
:mod:`repro.exec`.

JIT compilation itself is lazy (first call per signature); callers that
must not pay it mid-measurement use
:func:`repro.render.kernels.registry.warm_up`.
"""

from __future__ import annotations

from repro.render.kernels import loops

try:  # pragma: no cover - exercised only where numba is installed
    import numba
except ImportError:  # pragma: no cover - the numpy-only environment
    numba = None

#: Whether the compiled path is importable in this environment.
NUMBA_AVAILABLE = numba is not None


def compile_kernels() -> dict:
    """njit-wrap every kernel entry point of the loop backend.

    Returns ``{kernel_name: compiled_function}`` for the names in
    :data:`repro.render.kernels.loops.KERNEL_FUNCTION_NAMES`.  Raises
    :class:`RuntimeError` when numba is unavailable — callers should gate
    on :data:`NUMBA_AVAILABLE` (or use the prebuilt :data:`COMPILED`).
    """
    if numba is None:
        raise RuntimeError("numba is not installed; the compiled kernel "
                           "backend is unavailable")
    decorate = numba.njit(cache=True, fastmath=False, nogil=True)
    return {
        name: decorate(getattr(loops, name))
        for name in loops.KERNEL_FUNCTION_NAMES
    }


COMPILED: dict = compile_kernels() if NUMBA_AVAILABLE else {}
