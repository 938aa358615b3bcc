"""The kernel registry: named backends, selection order, warm-up.

A *kernel backend* is a :class:`KernelSet` — the five narrow
array-in/array-out functions the render engine dispatches its hot loops
to.  Three backends are registered:

``numpy``
    The vectorised reference (:mod:`repro.render.kernels.numpy_ref`).
    Always available; defines the semantics every other backend is pinned
    against.
``loops``
    The per-ray plain-Python loops (:mod:`repro.render.kernels.loops`)
    executed *uncompiled*.  Far slower than numpy — it exists so the
    parity suite can prove the loop algorithms equivalent to the
    reference on machines without numba, and as the debugging vehicle for
    the compiled path (same code, python tracebacks).
``numba``
    The same loops compiled by :mod:`repro.render.kernels.numba_backend`.
    Registered only when numba imports; the fast path.

Selection order (:func:`resolve_kernel_name`): an explicit name wins and
is strict — asking for ``numba`` where it is not installed is an error,
not a silent slowdown.  ``auto`` (the default, also via the
``REPRO_KERNEL`` environment knob declared in :mod:`repro.config.env`)
prefers the compiled path and degrades gracefully to ``numpy``.  The
environment value is forgiving like every other ``REPRO_*`` knob:
``REPRO_KERNEL=numba`` on a numba-less machine falls back to ``numpy``
rather than failing a run that would have produced identical values.

Fork/pickle contract: the engine stores only the resolved kernel *name*
(a string) and chunk functions call :func:`get_kernels` at execution
time, so nothing compiled or unpicklable ever crosses the worker wire.  Each
worker process resolves its own :class:`KernelSet` from this module-level
registry; :func:`warm_up` triggers JIT compilation eagerly where first-call
latency matters (numba's on-disk cache makes it cheap after the first
process on a machine).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import env as repro_env
from repro.render.kernels import loops as _loops
from repro.render.kernels import numba_backend as _numba_backend
from repro.render.kernels import numpy_ref as _numpy_ref

#: Environment variable that overrides the default kernel selection.
KERNEL_ENV_VAR = repro_env.REPRO_KERNEL.name

#: The selection placeholder: not a backend, but "pick for me".
AUTO_KERNEL_NAME = "auto"

#: ``auto`` tries these in order and takes the first registered one.
AUTO_PREFERENCE = ("numba", "numpy")

#: Whether the compiled backend registered in this process.
NUMBA_AVAILABLE = _numba_backend.NUMBA_AVAILABLE

#: Parity-tier labels (see DESIGN.md "Kernels").
PARITY_EXACT = "exact"
PARITY_BOUNDED_ULP = "bounded-ulp"

#: The declared parity tier of every kernel function: ``exact`` results
#: must be bit-identical across all backends; ``bounded-ulp`` results may
#: differ by a few ULP (sequential vs pairwise reductions, scalar vs
#: vectorised ``exp``) and are pinned at a small ``maxulp`` by the parity
#: suite.  Tests import this mapping so the tiers are enforced, not prose.
PARITY_TIERS = {
    "march_occupancy": PARITY_EXACT,
    "gather_ray_points": PARITY_EXACT,
    "sphere_advance": PARITY_EXACT,
    "sdf_to_density": PARITY_BOUNDED_ULP,
    "composite_forward": PARITY_BOUNDED_ULP,
}


@dataclass(frozen=True)
class KernelSet:
    """One named kernel backend: the five dispatchable hot-loop functions.

    ``compiled`` distinguishes native code from interpreted backends —
    benchmarks report it, and :func:`warm_up` only has real work to do
    when it is set.
    """

    name: str
    compiled: bool
    march_occupancy: "callable"
    sdf_to_density: "callable"
    composite_forward: "callable"
    gather_ray_points: "callable"
    sphere_advance: "callable"

    def describe(self) -> str:
        return f"{self.name}({'compiled' if self.compiled else 'interpreted'})"


def _from_namespace(name: str, namespace, compiled: bool) -> KernelSet:
    """Build a :class:`KernelSet` from a module or mapping of functions."""
    if isinstance(namespace, dict):
        functions = {fn: namespace[fn] for fn in _loops.KERNEL_FUNCTION_NAMES}
    else:
        functions = {
            fn: getattr(namespace, fn) for fn in _loops.KERNEL_FUNCTION_NAMES
        }
    return KernelSet(name=name, compiled=compiled, **functions)


#: Registry of selectable kernel backends, keyed by the names accepted
#: from ``PipelineConfig.kernel`` and the ``REPRO_KERNEL`` environment
#: variable.  ``numba`` is present only when it imported.
KERNELS = {
    "numpy": _from_namespace("numpy", _numpy_ref, compiled=False),
    "loops": _from_namespace("loops", _loops, compiled=False),
}
if NUMBA_AVAILABLE:
    KERNELS["numba"] = _from_namespace(
        "numba", _numba_backend.COMPILED, compiled=True
    )


def known_kernel_names() -> list:
    """Every name :func:`resolve_kernel_name` accepts in this process."""
    return sorted(KERNELS) + [AUTO_KERNEL_NAME]


def resolve_kernel_name(name=None) -> str:
    """Resolve a kernel selection to the name of a registered backend.

    Args:
        name: a backend name, ``"auto"``, or ``None`` to consult the
            ``REPRO_KERNEL`` environment variable (default ``auto``).

    Returns:
        A key of :data:`KERNELS` — the string the engine stores and ships
        to workers instead of the (potentially unpicklable) kernel set.

    Raises:
        ValueError: for an unknown name, or for an *explicitly requested*
            ``numba`` when numba is not installed.  An environment-selected
            ``numba`` falls back to ``numpy`` instead (environment knobs
            never take a run down; see :mod:`repro.config.env`).
    """
    from_env = name is None
    if from_env:
        name = repro_env.REPRO_KERNEL.get()
    name = str(name).strip().lower() or AUTO_KERNEL_NAME
    if name == AUTO_KERNEL_NAME:
        for candidate in AUTO_PREFERENCE:
            if candidate in KERNELS:
                return candidate
        raise ValueError(  # pragma: no cover - numpy always registers
            "no kernel backend available"
        )
    if name in KERNELS:
        return name
    if from_env:
        # A stale/foreign environment must not break runs that would have
        # produced identical values on the reference backend.
        return resolve_kernel_name(AUTO_KERNEL_NAME)
    if name == "numba":
        raise ValueError(
            "kernel backend 'numba' requested explicitly but numba is not "
            "installed; install numba or select 'auto' to fall back"
        )
    raise ValueError(
        f"unknown kernel backend {name!r}; expected one of "
        f"{known_kernel_names()}"
    )


def get_kernels(name=None) -> KernelSet:
    """The :class:`KernelSet` for a selection (resolved per this process).

    This is the function chunk closures call *inside* workers: passing the
    resolved name (a plain string) over the worker wire and re-resolving
    here keeps compiled functions out of pickles entirely.
    """
    return KERNELS[resolve_kernel_name(name)]


def warm_up(name=None) -> KernelSet:
    """Exercise every kernel of a backend once on tiny inputs.

    For compiled backends this triggers JIT compilation (or a load from
    numba's on-disk cache) up front, so the first measured chunk does not
    pay it.  Interpreted backends run the same calls as a cheap smoke
    test.  Returns the warmed :class:`KernelSet`.
    """
    kernels = get_kernels(name)

    origins = np.array([[-1.0, 0.5, 0.5]])
    directions = np.array([[1.0, 0.0, 0.0]])
    t_near = np.array([0.5])
    t_far = np.array([2.5])
    face_tables = (
        np.arange(6, dtype=np.int64),
        np.zeros(6, dtype=np.int64),
        np.zeros(6, dtype=np.int64),
    )
    grid_args = _numpy_ref.stack_grids(
        [(np.zeros(3), 1.0, 0.5, np.zeros((1, 1, 1), dtype=np.uint8), face_tables)]
    )
    kernels.march_occupancy(
        origins, directions, t_near, t_far, np.zeros(1, dtype=np.int64),
        *grid_args,
    )

    sdf = np.array([[0.25, -0.25]])
    densities = kernels.sdf_to_density(sdf, 0.1)
    colors = np.full((1, 2, 3), 0.5)
    deltas = np.full((1, 2), 0.1)
    background = np.zeros(3)
    sample_distances = np.array([[1.0, 1.1]])
    kernels.composite_forward(densities, colors, deltas, background,
                              sample_distances)

    alive = np.array([0], dtype=np.int64)
    t_values = np.array([0.5])
    kernels.gather_ray_points(origins, directions, t_values, alive)

    hit = np.zeros(1, dtype=bool)
    distances = np.array([0.25])
    limits = np.array([4.0])
    kernels.sphere_advance(t_values, hit, alive, distances, limits, 1e-4)
    return kernels
