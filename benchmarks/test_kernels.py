"""Micro-benchmarks of the compiled kernel layer (repro.render.kernels).

Each benchmark times one hot-loop kernel on a synthetic workload sized
like a real render chunk, for every *production* backend registered in
this environment — the ``numpy`` reference always, ``numba`` when it is
installed (the CI kernel leg).  The uncompiled ``loops`` backend is
deliberately not benchmarked: it exists as the parity-testing vehicle for
machines without numba, not as a path anyone deploys.

Per-backend throughput (rays/sec or samples/sec) is published into the
session trajectory — run with ``REPRO_BENCH_SUITE=kernels`` to emit
``BENCH_kernels.json`` with a ``metrics.kernels`` section — so the
speedups claimed in EXPERIMENTS.md are backed by archived data.

The acceptance pin lives here too: with numba installed, the occupancy
marcher must clear **3x** the numpy rays/sec on its single-grid workload
(the floor for CI hardware; the stretch goal is 5x and the observed
numbers land in the trajectory either way).  A second marcher workload
marches six grids of mixed resolutions in one call, shaped like a baked
bundle's frame; its throughput is recorded for every backend, with no
floor.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.baking.voxelize import VoxelGrid
from repro.render.kernels import KERNELS, NUMBA_AVAILABLE, get_kernels, warm_up
from repro.render.kernels.numpy_ref import stack_grids

#: Backends benchmarked in this environment (see module docstring for why
#: ``loops`` is excluded).
BENCH_BACKENDS = [name for name in ("numpy", "numba") if name in KERNELS]

#: Repeats per measurement; the best (minimum) wall clock is recorded, the
#: standard practice for micro-benchmarks on shared CI hardware.
REPEATS = 5

#: The issue's acceptance floor for the compiled marcher, in multiples of
#: the numpy reference throughput.
MARCH_SPEEDUP_FLOOR = 3.0


def best_seconds(fn, repeats: int = REPEATS) -> float:
    fn()  # warm-up: triggers JIT compilation / cache load on first call
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def record(bench_metrics, bench: str, backend: str, seconds: float,
           items: int, unit: str) -> float:
    """Store one measurement; returns the throughput for assertions."""
    throughput = items / seconds if seconds > 0 else float("inf")
    bench_metrics.setdefault("kernels", {})[f"{bench}:{backend}"] = {
        "backend": backend,
        "compiled": KERNELS[backend].compiled,
        "best_seconds": round(seconds, 6),
        "items": items,
        "unit": unit,
        "throughput": round(throughput, 1),
    }
    return throughput


def synthetic_grid(rng, g, voxel, lo, density):
    """One random grid's ``stack_grids`` entry (one face per occupied voxel)."""
    occupancy = rng.random((g, g, g)) < density
    occupied = np.argwhere(occupancy).astype(np.int64)
    voxel_key = (occupied[:, 0] * g + occupied[:, 1]) * g + occupied[:, 2]
    axes = rng.integers(0, 3, occupied.shape[0])
    signs = rng.choice([-1, 1], occupied.shape[0])
    face_key = (voxel_key * 6 + axes * 2 + (signs > 0)).astype(np.int64)
    order = np.argsort(face_key, kind="stable").astype(np.int64)
    return (
        np.asarray(lo, dtype=np.float64), voxel, voxel * 0.5,
        VoxelGrid(np.zeros(3), voxel, g, occupancy).skip_distance,
        (face_key[order], order, voxel_key[order].astype(np.int64)),
    )


def converging_rays(rng, num_rays, lo, extent):
    """Rays aimed into a box from a shell around it, as camera rays are."""
    targets = np.asarray(lo) + rng.random((num_rays, 3)) * extent
    origins = np.ascontiguousarray(
        targets + rng.normal(size=(num_rays, 3)) * 2.0 * extent
    )
    directions = targets - origins
    return origins, np.ascontiguousarray(
        directions / np.linalg.norm(directions, axis=1, keepdims=True)
    )


@pytest.fixture(scope="session")
def march_workload():
    """A render-chunk-sized occupancy march: 8192 rays, one 24^3 grid."""
    rng = np.random.default_rng(42)
    g = 24
    grid = synthetic_grid(rng, g, 1.0 / g, np.zeros(3), 0.2)
    num_rays = 8192
    origins, directions = converging_rays(rng, num_rays, np.zeros(3), 1.0)
    t_near = np.zeros(num_rays)
    t_far = np.full(num_rays, 6.0)
    return {
        "num_rays": num_rays,
        "args": (
            origins, directions, t_near, t_far, np.zeros(num_rays, dtype=np.int64),
            *stack_grids([grid]),
        ),
    }


#: Resolutions of the multi-grid workload: a backdrop and five objects at
#: mixed granularities, the shape of the benchmark's baked bundle.
MULTI_GRID_RESOLUTIONS = (32, 48, 16, 48, 48, 48)


@pytest.fixture(scope="session")
def multi_march_workload():
    """8192 (ray, grid) rows over six grids of mixed resolutions, sparse
    like baked objects, in one call."""
    rng = np.random.default_rng(45)
    grids, rows = [], []
    num_rays = 8192
    share = num_rays // len(MULTI_GRID_RESOLUTIONS)
    for index, g in enumerate(MULTI_GRID_RESOLUTIONS):
        lo = np.array([1.5 * index, 0.0, 0.0])
        grids.append(synthetic_grid(rng, g, 1.0 / g, lo, 0.04))
        count = num_rays - share * index if index == len(MULTI_GRID_RESOLUTIONS) - 1 else share
        origins, directions = converging_rays(rng, count, lo, 1.0)
        rows.append((origins, directions, np.full(count, index, dtype=np.int64)))
    origins, directions, grid_index = (np.concatenate(part) for part in zip(*rows))
    return {
        "num_rays": num_rays,
        "args": (
            origins, directions, np.zeros(num_rays), np.full(num_rays, 6.0),
            grid_index, *stack_grids(grids),
        ),
    }


@pytest.fixture(scope="session")
def composite_workload():
    """A volume-render chunk: 4096 rays x 64 samples."""
    rng = np.random.default_rng(43)
    num_rays, num_samples = 4096, 64
    deltas = np.ascontiguousarray(rng.random((num_rays, num_samples)) * 0.05 + 1e-4)
    return {
        "num_rays": num_rays,
        "num_samples": num_samples,
        "sdf": np.ascontiguousarray(rng.normal(scale=0.3, size=(num_rays, num_samples))),
        "densities": np.ascontiguousarray(rng.random((num_rays, num_samples)) * 30.0),
        "colors": np.ascontiguousarray(rng.random((num_rays, num_samples, 3))),
        "deltas": deltas,
        "background": np.ascontiguousarray(rng.random(3)),
        "distances": np.ascontiguousarray(np.cumsum(deltas, axis=1)),
    }


@pytest.fixture(scope="session")
def march_throughputs(march_workload, bench_metrics):
    """rays/sec of the occupancy marcher, per benchmarked backend."""
    throughputs = {}
    for backend in BENCH_BACKENDS:
        warm_up(backend)
        kernels = get_kernels(backend)
        seconds = best_seconds(lambda: kernels.march_occupancy(*march_workload["args"]))
        throughputs[backend] = record(
            bench_metrics, "march_occupancy", backend, seconds,
            march_workload["num_rays"], "rays/sec",
        )
    return throughputs


@pytest.fixture(scope="session")
def multi_march_throughputs(multi_march_workload, bench_metrics):
    """rays/sec of the occupancy marcher over six grids in one call."""
    throughputs = {}
    for backend in BENCH_BACKENDS:
        warm_up(backend)
        kernels = get_kernels(backend)
        seconds = best_seconds(
            lambda: kernels.march_occupancy(*multi_march_workload["args"])
        )
        throughputs[backend] = record(
            bench_metrics, "march_occupancy_multi", backend, seconds,
            multi_march_workload["num_rays"], "rays/sec",
        )
    return throughputs


class TestMarchOccupancy:
    def test_throughput_recorded(self, march_throughputs, march_workload):
        reference = get_kernels("numpy").march_occupancy(*march_workload["args"])
        assert reference[0].size > march_workload["num_rays"] // 10  # real work
        assert all(value > 0 for value in march_throughputs.values())

    def test_multi_grid_throughput_recorded(
        self, multi_march_throughputs, multi_march_workload
    ):
        reference = get_kernels("numpy").march_occupancy(*multi_march_workload["args"])
        hit_grids = multi_march_workload["args"][4][reference[0]]
        # Real work in every grid of the call.
        assert set(hit_grids.tolist()) == set(range(len(MULTI_GRID_RESOLUTIONS)))
        assert all(value > 0 for value in multi_march_throughputs.values())

    @pytest.mark.skipif(not NUMBA_AVAILABLE, reason="numba not installed")
    def test_compiled_marcher_clears_speedup_floor(self, march_throughputs):
        speedup = march_throughputs["numba"] / march_throughputs["numpy"]
        assert speedup >= MARCH_SPEEDUP_FLOOR, (
            f"compiled marcher at {speedup:.2f}x numpy "
            f"(floor {MARCH_SPEEDUP_FLOOR}x)"
        )

    @pytest.mark.skipif(not NUMBA_AVAILABLE, reason="numba not installed")
    def test_compiled_marcher_is_bit_identical_on_bench_workload(
        self, march_workload, multi_march_workload
    ):
        for workload in (march_workload, multi_march_workload):
            reference = get_kernels("numpy").march_occupancy(*workload["args"])
            compiled = get_kernels("numba").march_occupancy(*workload["args"])
            for ref, cand in zip(reference, compiled):
                np.testing.assert_array_equal(ref, cand)


class TestVolumeKernels:
    @pytest.mark.parametrize("backend", BENCH_BACKENDS)
    def test_sdf_to_density(self, backend, composite_workload, bench_metrics):
        kernels = get_kernels(backend)
        warm_up(backend)
        sdf = composite_workload["sdf"]
        seconds = best_seconds(lambda: kernels.sdf_to_density(sdf, 0.02))
        assert record(
            bench_metrics, "sdf_to_density", backend, seconds,
            sdf.size, "samples/sec",
        ) > 0

    @pytest.mark.parametrize("backend", BENCH_BACKENDS)
    def test_composite_forward(self, backend, composite_workload, bench_metrics):
        kernels = get_kernels(backend)
        warm_up(backend)
        w = composite_workload
        seconds = best_seconds(
            lambda: kernels.composite_forward(
                w["densities"], w["colors"], w["deltas"],
                w["background"], w["distances"],
            )
        )
        assert record(
            bench_metrics, "composite_forward", backend, seconds,
            w["num_rays"], "rays/sec",
        ) > 0


class TestSphereKernels:
    @pytest.mark.parametrize("backend", BENCH_BACKENDS)
    def test_trace_step_loop(self, backend, bench_metrics):
        """The gather/advance pair iterated as the sphere tracer drives it."""
        rng = np.random.default_rng(44)
        num_rays, num_steps = 4096, 48
        # Rays start on a radius-3 shell and aim near the unit sphere at the
        # origin, so the trace takes tens of shrinking steps to converge —
        # the shape of a real camera batch, not a one-step exit.
        origins = rng.normal(size=(num_rays, 3))
        origins = np.ascontiguousarray(
            3.0 * origins / np.linalg.norm(origins, axis=1, keepdims=True)
        )
        directions = rng.normal(scale=0.2, size=(num_rays, 3)) - origins
        directions = np.ascontiguousarray(
            directions / np.linalg.norm(directions, axis=1, keepdims=True)
        )
        limits = np.full(num_rays, 4.0)
        warm_up(backend)
        kernels = get_kernels(backend)

        def run():
            t_values = np.zeros(num_rays)
            hit = np.zeros(num_rays, dtype=bool)
            alive = np.arange(num_rays, dtype=np.int64)
            for _ in range(num_steps):
                if alive.size == 0:
                    break
                points = kernels.gather_ray_points(origins, directions, t_values, alive)
                # A unit-sphere SDF stands in for the scene between kernels.
                distances = np.ascontiguousarray(
                    np.linalg.norm(points, axis=1) - 1.0
                )
                alive = kernels.sphere_advance(
                    t_values, hit, alive, distances, limits, 2e-3
                )
            return hit

        assert run().any()
        seconds = best_seconds(run)
        assert record(
            bench_metrics, "sphere_trace_loop", backend, seconds,
            num_rays, "rays/sec",
        ) > 0
