"""Tiered parity suite for the compiled kernel layer (repro.render.kernels).

Every kernel backend is pinned against the vectorised numpy reference at
the tolerance its declared tier (``PARITY_TIERS``) permits:

* **exact** — ``march_occupancy``, ``gather_ray_points``,
  ``sphere_advance``: bit-identical outputs (``np.array_equal`` on values
  *and* matching dtypes).  The per-ray loops visit the same sample ladder
  and replicate numpy's NaN/inf semantics, so no tolerance is needed.
* **bounded-ulp** — ``sdf_to_density``, ``composite_forward``: sequential
  accumulation and scalar ``exp`` may differ from numpy's pairwise sums and
  vectorised ``exp`` by a few ULP; pinned with
  ``np.testing.assert_array_max_ulp`` at small per-kernel bounds.

The suite runs against the uncompiled ``loops`` backend everywhere, which
proves the *algorithms* equivalent even on machines without numba; when
numba is installed (the CI kernel leg) the identical assertions run against
the compiled functions too, pinning the codegen (``fastmath=False``).

The marcher skips empty space with a chessboard distance table and marches
the rows of several grids in one call, so both the numpy reference and the
loops are also pinned to a brute-force oracle that walks every ladder
sample of each row's grid (``TestMarchAgainstOracle``), and a row's outputs
to those of a call holding its grid alone.

Engine-level tests then pin that a full render is bit-identical across
kernels for the exact-tier paths (baked marching, sphere tracing) and
ULP-close for the volume path — including through a process backend, the
fork-safety contract (kernels ship as *names*, never as compiled objects).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baking.baked_model import BakedMultiModel, bake_field
from repro.baking.meshing import _TANGENT_AXES
from repro.baking.voxelize import VoxelGrid
from repro.core.pipeline import NeRFlexPipeline, PipelineConfig
from repro.device.models import DeviceProfile
from repro.exec.backends import SerialBackend
from repro.render import RenderEngine
from repro.render.engine import _candidate_pairs
from repro.render.kernels import (
    KERNELS,
    NUMBA_AVAILABLE,
    PARITY_BOUNDED_ULP,
    PARITY_EXACT,
    PARITY_TIERS,
    KernelSet,
    get_kernels,
    known_kernel_names,
    resolve_kernel_name,
    warm_up,
)
from repro.render.kernels import numpy_ref
from repro.render.kernels.loops import KERNEL_FUNCTION_NAMES
from repro.render.kernels.numpy_ref import stack_grids
from repro.scenes.cameras import camera_rays, orbit_cameras
from tests._aabb_oracle import ray_aabb

#: Backends pinned against the numpy reference in this environment.  The
#: uncompiled loops always run; numba joins on the CI leg that installs it.
CANDIDATE_BACKENDS = [name for name in ("loops", "numba") if name in KERNELS]

#: Bounded-ULP tier bounds, per kernel.  sdf_to_density differs only in
#: scalar-vs-vectorised exp; composite_forward also re-orders the rgb /
#: weight / depth reductions (sequential vs pairwise).
MAXULP = {"sdf_to_density": 4, "composite_forward": 128}


def assert_exact(reference, candidate):
    """Bit-identical: equal values (NaN-aware) and equal dtypes."""
    reference = np.asarray(reference)
    candidate = np.asarray(candidate)
    assert reference.dtype == candidate.dtype
    assert reference.shape == candidate.shape
    np.testing.assert_array_equal(reference, candidate)


@pytest.fixture(scope="module")
def baked_models(two_object_scene):
    return BakedMultiModel(
        [
            bake_field(placed, 14, 2, name=placed.instance_name)
            for placed in two_object_scene.placed
        ]
    )


def model_grid(model, step_scale=0.5):
    """A baked sub-model's entry for :func:`stack_grids` / :func:`march_inputs`."""
    grid = model.grid
    voxel = float(grid.voxel_size)
    return {
        "grid_lo": np.asarray(grid.bounds_min, dtype=np.float64),
        "voxel": voxel,
        "step": voxel * step_scale,
        "skip_distance": grid.skip_distance,
        "face_tables": model.faces.lookup_keys,
    }


def march_inputs(grids, origins, directions):
    """Kernel inputs marching every ray through every grid it enters.

    The (ray, grid) candidate pairs are concatenated grid by grid, as
    ``RenderEngine.render_baked_rays`` orders them; ``case["rays"]`` maps
    each row back to its ray.
    """
    lo = np.array([grid["grid_lo"] for grid in grids], dtype=np.float64)
    hi = lo + np.array(
        [grid["skip_distance"].shape[0] * grid["voxel"] for grid in grids]
    )[:, None]
    grid_index, rays, t_near, t_far = _candidate_pairs(origins, directions, lo, hi)
    return {
        "origins": origins[rays],
        "directions": directions[rays],
        "t_near": t_near,
        "t_far": t_far,
        "grid_index": grid_index,
        "rays": rays,
        "grids": grids,
        "grid_args": stack_grids(grid_entry(grid) for grid in grids),
    }


def grid_entry(grid):
    """One grid's ``stack_grids`` tuple."""
    return (grid["grid_lo"], grid["voxel"], grid["step"],
            grid["skip_distance"], grid["face_tables"])


def single_grid_case(case, grid):
    """Grid ``grid``'s rows of a multi-grid case, marched through it alone."""
    rows = case["grid_index"] == grid
    subset = {
        key: case[key][rows]
        for key in ("origins", "directions", "t_near", "t_far", "rays")
    }
    subset["grid_index"] = np.zeros(np.count_nonzero(rows), dtype=np.int64)
    subset["grids"] = [case["grids"][grid]]
    subset["grid_args"] = stack_grids([grid_entry(case["grids"][grid])])
    return subset


@pytest.fixture(scope="module")
def march_case(baked_models):
    """Real marching inputs: camera rays against both baked sub-models."""
    grid = baked_models.submodels[0].grid
    camera = orbit_cameras(
        np.asarray(grid.bounds_min) + 0.5 * (
            np.asarray(grid.bounds_max) - np.asarray(grid.bounds_min)
        ),
        radius=2.5 * float(np.max(np.asarray(grid.bounds_max) - np.asarray(grid.bounds_min))),
        count=1,
        width=24,
        height=24,
    )[0]
    origins, directions = camera_rays(camera)
    case = march_inputs(
        [model_grid(model) for model in baked_models.submodels],
        origins, directions,
    )
    assert case["origins"].shape[0] > 50  # the case must actually march
    assert set(case["grid_index"].tolist()) == {0, 1}
    return case


def march_with(kernels, case):
    return kernels.march_occupancy(
        case["origins"], case["directions"], case["t_near"], case["t_far"],
        case["grid_index"], *case["grid_args"],
    )


def skip_table(occupancy):
    """The cached chessboard skip table of a bare occupancy array."""
    return VoxelGrid(np.zeros(3), 1.0, occupancy.shape[0], occupancy).skip_distance


class TestRegistry:
    def test_numpy_and_loops_always_registered(self):
        assert "numpy" in KERNELS
        assert "loops" in KERNELS
        assert ("numba" in KERNELS) == NUMBA_AVAILABLE

    def test_parity_tiers_cover_every_kernel(self):
        assert set(PARITY_TIERS) == set(KERNEL_FUNCTION_NAMES)
        assert set(PARITY_TIERS.values()) <= {PARITY_EXACT, PARITY_BOUNDED_ULP}
        # The bounds asserted by this suite cover exactly the ULP tier.
        assert set(MAXULP) == {
            name for name, tier in PARITY_TIERS.items()
            if tier == PARITY_BOUNDED_ULP
        }

    def test_kernel_sets_expose_every_function(self):
        for kernel_set in KERNELS.values():
            assert isinstance(kernel_set, KernelSet)
            for fn in KERNEL_FUNCTION_NAMES:
                assert callable(getattr(kernel_set, fn))

    def test_explicit_names_resolve_to_themselves(self):
        for name in KERNELS:
            assert resolve_kernel_name(name) == name
            assert get_kernels(name).name == name

    def test_auto_prefers_compiled_path(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        expected = "numba" if NUMBA_AVAILABLE else "numpy"
        assert resolve_kernel_name("auto") == expected
        assert resolve_kernel_name(None) == expected  # unset environment

    def test_unknown_name_is_an_error(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            resolve_kernel_name("bogus")

    @pytest.mark.skipif(NUMBA_AVAILABLE, reason="numba installed here")
    def test_explicit_numba_without_numba_is_an_error(self):
        with pytest.raises(ValueError, match="numba is not installed"):
            resolve_kernel_name("numba")

    def test_environment_selection_and_graceful_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "loops")
        assert resolve_kernel_name() == "loops"
        # An environment-selected backend that is absent degrades to auto
        # instead of failing the run (environment knobs are forgiving).
        monkeypatch.setenv("REPRO_KERNEL", "numba")
        expected = "numba" if NUMBA_AVAILABLE else "numpy"
        assert resolve_kernel_name() == expected
        monkeypatch.setenv("REPRO_KERNEL", "not-a-kernel")
        assert resolve_kernel_name() == expected

    def test_warm_up_runs_every_backend(self):
        for name in known_kernel_names():
            assert warm_up(name).name == resolve_kernel_name(name)

    def test_tangent_tables_match_meshing(self):
        for axis in range(3):
            assert numpy_ref.TANGENT_U[axis] == _TANGENT_AXES[axis][0]
            assert numpy_ref.TANGENT_V[axis] == _TANGENT_AXES[axis][1]


@pytest.mark.parametrize("backend", CANDIDATE_BACKENDS)
class TestExactTierParity:
    """Bit-identical kernels: march_occupancy, gather_ray_points, sphere_advance."""

    def test_march_real_model(self, backend, march_case):
        reference = march_with(get_kernels("numpy"), march_case)
        candidate = march_with(get_kernels(backend), march_case)
        assert reference[0].size > 0  # the camera actually hits the model
        for ref, cand in zip(reference, candidate):
            assert_exact(ref, cand)

    def test_march_synthetic_grid_with_fallback_faces(self, backend):
        """Random rays against a synthetic grid whose face table is sparse.

        Every occupied voxel carries exactly one face, so rays entering
        through any other (axis, sign) must take the voxel-key fallback —
        the branch a well-formed bake rarely exercises.  Axis-parallel
        directions (exact zeros) and interior origins are included to hit
        the division guards and the t_entry clamp.
        """
        rng = np.random.default_rng(20260808)
        g = 5
        occupancy = rng.random((g, g, g)) < 0.25
        occupied = np.argwhere(occupancy).astype(np.int64)
        if occupied.shape[0] == 0:  # pragma: no cover - seed guarantees hits
            pytest.skip("empty synthetic grid")
        voxel_key = (occupied[:, 0] * g + occupied[:, 1]) * g + occupied[:, 2]
        axes = rng.integers(0, 3, occupied.shape[0])
        signs = rng.choice([-1, 1], occupied.shape[0])
        face_key = voxel_key * 6 + axes * 2 + (signs > 0)
        order = np.argsort(face_key, kind="stable").astype(np.int64)
        grid_lo = np.array([-1.0, -0.5, 0.25])
        face_tables = (
            face_key[order].astype(np.int64), order, voxel_key[order].astype(np.int64)
        )
        num_rays = 400
        origins = rng.normal(scale=1.5, size=(num_rays, 3)) + grid_lo
        directions = rng.normal(size=(num_rays, 3))
        # A quarter of the rays are axis-parallel (exact zero components).
        parallel = rng.random(num_rays) < 0.25
        zero_axis = rng.integers(0, 3, num_rays)
        keep_axis = (zero_axis + 1 + rng.integers(0, 2, num_rays)) % 3
        for ray in np.flatnonzero(parallel):
            directions[ray] = 0.0
            directions[ray, keep_axis[ray]] = rng.choice([-1.0, 1.0])
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        t_near = np.abs(rng.normal(scale=0.2, size=num_rays))
        t_far = t_near + np.abs(rng.normal(scale=4.0, size=num_rays)) + 0.1
        case = {
            "origins": origins, "directions": directions,
            "t_near": t_near, "t_far": t_far,
            "grid_index": np.zeros(num_rays, dtype=np.int64),
            "grid_args": stack_grids(
                [(grid_lo, 0.3, 0.15, skip_table(occupancy), face_tables)]
            ),
        }
        reference = march_with(get_kernels("numpy"), case)
        candidate = march_with(get_kernels(backend), case)
        assert reference[0].size > 0
        for ref, cand in zip(reference, candidate):
            assert_exact(ref, cand)

    def test_march_no_hits_returns_empty(self, backend):
        occupancy = np.zeros((3, 3, 3), dtype=bool)
        keys = np.zeros(1, dtype=np.int64)
        out = get_kernels(backend).march_occupancy(
            np.array([[-2.0, 0.5, 0.5]]), np.array([[1.0, 0.0, 0.0]]),
            np.array([0.0]), np.array([5.0]), np.zeros(1, dtype=np.int64),
            *stack_grids([(np.zeros(3), 1.0, 0.5, skip_table(occupancy),
                           (keys, keys, keys))]),
        )
        for array, dtype in zip(out, (np.int64, np.int64, np.float64,
                                      np.float64, np.float64)):
            assert array.size == 0
            assert array.dtype == dtype

    def test_march_zero_rays(self, backend):
        keys = np.zeros(1, dtype=np.int64)
        occupancy = np.ones((3, 3, 3), dtype=bool)
        out = get_kernels(backend).march_occupancy(
            np.empty((0, 3)), np.empty((0, 3)), np.empty(0), np.empty(0),
            np.empty(0, dtype=np.int64),
            *stack_grids([(np.zeros(3), 1.0, 0.5, skip_table(occupancy),
                           (keys, keys, keys))]),
        )
        assert all(array.size == 0 for array in out)

    def test_gather_ray_points(self, backend):
        rng = np.random.default_rng(11)
        origins = rng.normal(size=(64, 3))
        directions = rng.normal(size=(64, 3))
        t_values = rng.random(64) * 7.0
        alive = np.flatnonzero(rng.random(64) < 0.6).astype(np.int64)
        assert_exact(
            get_kernels("numpy").gather_ray_points(origins, directions, t_values, alive),
            get_kernels(backend).gather_ray_points(origins, directions, t_values, alive),
        )

    def test_sphere_advance(self, backend):
        rng = np.random.default_rng(13)
        num_rays = 96
        hit_epsilon = 2e-3
        base_t = rng.random(num_rays)
        base_hit = rng.random(num_rays) < 0.1
        alive = np.flatnonzero(rng.random(num_rays) < 0.7).astype(np.int64)
        distances = rng.normal(scale=0.5, size=alive.size)
        # Edge values: exactly the epsilon (not a hit), below it (a hit),
        # and a huge step that escapes the per-ray limit.
        if distances.size >= 3:
            distances[0] = hit_epsilon
            distances[1] = hit_epsilon / 2.0
            distances[2] = 1e6
        limits = rng.random(num_rays) * 2.0 + 0.5

        t_ref, hit_ref = base_t.copy(), base_hit.copy()
        alive_ref = get_kernels("numpy").sphere_advance(
            t_ref, hit_ref, alive, distances, limits, hit_epsilon
        )
        t_cand, hit_cand = base_t.copy(), base_hit.copy()
        alive_cand = get_kernels(backend).sphere_advance(
            t_cand, hit_cand, alive, distances, limits, hit_epsilon
        )
        assert_exact(t_ref, t_cand)
        assert_exact(hit_ref, hit_cand)
        assert_exact(alive_ref.astype(np.int64), alive_cand)


def first_occupied_oracle(case):
    """Test-only brute force: walk every ladder sample, keep the first hit.

    Each row walks its own grid.  Returns ``{row: (ix, iy, iz)}`` for every
    row that hits.
    """
    hits = {}
    for row in range(case["origins"].shape[0]):
        grid = case["grids"][case["grid_index"][row]]
        occupancy = grid["occupancy"]
        g = occupancy.shape[0]
        k = 0
        while True:
            t = case["t_near"][row] + (k + 0.5) * grid["step"]
            if t > case["t_far"][row]:
                break
            point = case["origins"][row] + t * case["directions"][row]
            cell = np.floor((point - grid["grid_lo"]) / grid["voxel"]).astype(np.int64)
            if np.all((cell >= 0) & (cell < g)) and occupancy[tuple(cell)]:
                hits[row] = tuple(int(c) for c in cell)
                break
            k += 1
    return hits


def full_face_tables(occupancy):
    """Face tables giving every occupied voxel all six faces.

    With the full table the exact ``(voxel, axis, sign)`` key always
    resolves, so a returned face index names the hit voxel
    (``face_voxels[face]``) — which is what the oracle predicts.  Returns
    ``(face_tables, face_voxels)``.
    """
    g = occupancy.shape[0]
    occupied = np.argwhere(occupancy).astype(np.int64)
    face_voxels = np.repeat(occupied, 6, axis=0)
    axes = np.tile(np.repeat(np.arange(3), 2), occupied.shape[0])
    signs = np.tile([-1, 1], 3 * occupied.shape[0])
    voxel_key = (face_voxels[:, 0] * g + face_voxels[:, 1]) * g + face_voxels[:, 2]
    face_key = voxel_key * 6 + axes * 2 + (signs > 0)
    order = np.argsort(face_key, kind="stable").astype(np.int64)
    if order.size == 0:  # the kernels need a non-empty table to search
        face_key = voxel_key = order = np.zeros(1, dtype=np.int64)
    tables = (face_key[order].astype(np.int64), order, voxel_key[order].astype(np.int64))
    return tables, face_voxels


def oracle_grid(occupancy, grid_lo, voxel, step_scale):
    """One grid of an oracle case, with its full face tables."""
    face_tables, face_voxels = full_face_tables(occupancy)
    return {
        "grid_lo": np.asarray(grid_lo, dtype=np.float64),
        "voxel": float(voxel),
        "step": float(voxel) * step_scale,
        "occupancy": occupancy,
        "skip_distance": skip_table(occupancy),
        "face_tables": face_tables,
        "face_voxels": face_voxels,
    }


def assert_matches_oracle(backend, case):
    """The backend's hits are the oracle's, and bit-identical to numpy's."""
    expected = first_occupied_oracle(case)
    out = march_with(get_kernels(backend), case)
    got = {
        int(row): tuple(
            int(c)
            for c in case["grids"][case["grid_index"][row]]["face_voxels"][face]
        )
        for row, face in zip(out[0], out[1])
    }
    assert got == expected
    if backend != "numpy":
        for ref, cand in zip(march_with(get_kernels("numpy"), case), out):
            assert_exact(ref, cand)
    return expected


def assert_rows_match_single_grid(backend, case, out, grid):
    """Grid ``grid``'s rows of a multi-grid call (outputs ``out``) are
    bit-identical to a call holding that grid alone."""
    alone = march_with(get_kernels(backend), single_grid_case(case, grid))
    rows = np.flatnonzero(case["grid_index"] == grid)
    hits = np.isin(out[0], rows)
    assert_exact(np.searchsorted(rows, out[0][hits]), alone[0])
    for fused, single in zip(out[1:], alone[1:]):
        assert_exact(fused[hits], single)


def unit_directions(rng, count, parallel_share=0.25):
    """Random unit directions, a share of them exactly axis-parallel."""
    directions = rng.normal(size=(count, 3))
    for ray in np.flatnonzero(rng.random(count) < parallel_share):
        directions[ray] = 0.0
        directions[ray, rng.integers(0, 3)] = rng.choice([-1.0, 1.0])
    return directions / np.linalg.norm(directions, axis=1, keepdims=True)


def adversarial_case(name):
    """Hand-built grids and rays that stress the skip table's edges."""
    rng = np.random.default_rng(sum(map(ord, name)))
    g = 10
    occupancy = np.zeros((g, g, g), dtype=bool)
    grid_lo, voxel = np.array([0.25, -1.0, 0.5]), 0.1
    far_origin = grid_lo + np.array([2.0, 1.5, 2.5]) * g * voxel
    if name == "all-empty":
        origins = far_origin + rng.normal(scale=0.3, size=(64, 3))
        directions = grid_lo + 0.5 * g * voxel - origins
    elif name == "full":
        occupancy[:] = True
        origins = far_origin + rng.normal(scale=0.3, size=(64, 3))
        directions = grid_lo + rng.random((64, 3)) * g * voxel - origins
    elif name == "corner-voxel":
        # The whole grid is empty space between the rays and the target.
        occupancy[0, 0, 0] = True
        origins = grid_lo + g * voxel * 1.5 + rng.normal(scale=0.05, size=(64, 3))
        targets = grid_lo + voxel * rng.uniform(-0.2, 1.2, size=(64, 3))
        directions = targets - origins
    elif name == "axis-parallel":
        occupancy = rng.random((g, g, g)) < 0.02
        occupancy[3, 4, 5] = True
        lattice = rng.integers(0, g, size=(96, 3)) + rng.choice([0.0, 0.5], size=(96, 3))
        origins = grid_lo + lattice * voxel
        axis = rng.integers(0, 3, 96)
        origins[np.arange(96), axis] = grid_lo[axis] + rng.choice([-1.0, 2.0], 96)
        directions = np.zeros((96, 3))
        directions[np.arange(96), axis] = np.where(
            origins[np.arange(96), axis] < grid_lo[axis], 1.0, -1.0
        )
    elif name == "inside-start":
        occupancy = rng.random((g, g, g)) < 0.03
        origins = grid_lo + rng.random((96, 3)) * g * voxel
        directions = unit_directions(rng, 96)
    elif name == "grazing-edges":
        # Exactly representable voxels; rays run along cell faces, edges
        # and through cell corners, where floor() sits on a boundary.
        grid_lo, voxel = np.zeros(3), 0.25
        occupancy = rng.random((g, g, g)) < 0.04
        occupancy[g - 1, g - 1, g - 1] = True
        lattice = rng.integers(0, g + 1, size=(96, 3)).astype(np.float64)
        origins = lattice * voxel
        directions = rng.choice([-1.0, 0.0, 1.0], size=(96, 3))
        directions[~directions.any(axis=1)] = [1.0, 1.0, 0.0]
        origins -= directions * 3.0 * g * voxel
    else:  # pragma: no cover - parametrize names every case
        raise ValueError(name)
    return march_inputs(
        [oracle_grid(occupancy, grid_lo, voxel, 0.5)], origins, directions
    )


ORACLE_BACKENDS = ["numpy", *CANDIDATE_BACKENDS]


@pytest.mark.parametrize("backend", ORACLE_BACKENDS)
class TestMarchAgainstOracle:
    """Empty-space skipping finds exactly the full ladder's first hit."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        g=st.integers(1, 12),
        density=st.floats(0.0, 1.0),
        step_scale=st.sampled_from([0.25, 0.5, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_grids(self, backend, g, density, step_scale, seed):
        rng = np.random.default_rng(seed)
        # Cubing the density spends most examples on sparse grids, where
        # the skip distances are large.
        occupancy = rng.random((g, g, g)) < density**3
        grid_lo = rng.normal(size=3)
        voxel = float(rng.uniform(0.05, 0.5))
        center = grid_lo + 0.5 * g * voxel
        origins = center + rng.normal(scale=g * voxel, size=(48, 3))
        directions = unit_directions(rng, 48)
        case = march_inputs(
            [oracle_grid(occupancy, grid_lo, voxel, step_scale)], origins, directions
        )
        assert_matches_oracle(backend, case)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        resolutions=st.lists(st.integers(1, 12), min_size=3, max_size=4,
                             unique=True),
        density=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_multi_grid(self, backend, resolutions, density, seed):
        """Grids of different resolutions, voxels and steps in one call.

        Every row matches the oracle on its own grid, and the rows of each
        grid are bit-identical to a call holding that grid alone.
        """
        rng = np.random.default_rng(seed)
        grids = [
            oracle_grid(
                rng.random((g, g, g)) < density**3,
                rng.normal(scale=0.5, size=3),
                float(rng.uniform(0.05, 0.3)),
                float(rng.choice([0.25, 0.5, 1.0])),
            )
            for g in resolutions
        ]
        center = np.mean([grid["grid_lo"] for grid in grids], axis=0)
        origins = center + rng.normal(scale=2.0, size=(48, 3))
        directions = unit_directions(rng, 48)
        case = march_inputs(grids, origins, directions)
        assert_matches_oracle(backend, case)
        out = march_with(get_kernels(backend), case)
        for grid in range(len(grids)):
            assert_rows_match_single_grid(backend, case, out, grid)

    # Rays lying exactly in a slab plane give 0 * inf = NaN in the AABB
    # tests, which the kernels resolve explicitly; numpy still warns.
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("name", [
        "all-empty", "full", "corner-voxel", "axis-parallel", "inside-start",
        "grazing-edges",
    ])
    def test_adversarial(self, backend, name):
        case = adversarial_case(name)
        assert case["origins"].shape[0] > 0
        hits = assert_matches_oracle(backend, case)
        if name == "all-empty":
            assert hits == {}
        elif name == "full":
            assert len(hits) == case["origins"].shape[0]
        else:
            assert hits


@pytest.mark.parametrize("backend", ORACLE_BACKENDS)
class TestMultiGridFaceLookup:
    def test_fallback_stays_inside_its_grid(self, backend):
        """An occupied voxel with no face at all, past the end of its grid's
        face table: both searches run off the end of grid j's slice of the
        concatenated tables, and must clip to grid j's last face, never
        read the next grid's first.  Checked for a middle and the last grid,
        bit-identical to single-grid calls."""
        grids = []
        for g, lo in ((4, [-3.0, 0.0, 0.0]), (5, [0.0, 0.0, 0.0]), (3, [3.0, 0.0, 0.0])):
            occupancy = np.zeros((g, g, g), dtype=bool)
            occupancy[0, 0, 0] = True
            grid = oracle_grid(occupancy, lo, 0.5, 0.5)
            # The corner voxel is occupied but carries no face, and its key
            # sorts after every key of the grid's table.
            occupancy = occupancy.copy()
            occupancy[g - 1, g - 1, g - 1] = True
            grid["occupancy"] = occupancy
            grid["skip_distance"] = skip_table(occupancy)
            grids.append(grid)
        # Rays down -x into each grid's faceless corner voxel, from +x.
        rng = np.random.default_rng(5)
        targets = np.array([grid["grid_lo"] + (grid["occupancy"].shape[0] - 0.5) * 0.5
                            for grid in grids])
        targets = np.repeat(targets, 8, axis=0) + rng.uniform(-0.2, 0.2, size=(24, 3))
        origins = targets + np.array([0.9, 0.0, 0.0])
        directions = np.tile([-1.0, 0.0, 0.0], (24, 1))
        case = march_inputs(grids, origins, directions)
        out = march_with(get_kernels(backend), case)
        hit_grids = case["grid_index"][out[0]]
        for grid in (1, 2):
            # Every ray aimed at the grid hits its corner voxel first.
            corner = hit_grids == grid
            assert corner.sum() == 8
            # Grid j's own last face (the face table is the first voxel's
            # six faces), not the next grid's first one.
            last_face = grids[grid]["face_tables"][1][-1]
            np.testing.assert_array_equal(out[1][corner], last_face)
            assert last_face != grids[(grid + 1) % 3]["face_tables"][1][0]
            assert_rows_match_single_grid(backend, case, out, grid)


def brute_force_chessboard(occupancy):
    """Every cell's L-inf distance to the nearest occupied cell."""
    g = occupancy.shape[0]
    occupied = np.argwhere(occupancy)
    if occupied.size == 0:
        return np.full(occupancy.shape, g)
    cells = np.argwhere(np.ones_like(occupancy))
    distance = np.abs(cells[:, None, :] - occupied[None, :, :]).max(axis=2)
    return distance.min(axis=1).reshape(occupancy.shape)


class TestSkipDistance:
    @settings(max_examples=40, deadline=None)
    @given(
        g=st.integers(1, 7),
        density=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_brute_force(self, g, density, seed):
        occupancy = np.random.default_rng(seed).random((g, g, g)) < density**2
        table = skip_table(occupancy)
        assert table.dtype == np.uint8
        np.testing.assert_array_equal(table, brute_force_chessboard(occupancy))
        np.testing.assert_array_equal(table == 0, occupancy)

    def test_all_empty_grid_skips_everything(self):
        table = skip_table(np.zeros((5, 5, 5), dtype=bool))
        assert table.dtype == np.uint8
        assert np.all(table == 5)

    def test_cached_per_grid(self):
        occupancy = np.zeros((4, 4, 4), dtype=bool)
        occupancy[1, 2, 3] = True
        grid = VoxelGrid(np.zeros(3), 1.0, 4, occupancy)
        assert grid.skip_distance is grid.skip_distance
        assert not grid.skip_distance.flags.writeable

    def test_face_lookup_keys_built_once_per_model(self, baked_models):
        faces = baked_models.submodels[0].faces
        tables = faces.lookup_keys
        assert faces.lookup_keys is tables
        for table in tables:
            assert table.dtype == np.int64 and not table.flags.writeable


@pytest.mark.parametrize("backend", CANDIDATE_BACKENDS)
class TestBoundedUlpTierParity:
    def test_sdf_to_density(self, backend):
        rng = np.random.default_rng(17)
        sdf = rng.normal(scale=0.4, size=(40, 24))
        sdf[0, :4] = [0.0, 1e12, -1e12, 1e-15]  # clip saturation + zero
        for width in (0.05, 1e-12):  # the 1e-9 floor binds for the second
            np.testing.assert_array_max_ulp(
                get_kernels("numpy").sdf_to_density(sdf, width),
                get_kernels(backend).sdf_to_density(sdf, width),
                maxulp=MAXULP["sdf_to_density"],
            )

    def test_composite_forward(self, backend):
        rng = np.random.default_rng(19)
        num_rays, num_samples = 48, 32
        densities = rng.random((num_rays, num_samples)) * 40.0
        densities[0, :3] = [-1.0, 0.0, 1e6]  # clamp + opaque saturation
        colors = rng.random((num_rays, num_samples, 3))
        deltas = rng.random((num_rays, num_samples)) * 0.1 + 1e-4
        background = rng.random(3)
        sample_distances = np.cumsum(deltas, axis=1)
        reference = get_kernels("numpy").composite_forward(
            densities, colors, deltas, background, sample_distances
        )
        candidate = get_kernels(backend).composite_forward(
            densities, colors, deltas, background, sample_distances
        )
        for ref, cand in zip(reference, candidate):
            assert ref.shape == cand.shape
            np.testing.assert_array_max_ulp(
                ref, cand, maxulp=MAXULP["composite_forward"]
            )

    def test_composite_forward_empty_rays(self, backend):
        out = get_kernels(backend).composite_forward(
            np.empty((0, 4)), np.empty((0, 4, 3)), np.empty((0, 4)),
            np.zeros(3), np.empty((0, 4)),
        )
        assert [a.shape for a in out] == [(0, 3), (0, 4), (0, 5), (0,), (0,)]


def assert_buffers_identical(a, b, atol=0.0):
    assert np.array_equal(a["hit"], b["hit"])
    assert np.array_equal(a["object_ids"], b["object_ids"])
    if atol == 0.0:
        np.testing.assert_array_equal(a["depth"], b["depth"])
        np.testing.assert_array_equal(a["rgb"], b["rgb"])
    else:
        finite = np.isfinite(a["depth"])
        assert np.array_equal(finite, np.isfinite(b["depth"]))
        np.testing.assert_allclose(a["depth"][finite], b["depth"][finite],
                                   atol=atol, rtol=0)
        np.testing.assert_allclose(a["rgb"], b["rgb"], atol=atol, rtol=0)


@pytest.mark.parametrize("backend", CANDIDATE_BACKENDS)
class TestEngineCrossKernelParity:
    """A full render agrees across kernels at each path's declared tier."""

    def _rays(self, content):
        camera = orbit_cameras(
            content.center, radius=1.4 * content.extent, count=1,
            width=32, height=32,
        )[0]
        return camera_rays(camera)

    def test_baked_render_bit_identical(self, backend, baked_models,
                                        two_object_scene):
        origins, directions = self._rays(two_object_scene)
        reference = RenderEngine(kernel="numpy", chunk_rays=300).render_baked_rays(
            baked_models, origins, directions
        )
        candidate = RenderEngine(kernel=backend, chunk_rays=300).render_baked_rays(
            baked_models, origins, directions
        )
        assert reference["hit"].any()
        assert_buffers_identical(reference, candidate, atol=0.0)

    def test_scene_render_bit_identical(self, backend, two_object_scene):
        origins, directions = self._rays(two_object_scene)
        reference = RenderEngine(kernel="numpy", chunk_rays=300).render_scene_rays(
            two_object_scene, origins, directions, max_distance=8.0
        )
        candidate = RenderEngine(kernel=backend, chunk_rays=300).render_scene_rays(
            two_object_scene, origins, directions, max_distance=8.0
        )
        assert reference["hit"].any()
        assert_buffers_identical(reference, candidate, atol=0.0)

    def test_volume_render_ulp_close(self, backend, two_object_scene):
        camera = orbit_cameras(
            two_object_scene.center, radius=1.4 * two_object_scene.extent,
            count=1, width=24, height=24,
        )[0]
        reference = RenderEngine(kernel="numpy").volume_render_field(
            two_object_scene, camera, num_samples=24
        )
        candidate = RenderEngine(kernel=backend).volume_render_field(
            two_object_scene, camera, num_samples=24
        )
        # Volume compositing sits in the bounded-ULP tier; after clipping
        # and mixing the drift stays far below any perceptual scale.
        np.testing.assert_allclose(candidate.rgb, reference.rgb, atol=1e-9, rtol=0)
        assert np.array_equal(candidate.hit_mask, reference.hit_mask)

    def test_process_backend_matches_serial(self, backend, baked_models,
                                            two_object_scene):
        """Fork safety: kernels resolve by name inside process workers."""
        origins, directions = self._rays(two_object_scene)
        serial = RenderEngine(kernel=backend, chunk_rays=200).render_baked_rays(
            baked_models, origins, directions
        )
        forked_engine = RenderEngine(
            kernel=backend, chunk_rays=200, backend="process", workers=2
        )
        try:
            forked = forked_engine.render_baked_rays(
                baked_models, origins, directions
            )
        finally:
            forked_engine.backend.shutdown()
        assert_buffers_identical(serial, forked, atol=0.0)


class TestEngineKernelKnob:
    def test_engine_stores_resolved_name_string(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        engine = RenderEngine(kernel="loops")
        assert engine.kernel == "loops"
        assert isinstance(engine.kernel, str)
        expected = "numba" if NUMBA_AVAILABLE else "numpy"
        assert RenderEngine().kernel == expected

    def test_pipeline_config_plumbs_kernel(self):
        device = DeviceProfile(
            name="kernel-knob", memory_budget_mb=6.0,
            hard_memory_limit_mb=6.0, compute_score=1.0,
        )
        pipeline = NeRFlexPipeline(
            device, PipelineConfig(kernel="loops", backend="serial")
        )
        assert pipeline.engine.kernel == "loops"

    def test_engine_rejects_unknown_kernel(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            RenderEngine(kernel="bogus")


class ChunkSpyBackend(SerialBackend):
    """A serial backend that records the chunk starts handed to map()."""

    def __init__(self):
        super().__init__()
        self.item_lists = []

    def map(self, fn, items, timer=None, stage=None):
        items = list(items)
        self.item_lists.append(items)
        return super().map(fn, items, timer=timer, stage=stage)


class TestBakedChunking:
    def test_chunks_cover_candidates_not_rays(self, baked_models, two_object_scene):
        """Regression pin: the baked marcher chunks the concatenated (ray,
        sub-model) candidate pairs — rays that actually enter a sub-model's
        grid — not the full ray batch once per sub-model."""
        camera = orbit_cameras(
            two_object_scene.center, radius=2.5 * two_object_scene.extent,
            count=1, width=40, height=40,
        )[0]
        origins, directions = camera_rays(camera)
        per_model = []
        for model in baked_models.submodels:
            t_near, t_far = ray_aabb(
                origins, directions, model.grid.bounds_min, model.grid.bounds_max
            )
            per_model.append(int(np.count_nonzero(t_far > np.maximum(t_near, 0.0))))
        pairs = sum(per_model)
        # Both grids are entered, and the distant camera misses a lot.
        assert min(per_model) > 0
        assert pairs < origins.shape[0]

        spy = ChunkSpyBackend()
        chunk_rays = max(pairs // 3, 1)  # force several chunks
        engine = RenderEngine(kernel="numpy", chunk_rays=chunk_rays, backend=spy)
        engine.render_baked_rays(baked_models, origins, directions)
        assert spy.item_lists == [list(range(0, pairs, chunk_rays))]


def sequential_composite(engine, multi, origins, directions):
    """Each sub-model rendered alone, depth-composited one by one in
    sub-model order with a strict ``<`` (a tie keeps the lower index)."""
    best = {
        "rgb": np.tile(np.ones(3), (origins.shape[0], 1)),
        "depth": np.full(origins.shape[0], np.inf),
        "object_ids": np.full(origins.shape[0], -1),
    }
    for index, model in enumerate(multi.submodels):
        alone = engine.render_baked_rays(BakedMultiModel([model]), origins, directions)
        closer = alone["hit"] & (alone["depth"] < best["depth"])
        best["rgb"][closer] = alone["rgb"][closer]
        best["depth"][closer] = alone["depth"][closer]
        best["object_ids"][closer] = index
    best["hit"] = best["object_ids"] >= 0
    return best


class TestBakedDepthTies:
    def test_ties_go_to_the_lower_sub_model(self, two_object_scene):
        """Two sub-models on one grid report the same entry depth on every
        ray they both hit; the fused march must composite exactly like the
        sequential strict-``<`` loop, so the lower index wins each tie."""
        sphere, cube = two_object_scene.placed
        first = bake_field(sphere, 14, 2, name="sphere")
        twin = bake_field(sphere, 14, 1, name="sphere-twin")
        np.testing.assert_array_equal(first.grid.occupancy, twin.grid.occupancy)
        np.testing.assert_array_equal(first.grid.origin, twin.grid.origin)
        multi = BakedMultiModel([bake_field(cube, 14, 2, name="cube"), first, twin])
        camera = orbit_cameras(
            two_object_scene.center, radius=1.4 * two_object_scene.extent,
            count=1, width=32, height=32,
        )[0]
        origins, directions = camera_rays(camera)
        engine = RenderEngine(kernel="numpy", chunk_rays=500)

        fused = engine.render_baked_rays(multi, origins, directions)
        expected = sequential_composite(engine, multi, origins, directions)
        assert_buffers_identical(expected, fused, atol=0.0)

        first_alone = engine.render_baked_rays(BakedMultiModel([first]), origins, directions)
        twin_alone = engine.render_baked_rays(BakedMultiModel([twin]), origins, directions)
        tied = first_alone["hit"] & (first_alone["depth"] == twin_alone["depth"])
        assert tied.sum() > 20
        assert not np.isin(fused["object_ids"][tied], [2]).any()
        won = tied & (fused["object_ids"] == 1)
        assert won.sum() > 20
        # The twin's texture differs, so taking it would change the pixels.
        assert np.any(first_alone["rgb"][won] != twin_alone["rgb"][won])
        np.testing.assert_array_equal(fused["rgb"][won], first_alone["rgb"][won])


class TestCandidatePairs:
    """The column-wise slab pass picks the row-wise oracle's candidate
    pairs, with bit-identical intervals."""

    # Rays lying exactly in a slab plane give 0 * inf = NaN in the oracle,
    # which numpy reports.
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:All-NaN slice encountered:RuntimeWarning")
    @settings(max_examples=80, deadline=None)
    @given(
        num_boxes=st.integers(1, 6),
        num_rays=st.integers(1, 64),
        parallel_share=st.sampled_from([0.0, 0.5, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_row_wise_oracle(self, num_boxes, num_rays, parallel_share, seed):
        rng = np.random.default_rng(seed)
        lo = rng.normal(size=(num_boxes, 3))
        hi = lo + rng.uniform(0.1, 2.0, size=(num_boxes, 1))
        origins = rng.normal(scale=2.0, size=(num_rays, 3))
        directions = unit_directions(rng, num_rays, parallel_share)
        # Axis-parallel rays whose origin lies on a slab plane of some box:
        # the zero component times an infinite inverse is NaN there.
        for ray in np.flatnonzero(directions == 0.0) // 3:
            axis = rng.choice(np.flatnonzero(directions[ray] == 0.0))
            box = rng.integers(num_boxes)
            origins[ray, axis] = rng.choice([lo[box, axis], hi[box, axis]])
        expected = []
        for box in range(num_boxes):
            t_near, t_far = ray_aabb(origins, directions, lo[box], hi[box])
            t_near = np.maximum(t_near, 0.0)
            rays = np.flatnonzero(t_far > t_near)
            expected.append((np.full(rays.size, box), rays, t_near[rays], t_far[rays]))
        expected = [np.concatenate(column) for column in zip(*expected)]
        got = _candidate_pairs(origins, directions, lo, hi)
        for index in (0, 1):
            np.testing.assert_array_equal(got[index], expected[index])
        for interval in (2, 3):
            assert np.array_equal(
                got[interval].view(np.uint64), expected[interval].view(np.uint64)
            )

    def test_slab_plane_rays_are_candidates(self):
        """The NaN case really occurs: axis-parallel rays lying in the
        ``x = lo`` and ``x = hi`` slab planes still enter the box."""
        lo, hi = np.zeros((1, 3)), np.ones((1, 3))
        origins = np.array([[0.0, 0.5, -1.0], [1.0, 1.0, -1.0]])
        directions = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = 1.0 / directions
            t_x = np.stack([(lo[0] - origins) * inv, (hi[0] - origins) * inv])[:, :, 0]
        assert np.isnan(t_x).any(axis=0).all()
        boxes, rays, t_near, t_far = _candidate_pairs(origins, directions, lo, hi)
        np.testing.assert_array_equal(boxes, [0, 0])
        np.testing.assert_array_equal(rays, [0, 1])
        np.testing.assert_array_equal(t_near, [1.0, 1.0])
        np.testing.assert_array_equal(t_far, [2.0, 2.0])
