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

Engine-level tests then pin that a full render is bit-identical across
kernels for the exact-tier paths (baked marching, sphere tracing) and
ULP-close for the volume path — including through a process backend, the
fork-safety contract (kernels ship as *names*, never as compiled objects).
"""

import numpy as np
import pytest

from repro.baking.baked_model import BakedMultiModel, bake_field
from repro.baking.meshing import _TANGENT_AXES
from repro.core.pipeline import NeRFlexPipeline, PipelineConfig
from repro.device.models import DeviceProfile
from repro.exec.backends import SerialBackend
from repro.render import RenderEngine
from repro.render.engine import _face_keys, _ray_aabb
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
from repro.scenes.cameras import camera_rays, orbit_cameras

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


@pytest.fixture(scope="module")
def march_case(baked_models):
    """Real marching inputs: camera rays against a baked sub-model."""
    model = baked_models.submodels[0]
    grid = model.grid
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
    t_near, t_far = _ray_aabb(origins, directions, grid.bounds_min, grid.bounds_max)
    t_near = np.maximum(t_near, 0.0)
    candidates = np.flatnonzero(t_far > t_near)
    assert candidates.size > 50  # the case must actually march
    face_keys, face_order, voxel_keys = _face_keys(model)
    return {
        "origins": origins[candidates],
        "directions": directions[candidates],
        "t_near": t_near[candidates],
        "t_far": t_far[candidates],
        "grid_lo": np.asarray(grid.bounds_min, dtype=np.float64),
        "voxel": float(grid.voxel_size),
        "step": float(grid.voxel_size) * 0.5,
        "resolution": int(grid.resolution),
        "occupancy": np.ascontiguousarray(grid.occupancy),
        "face_keys": face_keys,
        "face_order": face_order,
        "voxel_keys": voxel_keys,
        "slab_steps": 32,
    }


def march_with(kernels, case):
    return kernels.march_occupancy(
        case["origins"], case["directions"], case["t_near"], case["t_far"],
        case["grid_lo"], case["voxel"], case["step"], case["resolution"],
        case["occupancy"], case["face_keys"], case["face_order"],
        case["voxel_keys"], case["slab_steps"],
    )


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
        case = {
            "grid_lo": np.array([-1.0, -0.5, 0.25]),
            "voxel": 0.3,
            "step": 0.15,
            "resolution": g,
            "occupancy": occupancy,
            "face_keys": face_key[order].astype(np.int64),
            "face_order": order,
            "voxel_keys": voxel_key[order].astype(np.int64),
            "slab_steps": 4,
        }
        num_rays = 400
        origins = rng.normal(scale=1.5, size=(num_rays, 3)) + case["grid_lo"]
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
        case.update(
            origins=origins, directions=directions, t_near=t_near, t_far=t_far
        )
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
            np.array([0.0]), np.array([5.0]),
            np.zeros(3), 1.0, 0.5, 3, occupancy, keys, keys, keys, 32,
        )
        for array, dtype in zip(out, (np.int64, np.int64, np.float64,
                                      np.float64, np.float64)):
            assert array.size == 0
            assert array.dtype == dtype

    def test_march_zero_rays(self, backend):
        keys = np.zeros(1, dtype=np.int64)
        out = get_kernels(backend).march_occupancy(
            np.empty((0, 3)), np.empty((0, 3)), np.empty(0), np.empty(0),
            np.zeros(3), 1.0, 0.5, 3, np.ones((3, 3, 3), dtype=bool),
            keys, keys, keys, 32,
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
        """Regression pin: the baked marcher chunks only the candidate rays
        that actually enter the grid, not the full ray batch."""
        camera = orbit_cameras(
            two_object_scene.center, radius=2.5 * two_object_scene.extent,
            count=1, width=40, height=40,
        )[0]
        origins, directions = camera_rays(camera)
        model = baked_models.submodels[0]
        t_near, t_far = _ray_aabb(
            origins, directions, model.grid.bounds_min, model.grid.bounds_max
        )
        candidates = int(np.count_nonzero(t_far > np.maximum(t_near, 0.0)))
        num_rays = origins.shape[0]
        assert 0 < candidates < num_rays  # the distant camera misses a lot

        spy = ChunkSpyBackend()
        chunk_rays = max(candidates // 3, 1)  # force several chunks
        engine = RenderEngine(kernel="numpy", chunk_rays=chunk_rays, backend=spy)
        engine._march_baked_single(model, origins, directions, step_scale=0.5)
        assert spy.item_lists == [list(range(0, candidates, chunk_rays))]
