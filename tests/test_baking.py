"""Tests for the baking substrate: voxelisation, meshing, textures, sizes, rendering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baking import (
    BakedMultiModel,
    SizeConstants,
    bake_field,
    bake_texture_atlas,
    extract_quad_faces,
    render_baked,
    render_baked_multi,
    voxelize_field,
)
from repro.baking.meshing import _TANGENT_AXES
from repro.baking.texture import LazyTexture
from repro.baking.voxelize import VoxelGrid
from repro.metrics import ssim
from repro.scenes.cameras import orbit_cameras
from repro.scenes.library import make_single_object_scene
from repro.scenes.raytrace import render_scene
from tests import _field_oracle as field_oracle


@pytest.fixture(scope="module")
def sphere():
    return make_single_object_scene("sphere")


@pytest.fixture(scope="module")
def sphere_grid(sphere):
    return voxelize_field(sphere, resolution=24)


class TestVoxelize:
    def test_grid_shape_and_cubic_voxels(self, sphere_grid):
        assert sphere_grid.occupancy.shape == (24, 24, 24)
        side = sphere_grid.bounds_max - sphere_grid.bounds_min
        assert np.allclose(side, side[0])

    def test_occupied_volume_close_to_analytic(self, sphere):
        grid = voxelize_field(sphere, resolution=48)
        voxel_volume = grid.voxel_size**3
        measured = grid.num_occupied * voxel_volume
        analytic = 4.0 / 3.0 * np.pi * 0.35**3
        assert measured == pytest.approx(analytic, rel=0.1)

    def test_occupancy_increases_with_conservative_threshold(self, sphere):
        tight = voxelize_field(sphere, resolution=16, occupancy_threshold=0.0)
        loose = voxelize_field(sphere, resolution=16, occupancy_threshold=0.05)
        assert loose.num_occupied >= tight.num_occupied

    def test_world_index_roundtrip(self, sphere_grid):
        indices = np.array([[0, 0, 0], [5, 10, 3]])
        centers = sphere_grid.cell_centers(indices)
        assert np.array_equal(sphere_grid.world_to_index(centers), indices)

    def test_occupied_at_handles_outside(self, sphere_grid):
        outside = np.array([[-1, 0, 0], [100, 0, 0]])
        assert not sphere_grid.occupied_at(outside).any()

    def test_low_resolution_rejected(self, sphere):
        with pytest.raises(ValueError):
            voxelize_field(sphere, resolution=1)

    def test_hierarchical_sampling_matches_exhaustive(self, sphere):
        """The Lipschitz-pruned coarse-to-fine voxelisation must produce the
        exact occupancy of evaluating every cell centre."""
        from repro.nerf.degradation import DegradedField

        for field in (sphere, DegradedField(sphere, 0.01, seed=0)):
            for resolution in (32, 48):
                exhaustive = field_oracle.voxelize_flat(field, resolution)
                grid = voxelize_field(field, resolution=resolution)
                assert np.array_equal(grid.occupancy, exhaustive)

    def test_unadvertised_lipschitz_forces_exhaustive_sampling(self):
        """A field that does not advertise ``sdf_lipschitz`` (e.g. a
        learned pseudo-SDF with unbounded gradients) must be sampled
        exhaustively — assuming 1-Lipschitz would corrupt its occupancy.
        Placing it as an object, alone or in a scene, must not invent a
        bound either."""
        from repro.scenes.scene import PlacedObject, Scene

        class SteepField:
            name = "steep"
            bounds_min = np.array([-1.0, -1.0, -1.0])
            bounds_max = np.array([1.0, 1.0, 1.0])

            def sdf(self, points):
                # 40x steeper than a true SDF: thin shells a 1-Lipschitz
                # pruning bound would skip right over.
                radius = np.linalg.norm(points, axis=1)
                return np.sin(40.0 * radius)

        field = SteepField()
        assert not hasattr(field, "sdf_lipschitz")
        placed = PlacedObject(obj=field)
        for candidate in (field, placed, Scene([placed])):
            assert not np.isfinite(getattr(candidate, "sdf_lipschitz", np.inf))
            for resolution in (32, 64):
                grid = voxelize_field(candidate, resolution=resolution)
                exhaustive = field_oracle.voxelize_flat(candidate, resolution)
                assert np.array_equal(grid.occupancy, exhaustive)

    def test_floater_fields_have_no_finite_lipschitz_bound(self, sphere):
        """Floaters appear discontinuously, so such fields must force the
        exhaustive sampling path."""
        from repro.nerf.degradation import DegradedField

        with_floaters = DegradedField(sphere, 0.08, seed=0)
        assert with_floaters.floater_rate > 0
        assert not np.isfinite(with_floaters.sdf_lipschitz)
        without = DegradedField(sphere, 0.08, floater_rate=0.0, seed=0)
        assert np.isfinite(without.sdf_lipschitz)

    def test_mismatched_occupancy_shape_rejected(self):
        with pytest.raises(ValueError):
            VoxelGrid(origin=np.zeros(3), voxel_size=0.1, resolution=4, occupancy=np.zeros((3, 3, 3), bool))


class TestMeshing:
    def test_isolated_voxel_has_six_faces(self):
        occupancy = np.zeros((5, 5, 5), dtype=bool)
        occupancy[2, 2, 2] = True
        grid = VoxelGrid(origin=np.zeros(3), voxel_size=1.0, resolution=5, occupancy=occupancy)
        faces = extract_quad_faces(grid)
        assert faces.num_faces == 6
        assert sorted(faces.axes.tolist()) == [0, 0, 1, 1, 2, 2]

    def test_two_adjacent_voxels_share_a_face(self):
        occupancy = np.zeros((5, 5, 5), dtype=bool)
        occupancy[2, 2, 2] = True
        occupancy[3, 2, 2] = True
        grid = VoxelGrid(origin=np.zeros(3), voxel_size=1.0, resolution=5, occupancy=occupancy)
        assert extract_quad_faces(grid).num_faces == 10

    def test_full_grid_only_has_outer_faces(self):
        occupancy = np.ones((4, 4, 4), dtype=bool)
        grid = VoxelGrid(origin=np.zeros(3), voxel_size=1.0, resolution=4, occupancy=occupancy)
        assert extract_quad_faces(grid).num_faces == 6 * 16

    def test_empty_grid_has_no_faces(self):
        grid = VoxelGrid(origin=np.zeros(3), voxel_size=1.0, resolution=4, occupancy=np.zeros((4, 4, 4), bool))
        assert extract_quad_faces(grid).num_faces == 0

    def test_face_centers_lie_on_voxel_boundaries(self):
        occupancy = np.zeros((3, 3, 3), dtype=bool)
        occupancy[1, 1, 1] = True
        grid = VoxelGrid(origin=np.zeros(3), voxel_size=1.0, resolution=3, occupancy=occupancy)
        faces = extract_quad_faces(grid)
        centers = faces.face_centers()
        # Each face centre must sit at distance 0.5 from the voxel centre (1.5,1.5,1.5).
        assert np.allclose(np.linalg.norm(centers - 1.5, axis=1), 0.5)

    def test_face_count_grows_with_resolution(self, sphere):
        coarse = extract_quad_faces(voxelize_field(sphere, resolution=12)).num_faces
        fine = extract_quad_faces(voxelize_field(sphere, resolution=32)).num_faces
        assert fine > 3 * coarse

    def test_sphere_faces_match_surface_area_scaling(self, sphere):
        """Boundary-face area approximates the sphere surface area (within the
        lattice over-count factor of ~1.5)."""
        grid = voxelize_field(sphere, resolution=48)
        faces = extract_quad_faces(grid)
        face_area = faces.num_faces * grid.voxel_size**2
        analytic = 4.0 * np.pi * 0.35**2
        assert analytic < face_area < 1.9 * analytic

    def test_face_points_stay_on_face_plane(self, sphere_grid):
        faces = extract_quad_faces(sphere_grid)
        indices = np.arange(min(20, faces.num_faces))
        u = np.full(len(indices), 0.25)
        v = np.full(len(indices), 0.75)
        points = faces.face_points(indices, u, v)
        centers = faces.face_centers()[indices]
        offsets = np.abs(points - centers)
        rows = np.arange(len(indices))
        # No displacement along the face normal axis.
        assert np.allclose(offsets[rows, faces.axes[indices]], 0.0)

    @settings(max_examples=30, deadline=None)
    @given(
        g=st.integers(2, 20),
        count=st.integers(0, 300),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_face_points_match_all_face_oracle(self, g, count, seed):
        """``face_points`` builds centres for the selected faces only; the
        values are those of every face's centre, indexed afterwards."""
        rng = np.random.default_rng(seed)
        occupancy = rng.random((g, g, g)) < 0.4
        origin = rng.normal(size=3)
        grid = VoxelGrid(origin=origin, voxel_size=float(rng.uniform(0.01, 0.3)), resolution=g, occupancy=occupancy)
        faces = extract_quad_faces(grid)
        if faces.num_faces == 0:
            return
        indices = rng.integers(0, faces.num_faces, size=count)
        u, v = rng.random(count), rng.random(count)
        u[: count // 4] = 0.5  # (u - 0.5) * size is a signed zero on these
        expected = face_points_oracle(faces, indices, u, v)
        np.testing.assert_array_equal(
            faces.face_points(indices, u, v).view(np.int64), expected.view(np.int64)
        )


def face_points_oracle(faces, face_indices, u, v):
    """``QuadFaceSet.face_points`` as it was: centres of all faces, then the
    per-face tangent pairs looked up in Python."""
    centers = faces.face_centers()[face_indices]
    axes = faces.axes[face_indices]
    size = faces.grid.voxel_size
    points = centers.copy()
    tangent_u = np.array([_TANGENT_AXES[axis][0] for axis in axes], dtype=int)
    tangent_v = np.array([_TANGENT_AXES[axis][1] for axis in axes], dtype=int)
    rows = np.arange(len(face_indices))
    points[rows, tangent_u] += (u - 0.5) * size
    points[rows, tangent_v] += (v - 0.5) * size
    return points


class TestTextures:
    def test_atlas_shape(self, sphere):
        grid = voxelize_field(sphere, resolution=12)
        faces = extract_quad_faces(grid)
        atlas = bake_texture_atlas(sphere.albedo, faces, patch_size=3)
        assert atlas.texels.shape == (faces.num_faces, 3, 3, 3)

    def test_lazy_and_materialized_agree(self, sphere):
        baked_lazy = bake_field(sphere, 12, 3, materialize_textures=False)
        baked_full = bake_field(sphere, 12, 3, materialize_textures=True)
        faces = np.arange(min(50, baked_lazy.num_faces))
        u = np.linspace(0.05, 0.95, len(faces))
        v = np.linspace(0.95, 0.05, len(faces))
        lazy_colors = baked_lazy.texture.sample(faces, u, v)
        full_colors = baked_full.texture.sample(faces, u, v)
        assert np.allclose(lazy_colors, full_colors, atol=1e-9)

    def test_invalid_patch_size(self, sphere):
        grid = voxelize_field(sphere, resolution=8)
        faces = extract_quad_faces(grid)
        with pytest.raises(ValueError):
            bake_texture_atlas(sphere.albedo, faces, patch_size=0)

    def test_lazy_texture_quantises_to_texel_centres(self, sphere):
        baked = bake_field(sphere, 10, 2, materialize_textures=False)
        assert isinstance(baked.texture, LazyTexture)
        face = np.array([0, 0])
        # Two coordinates in the same texel must return the same colour.
        colors = baked.texture.sample(face, np.array([0.05, 0.45]), np.array([0.05, 0.45]))
        assert np.allclose(colors[0], colors[1])


class TestSizeAccounting:
    def test_size_formula_matches_constants(self, sphere):
        constants = SizeConstants()
        baked = bake_field(sphere, 16, 2, size_constants=constants)
        expected = constants.model_bytes(
            num_faces=baked.num_faces,
            patch_size=2,
            num_occupied_voxels=baked.grid.num_occupied,
            grid_resolution=16,
        )
        assert baked.size_bytes() == pytest.approx(expected)

    def test_size_increases_with_patch_size(self, sphere):
        small = bake_field(sphere, 16, 1).size_mb()
        large = bake_field(sphere, 16, 4).size_mb()
        assert large > small

    def test_size_increases_with_granularity(self, sphere):
        small = bake_field(sphere, 12, 2).size_mb()
        large = bake_field(sphere, 32, 2).size_mb()
        assert large > small

    def test_texture_term_dominates_at_high_patch_size(self, sphere):
        """The byte budget of a baked model is carried by its feature
        texels (as in real MobileNeRF-class bundles), not by the compressed
        per-cell volume data — the miscalibration that once made the dense
        ``g^3`` term dominate priced detail granularities out of every
        mobile budget (the Fig. 4 regression)."""
        constants = SizeConstants()
        baked = bake_field(sphere, 32, 4, size_constants=constants)
        textures = baked.num_faces * 4**2 * constants.texel_bytes
        dense = 32**3 * constants.dense_grid_bytes_per_cell
        assert textures > 0.5 * baked.size_bytes()
        assert dense < 0.1 * baked.size_bytes()

    @given(g=st.integers(4, 32), p=st.integers(1, 6))
    @settings(max_examples=20, deadline=None)
    def test_model_bytes_monotone(self, g, p):
        constants = SizeConstants()
        base = constants.model_bytes(100, p, 50, g)
        assert constants.model_bytes(101, p, 50, g) >= base
        assert constants.model_bytes(100, p + 1, 50, g) >= base
        assert constants.model_bytes(100, p, 50, g + 1) >= base

    def test_multi_model_size_is_sum(self, sphere):
        a = bake_field(sphere, 12, 1, name="a")
        b = bake_field(sphere, 16, 2, name="b")
        multi = BakedMultiModel([a, b])
        assert multi.size_mb() == pytest.approx(a.size_mb() + b.size_mb())
        assert multi.by_name("b") is b
        with pytest.raises(KeyError):
            multi.by_name("missing")

    def test_empty_multi_model_rejected(self):
        with pytest.raises(ValueError):
            BakedMultiModel([])


class TestBakedRendering:
    def test_quality_improves_with_granularity(self, sphere):
        camera = orbit_cameras(sphere.center, radius=1.25 * sphere.extent, count=1, width=96, height=96)[0]
        reference = render_scene(sphere, camera)
        coarse = render_baked(bake_field(sphere, 10, 2), camera)
        fine = render_baked(bake_field(sphere, 40, 2), camera)
        assert ssim(reference.rgb, fine.rgb) > ssim(reference.rgb, coarse.rgb)
        assert ssim(reference.rgb, fine.rgb) > 0.8

    def test_background_preserved(self, sphere):
        camera = orbit_cameras(sphere.center, radius=1.4 * sphere.extent, count=1, width=64, height=64)[0]
        rendered = render_baked(bake_field(sphere, 16, 2), camera, background=(0.2, 0.4, 0.6))
        corner = rendered.rgb[0, 0]
        assert np.allclose(corner, [0.2, 0.4, 0.6])

    def test_multi_model_composites_by_depth(self, two_object_scene):
        camera = orbit_cameras(
            two_object_scene.center, radius=1.3 * two_object_scene.extent, count=1, width=72, height=72
        )[0]
        models = [
            bake_field(placed, 24, 2, name=placed.instance_name)
            for placed in two_object_scene.placed
        ]
        reference = render_scene(two_object_scene, camera)
        composited = render_baked_multi(models, camera)
        assert ssim(reference.rgb, composited.rgb) > 0.8
        # Both sub-models should be visible.
        assert set(np.unique(composited.object_ids)) >= {0, 1}

    def test_render_empty_model_is_background(self, sphere):
        grid = VoxelGrid(origin=np.zeros(3), voxel_size=0.1, resolution=4, occupancy=np.zeros((4, 4, 4), bool))
        faces = extract_quad_faces(grid)
        from repro.baking.baked_model import BakedSubModel

        empty = BakedSubModel(
            name="empty", grid=grid, faces=faces,
            texture=LazyTexture(patch_size=1, faces=faces, radiance_fn=sphere.albedo),
            patch_size=1,
        )
        camera = orbit_cameras(np.array([0.2, 0.2, 0.2]), radius=2.0, count=1, width=32, height=32)[0]
        rendered = render_baked(empty, camera)
        assert not rendered.hit_mask.any()
