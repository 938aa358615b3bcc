"""Cache-sized field blocks: the helper, bit-identity of every blocked
consumer against its one-call oracle, and the working set each keeps."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.baking import bake_texture_atlas, extract_quad_faces, voxelize_field
from repro.baking.baked_model import make_radiance_fn
from repro.baking.meshing import QuadFaceSet
from repro.nerf.degradation import DegradedField
from repro.render import RenderEngine
from repro.scenes.cameras import orbit_cameras
from repro.scenes.objects import list_objects, make_object
from repro.scenes.raytrace import estimate_normals
from repro.scenes.scene import PlacedObject
from repro.utils.blocks import FIELD_BLOCK, block_ranges
from tests import _field_oracle as oracle

MB = 1e6


def assert_bits_equal(actual, expected):
    """Same shape and the same float64 bit patterns (signed zeros included)."""
    actual = np.ascontiguousarray(actual, dtype=np.float64)
    expected = np.ascontiguousarray(expected, dtype=np.float64)
    assert actual.shape == expected.shape
    mismatch = actual.view(np.uint64) != expected.view(np.uint64)
    assert not mismatch.any(), f"{int(mismatch.sum())} of {mismatch.size} values differ"


def traced_peak(fn):
    """``(result, peak traced bytes)`` of one call."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def floater_fields():
    """A floater-bearing degraded field over every library object."""
    fields = []
    for name in list_objects():
        placed = PlacedObject(obj=make_object(name))
        extent = float(np.max(placed.bounds_max - placed.bounds_min))
        field = DegradedField(placed, 0.03 * extent, floater_rate=0.3, seed=1)
        assert field.floater_rate > 0
        fields.append(field)
    return fields


@pytest.fixture(scope="module")
def floater_scene_field(two_object_scene):
    return DegradedField(two_object_scene, 0.02, floater_rate=0.3, seed=0)


class TestBlockRanges:
    @pytest.mark.parametrize(
        "total",
        [0, 1, 2, 3, FIELD_BLOCK - 1, FIELD_BLOCK, FIELD_BLOCK + 1, FIELD_BLOCK + 2,
         2 * FIELD_BLOCK, 2 * FIELD_BLOCK + 1, 5 * FIELD_BLOCK + 123],
    )
    def test_cover_in_order_without_one_point_blocks(self, total):
        blocks = block_ranges(total)
        covered = np.concatenate([np.arange(a, b) for a, b in blocks] or [[]])
        np.testing.assert_array_equal(covered, np.arange(total))
        for start, stop in blocks:
            assert stop > start
            assert stop - start <= FIELD_BLOCK + 1
            assert stop - start > 1 or total == 1

    @pytest.mark.parametrize("item_points", [1, 3, 64, 96, 100, FIELD_BLOCK, 3 * FIELD_BLOCK])
    def test_items_per_block_follow_points_per_item(self, item_points):
        size = max(1, FIELD_BLOCK // item_points)
        total = 7 * size + 1
        blocks = block_ranges(total, item_points)
        assert blocks[0] == (0, size)
        assert blocks[-1][1] == total
        assert all(stop - start in (size, size + 1) for start, stop in blocks)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            block_ranges(-1)
        with pytest.raises(ValueError):
            block_ranges(10, 0)


@given(
    total=st.integers(1, 3 * FIELD_BLOCK),
    seed=st.integers(0, 2**32 - 1),
)
@example(total=1, seed=0)
@example(total=2, seed=0)
@example(total=FIELD_BLOCK - 1, seed=0)
@example(total=FIELD_BLOCK, seed=0)
@example(total=FIELD_BLOCK + 1, seed=0)
@example(total=2 * FIELD_BLOCK + 1, seed=0)
@settings(max_examples=8, deadline=None)
def test_blocked_sdf_equals_one_call(floater_fields, total, seed):
    """Evaluating in ``block_ranges`` blocks is bit-identical to one call,
    for every library object under floaters and geometry noise."""
    rng = np.random.default_rng(seed)
    for field in floater_fields:
        lo = np.asarray(field.bounds_min)
        hi = np.asarray(field.bounds_max)
        pad = 0.1 * (hi - lo)
        points = rng.uniform(lo - pad, hi + pad, size=(total, 3))
        blocked = np.concatenate(
            [field.sdf(points[start:stop]) for start, stop in block_ranges(total)]
        )
        assert_bits_equal(blocked, field.sdf(points))


class TestConsumersMatchOneCall:
    def test_voxelize_flat_path(self, floater_scene_field):
        # 24^3 = 13,824 cells: not a multiple of the block.
        assert not np.isfinite(floater_scene_field.sdf_lipschitz)
        grid = voxelize_field(floater_scene_field, resolution=24)
        np.testing.assert_array_equal(
            grid.occupancy, oracle.voxelize_flat(floater_scene_field, 24)
        )

    def test_voxelize_hierarchical_path(self, two_object_scene):
        field = DegradedField(two_object_scene, 0.01, floater_rate=0.0, seed=0)
        assert np.isfinite(field.sdf_lipschitz)
        grid = voxelize_field(field, resolution=64)
        np.testing.assert_array_equal(
            grid.occupancy, oracle.voxelize_hierarchical(field, 64)
        )

    @pytest.mark.parametrize("patch_size", [1, 3])
    def test_atlas(self, two_object_scene, floater_scene_field, patch_size):
        faces = extract_quad_faces(voxelize_field(two_object_scene, resolution=96))
        count = FIELD_BLOCK + 1 if patch_size == 1 else 2000
        assert faces.num_faces >= count
        faces = QuadFaceSet(
            faces.voxel_indices[:count], faces.axes[:count], faces.signs[:count], faces.grid
        )
        radiance = make_radiance_fn(floater_scene_field)
        atlas = bake_texture_atlas(radiance, faces, patch_size)
        assert_bits_equal(atlas.texels, oracle.bake_atlas(radiance, faces, patch_size).texels)

    @pytest.mark.parametrize("num_samples", [96, 100])
    def test_volume_render(self, two_object_scene, floater_scene_field, num_samples):
        scene = two_object_scene
        cameras = orbit_cameras(
            scene.center, radius=1.3 * scene.extent, count=2, width=40, height=40
        )
        results = RenderEngine(kernel="numpy").volume_render_views(
            floater_scene_field, cameras, num_samples=num_samples
        )
        rgb, depth, hit = oracle.volume_render(floater_scene_field, cameras, num_samples)
        assert hit.any()
        assert_bits_equal(np.concatenate([r.rgb.reshape(-1, 3) for r in results]), rgb)
        assert_bits_equal(np.concatenate([r.depth.ravel() for r in results]), depth)
        np.testing.assert_array_equal(
            np.concatenate([r.hit_mask.ravel() for r in results]), hit
        )


class TestStackedNormals:
    """``estimate_normals`` sends the six offsets of each block as one query;
    the six-call oracle is the reference, on fields with floaters (whose
    hash and noise carry the row-count-sensitive matmuls)."""

    @staticmethod
    def _points(field, count, seed):
        lo, hi = np.asarray(field.bounds_min), np.asarray(field.bounds_max)
        points = np.random.default_rng(seed).uniform(lo, hi, size=(count, 3))
        points[::2] = np.round(points[::2] * 64) / 64  # grid-snapped coordinates
        points[1::7, 1] = -0.0
        return points

    @pytest.mark.parametrize(
        "count", [2, FIELD_BLOCK // 6, FIELD_BLOCK // 6 + 1, 2 * (FIELD_BLOCK // 6) + 1]
    )
    def test_blocks_match_six_calls(self, floater_fields, floater_scene_field, count):
        for field in [floater_scene_field] + floater_fields[::3]:
            points = self._points(field, count, seed=count)
            assert_bits_equal(
                estimate_normals(field, points), oracle.estimate_normals_six_calls(field, points)
            )

    def test_one_point_queries_match_six_calls(self, floater_fields):
        """A one-point query keeps six one-row calls: stacked into six rows,
        the ship's degradation matmuls round differently."""
        ship = floater_fields[list_objects().index("ship")]
        points = self._points(ship, 400, seed=7)
        floating = ship._floater_sdf(points, ship.base.sdf(points)) < 10.0 * ship.extent
        assert floating.any()
        for point in points:
            point = point[None, :]
            assert_bits_equal(
                estimate_normals(ship, point), oracle.estimate_normals_six_calls(ship, point)
            )


class TestWorkingSet:
    """Traced peaks of each consumer.  The one-call versions peaked at
    91.8 MB, atlas + 31.2 MB and 152.6 MB on these inputs."""

    def test_voxelize_g96(self, floater_scene_field):
        grid, peak = traced_peak(lambda: voxelize_field(floater_scene_field, resolution=96))
        assert grid.resolution == 96
        assert peak < 8 * MB

    def test_atlas_p8(self, two_object_scene):
        faces = extract_quad_faces(voxelize_field(two_object_scene, resolution=48))
        radiance = make_radiance_fn(two_object_scene)
        atlas, peak = traced_peak(lambda: bake_texture_atlas(radiance, faces, 8))
        assert peak < atlas.texels.nbytes + 8 * MB

    def test_volume_chunk(self, two_object_scene, floater_scene_field):
        scene = two_object_scene
        camera = orbit_cameras(
            scene.center, radius=1.3 * scene.extent, count=1, width=128, height=64
        )[0]
        engine = RenderEngine(kernel="numpy")
        assert camera.width * camera.height == engine.chunk_rays == 8192
        _, peak = traced_peak(
            lambda: engine.volume_render_views(floater_scene_field, [camera], num_samples=96)
        )
        assert peak < 120 * MB
