"""Tests for cameras, ray tracing, dataset generation and the scene library."""

import numpy as np
import pytest

from repro.render import RenderEngine
from repro.scenes.cameras import (
    Camera,
    camera_rays,
    forward_facing_cameras,
    orbit_cameras,
)
from repro.scenes.dataset import generate_dataset
from repro.scenes.library import (
    SIMULATED_SCENE_NAMES,
    make_realworld_scene,
    make_simulated_scene,
    make_single_object_scene,
)
from repro.scenes.raytrace import render_field, render_scene


class TestCamera:
    def test_rotation_is_orthonormal(self):
        camera = Camera(position=np.array([2.0, 1.0, 3.0]), look_at=np.zeros(3))
        rotation = camera.rotation
        assert np.allclose(rotation.T @ rotation, np.eye(3), atol=1e-12)

    def test_forward_points_at_target(self):
        camera = Camera(position=np.array([0.0, 0.0, 5.0]), look_at=np.zeros(3))
        assert np.allclose(camera.forward, [0.0, 0.0, -1.0])

    def test_degenerate_camera_rejected(self):
        camera = Camera(position=np.zeros(3), look_at=np.zeros(3))
        with pytest.raises(ValueError):
            _ = camera.forward

    def test_invalid_resolution_rejected(self):
        with pytest.raises(ValueError):
            Camera(position=np.ones(3), look_at=np.zeros(3), width=0, height=10)

    def test_camera_rays_unit_length_and_count(self):
        camera = Camera(position=np.array([0.0, 0.0, 3.0]), look_at=np.zeros(3), width=16, height=12)
        origins, directions = camera_rays(camera)
        assert origins.shape == (192, 3)
        assert np.allclose(np.linalg.norm(directions, axis=1), 1.0)

    def test_central_ray_matches_forward(self):
        camera = Camera(position=np.array([0.0, 0.0, 3.0]), look_at=np.zeros(3), width=31, height=31)
        _, directions = camera_rays(camera)
        central = directions.reshape(31, 31, 3)[15, 15]
        assert np.allclose(central, camera.forward, atol=1e-2)

    def test_resized_keeps_pose(self):
        camera = Camera(position=np.ones(3), look_at=np.zeros(3), width=10, height=10)
        resized = camera.resized(20, 30)
        assert resized.width == 20 and resized.height == 30
        assert np.allclose(resized.position, camera.position)

    def test_orbit_cameras_equidistant(self):
        cams = orbit_cameras(np.zeros(3), radius=2.0, count=8)
        distances = [np.linalg.norm(cam.position) for cam in cams]
        assert np.allclose(distances, 2.0)

    def test_forward_facing_cameras_look_at_center(self):
        center = np.array([0.0, 0.5, 0.0])
        cams = forward_facing_cameras(center, distance=3.0, count=5)
        assert len(cams) == 5
        for cam in cams:
            assert np.allclose(cam.look_at, center)
            assert cam.position[2] > center[2]

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            orbit_cameras(np.zeros(3), radius=1.0, count=0)


class TestRayTracing:
    def test_sphere_render_hits_centre(self, sphere_view):
        view, _ = sphere_view
        height, width = view.rgb.shape[:2]
        assert view.hit_mask[height // 2, width // 2]
        assert view.object_ids[height // 2, width // 2] == 0

    def test_background_pixels_are_background_colour(self, sphere_view, sphere_scene):
        view, _ = sphere_view
        corner = view.rgb[0, 0]
        assert np.allclose(corner, sphere_scene.background_color)
        assert view.object_ids[0, 0] == -1
        assert np.isinf(view.depth[0, 0])

    def test_depth_increases_towards_silhouette(self, sphere_view):
        view, _ = sphere_view
        height, width = view.depth.shape
        centre_depth = view.depth[height // 2, width // 2]
        finite = view.depth[np.isfinite(view.depth)]
        assert centre_depth == pytest.approx(finite.min(), rel=0.05)

    def test_object_mask_matches_ids(self, sphere_view):
        view, _ = sphere_view
        assert np.array_equal(view.object_mask(0), view.object_ids == 0)

    def test_shading_off_returns_albedo_range(self, sphere_scene):
        from repro.scenes.cameras import orbit_cameras

        cam = orbit_cameras(sphere_scene.center, radius=1.3 * sphere_scene.extent, count=1, width=48, height=48)[0]
        unshaded = render_scene(sphere_scene, cam, shading=False)
        assert unshaded.rgb.max() <= 1.0

    def test_render_field_matches_render_scene(self, sphere_scene):
        from repro.scenes.cameras import orbit_cameras
        from repro.metrics import ssim

        cam = orbit_cameras(sphere_scene.center, radius=1.3 * sphere_scene.extent, count=1, width=48, height=48)[0]
        scene_view = render_scene(sphere_scene, cam)
        field_view = render_field(sphere_scene, cam)
        assert ssim(scene_view.rgb, field_view.rgb) > 0.98
        assert abs(scene_view.hit_mask.mean() - field_view.hit_mask.mean()) < 0.02


class TestDatasets:
    def test_dataset_shapes(self, small_dataset):
        assert small_dataset.num_train == 4
        assert small_dataset.num_test == 1
        assert small_dataset.train_images[0].shape == (64, 64, 3)

    def test_dataset_describe(self, small_dataset):
        description = small_dataset.describe()
        assert description["resolution"] == (64, 64)
        assert description["objects"] == ["sphere", "cube"]

    def test_every_object_visible_somewhere(self, small_dataset):
        seen = set()
        for view in small_dataset.train_views:
            seen.update(np.unique(view.object_ids).tolist())
        for instance_id in small_dataset.scene.instance_ids:
            assert instance_id in seen

    def test_forward_trajectory(self, two_object_scene):
        dataset = generate_dataset(
            two_object_scene, num_train=2, num_test=1, resolution=32, trajectory="forward"
        )
        assert dataset.num_train == 2

    def test_unknown_trajectory_rejected(self, two_object_scene):
        with pytest.raises(ValueError):
            generate_dataset(two_object_scene, trajectory="spline")

    def test_splits_trace_as_one_batch_with_each_splits_pixels(self):
        """Train and test views march together; each view keeps the bits
        of rendering its own split alone."""
        # The perfbench layout: all five reference objects, the ship among them.
        scene = make_realworld_scene(seed=0, num_objects=5)
        dataset = generate_dataset(
            scene, num_train=3, num_test=2, resolution=48, trajectory="forward"
        )
        engine = RenderEngine()
        for cameras, views in (
            (dataset.train_cameras, dataset.train_views),
            (dataset.test_cameras, dataset.test_views),
        ):
            for alone, view in zip(engine.render_scene_views(scene, cameras), views):
                for buffer in ("rgb", "depth", "object_ids", "hit_mask"):
                    assert getattr(alone, buffer).tobytes() == getattr(view, buffer).tobytes()


class TestSceneLibrary:
    def test_four_simulated_scenes(self):
        assert len(SIMULATED_SCENE_NAMES) == 4
        for index in range(1, 5):
            scene = make_simulated_scene(index, seed=0)
            assert len(scene) == 5

    def test_scene4_is_reference_objects(self):
        scene = make_simulated_scene(4, seed=0)
        assert scene.instance_names == ["hotdog", "ficus", "chair", "ship", "lego"]

    def test_scene1_simpler_than_scene2(self):
        simple = make_simulated_scene(1, seed=0)
        complex_scene = make_simulated_scene(2, seed=0)
        rank_simple = sum(placed.complexity_rank for placed in simple.placed)
        rank_complex = sum(placed.complexity_rank for placed in complex_scene.placed)
        assert rank_simple < rank_complex

    def test_scene3_depends_on_seed(self):
        names_a = make_simulated_scene(3, seed=0).instance_names
        names_b = make_simulated_scene(3, seed=99).instance_names
        assert names_a != names_b

    def test_invalid_scene_index(self):
        with pytest.raises(ValueError):
            make_simulated_scene(5)

    def test_single_object_scene(self):
        scene = make_single_object_scene("lego")
        assert len(scene) == 1
        assert scene.instance_names == ["lego"]

    def test_realworld_scene_has_backdrop(self):
        scene = make_realworld_scene(seed=0)
        assert "backdrop" in scene.instance_names
        assert len(scene) >= 4

    def test_realworld_scene_invalid_count(self):
        with pytest.raises(ValueError):
            make_realworld_scene(num_objects=0)
