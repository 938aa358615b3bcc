"""Training / testing datasets generated from procedural scenes.

A :class:`SceneDataset` bundles everything the NeRFlex pipeline consumes:
the scene definition, the training views (RGB images plus instance-ID
buffers standing in for the photos fed to the segmentation module) and the
held-out test views used to score rendering quality.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.scenes.cameras import Camera, forward_facing_cameras, orbit_cameras
from repro.scenes.raytrace import RenderResult
from repro.scenes.scene import Scene


@dataclass
class SceneDataset:
    """A scene with rendered training and testing views.

    Attributes:
        scene: the underlying procedural scene.
        train_cameras / test_cameras: camera poses.
        train_views / test_views: :class:`RenderResult` per camera (RGB,
            depth, instance-ID buffer, hit mask).
        name: human-readable dataset name (e.g. ``"scene3"``).
    """

    scene: Scene
    train_cameras: list
    train_views: list
    test_cameras: list
    test_views: list
    name: str = "scene"

    @property
    def num_train(self) -> int:
        return len(self.train_views)

    @property
    def num_test(self) -> int:
        return len(self.test_views)

    @property
    def train_images(self) -> list:
        return [view.rgb for view in self.train_views]

    @property
    def test_images(self) -> list:
        return [view.rgb for view in self.test_views]

    def describe(self) -> dict:
        """Summary dictionary (object names, view counts, resolution)."""
        resolution = (
            (self.train_views[0].height, self.train_views[0].width)
            if self.train_views
            else (0, 0)
        )
        return {
            "name": self.name,
            "objects": list(self.scene.instance_names),
            "num_train": self.num_train,
            "num_test": self.num_test,
            "resolution": resolution,
        }


def generate_dataset(
    scene: Scene,
    num_train: int = 12,
    num_test: int = 3,
    resolution: int = 96,
    trajectory: str = "orbit",
    elevation_deg: float = 25.0,
    fov_deg: float = 50.0,
    name: str = "scene",
    camera_distance_scale: float = 1.35,
) -> SceneDataset:
    """Render training and testing views of a scene.

    Args:
        scene: the scene to capture.
        num_train / num_test: number of training / held-out test views.
        resolution: square image resolution in pixels.
        trajectory: ``"orbit"`` for 360-degree object capture (synthetic
            scenes), ``"forward"`` for LLFF-style forward-facing capture
            (real-world scenes).
        elevation_deg: orbit elevation angle.
        fov_deg: camera field of view.
        name: dataset name.
        camera_distance_scale: camera distance as a multiple of the scene
            extent.
    """
    center = scene.center
    extent = scene.extent
    distance = camera_distance_scale * extent

    if trajectory == "orbit":
        train_cameras = orbit_cameras(
            center,
            radius=distance,
            count=num_train,
            elevation_deg=elevation_deg,
            width=resolution,
            height=resolution,
            fov_deg=fov_deg,
        )
        test_cameras = orbit_cameras(
            center,
            radius=distance,
            count=num_test,
            elevation_deg=elevation_deg + 10.0,
            width=resolution,
            height=resolution,
            fov_deg=fov_deg,
        )
    elif trajectory == "forward":
        train_cameras = forward_facing_cameras(
            center,
            distance=distance,
            count=num_train,
            width=resolution,
            height=resolution,
            fov_deg=fov_deg,
        )
        test_cameras = forward_facing_cameras(
            center,
            distance=distance * 1.05,
            count=num_test,
            spread=0.4,
            width=resolution,
            height=resolution,
            fov_deg=fov_deg,
        )
    else:
        raise ValueError(f"unknown trajectory {trajectory!r}; use 'orbit' or 'forward'")

    # One cross-view ray batch for both splits: all cameras march together.
    from repro.render.engine import default_engine

    views = default_engine().render_scene_views(scene, [*train_cameras, *test_cameras])
    train_views, test_views = views[: len(train_cameras)], views[len(train_cameras) :]
    return SceneDataset(
        scene=scene,
        train_cameras=train_cameras,
        train_views=train_views,
        test_cameras=test_cameras,
        test_views=test_views,
        name=name,
    )
