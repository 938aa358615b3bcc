"""Ready-made scenes mirroring the paper's evaluation workloads.

The paper constructs four simulated scenes of five objects each, ordered by
geometric complexity (§IV-B), plus real-world forward-facing scenes.  This
module rebuilds those workloads from the procedural object library:

* Scene 1 — five objects with the *lowest* geometric complexity;
* Scene 2 — five objects with the *highest* geometric complexity;
* Scene 3 — five objects selected at random;
* Scene 4 — the five exclusively different reference objects
  (hotdog, ficus, chair, ship, lego).
"""

from __future__ import annotations

import numpy as np

from repro.scenes.objects import (
    REFERENCE_OBJECT_NAMES,
    SceneObject,
    make_object,
    list_objects,
)
from repro.scenes import primitives as prim
from repro.scenes.objects import _checker, _stripes  # shared colour helpers
from repro.scenes.scene import PlacedObject, Scene, compose_scene
from repro.utils.rng import make_rng

#: Names of the four simulated multi-object scenes from the paper.
SIMULATED_SCENE_NAMES: tuple = ("scene1", "scene2", "scene3", "scene4")

_LOW_COMPLEXITY_OBJECTS = ("sphere", "cube", "torus", "hotdog", "mug")
_HIGH_COMPLEXITY_OBJECTS = ("lego", "ship", "lego", "ship", "chair")
_REFERENCE_OBJECTS = REFERENCE_OBJECT_NAMES


def make_single_object_scene(name: str, scale: float = 1.0) -> Scene:
    """A scene containing a single centred object (profiler validation)."""
    placed = PlacedObject(
        obj=make_object(name), translation=np.zeros(3), scale=scale, instance_id=0
    )
    return Scene([placed])


def make_simulated_scene(index: int, seed: int = 0, spacing: float = 1.15) -> Scene:
    """Build simulated scene 1–4 as described in the paper's evaluation.

    Args:
        index: scene number, 1 through 4.
        seed: random seed (controls Scene 3's random object selection and
            the small placement jitter).
        spacing: centre-to-centre object spacing.
    """
    if index == 1:
        names = list(_LOW_COMPLEXITY_OBJECTS)
    elif index == 2:
        names = list(_HIGH_COMPLEXITY_OBJECTS)
    elif index == 3:
        rng = make_rng(seed)
        pool = list_objects()
        names = list(rng.choice(pool, size=5, replace=True))
    elif index == 4:
        names = list(_REFERENCE_OBJECTS)
    else:
        raise ValueError(f"simulated scene index must be 1..4, got {index}")
    return compose_scene(names, layout="cluster", spacing=spacing, seed=seed)


def _make_room_backdrop(half_width: float, half_depth: float, height: float) -> SceneObject:
    """Floor plus back wall used by the real-world style scenes."""

    # Floor, then the back wall.
    boxes = prim.box_table(
        [
            ((0.0, -0.65, 0.0), (half_width, 0.05, half_depth)),
            ((0.0, height / 2.0 - 0.65, -half_depth), (half_width, height / 2.0, 0.05)),
        ]
    )

    def sdf(points: np.ndarray) -> np.ndarray:
        floor, wall = boxes(*prim.columns(points))
        return prim.sdf_union(floor, wall)

    def albedo(points: np.ndarray) -> np.ndarray:
        floor_pattern = _checker(points, 1.6, (0.62, 0.57, 0.50), (0.52, 0.47, 0.42))
        wall_pattern = _stripes(points, 1.0, 0, (0.78, 0.76, 0.72), (0.72, 0.70, 0.66))
        is_wall = (points[:, 2] < -half_depth + 0.2).astype(np.float64)[:, None]
        return floor_pattern * (1.0 - is_wall) + wall_pattern * is_wall

    return SceneObject(
        name="backdrop",
        sdf_fn=sdf,
        albedo_fn=albedo,
        bounds=(
            (-half_width - 0.1, -0.75, -half_depth - 0.1),
            (half_width + 0.1, height - 0.6, half_depth + 0.1),
        ),
        texture_frequency=1.0,
        complexity_rank=0,
    )


def make_realworld_scene(seed: int = 0, num_objects: int = 4) -> Scene:
    """A forward-facing "real-world" style scene.

    The LLFF real-world scenes cannot be downloaded offline, so this builds
    the closest procedural equivalent: a room backdrop (floor + wall, few
    empty pixels) with several foreground objects of mixed complexity placed
    on the floor and captured with forward-facing cameras.
    """
    if num_objects < 1:
        raise ValueError("num_objects must be at least 1")
    rng = make_rng(seed)
    pool = list(REFERENCE_OBJECT_NAMES)
    chosen = list(rng.choice(pool, size=min(num_objects, len(pool)), replace=False))

    half_width, half_depth, height = 2.4, 1.4, 2.4
    backdrop = PlacedObject(
        obj=_make_room_backdrop(half_width, half_depth, height),
        translation=np.zeros(3),
        scale=1.0,
        instance_id=0,
        instance_name="backdrop",
    )

    placed = [backdrop]
    xs = np.linspace(-half_width * 0.6, half_width * 0.6, len(chosen))
    for index, name in enumerate(chosen):
        obj = make_object(name)
        depth_offset = float(rng.uniform(-0.3, 0.3))
        # Rest the object on the floor (y = -0.6 is the floor surface).
        y_offset = -0.6 - float(obj.bounds_min[1]) * 0.8
        placed.append(
            PlacedObject(
                obj=obj,
                translation=np.array([xs[index], y_offset, depth_offset]),
                scale=0.8,
                instance_id=index + 1,
                instance_name=name,
            )
        )
    return Scene(placed, background_color=(0.9, 0.9, 0.92))
