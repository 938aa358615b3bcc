"""Scene composition: placed object instances and multi-object scenes.

A :class:`Scene` is a collection of :class:`PlacedObject` instances (an
object from :mod:`repro.scenes.objects` plus a rigid placement and scale).
Both classes implement the *field protocol* used across the library:

* ``sdf(points)``    — signed distance,
* ``albedo(points)`` — surface colour,
* ``bounds_min`` / ``bounds_max`` — axis-aligned bounds.

The ground-truth ray tracer, the voxel baker and the radiance-field trainer
all consume this protocol, so a whole scene, a single placed object and a
"joint" sub-scene of several objects can each be rendered, baked or learned
with the same code paths — exactly the property NeRFlex's multi-NeRF
decomposition relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.scenes.objects import SceneObject, make_object
from repro.utils.rng import make_rng


@dataclass
class PlacedObject:
    """An object instance placed in a scene.

    Attributes:
        obj: the underlying procedural object.
        translation: world-space translation of the object origin.
        scale: uniform scale factor applied to the object.
        instance_id: unique non-negative integer identifier within the scene
            (also written into the ray tracer's instance-ID buffer).
        instance_name: unique name within the scene (defaults to the object
            name, with a suffix when the same object appears twice).
    """

    obj: SceneObject
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))
    scale: float = 1.0
    instance_id: int = 0
    instance_name: str = ""

    def __post_init__(self) -> None:
        self.translation = np.asarray(self.translation, dtype=np.float64)
        if self.translation.shape != (3,):
            raise ValueError("translation must be a 3-vector")
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if not self.instance_name:
            self.instance_name = self.obj.name

    def _to_local(self, points: np.ndarray) -> np.ndarray:
        local = np.subtract(points, self.translation, dtype=np.float64)
        local /= self.scale
        return local

    @property
    def sdf_lipschitz(self) -> float:
        """Uniform scaling and translation preserve the object's bound.

        An object that advertises no bound has none (``inf``), so the
        voxeliser samples it exhaustively instead of pruning with 1.
        """
        return float(getattr(self.obj, "sdf_lipschitz", np.inf))

    def sdf(self, points: np.ndarray) -> np.ndarray:
        """Signed distance in world space (scale-corrected)."""
        return self.obj.sdf(self._to_local(points)) * self.scale

    def albedo(self, points: np.ndarray) -> np.ndarray:
        """Surface colour at world-space points."""
        return self.obj.albedo(self._to_local(points))

    @property
    def bounds_min(self) -> np.ndarray:
        return self.translation + self.scale * self.obj.bounds_min

    @property
    def bounds_max(self) -> np.ndarray:
        return self.translation + self.scale * self.obj.bounds_max

    @property
    def texture_frequency(self) -> float:
        return self.obj.texture_frequency

    @property
    def complexity_rank(self) -> int:
        return self.obj.complexity_rank


class Scene:
    """A multi-object scene composed of placed object instances."""

    def __init__(self, placed_objects: list, background_color=(1.0, 1.0, 1.0)) -> None:
        if not placed_objects:
            raise ValueError("a Scene needs at least one placed object")
        names = [placed.instance_name for placed in placed_objects]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate instance names in scene: {names}")
        ids = [placed.instance_id for placed in placed_objects]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate instance ids in scene: {ids}")
        self.placed = list(placed_objects)
        self.background_color = np.asarray(background_color, dtype=np.float64)

    # -- field protocol ----------------------------------------------------

    @property
    def sdf_lipschitz(self) -> float:
        """A min-union of SDFs keeps the largest member bound."""
        return max(
            float(getattr(placed, "sdf_lipschitz", np.inf)) for placed in self.placed
        )

    def sdf(self, points: np.ndarray) -> np.ndarray:
        """Signed distance to the closest surface of any object.

        A bound-culled union (DESIGN.md "Bound-culled scene unions"): each
        object after the first is evaluated only where its box distance is
        within the running union, clamped at zero.  Outside its box an
        object's SDF is at least that distance (the ``SceneObject.bounds``
        contract), so every skipped value is strictly above the union, and
        folding ``np.minimum(running, new)`` in object order gives
        ``np.stack(...).min(axis=0)`` bit for bit, signed zeros included.
        """
        points = np.asarray(points, dtype=np.float64)
        first, *rest = self.placed
        union = first.sdf(points)
        for placed in rest:
            reach = box_distance(points, placed.bounds_min, placed.bounds_max)
            near = np.flatnonzero(reach <= np.maximum(union, 0.0))
            if near.size == len(points):
                union = np.minimum(union, placed.sdf(points))
            elif near.size:
                if near.size == 1:
                    # A one-row query rounds differently from a larger one
                    # (see repro.utils.blocks), so a lone point goes as two.
                    near = near.repeat(2)
                union[near] = np.minimum(union[near], placed.sdf(points[near]))
        return union

    def albedo(self, points: np.ndarray) -> np.ndarray:
        """Colour of the closest object at each point."""
        distances = np.stack([placed.sdf(points) for placed in self.placed], axis=0)
        owner = distances.argmin(axis=0)
        colors = np.zeros((points.shape[0], 3))
        for index, placed in enumerate(self.placed):
            mask = owner == index
            if mask.any():
                colors[mask] = placed.albedo(np.asarray(points)[mask])
        return colors

    @property
    def bounds_min(self) -> np.ndarray:
        return np.min([placed.bounds_min for placed in self.placed], axis=0)

    @property
    def bounds_max(self) -> np.ndarray:
        return np.max([placed.bounds_max for placed in self.placed], axis=0)

    # -- scene queries -------------------------------------------------------

    def classify(self, points: np.ndarray) -> tuple:
        """Return ``(distance, instance_id)`` of the nearest object per point."""
        distances = np.stack([placed.sdf(points) for placed in self.placed], axis=0)
        owner_index = distances.argmin(axis=0)
        ids = np.array([placed.instance_id for placed in self.placed])
        return distances.min(axis=0), ids[owner_index]

    @property
    def instance_ids(self) -> list:
        return [placed.instance_id for placed in self.placed]

    @property
    def instance_names(self) -> list:
        return [placed.instance_name for placed in self.placed]

    def by_id(self, instance_id: int) -> PlacedObject:
        """Look up a placed object by its instance id."""
        for placed in self.placed:
            if placed.instance_id == instance_id:
                return placed
        raise KeyError(f"no placed object with instance_id={instance_id}")

    def by_name(self, instance_name: str) -> PlacedObject:
        """Look up a placed object by its instance name."""
        for placed in self.placed:
            if placed.instance_name == instance_name:
                return placed
        raise KeyError(f"no placed object named {instance_name!r}")

    def subset(self, instance_ids: list) -> "Scene":
        """A new scene containing only the given instances.

        Used to form the "joint NeRF" sub-scene of all low-frequency objects
        that NeRFlex represents with a single shared network.
        """
        selected = [placed for placed in self.placed if placed.instance_id in set(instance_ids)]
        if not selected:
            raise ValueError(f"subset: no instances matched {instance_ids}")
        return Scene(selected, background_color=self.background_color)

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.bounds_min + self.bounds_max)

    @property
    def extent(self) -> float:
        return float(np.max(self.bounds_max - self.bounds_min))

    def __len__(self) -> int:
        return len(self.placed)

    def __repr__(self) -> str:
        names = ", ".join(self.instance_names)
        return f"Scene([{names}])"


def box_distance(points: np.ndarray, bounds_min, bounds_max) -> np.ndarray:
    """Euclidean distance from each point to an axis-aligned box, 0 inside."""
    squared = np.zeros(len(points))
    for axis, (lo, hi) in enumerate(zip(bounds_min, bounds_max)):
        column = points[:, axis]
        gap = np.maximum(lo - column, column - hi)
        np.maximum(gap, 0.0, out=gap)
        gap *= gap
        squared += gap
    return np.sqrt(squared)


def _unique_names(names: list) -> list:
    """Make object names unique by appending an index to repeats."""
    counts: dict = {}
    result = []
    for name in names:
        counts[name] = counts.get(name, 0) + 1
        if counts[name] == 1:
            result.append(name)
        else:
            result.append(f"{name}_{counts[name]}")
    return result


def compose_scene(
    objects: list,
    layout: str = "circle",
    spacing: float = 1.4,
    scale: float = 1.0,
    seed: "int | None" = 0,
    background_color=(1.0, 1.0, 1.0),
) -> Scene:
    """Place a list of objects into a scene.

    Args:
        objects: object names (looked up in the library) or
            :class:`SceneObject` instances.
        layout: ``"cluster"`` (one object at the centre, the rest packed on
            a tight ring around it — the compact layout used for the paper's
            simulated 360-degree scenes), ``"circle"``, ``"line"`` or
            ``"grid"``.
        spacing: centre-to-centre distance between neighbouring objects.
        scale: uniform scale applied to every object.
        seed: randomises small placement jitter (``None`` disables jitter).
        background_color: colour returned for rays that miss every object.
    """
    instantiated = [
        make_object(item) if isinstance(item, str) else item for item in objects
    ]
    if not instantiated:
        raise ValueError("compose_scene: need at least one object")
    rng = make_rng(seed)
    count = len(instantiated)
    positions = []
    if layout == "cluster":
        positions = [np.zeros(3)]
        if count > 1:
            angles = np.linspace(0.0, 2.0 * np.pi, count - 1, endpoint=False)
            positions += [
                np.array([spacing * np.cos(a), 0.0, spacing * np.sin(a)])
                for a in angles
            ]
    elif layout == "circle":
        if count == 1:
            positions = [np.zeros(3)]
        else:
            radius = spacing * count / (2.0 * np.pi) + 0.4 * spacing
            angles = np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)
            positions = [
                np.array([radius * np.cos(a), 0.0, radius * np.sin(a)]) for a in angles
            ]
    elif layout == "line":
        offset = -(count - 1) / 2.0
        positions = [
            np.array([(offset + index) * spacing, 0.0, 0.0]) for index in range(count)
        ]
    elif layout == "grid":
        cols = int(np.ceil(np.sqrt(count)))
        positions = []
        for index in range(count):
            row, col = divmod(index, cols)
            positions.append(np.array([col * spacing, 0.0, row * spacing]))
        centroid = np.mean(positions, axis=0)
        positions = [pos - centroid for pos in positions]
    else:
        raise ValueError(
            f"unknown layout {layout!r}; use 'cluster', 'circle', 'line' or 'grid'"
        )

    if seed is not None:
        jitter = rng.uniform(-0.08, 0.08, size=(count, 3)) * spacing
        jitter[:, 1] = 0.0
        positions = [pos + j for pos, j in zip(positions, jitter)]

    names = _unique_names([obj.name for obj in instantiated])
    placed = [
        PlacedObject(
            obj=obj,
            translation=pos,
            scale=scale,
            instance_id=index,
            instance_name=name,
        )
        for index, (obj, pos, name) in enumerate(zip(instantiated, positions, names))
    ]
    return Scene(placed, background_color=background_color)
