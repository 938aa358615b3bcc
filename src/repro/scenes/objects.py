"""Procedural reference objects.

The paper evaluates on the synthetic 360-degree objects of the original NeRF
dataset (hotdog, ficus, chair, ship, lego, ...).  This module provides
procedural analogues with the same *relative* geometric complexity ordering
(hotdog < ficus < chair < ship < lego, the order used on the x-axis of
Fig. 8a) and controllable texture detail frequency, which is what the
detail-based segmentation module keys on.

Every object is a :class:`SceneObject` exposing

* ``sdf(points)``     — signed distance to the object's surface,
* ``albedo(points)``  — procedural surface colour,
* ``bounds``          — a conservative axis-aligned bounding box,
* ``texture_frequency`` and ``complexity_rank`` metadata.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.scenes import primitives as prim


# ---------------------------------------------------------------------------
# Procedural colour helpers
# ---------------------------------------------------------------------------


def _checker(points: np.ndarray, frequency: float, color_a, color_b) -> np.ndarray:
    """3D checkerboard pattern between two colours."""
    color_a = np.asarray(color_a, dtype=np.float64)
    color_b = np.asarray(color_b, dtype=np.float64)
    cells = np.floor(points * frequency).astype(int)
    parity = (cells.sum(axis=1) % 2).astype(np.float64)[:, None]
    return color_a * (1.0 - parity) + color_b * parity


def _stripes(points: np.ndarray, frequency: float, axis: int, color_a, color_b) -> np.ndarray:
    """Sinusoidal stripes along one axis, blended between two colours."""
    color_a = np.asarray(color_a, dtype=np.float64)
    color_b = np.asarray(color_b, dtype=np.float64)
    phase = 0.5 + 0.5 * np.sin(2.0 * np.pi * frequency * points[:, axis])
    return color_a * (1.0 - phase[:, None]) + color_b * phase[:, None]


def _speckle(points: np.ndarray, frequency: float, base, amplitude: float) -> np.ndarray:
    """High-frequency multiplicative speckle over a base colour."""
    base = np.asarray(base, dtype=np.float64)
    modulation = (
        np.sin(2.0 * np.pi * frequency * points[:, 0])
        * np.sin(2.0 * np.pi * frequency * points[:, 1] + 1.3)
        * np.sin(2.0 * np.pi * frequency * points[:, 2] + 2.1)
    )
    factor = 1.0 + amplitude * modulation
    return np.clip(base[None, :] * factor[:, None], 0.0, 1.0)


# ---------------------------------------------------------------------------
# SceneObject
# ---------------------------------------------------------------------------


@dataclass
class SceneObject:
    """A procedural object defined by an SDF and an albedo function.

    Attributes:
        name: unique object name (e.g. ``"lego"``).
        sdf_fn: ``(N, 3) points -> (N,) signed distances``.
        albedo_fn: ``(N, 3) points -> (N, 3) RGB in [0, 1]``.
        bounds: ``(min_xyz, max_xyz)`` conservative bounding box.  Outside
            it the SDF must be at least the distance to the box, since a
            scene union skips the object wherever the box is already
            farther than the union (:meth:`repro.scenes.scene.Scene.sdf`).
        texture_frequency: characteristic spatial frequency of the surface
            texture; higher values produce more high-frequency image detail.
        complexity_rank: integer rank used to order objects by 3D geometric
            complexity (matches the paper's hotdog < ficus < chair < ship <
            lego ordering).
    """

    name: str
    sdf_fn: Callable[[np.ndarray], np.ndarray]
    albedo_fn: Callable[[np.ndarray], np.ndarray]
    bounds: tuple = field(default=((-0.6, -0.6, -0.6), (0.6, 0.6, 0.6)))
    texture_frequency: float = 2.0
    complexity_rank: int = 0
    #: The library's object SDFs are exact primitives composed with
    #: min/max, so they are 1-Lipschitz (the hierarchical voxeliser's
    #: pruning bound relies on this being advertised).
    sdf_lipschitz: float = 1.0

    def sdf(self, points: np.ndarray) -> np.ndarray:
        """Signed distance from each point to the object surface."""
        return self.sdf_fn(np.asarray(points, dtype=np.float64))

    def albedo(self, points: np.ndarray) -> np.ndarray:
        """Surface colour at each point."""
        return self.albedo_fn(np.asarray(points, dtype=np.float64))

    @property
    def bounds_min(self) -> np.ndarray:
        return np.asarray(self.bounds[0], dtype=np.float64)

    @property
    def bounds_max(self) -> np.ndarray:
        return np.asarray(self.bounds[1], dtype=np.float64)

    def occupancy(self, points: np.ndarray) -> np.ndarray:
        """Boolean occupancy (inside-surface test) at each point."""
        return self.sdf(points) <= 0.0


# ---------------------------------------------------------------------------
# Reference objects (ascending geometric complexity)
#
# Each object's primitives are module-level tables (one per kind and
# coordinate frame, built once); its SDF evaluates every table once and
# combines the rows in a fixed order (see :mod:`repro.scenes.primitives` on
# why the order is kept).
# ---------------------------------------------------------------------------

_HOTDOG_SAUSAGE = prim.Capsule((-0.28, 0.12, 0.0), (0.28, 0.12, 0.0), 0.07)
_HOTDOG_BUN = prim.rounded_box_table([((0.0, 0.0, 0.0), (0.36, 0.09, 0.16), 0.05)])
_HOTDOG_PLATE = prim.cylinder_table([((0.0, -0.12, 0.0), 0.45, 0.02)])


def _hotdog_sdf(points: np.ndarray) -> np.ndarray:
    x, y, z = prim.columns(points)
    (bun,) = _HOTDOG_BUN(x, y, z)
    (plate,) = _HOTDOG_PLATE(x, y, z)
    return prim.sdf_union(_HOTDOG_SAUSAGE(points), bun, plate)


def _hotdog_albedo(points: np.ndarray) -> np.ndarray:
    sausage = _HOTDOG_SAUSAGE(points)
    (bun,) = _HOTDOG_BUN(*prim.columns(points))
    colors = np.tile(np.array([0.85, 0.82, 0.75]), (points.shape[0], 1))  # plate
    colors[bun <= 0.02] = np.array([0.82, 0.62, 0.32])  # bun
    colors[sausage <= 0.02] = np.array([0.62, 0.22, 0.12])  # sausage
    return colors


def make_hotdog() -> SceneObject:
    """Lowest-complexity reference object: a sausage in a bun on a plate."""
    return SceneObject(
        name="hotdog",
        sdf_fn=_hotdog_sdf,
        albedo_fn=_hotdog_albedo,
        bounds=((-0.5, -0.2, -0.5), (0.5, 0.3, 0.5)),
        texture_frequency=1.5,
        complexity_rank=1,
    )


_FICUS_POT = prim.cylinder_table([((0.0, -0.30, 0.0), 0.16, 0.12)])
_FICUS_TRUNK = prim.Capsule((0.0, -0.2, 0.0), (0.0, 0.28, 0.0), 0.035)
_FICUS_FOLIAGE = prim.sphere_table(
    [
        (center, 0.11)
        for center in (
            (0.0, 0.32, 0.0),
            (0.16, 0.26, 0.06),
            (-0.14, 0.28, -0.08),
            (0.05, 0.40, -0.12),
            (-0.06, 0.38, 0.13),
            (0.14, 0.40, 0.10),
            (-0.16, 0.40, 0.02),
        )
    ]
)


def _ficus_sdf(points: np.ndarray) -> np.ndarray:
    x, y, z = prim.columns(points)
    (pot,) = _FICUS_POT(x, y, z)
    return prim.sdf_union(pot, _FICUS_TRUNK(points), *_FICUS_FOLIAGE(x, y, z))


def _ficus_albedo(points: np.ndarray) -> np.ndarray:
    (pot,) = _FICUS_POT(*prim.columns(points))
    trunk = _FICUS_TRUNK(points)
    leaves = _speckle(points, 9.0, (0.18, 0.45, 0.16), 0.55)
    colors = leaves
    colors[trunk <= 0.02] = np.array([0.36, 0.24, 0.12])
    colors[pot <= 0.02] = np.array([0.68, 0.36, 0.22])
    return colors


def make_ficus() -> SceneObject:
    """A potted plant: pot, trunk and a cluster of foliage blobs."""
    return SceneObject(
        name="ficus",
        sdf_fn=_ficus_sdf,
        albedo_fn=_ficus_albedo,
        bounds=((-0.45, -0.45, -0.45), (0.45, 0.55, 0.45)),
        texture_frequency=4.0,
        complexity_rank=2,
    )


# Seat, backrest, then the four legs.
_CHAIR_BOXES = prim.box_table(
    [((0.0, 0.0, 0.0), (0.26, 0.03, 0.26)), ((0.0, 0.24, -0.24), (0.26, 0.24, 0.025))]
    + [
        ((dx, -0.22, dz), (0.03, 0.22, 0.03))
        for dx, dz in ((-0.22, -0.22), (-0.22, 0.22), (0.22, -0.22), (0.22, 0.22))
    ]
)
# Slats: vertical cut-outs in the backrest, repeated every 0.12 in X/Z.
_CHAIR_SLOT_PERIOD = 0.12
_CHAIR_SLOTS = prim.box_table([((0.0, 0.26, -0.24), (0.025, 0.16, 0.08))])


def _chair_sdf(points: np.ndarray) -> np.ndarray:
    x, y, z = prim.columns(points)
    seat, back, *legs = _CHAIR_BOXES(x, y, z)
    (slots,) = _CHAIR_SLOTS(
        prim.wrap(x, _CHAIR_SLOT_PERIOD), y, prim.wrap(z, _CHAIR_SLOT_PERIOD)
    )
    back = prim.sdf_subtraction(back, slots)
    return prim.sdf_union(seat, back, *legs)


def _chair_albedo(points: np.ndarray) -> np.ndarray:
    return _stripes(points, 6.0, 0, (0.55, 0.36, 0.18), (0.40, 0.24, 0.10))


def make_chair() -> SceneObject:
    """A chair: seat, backrest, four legs and slat details on the back."""
    return SceneObject(
        name="chair",
        sdf_fn=_chair_sdf,
        albedo_fn=_chair_albedo,
        bounds=((-0.4, -0.5, -0.4), (0.4, 0.55, 0.4)),
        texture_frequency=6.0,
        complexity_rank=3,
    )


_SHIP_SAILS = [
    ((0.05, 0.22, 0.0), (0.015, 0.20, 0.13)),  # main
    ((-0.26, 0.14, 0.0), (0.012, 0.14, 0.10)),  # fore
]
# Hull outer and inner cut, keel, the two sails, then the railing band and
# its inner cut.
_SHIP_BOXES = prim.box_table(
    [
        ((0.0, -0.16, 0.0), (0.42, 0.12, 0.15)),
        ((0.0, -0.06, 0.0), (0.38, 0.10, 0.11)),
        ((0.0, -0.30, 0.0), (0.30, 0.05, 0.04)),
    ]
    + _SHIP_SAILS
    + [((0.0, -0.01, 0.0), (0.40, 0.06, 0.15)), ((0.0, -0.01, 0.0), (0.37, 0.08, 0.12))]
)
_SHIP_SAIL_BOXES = prim.box_table(_SHIP_SAILS)
_SHIP_MASTS = prim.cylinder_table(
    [((0.05, 0.16, 0.0), 0.02, 0.34), ((-0.26, 0.08, 0.0), 0.016, 0.24)]
)
_SHIP_BOWSPRIT = prim.Capsule((0.40, -0.02, 0.0), (0.52, 0.06, 0.0), 0.015)
# Railing posts: thin cylinders repeated every 0.08 in X/Z along the deck.
_SHIP_POST_PERIOD = 0.08
_SHIP_POSTS = prim.cylinder_table([((0.0, -0.01, 0.0), 0.008, 0.05)])


def _ship_sdf(points: np.ndarray) -> np.ndarray:
    x, y, z = prim.columns(points)
    hull_outer, hull_cut, keel, sail_main, sail_fore, rail_band, rail_cut = _SHIP_BOXES(
        x, y, z
    )
    mast_main, mast_fore = _SHIP_MASTS(x, y, z)
    (posts,) = _SHIP_POSTS(
        prim.wrap(x, _SHIP_POST_PERIOD), y, prim.wrap(z, _SHIP_POST_PERIOD)
    )
    hull = prim.sdf_subtraction(hull_outer, hull_cut)
    rail_shell = prim.sdf_subtraction(rail_band, rail_cut)
    railing = prim.sdf_intersection(posts, rail_shell)
    return prim.sdf_union(
        hull, keel, mast_main, mast_fore, sail_main, sail_fore, _SHIP_BOWSPRIT(points), railing
    )


def _ship_albedo(points: np.ndarray) -> np.ndarray:
    planks = _stripes(points, 14.0, 0, (0.45, 0.30, 0.16), (0.30, 0.19, 0.10))
    sails = np.array([0.92, 0.90, 0.84])
    colors = planks
    sail_main, sail_fore = _SHIP_SAIL_BOXES(*prim.columns(points))
    sail_mask = np.minimum(sail_main, sail_fore) <= 0.02
    colors[sail_mask] = sails
    return colors


def make_ship() -> SceneObject:
    """A sailing ship: hull, deck, masts, sails and repeated railing posts."""
    return SceneObject(
        name="ship",
        sdf_fn=_ship_sdf,
        albedo_fn=_ship_albedo,
        bounds=((-0.6, -0.45, -0.35), (0.6, 0.55, 0.35)),
        texture_frequency=10.0,
        complexity_rank=4,
    )


# Base, tower, arm and cab, then the two bands that clip the stud grids.
_LEGO_BOXES = prim.box_table(
    [
        ((0.0, -0.20, 0.0), (0.38, 0.06, 0.28)),
        ((-0.12, 0.02, 0.0), (0.14, 0.16, 0.14)),
        ((0.20, -0.02, 0.0), (0.18, 0.05, 0.10)),
        ((-0.12, 0.26, 0.0), (0.10, 0.08, 0.10)),
        ((0.0, -0.115, 0.0), (0.38, 0.03, 0.28)),
        ((-0.12, 0.205, 0.0), (0.14, 0.03, 0.14)),
    ]
)
# Studs on every top surface via XZ domain repetition: one row on the base,
# one on the tower.
_LEGO_STUD_PERIOD = 0.09
_LEGO_STUDS = prim.cylinder_table(
    [((0.0, -0.115, 0.0), 0.028, 0.025), ((0.0, 0.205, 0.0), 0.028, 0.025)]
)
# Anti-stud grooves on the side walls for extra geometric detail.
_LEGO_GROOVE_PERIOD = 0.07
_LEGO_GROOVES = prim.box_table([((0.0, -0.2, 0.0), (0.012, 0.05, 0.40))])


def _lego_sdf(points: np.ndarray) -> np.ndarray:
    x, y, z = prim.columns(points)
    base, tower, arm, cab, stud_band_base, stud_band_tower = _LEGO_BOXES(x, y, z)
    stud_base, stud_tower = _LEGO_STUDS(
        prim.wrap(x, _LEGO_STUD_PERIOD), y, prim.wrap(z, _LEGO_STUD_PERIOD)
    )
    studs_base = prim.sdf_intersection(stud_base, stud_band_base)
    studs_tower = prim.sdf_intersection(stud_tower, stud_band_tower)
    (grooves,) = _LEGO_GROOVES(
        prim.wrap(x, _LEGO_GROOVE_PERIOD), y, prim.wrap(z, _LEGO_GROOVE_PERIOD)
    )
    base = prim.sdf_subtraction(base, grooves)
    return prim.sdf_union(base, tower, arm, cab, studs_base, studs_tower)


def _lego_albedo(points: np.ndarray) -> np.ndarray:
    bricks = _checker(points, 11.0, (0.80, 0.70, 0.20), (0.16, 0.35, 0.72))
    accents = _checker(points, 22.0, (0.75, 0.16, 0.12), (0.80, 0.70, 0.20))
    # Blend: upper parts use the finer accent pattern.
    upper = (points[:, 1] > 0.0).astype(np.float64)[:, None]
    return bricks * (1.0 - upper) + accents * upper


def make_lego() -> SceneObject:
    """Highest-complexity reference object: a studded brick assembly.

    Domain repetition creates a dense grid of studs and plate gaps, giving
    this object both the highest geometric complexity (most quad faces at a
    given voxel granularity) and the highest texture frequency.
    """
    return SceneObject(
        name="lego",
        sdf_fn=_lego_sdf,
        albedo_fn=_lego_albedo,
        bounds=((-0.55, -0.40, -0.45), (0.55, 0.45, 0.45)),
        texture_frequency=16.0,
        complexity_rank=5,
    )


# ---------------------------------------------------------------------------
# Simple auxiliary objects (used for low-complexity scenes and unit tests)
# ---------------------------------------------------------------------------


def make_sphere(radius: float = 0.35, frequency: float = 2.0) -> SceneObject:
    """A single textured sphere (the simplest possible object)."""
    table = prim.sphere_table([((0.0, 0.0, 0.0), radius)])

    def sdf(points: np.ndarray) -> np.ndarray:
        return table(*prim.columns(points))[0]

    def albedo(points: np.ndarray) -> np.ndarray:
        return _stripes(points, frequency, 1, (0.78, 0.30, 0.25), (0.90, 0.80, 0.60))

    return SceneObject(
        name="sphere",
        sdf_fn=sdf,
        albedo_fn=albedo,
        bounds=((-0.45, -0.45, -0.45), (0.45, 0.45, 0.45)),
        texture_frequency=frequency,
        complexity_rank=0,
    )


def make_cube(half: float = 0.3, frequency: float = 3.0) -> SceneObject:
    """A single textured cube."""
    table = prim.box_table([((0.0, 0.0, 0.0), (half, half, half))])

    def sdf(points: np.ndarray) -> np.ndarray:
        return table(*prim.columns(points))[0]

    def albedo(points: np.ndarray) -> np.ndarray:
        return _checker(points, frequency, (0.25, 0.55, 0.80), (0.90, 0.90, 0.88))

    return SceneObject(
        name="cube",
        sdf_fn=sdf,
        albedo_fn=albedo,
        bounds=((-0.4, -0.4, -0.4), (0.4, 0.4, 0.4)),
        texture_frequency=frequency,
        complexity_rank=0,
    )


_TORUS = prim.torus_table([((0.0, 0.0, 0.0), 0.28, 0.10)])


def _torus_sdf(points: np.ndarray) -> np.ndarray:
    return _TORUS(*prim.columns(points))[0]


def make_torus(frequency: float = 5.0) -> SceneObject:
    """A textured torus (donut), moderate complexity."""

    def albedo(points: np.ndarray) -> np.ndarray:
        return _checker(points, frequency, (0.85, 0.55, 0.70), (0.55, 0.25, 0.40))

    return SceneObject(
        name="torus",
        sdf_fn=_torus_sdf,
        albedo_fn=albedo,
        bounds=((-0.45, -0.25, -0.45), (0.45, 0.25, 0.45)),
        texture_frequency=frequency,
        complexity_rank=1,
    )


# Body, then the hollow cut from it.
_MUG_CYLINDERS = prim.cylinder_table(
    [((0.0, 0.0, 0.0), 0.22, 0.26), ((0.0, 0.04, 0.0), 0.18, 0.26)]
)
# Handle: a torus rotated into the XY plane (queried with y and z swapped).
_MUG_HANDLE = prim.torus_table([((0.28, 0.0, 0.0), 0.12, 0.035)])


def _mug_sdf(points: np.ndarray) -> np.ndarray:
    x, y, z = prim.columns(points)
    body, hollow = _MUG_CYLINDERS(x, y, z)
    body = prim.sdf_subtraction(body, hollow)
    (handle,) = _MUG_HANDLE(x, z, y)
    return prim.sdf_union(body, handle)


def make_mug(frequency: float = 7.0) -> SceneObject:
    """A mug: a hollow cylinder with a torus handle."""

    def albedo(points: np.ndarray) -> np.ndarray:
        return _stripes(points, frequency, 1, (0.20, 0.45, 0.65), (0.92, 0.92, 0.90))

    return SceneObject(
        name="mug",
        sdf_fn=_mug_sdf,
        albedo_fn=albedo,
        bounds=((-0.35, -0.35, -0.35), (0.45, 0.35, 0.35)),
        texture_frequency=frequency,
        complexity_rank=2,
    )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

OBJECT_LIBRARY: dict = {
    "hotdog": make_hotdog,
    "ficus": make_ficus,
    "chair": make_chair,
    "ship": make_ship,
    "lego": make_lego,
    "sphere": make_sphere,
    "cube": make_cube,
    "torus": make_torus,
    "mug": make_mug,
}

#: The five objects used in the paper's Scene 4 / Fig. 8, ordered by
#: ascending 3D geometric complexity (the paper's x-axis ordering).
REFERENCE_OBJECT_NAMES: tuple = ("hotdog", "ficus", "chair", "ship", "lego")


def list_objects() -> list:
    """Names of all available procedural objects."""
    return sorted(OBJECT_LIBRARY)


def make_object(name: str) -> SceneObject:
    """Instantiate a library object by name.

    Raises ``KeyError`` with the available names if ``name`` is unknown.
    """
    try:
        factory = OBJECT_LIBRARY[name]
    except KeyError:
        raise KeyError(
            f"unknown object {name!r}; available: {', '.join(list_objects())}"
        ) from None
    return factory()
