"""Test-only oracle: the library objects as closures, one primitive per call.

:mod:`repro.scenes.objects` and the room backdrop in
:mod:`repro.scenes.library` evaluate each kind of primitive as one table
(:class:`repro.scenes.primitives.PrimitiveTable`).  This module keeps every
object as it was before: a closure that calls one primitive at a time, on
the pre-rewrite ``(N, 3)``-reduction primitives of ``tests/_sdf_oracle.py``,
and combines them in the same order.  The tests demand bit-equal distances
and colours from the tables.  Do not optimise it.
"""

from __future__ import annotations

import numpy as np

from repro.scenes.objects import SceneObject, _checker, _speckle, _stripes
from tests import _sdf_oracle as prim


def make_hotdog() -> SceneObject:
    """Lowest-complexity reference object: a sausage in a bun on a plate."""

    def sdf(points: np.ndarray) -> np.ndarray:
        sausage = prim.sdf_capsule(points, (-0.28, 0.12, 0.0), (0.28, 0.12, 0.0), 0.07)
        bun = prim.sdf_rounded_box(points, (0.0, 0.0, 0.0), (0.36, 0.09, 0.16), 0.05)
        plate = prim.sdf_cylinder(points, (0.0, -0.12, 0.0), 0.45, 0.02)
        return prim.sdf_union(sausage, bun, plate)

    def albedo(points: np.ndarray) -> np.ndarray:
        sausage = prim.sdf_capsule(points, (-0.28, 0.12, 0.0), (0.28, 0.12, 0.0), 0.07)
        bun = prim.sdf_rounded_box(points, (0.0, 0.0, 0.0), (0.36, 0.09, 0.16), 0.05)
        colors = np.tile(np.array([0.85, 0.82, 0.75]), (points.shape[0], 1))  # plate
        colors[bun <= 0.02] = np.array([0.82, 0.62, 0.32])  # bun
        colors[sausage <= 0.02] = np.array([0.62, 0.22, 0.12])  # sausage
        return colors

    return SceneObject(
        name="hotdog",
        sdf_fn=sdf,
        albedo_fn=albedo,
        bounds=((-0.5, -0.2, -0.5), (0.5, 0.3, 0.5)),
        texture_frequency=1.5,
        complexity_rank=1,
    )


def make_ficus() -> SceneObject:
    """A potted plant: pot, trunk and a cluster of foliage blobs."""

    foliage_centers = np.array(
        [
            (0.0, 0.32, 0.0),
            (0.16, 0.26, 0.06),
            (-0.14, 0.28, -0.08),
            (0.05, 0.40, -0.12),
            (-0.06, 0.38, 0.13),
            (0.14, 0.40, 0.10),
            (-0.16, 0.40, 0.02),
        ]
    )
    foliage_radius = 0.11

    def sdf(points: np.ndarray) -> np.ndarray:
        pot = prim.sdf_cylinder(points, (0.0, -0.30, 0.0), 0.16, 0.12)
        trunk = prim.sdf_capsule(points, (0.0, -0.2, 0.0), (0.0, 0.28, 0.0), 0.035)
        blobs = [
            prim.sdf_sphere(points, center, foliage_radius)
            for center in foliage_centers
        ]
        return prim.sdf_union(pot, trunk, *blobs)

    def albedo(points: np.ndarray) -> np.ndarray:
        pot = prim.sdf_cylinder(points, (0.0, -0.30, 0.0), 0.16, 0.12)
        trunk = prim.sdf_capsule(points, (0.0, -0.2, 0.0), (0.0, 0.28, 0.0), 0.035)
        leaves = _speckle(points, 9.0, (0.18, 0.45, 0.16), 0.55)
        colors = leaves
        colors[trunk <= 0.02] = np.array([0.36, 0.24, 0.12])
        colors[pot <= 0.02] = np.array([0.68, 0.36, 0.22])
        return colors

    return SceneObject(
        name="ficus",
        sdf_fn=sdf,
        albedo_fn=albedo,
        bounds=((-0.45, -0.45, -0.45), (0.45, 0.55, 0.45)),
        texture_frequency=4.0,
        complexity_rank=2,
    )


def make_chair() -> SceneObject:
    """A chair: seat, backrest, four legs and slat details on the back."""

    leg_offsets = [(-0.22, -0.22), (-0.22, 0.22), (0.22, -0.22), (0.22, 0.22)]

    def sdf(points: np.ndarray) -> np.ndarray:
        seat = prim.sdf_box(points, (0.0, 0.0, 0.0), (0.26, 0.03, 0.26))
        back = prim.sdf_box(points, (0.0, 0.24, -0.24), (0.26, 0.24, 0.025))
        legs = [
            prim.sdf_box(points, (dx, -0.22, dz), (0.03, 0.22, 0.03))
            for dx, dz in leg_offsets
        ]
        # Slats: vertical cut-outs in the backrest create repeated detail.
        repeated = prim.repeat_xz(points - np.array([0.0, 0.0, 0.0]), 0.12)
        slots = prim.sdf_box(
            repeated + np.array([0.0, -0.26, 0.24]), (0.0, 0.0, 0.0), (0.025, 0.16, 0.08)
        )
        back = prim.sdf_subtraction(back, slots)
        return prim.sdf_union(seat, back, *legs)

    def albedo(points: np.ndarray) -> np.ndarray:
        return _stripes(points, 6.0, 0, (0.55, 0.36, 0.18), (0.40, 0.24, 0.10))

    return SceneObject(
        name="chair",
        sdf_fn=sdf,
        albedo_fn=albedo,
        bounds=((-0.4, -0.5, -0.4), (0.4, 0.55, 0.4)),
        texture_frequency=6.0,
        complexity_rank=3,
    )


def make_ship() -> SceneObject:
    """A sailing ship: hull, deck, masts, sails and repeated railing posts."""

    def sdf(points: np.ndarray) -> np.ndarray:
        hull_outer = prim.sdf_box(points, (0.0, -0.16, 0.0), (0.42, 0.12, 0.15))
        hull_cut = prim.sdf_box(points, (0.0, -0.06, 0.0), (0.38, 0.10, 0.11))
        hull = prim.sdf_subtraction(hull_outer, hull_cut)
        keel = prim.sdf_box(points, (0.0, -0.30, 0.0), (0.30, 0.05, 0.04))
        mast_main = prim.sdf_cylinder(points, (0.05, 0.16, 0.0), 0.02, 0.34)
        mast_fore = prim.sdf_cylinder(points, (-0.26, 0.08, 0.0), 0.016, 0.24)
        sail_main = prim.sdf_box(points, (0.05, 0.22, 0.0), (0.015, 0.20, 0.13))
        sail_fore = prim.sdf_box(points, (-0.26, 0.14, 0.0), (0.012, 0.14, 0.10))
        bowsprit = prim.sdf_capsule(points, (0.40, -0.02, 0.0), (0.52, 0.06, 0.0), 0.015)
        # Railing posts: repeated thin cylinders along the deck edges.
        repeated = prim.repeat_xz(points, 0.08)
        posts = prim.sdf_cylinder(repeated - np.array([0.0, -0.01, 0.0]), (0, 0, 0), 0.008, 0.05)
        rail_band = prim.sdf_box(points, (0.0, -0.01, 0.0), (0.40, 0.06, 0.15))
        rail_shell = prim.sdf_subtraction(
            rail_band, prim.sdf_box(points, (0.0, -0.01, 0.0), (0.37, 0.08, 0.12))
        )
        railing = prim.sdf_intersection(posts, rail_shell)
        return prim.sdf_union(
            hull, keel, mast_main, mast_fore, sail_main, sail_fore, bowsprit, railing
        )

    def albedo(points: np.ndarray) -> np.ndarray:
        planks = _stripes(points, 14.0, 0, (0.45, 0.30, 0.16), (0.30, 0.19, 0.10))
        sails = np.array([0.92, 0.90, 0.84])
        colors = planks
        sail_main = prim.sdf_box(points, (0.05, 0.22, 0.0), (0.015, 0.20, 0.13))
        sail_fore = prim.sdf_box(points, (-0.26, 0.14, 0.0), (0.012, 0.14, 0.10))
        sail_mask = np.minimum(sail_main, sail_fore) <= 0.02
        colors[sail_mask] = sails
        return colors

    return SceneObject(
        name="ship",
        sdf_fn=sdf,
        albedo_fn=albedo,
        bounds=((-0.6, -0.45, -0.35), (0.6, 0.55, 0.35)),
        texture_frequency=10.0,
        complexity_rank=4,
    )


def make_lego() -> SceneObject:
    """Highest-complexity reference object: a studded brick assembly.

    Domain repetition creates a dense grid of studs and plate gaps, giving
    this object both the highest geometric complexity (most quad faces at a
    given voxel granularity) and the highest texture frequency.
    """

    def sdf(points: np.ndarray) -> np.ndarray:
        base = prim.sdf_box(points, (0.0, -0.20, 0.0), (0.38, 0.06, 0.28))
        tower = prim.sdf_box(points, (-0.12, 0.02, 0.0), (0.14, 0.16, 0.14))
        arm = prim.sdf_box(points, (0.20, -0.02, 0.0), (0.18, 0.05, 0.10))
        cab = prim.sdf_box(points, (-0.12, 0.26, 0.0), (0.10, 0.08, 0.10))
        # Studs on every top surface via XZ domain repetition.
        repeated = prim.repeat_xz(points, 0.09)
        stud_base = prim.sdf_cylinder(
            repeated - np.array([0.0, -0.115, 0.0]), (0, 0, 0), 0.028, 0.025
        )
        stud_band_base = prim.sdf_box(points, (0.0, -0.115, 0.0), (0.38, 0.03, 0.28))
        studs_base = prim.sdf_intersection(stud_base, stud_band_base)
        stud_tower = prim.sdf_cylinder(
            repeated - np.array([0.0, 0.205, 0.0]), (0, 0, 0), 0.028, 0.025
        )
        stud_band_tower = prim.sdf_box(points, (-0.12, 0.205, 0.0), (0.14, 0.03, 0.14))
        studs_tower = prim.sdf_intersection(stud_tower, stud_band_tower)
        # Anti-stud grooves on the side walls for extra geometric detail.
        grooves = prim.sdf_box(
            prim.repeat_xz(points, 0.07), (0.0, -0.2, 0.0), (0.012, 0.05, 0.40)
        )
        base = prim.sdf_subtraction(base, grooves)
        return prim.sdf_union(base, tower, arm, cab, studs_base, studs_tower)

    def albedo(points: np.ndarray) -> np.ndarray:
        bricks = _checker(points, 11.0, (0.80, 0.70, 0.20), (0.16, 0.35, 0.72))
        accents = _checker(points, 22.0, (0.75, 0.16, 0.12), (0.80, 0.70, 0.20))
        # Blend: upper parts use the finer accent pattern.
        upper = (points[:, 1] > 0.0).astype(np.float64)[:, None]
        return bricks * (1.0 - upper) + accents * upper

    return SceneObject(
        name="lego",
        sdf_fn=sdf,
        albedo_fn=albedo,
        bounds=((-0.55, -0.40, -0.45), (0.55, 0.45, 0.45)),
        texture_frequency=16.0,
        complexity_rank=5,
    )


def make_sphere(radius: float = 0.35, frequency: float = 2.0) -> SceneObject:
    """A single textured sphere (the simplest possible object)."""

    def sdf(points: np.ndarray) -> np.ndarray:
        return prim.sdf_sphere(points, (0.0, 0.0, 0.0), radius)

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

    def sdf(points: np.ndarray) -> np.ndarray:
        return prim.sdf_box(points, (0.0, 0.0, 0.0), (half, half, half))

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


def make_torus(frequency: float = 5.0) -> SceneObject:
    """A textured torus (donut), moderate complexity."""

    def sdf(points: np.ndarray) -> np.ndarray:
        return prim.sdf_torus(points, (0.0, 0.0, 0.0), 0.28, 0.10)

    def albedo(points: np.ndarray) -> np.ndarray:
        return _checker(points, frequency, (0.85, 0.55, 0.70), (0.55, 0.25, 0.40))

    return SceneObject(
        name="torus",
        sdf_fn=sdf,
        albedo_fn=albedo,
        bounds=((-0.45, -0.25, -0.45), (0.45, 0.25, 0.45)),
        texture_frequency=frequency,
        complexity_rank=1,
    )


def make_mug(frequency: float = 7.0) -> SceneObject:
    """A mug: a hollow cylinder with a torus handle."""

    def sdf(points: np.ndarray) -> np.ndarray:
        body = prim.sdf_cylinder(points, (0.0, 0.0, 0.0), 0.22, 0.26)
        hollow = prim.sdf_cylinder(points, (0.0, 0.04, 0.0), 0.18, 0.26)
        body = prim.sdf_subtraction(body, hollow)
        # Handle: torus rotated into the XY plane (swap y/z in the query).
        swapped = np.asarray(points, dtype=np.float64)[:, [0, 2, 1]]
        handle = prim.sdf_torus(swapped, (0.28, 0.0, 0.0), 0.12, 0.035)
        return prim.sdf_union(body, handle)

    def albedo(points: np.ndarray) -> np.ndarray:
        return _stripes(points, frequency, 1, (0.20, 0.45, 0.65), (0.92, 0.92, 0.90))

    return SceneObject(
        name="mug",
        sdf_fn=sdf,
        albedo_fn=albedo,
        bounds=((-0.35, -0.35, -0.35), (0.45, 0.35, 0.35)),
        texture_frequency=frequency,
        complexity_rank=2,
    )


def make_backdrop(half_width: float, half_depth: float, height: float) -> SceneObject:
    """Floor plus back wall used by the real-world style scenes."""

    def sdf(points: np.ndarray) -> np.ndarray:
        floor = prim.sdf_box(
            points, (0.0, -0.65, 0.0), (half_width, 0.05, half_depth)
        )
        wall = prim.sdf_box(
            points,
            (0.0, height / 2.0 - 0.65, -half_depth),
            (half_width, height / 2.0, 0.05),
        )
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


OBJECTS: dict = {
    "hotdog": make_hotdog,
    "ficus": make_ficus,
    "chair": make_chair,
    "ship": make_ship,
    "lego": make_lego,
    "sphere": make_sphere,
    "cube": make_cube,
    "torus": make_torus,
    "mug": make_mug,
    "backdrop": lambda: make_backdrop(2.4, 1.4, 2.4),
}
