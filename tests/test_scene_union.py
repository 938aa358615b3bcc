"""The bound-culled scene union: the box bound it relies on, and exactness.

:meth:`repro.scenes.scene.Scene.sdf` skips an object wherever its box is
farther than the running union.  That is exact only if the object's SDF is
at least the distance to its box outside that box, so the first class
proves the bound for every library object and the room backdrop.  The
other pins the culled union to the unculled ``np.stack(...).min(axis=0)``
bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.nerf.degradation import DegradedField
from repro.scenes import library
from repro.scenes import primitives as prim
from repro.scenes.objects import SceneObject, list_objects, make_object
from repro.scenes.scene import PlacedObject, Scene, box_distance

_BOUND_NAMES = list_objects() + ["backdrop"]

#: World placements the bound must survive: the identity, and the
#: realworld scene's scale with an off-origin translation.
_PLACEMENTS = ((np.zeros(3), 1.0), (np.array([-1.44, -0.44, 0.21]), 0.8))


def _library_object(name: str) -> SceneObject:
    if name == "backdrop":
        return library._make_room_backdrop(2.4, 1.4, 2.4)
    return make_object(name)


def _placements(name: str) -> list:
    obj = _library_object(name)
    return [
        PlacedObject(obj=obj, translation=translation, scale=scale)
        for translation, scale in _PLACEMENTS
    ]


def _assert_bound(placed: PlacedObject, points: np.ndarray) -> None:
    reach = box_distance(points, placed.bounds_min, placed.bounds_max)
    distances = placed.sdf(points)
    outside = reach > 0.0
    assert np.all(distances[outside] >= reach[outside]), (
        f"{placed.instance_name}: min(f - d_box) = "
        f"{np.min(distances[outside] - reach[outside]):.3g}"
    )


def _face_lattice(bounds_min: np.ndarray, bounds_max: np.ndarray) -> np.ndarray:
    """A 17x17 grid on each face of the box and at four distances just
    outside it; the grid overhangs the face so edges and corners are hit."""
    offsets = (0.0, 1e-9, 1e-4, 1e-2, 0.1)
    overhang = 0.05 * (bounds_max - bounds_min)
    spans = [
        np.linspace(lo - pad, hi + pad, 17)
        for lo, hi, pad in zip(bounds_min, bounds_max, overhang)
    ]
    faces = []
    for axis in range(3):
        u, v = [spans[other] for other in range(3) if other != axis]
        grid_u, grid_v = (g.ravel() for g in np.meshgrid(u, v, indexing="ij"))
        for face, outward in ((bounds_min[axis], -1.0), (bounds_max[axis], 1.0)):
            for offset in offsets:
                points = np.empty((grid_u.size, 3))
                points[:, [other for other in range(3) if other != axis]] = np.stack(
                    [grid_u, grid_v], axis=1
                )
                points[:, axis] = face + outward * offset
                faces.append(points)
    return np.concatenate(faces)


class TestBoxBound:
    """Outside its box, every library object's SDF is at least the
    distance to that box, in world space, at every tested placement."""

    @pytest.mark.parametrize("name", _BOUND_NAMES)
    def test_on_and_just_outside_every_face(self, name):
        for placed in _placements(name):
            _assert_bound(placed, _face_lattice(placed.bounds_min, placed.bounds_max))

    @pytest.mark.parametrize("name", _BOUND_NAMES)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_around_the_box(self, name, data):
        """Points up to four box sizes out, and on each face's planes."""
        for placed in _placements(name):
            lo, hi = placed.bounds_min, placed.bounds_max
            size = hi - lo
            columns = []
            for axis in range(3):
                elements = st.one_of(
                    st.floats(lo[axis] - 4.0 * size[axis], hi[axis] + 4.0 * size[axis]),
                    st.floats(lo[axis] - 0.05, hi[axis] + 0.05),
                    st.sampled_from((float(lo[axis]), float(hi[axis]))),
                )
                columns.append(data.draw(hnp.arrays(np.float64, 32, elements=elements)))
            _assert_bound(placed, np.stack(columns, axis=1))


def _stacked_sdf(scene, points: np.ndarray) -> np.ndarray:
    """The unculled union: every member on every point."""
    return np.stack([placed.sdf(points) for placed in scene.placed], axis=0).min(axis=0)


def _assert_bit_equal(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _cube_object(name: str, zero: float) -> SceneObject:
    """A 0.6-wide cube whose surface zeros carry the sign of ``zero``, with
    a padded box so the bound holds by a margin."""

    def sdf(points: np.ndarray) -> np.ndarray:
        distances = prim.sdf_box(points, np.zeros(3), np.full(3, 0.3))
        distances[distances == 0.0] = zero
        return distances

    return SceneObject(
        name=name,
        sdf_fn=sdf,
        albedo_fn=lambda points: np.ones((len(points), 3)),
        bounds=((-0.35, -0.35, -0.35), (0.35, 0.35, 0.35)),
    )


def _cube_scene(offsets: tuple, zeros: tuple) -> Scene:
    return Scene(
        [
            PlacedObject(
                obj=_cube_object(f"cube{index}", zero),
                translation=np.array([offset, 0.0, 0.0]),
                instance_id=index,
            )
            for index, (offset, zero) in enumerate(zip(offsets, zeros))
        ]
    )


def _plane_lattice(x: float) -> np.ndarray:
    u = np.linspace(-0.45, 0.45, 19)
    y, z = (g.ravel() for g in np.meshgrid(u, u, indexing="ij"))
    return np.stack([np.full(y.size, x), y, z], axis=1)


class TestCulledUnionIsExact:
    """The culled union gives the unculled union's bits."""

    @pytest.mark.parametrize("zeros", [(0.0, -0.0, 0.0), (-0.0, 0.0, -0.0)])
    def test_signed_zero_ties_on_shared_faces(self, zeros):
        """Cubes that touch at x = 0.3 and x = 0.9 tie at 0.0 with opposite
        signs there; the fold keeps the operand order the stack uses."""
        scene = _cube_scene((0.0, 0.6, 1.2), zeros)
        points = np.concatenate([_plane_lattice(0.3), _plane_lattice(0.9)])
        got = scene.sdf(points)
        _assert_bit_equal(got, _stacked_sdf(scene, points))
        assert np.any((got == 0.0) & np.signbit(got))
        assert np.any((got == 0.0) & ~np.signbit(got))

    def test_points_inside_several_boxes(self):
        """Overlapping cubes: inside the first one the union is negative and
        the later ones must still be evaluated inside their own boxes."""
        scene = _cube_scene((0.0, 0.15, 0.3), (0.0, -0.0, 0.0))
        points = np.concatenate(
            [_plane_lattice(x) for x in np.linspace(-0.35, 0.65, 21)]
        )
        inside = [
            box_distance(points, placed.bounds_min, placed.bounds_max) == 0.0
            for placed in scene.placed
        ]
        assert np.any(inside[0] & inside[1] & inside[2])
        _assert_bit_equal(scene.sdf(points), _stacked_sdf(scene, points))

    @pytest.mark.parametrize(
        "make_scene",
        [
            lambda: library.make_realworld_scene(seed=0, num_objects=5),
            lambda: library.make_realworld_scene(seed=1, num_objects=5),
            lambda: library.make_simulated_scene(4),
            lambda: library.make_simulated_scene(2),
        ],
        ids=["realworld-0", "realworld-1", "scene4", "scene2"],
    )
    def test_library_layouts(self, make_scene):
        scene = make_scene()
        rng = np.random.default_rng(7)
        lo, hi = scene.bounds_min - 0.3, scene.bounds_max + 0.3
        for count in (1, 2, 3, 257, 9000):
            for _ in range(5):
                points = rng.uniform(lo, hi, size=(count, 3))
                _assert_bit_equal(scene.sdf(points), _stacked_sdf(scene, points))
        # Every placed object's box faces, where a box distance is exactly 0.
        for placed in scene.placed:
            points = _face_lattice(placed.bounds_min, placed.bounds_max)
            _assert_bit_equal(scene.sdf(points), _stacked_sdf(scene, points))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_drawn_points_on_box_planes(self, data):
        """One, two or many points whose coordinates sit on the placed
        boxes' planes, on the objects' origins, on signed zeros or
        anywhere around the realworld scene."""
        scene = library.make_realworld_scene(seed=0, num_objects=5)
        count = data.draw(st.one_of(st.sampled_from((1, 2)), st.integers(3, 64)))
        columns = []
        for axis in range(3):
            planes = sorted(
                {float(p.bounds_min[axis]) for p in scene.placed}
                | {float(p.bounds_max[axis]) for p in scene.placed}
                | {float(p.translation[axis]) for p in scene.placed}
            )
            elements = st.one_of(
                st.sampled_from(planes),
                st.sampled_from((0.0, -0.0)),
                st.floats(scene.bounds_min[axis] - 0.3, scene.bounds_max[axis] + 0.3),
            )
            columns.append(data.draw(hnp.arrays(np.float64, count, elements=elements)))
        points = np.stack(columns, axis=1)
        _assert_bit_equal(scene.sdf(points), _stacked_sdf(scene, points))

    def test_one_near_point_among_many(self):
        """Where a single point reaches an object, that object still sees a
        query of more than one row: the ship's bowsprit is a capsule, whose
        kernel is a matmul, and a one-row matmul rounds differently."""
        scene = library.make_realworld_scene(seed=0, num_objects=5)
        ship = scene.by_name("ship")
        rng = np.random.default_rng(3)
        # Around the bowsprit, the one capsule whose axis is not
        # axis-aligned (an axis-aligned one multiplies by exact zeros).
        local = np.array([0.46, 0.02, 0.0]) + rng.uniform(-0.08, 0.08, size=(400, 3))
        near = ship.translation + ship.scale * local
        far = np.array([ship.translation[0], 1.5, -1.2])
        for point in near:
            points = np.stack([point, far])
            _assert_bit_equal(scene.sdf(points), _stacked_sdf(scene, points))

    def test_degraded_field_over_a_subset(self):
        """The degraded field adds its floaters after the union, so it keeps
        the unculled field's bits too."""

        class StackedUnion:
            def __init__(self, scene):
                self.scene = scene
                self.bounds_min, self.bounds_max = scene.bounds_min, scene.bounds_max
                self.sdf_lipschitz = scene.sdf_lipschitz

            def sdf(self, points):
                return _stacked_sdf(self.scene, np.asarray(points, dtype=np.float64))

        subset = library.make_realworld_scene(seed=0, num_objects=5).subset([0, 2, 3, 5])
        culled = DegradedField(subset, detail_scale=0.02, floater_rate=0.3, seed=4)
        stacked = DegradedField(StackedUnion(subset), detail_scale=0.02, floater_rate=0.3, seed=4)
        rng = np.random.default_rng(11)
        for count in (2, 64, 5000):
            points = rng.uniform(subset.bounds_min - 0.2, subset.bounds_max + 0.2, (count, 3))
            _assert_bit_equal(culled.sdf(points), stacked.sdf(points))

