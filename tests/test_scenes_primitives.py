"""Tests for SDF primitives, objects and scene composition."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.scenes import library
from repro.scenes import objects as objects_module
from repro.scenes import primitives as prim
from repro.scenes.objects import (
    OBJECT_LIBRARY,
    REFERENCE_OBJECT_NAMES,
    list_objects,
    make_object,
)
from repro.scenes.scene import PlacedObject, Scene, compose_scene
from tests import _sdf_oracle as oracle

_POINTS = st.lists(
    st.tuples(
        st.floats(-2, 2, allow_nan=False),
        st.floats(-2, 2, allow_nan=False),
        st.floats(-2, 2, allow_nan=False),
    ),
    min_size=1,
    max_size=20,
).map(np.array)


class TestPrimitives:
    def test_sphere_distances(self):
        points = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        dist = prim.sdf_sphere(points, (0, 0, 0), 1.0)
        assert dist[0] == pytest.approx(-1.0)
        assert dist[1] == pytest.approx(1.0)
        assert dist[2] == pytest.approx(0.0, abs=1e-12)

    def test_box_center_is_inside(self):
        dist = prim.sdf_box(np.zeros((1, 3)), (0, 0, 0), (0.5, 0.5, 0.5))
        assert dist[0] == pytest.approx(-0.5)

    def test_box_outside_corner_distance(self):
        point = np.array([[1.0, 1.0, 1.0]])
        dist = prim.sdf_box(point, (0, 0, 0), (0.5, 0.5, 0.5))
        assert dist[0] == pytest.approx(np.sqrt(3 * 0.25))

    def test_torus_ring_is_surface(self):
        point = np.array([[0.5, 0.0, 0.0]])
        assert prim.sdf_torus(point, (0, 0, 0), 0.4, 0.1)[0] == pytest.approx(0.0, abs=1e-12)

    def test_cylinder_contains_axis(self):
        points = np.array([[0.0, 0.2, 0.0]])
        assert prim.sdf_cylinder(points, (0, 0, 0), 0.3, 0.5)[0] < 0

    def test_capsule_degenerate_is_sphere(self):
        points = np.array([[0.2, 0.0, 0.0]])
        capsule = prim.sdf_capsule(points, (0, 0, 0), (0, 0, 0), 0.5)
        sphere = prim.sdf_sphere(points, (0, 0, 0), 0.5)
        assert capsule[0] == pytest.approx(sphere[0])

    def test_union_is_min(self):
        a = np.array([1.0, -0.5])
        b = np.array([0.2, 0.3])
        assert np.allclose(prim.sdf_union(a, b), [0.2, -0.5])

    def test_subtraction_removes_overlap(self):
        points = np.zeros((1, 3))
        base = prim.sdf_sphere(points, (0, 0, 0), 1.0)
        cut = prim.sdf_sphere(points, (0, 0, 0), 0.5)
        assert prim.sdf_subtraction(base, cut)[0] > 0  # centre was carved out

    def test_repeat_wraps_coordinates(self):
        points = np.array([[1.05, 0.3, -0.95]])
        wrapped = prim.repeat_xz(points, 1.0)
        assert abs(wrapped[0, 0]) <= 0.5
        assert abs(wrapped[0, 2]) <= 0.5
        assert wrapped[0, 1] == pytest.approx(0.3)

    def test_rounded_box_rejects_large_radius(self):
        with pytest.raises(ValueError):
            prim.sdf_rounded_box(np.zeros((1, 3)), (0, 0, 0), (0.1, 0.1, 0.1), 0.2)

    def test_bad_points_shape_rejected(self):
        with pytest.raises(ValueError):
            prim.sdf_sphere(np.zeros((3,)), (0, 0, 0), 1.0)

    @given(points=_POINTS)
    @settings(max_examples=25, deadline=None)
    def test_union_lower_bound_property(self, points):
        """The union distance never exceeds either operand (metric property)."""
        a = prim.sdf_sphere(points, (0.2, 0.0, 0.0), 0.4)
        b = prim.sdf_box(points, (-0.3, 0.1, 0.0), (0.3, 0.2, 0.25))
        union = prim.sdf_union(a, b)
        assert np.all(union <= a + 1e-12)
        assert np.all(union <= b + 1e-12)

    @given(points=_POINTS)
    @settings(max_examples=25, deadline=None)
    def test_sphere_is_exact_distance(self, points):
        """The sphere SDF is 1-Lipschitz (true distances)."""
        dist = prim.sdf_sphere(points, (0, 0, 0), 0.7)
        radius = np.linalg.norm(points, axis=1)
        assert np.allclose(dist, radius - 0.7)


def _assert_bit_equal(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _coordinates(specials: list):
    """One axis of query points: exactly on the primitive's centre plane,
    faces or the signed zeros, ordinary values, or extreme magnitudes."""
    return st.one_of(
        st.sampled_from(specials + [0.0, -0.0]),
        st.floats(-2.0, 2.0),
        st.builds(
            lambda sign, exponent: sign * 10.0**exponent,
            st.sampled_from((-1.0, 1.0)),
            st.floats(-300.0, 150.0),
        ),
    )


@st.composite
def _points_around(draw, specials: tuple) -> np.ndarray:
    """More than 8 points (numpy's pairwise-summation threshold), with
    ``specials[axis]`` the coordinates that put a point on a face or axis."""
    count = draw(st.integers(9, 48))
    columns = [
        draw(hnp.arrays(np.float64, count, elements=_coordinates(list(values))))
        for values in specials
    ]
    return np.stack(columns, axis=1)


_CENTER = st.tuples(*[st.one_of(st.just(0.0), st.just(-0.0), st.floats(-1.0, 1.0))] * 3)
_EXTENT = st.floats(0.01, 1.0)


class TestColumnPrimitivesMatchOracle:
    """The column-wise primitives give the pre-rewrite ``(N, 3)``-reduction
    results bit for bit, on one point and on a batch."""

    @staticmethod
    def _check(name: str, points: np.ndarray, *args) -> None:
        for batch in (points, points[:1]):
            _assert_bit_equal(getattr(prim, name)(batch, *args), getattr(oracle, name)(batch, *args))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_sphere(self, data):
        center, radius = data.draw(_CENTER), data.draw(_EXTENT)
        points = data.draw(_points_around(tuple((c, c - radius, c + radius) for c in center)))
        self._check("sdf_sphere", points, center, radius)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_box_and_rounded_box(self, data):
        center = data.draw(_CENTER)
        half = data.draw(st.tuples(_EXTENT, _EXTENT, _EXTENT))
        radius = data.draw(st.floats(0.0, 0.99)) * min(half)
        points = data.draw(
            _points_around(tuple((c, c - h, c + h) for c, h in zip(center, half)))
        )
        self._check("sdf_box", points, center, half)
        self._check("sdf_rounded_box", points, center, half, radius)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_cylinder(self, data):
        (cx, cy, cz), radius, half_height = (
            data.draw(_CENTER), data.draw(_EXTENT), data.draw(_EXTENT)
        )
        points = data.draw(
            _points_around(
                ((cx, cx - radius, cx + radius), (cy, cy - half_height, cy + half_height),
                 (cz, cz - radius, cz + radius))
            )
        )
        self._check("sdf_cylinder", points, (cx, cy, cz), radius, half_height)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_capsule(self, data):
        a = data.draw(_CENTER)
        # Equal endpoints take the degenerate ``denom == 0`` branch.
        b = data.draw(st.one_of(st.just(a), _CENTER))
        radius = data.draw(_EXTENT)
        points = data.draw(_points_around(tuple(zip(a, b))))
        self._check("sdf_capsule", points, a, b, radius)

    def test_large_batches(self):
        points = np.random.default_rng(0).uniform(-1.5, 1.5, size=(20000, 3))
        self._check("sdf_sphere", points, (0.1, -0.2, 0.3), 0.6)
        self._check("sdf_box", points, (0.1, -0.2, 0.3), (0.5, 0.2, 0.7))
        self._check("sdf_rounded_box", points, (0.1, -0.2, 0.3), (0.5, 0.2, 0.7), 0.1)
        self._check("sdf_cylinder", points, (0.1, -0.2, 0.3), 0.4, 0.5)
        self._check("sdf_capsule", points, (-0.3, 0.1, 0.0), (0.4, 0.2, -0.1), 0.2)
        self._check("sdf_capsule", points, (0.2, 0.2, 0.2), (0.2, 0.2, 0.2), 0.3)


class TestObjects:
    def test_library_contains_reference_objects(self):
        for name in REFERENCE_OBJECT_NAMES:
            assert name in OBJECT_LIBRARY

    def test_unknown_object_raises(self):
        with pytest.raises(KeyError):
            make_object("spaceship")

    def test_list_objects_sorted(self):
        names = list_objects()
        assert names == sorted(names)

    @pytest.mark.parametrize("name", list_objects())
    def test_object_has_interior_and_exterior(self, name):
        obj = make_object(name)
        rng = np.random.default_rng(0)
        points = rng.uniform(obj.bounds_min, obj.bounds_max, size=(4000, 3))
        distances = obj.sdf(points)
        assert np.any(distances < 0), f"{name} has no interior samples"
        assert np.any(distances > 0), f"{name} has no exterior samples"

    @pytest.mark.parametrize("name", list_objects())
    def test_albedo_in_unit_range(self, name):
        obj = make_object(name)
        rng = np.random.default_rng(1)
        points = rng.uniform(obj.bounds_min, obj.bounds_max, size=(500, 3))
        colors = obj.albedo(points)
        assert colors.shape == (500, 3)
        assert colors.min() >= 0.0 and colors.max() <= 1.0

    @pytest.mark.parametrize("name", list_objects())
    def test_surface_within_bounds(self, name):
        """No interior point may lie outside the declared bounding box."""
        obj = make_object(name)
        rng = np.random.default_rng(2)
        margin = 0.25
        lo = obj.bounds_min - margin
        hi = obj.bounds_max + margin
        points = rng.uniform(lo, hi, size=(6000, 3))
        inside = obj.sdf(points) <= 0
        outside_box = np.any((points < obj.bounds_min) | (points > obj.bounds_max), axis=1)
        assert not np.any(inside & outside_box), f"{name} spills outside its bounds"

    @pytest.mark.parametrize("name", list_objects() + ["backdrop"])
    def test_sdf_and_albedo_match_oracle_primitives(self, name, monkeypatch):
        """Every library object gives the same bits on the column-wise
        primitives as on the pre-rewrite oracle."""
        if name == "backdrop":
            obj = library._make_room_backdrop(2.4, 1.4, 2.4)
        else:
            obj = make_object(name)
        points = np.random.default_rng(3).uniform(
            obj.bounds_min - 0.25, obj.bounds_max + 0.25, size=(3000, 3)
        )
        sdf, albedo = obj.sdf(points), obj.albedo(points)
        monkeypatch.setattr(objects_module, "prim", oracle)
        monkeypatch.setattr(library, "prim", oracle)
        _assert_bit_equal(sdf, obj.sdf(points))
        _assert_bit_equal(albedo, obj.albedo(points))

    def test_complexity_ranks_follow_paper_order(self):
        ranks = [make_object(name).complexity_rank for name in REFERENCE_OBJECT_NAMES]
        assert ranks == sorted(ranks)
        assert len(set(ranks)) == len(ranks)

    def test_texture_frequency_increases_with_complexity(self):
        freqs = [make_object(name).texture_frequency for name in REFERENCE_OBJECT_NAMES]
        assert freqs[0] < freqs[-1]


class TestSceneComposition:
    def test_placed_object_translation(self):
        obj = make_object("sphere")
        placed = PlacedObject(obj=obj, translation=np.array([2.0, 0.0, 0.0]), instance_id=0)
        assert placed.sdf(np.array([[2.0, 0.0, 0.0]]))[0] < 0
        assert placed.sdf(np.array([[0.0, 0.0, 0.0]]))[0] > 0

    def test_placed_object_scaling_scales_distance(self):
        obj = make_object("sphere")  # radius 0.35
        placed = PlacedObject(obj=obj, scale=2.0, instance_id=0)
        dist = placed.sdf(np.array([[1.4, 0.0, 0.0]]))
        assert dist[0] == pytest.approx(0.7, abs=1e-9)

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            PlacedObject(obj=make_object("cube"), scale=0.0, instance_id=0)

    def test_scene_requires_unique_ids(self):
        obj = make_object("cube")
        with pytest.raises(ValueError):
            Scene(
                [
                    PlacedObject(obj=obj, instance_id=0, instance_name="a"),
                    PlacedObject(obj=obj, instance_id=0, instance_name="b"),
                ]
            )

    def test_compose_scene_unique_names_for_duplicates(self):
        scene = compose_scene(["lego", "lego", "ship"], layout="line", seed=None)
        assert scene.instance_names == ["lego", "lego_2", "ship"]

    def test_scene_sdf_is_min_of_members(self, two_object_scene):
        points = np.random.default_rng(3).uniform(-1.2, 1.2, size=(200, 3))
        combined = two_object_scene.sdf(points)
        member = np.min(
            [placed.sdf(points) for placed in two_object_scene.placed], axis=0
        )
        assert np.allclose(combined, member)

    def test_classify_returns_nearest_instance(self, two_object_scene):
        points = np.array([[-0.55, 0.0, 0.0], [0.55, 0.0, 0.0]])
        _, ids = two_object_scene.classify(points)
        assert ids.tolist() == [0, 1]

    def test_subset_preserves_placement(self, two_object_scene):
        subset = two_object_scene.subset([1])
        assert subset.instance_names == ["cube"]
        assert np.allclose(subset.placed[0].translation, [0.55, 0.0, 0.0])

    def test_subset_missing_id_raises(self, two_object_scene):
        with pytest.raises(ValueError):
            two_object_scene.subset([99])

    def test_bounds_contain_all_members(self, two_object_scene):
        for placed in two_object_scene.placed:
            assert np.all(two_object_scene.bounds_min <= placed.bounds_min + 1e-9)
            assert np.all(two_object_scene.bounds_max >= placed.bounds_max - 1e-9)

    @pytest.mark.parametrize("layout", ["cluster", "circle", "line", "grid"])
    def test_layouts_produce_disjoint_centres(self, layout):
        scene = compose_scene(["sphere", "cube", "torus", "mug"], layout=layout, seed=0)
        centres = np.array([placed.translation for placed in scene.placed])
        distances = np.linalg.norm(centres[:, None, :] - centres[None, :, :], axis=-1)
        off_diagonal = distances[~np.eye(len(centres), dtype=bool)]
        assert off_diagonal.min() > 0.3

    def test_unknown_layout_raises(self):
        with pytest.raises(ValueError):
            compose_scene(["sphere"], layout="spiral")

    def test_empty_scene_rejected(self):
        with pytest.raises(ValueError):
            compose_scene([])
