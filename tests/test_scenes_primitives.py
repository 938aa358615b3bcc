"""Tests for SDF primitives, objects and scene composition."""

import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.scenes import library
from repro.scenes import primitives as prim
from repro.scenes.objects import (
    OBJECT_LIBRARY,
    REFERENCE_OBJECT_NAMES,
    list_objects,
    make_object,
)
from repro.scenes.scene import PlacedObject, Scene, compose_scene
from repro.utils.blocks import FIELD_BLOCK
from tests import _object_oracle as object_oracle
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
    def test_sdf_and_albedo_match_oracle_primitives(self, name):
        """Every library object's primitive tables give the bits of the
        one-primitive-per-call closures on the pre-rewrite primitives."""
        obj, reference = _library_object(name), object_oracle.OBJECTS[name]()
        points = np.random.default_rng(3).uniform(
            obj.bounds_min - 0.25, obj.bounds_max + 0.25, size=(3000, 3)
        )
        _assert_bit_equal(obj.sdf(points), reference.sdf(points))
        _assert_bit_equal(obj.albedo(points), reference.albedo(points))

    def test_complexity_ranks_follow_paper_order(self):
        ranks = [make_object(name).complexity_rank for name in REFERENCE_OBJECT_NAMES]
        assert ranks == sorted(ranks)
        assert len(set(ranks)) == len(ranks)

    def test_texture_frequency_increases_with_complexity(self):
        freqs = [make_object(name).texture_frequency for name in REFERENCE_OBJECT_NAMES]
        assert freqs[0] < freqs[-1]


def _library_object(name: str):
    if name == "backdrop":
        return library._make_room_backdrop(2.4, 1.4, 2.4)
    return make_object(name)


def _object_parts(obj) -> tuple:
    """The primitive tables, capsules and repetition periods an object's
    SDF and albedo read (module globals or closure cells)."""
    parts = []
    for fn in (obj.sdf_fn, obj.albedo_fn):
        found = inspect.getclosurevars(fn)
        parts += [*found.nonlocals.items(), *found.globals.items()]
    tables = {id(v): v for _, v in parts if isinstance(v, prim.PrimitiveTable)}
    capsules = {id(v): v for _, v in parts if isinstance(v, prim.Capsule)}
    periods = {v for name, v in parts if name.endswith("_PERIOD")}
    return list(tables.values()), list(capsules.values()), sorted(periods)


def _object_specials(obj, periodic: bool = True) -> tuple:
    """Per axis, the coordinates that put a point exactly on a primitive's
    centre plane or face: every table row's centre ``c`` and ``c +/- e`` for
    each of its extents, capsule endpoints +/- radius, the signed zeros and,
    when ``periodic``, the same offsets from multiples of each repetition
    period (cell centres and edges)."""
    tables, capsules, periods = _object_parts(obj)
    specials = [{0.0, -0.0}, {0.0, -0.0}, {0.0, -0.0}]
    for table in tables:
        for row in np.hstack(table.columns):
            extents = [0.0, *row[3:]]
            for axis in range(3):
                bases = [row[axis]]
                if periodic:
                    bases += [k * p for p in periods for k in np.arange(-12, 13) / 2]
                for base in bases:
                    for extent in extents:
                        specials[axis] |= {base + extent, base - extent}
    for capsule in capsules:
        for end in (capsule.a, capsule.a + capsule.ba):
            for axis in range(3):
                radius = capsule.radius
                specials[axis] |= {end[axis], end[axis] + radius, end[axis] - radius}
    return tuple(sorted(values) for values in specials), [len(table) for table in tables]


@st.composite
def _object_points(draw, specials: tuple, bounds: tuple) -> np.ndarray:
    """1, 2 or 9-48 points whose coordinates are on-face specials, signed
    zeros or ordinary values around the object."""
    count = draw(st.one_of(st.sampled_from((1, 2)), st.integers(9, 48)))
    columns = []
    for axis, values in enumerate(specials):
        lo, hi = bounds[0][axis] - 0.3, bounds[1][axis] + 0.3
        elements = st.one_of(
            st.sampled_from(values), st.sampled_from((0.0, -0.0)), st.floats(lo, hi)
        )
        columns.append(draw(hnp.arrays(np.float64, count, elements=elements)))
    return np.stack(columns, axis=1)


class TestObjectTablesMatchOracle:
    """The primitive tables give the closures' bits on signed zeros and
    on-face coordinates, on one and two points, and on both sides of every
    point count where a table's row grouping changes."""

    @pytest.mark.parametrize("name", list_objects() + ["backdrop"])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_sdf_and_albedo(self, name, data):
        obj, reference = _library_object(name), object_oracle.OBJECTS[name]()
        specials, table_rows = _object_specials(obj)
        bounds = (obj.bounds_min, obj.bounds_max)
        drawn = data.draw(_object_points(specials, bounds))
        batches = [drawn]
        # Embed the drawn points in batches that straddle each grouping
        # edge: a K-row table is one group up to FIELD_BLOCK // K points.
        sizes = sorted({FIELD_BLOCK // k + d for k in table_rows if k > 1 for d in (-1, 0, 1)})
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        for size in sizes:
            filler = rng.uniform(bounds[0] - 0.3, bounds[1] + 0.3, size=(size, 3))
            filler[: len(drawn)] = drawn
            batches.append(filler)
        for points in batches:
            _assert_bit_equal(obj.sdf(points), reference.sdf(points))
            _assert_bit_equal(obj.albedo(points), reference.albedo(points))

    @pytest.mark.parametrize("name", list_objects() + ["backdrop"])
    def test_on_face_lattice(self, name):
        """Every combination of per-axis on-face coordinates.  Points where
        two surfaces meet are where a subtraction's ``-0.0`` can tie another
        operand's ``+0.0``, the only place the order of a union's operands
        shows in the bits."""
        obj, reference = _library_object(name), object_oracle.OBJECTS[name]()
        specials, _ = _object_specials(obj, periodic=False)
        points = np.stack(np.meshgrid(*specials, indexing="ij"), axis=-1).reshape(-1, 3)
        distances = obj.sdf(points)
        _assert_bit_equal(distances, reference.sdf(points))
        _assert_bit_equal(obj.albedo(points), reference.albedo(points))
        # The subtractions that cut into their base (the chair's slots never do).
        if name in ("lego", "mug", "ship"):
            assert np.any((distances == 0.0) & np.signbit(distances))

    def test_specials_reach_every_part(self):
        """The on-face coordinates come from the object's own tables."""
        tables, capsules, periods = _object_parts(make_object("lego"))
        assert sorted(len(table) for table in tables) == [1, 2, 6]
        assert periods == [0.07, 0.09]
        tables, capsules, _ = _object_parts(make_object("ship"))
        assert len(capsules) == 1 and sorted(len(t) for t in tables) == [1, 2, 2, 7]
        tables, _, _ = _object_parts(_library_object("backdrop"))
        assert [len(table) for table in tables] == [2]


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
