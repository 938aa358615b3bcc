"""Signed-distance-function (SDF) primitives, primitive tables and combinators.

All functions are vectorised: they take an ``(N, 3)`` array of points and
return an ``(N,)`` array of signed distances (negative inside the surface).
The reference objects in :mod:`repro.scenes.objects` are assembled from
these primitives, and the ground-truth ray tracer, the voxel baker and the
radiance field all query the same SDFs, so every representation in the
library is derived from a single authoritative geometry definition.

The math of each primitive lives once, in a column kernel: lengths are
``sqrt(x*x + y*y + z*z)`` and maxima nested ``np.maximum`` calls, never
``(N, 3)`` reductions along axis 1.  numpy reduces a length-3 axis left to
right, so the explicit column sums give the same bits as
``np.linalg.norm``/``np.max`` did.  ``sdf_box`` and its siblings are thin
wrappers that evaluate one primitive.

Scenes query an object's SDF thousands of times per frame, often on a few
points, so the per-call cost dominates.  A library object therefore
evaluates all primitives of one kind as one ``(K, N)`` broadcast through a
:class:`PrimitiveTable`, then combines the rows with :func:`sdf_union` and
its siblings in a fixed order.  Every kernel operation is elementwise, so
a table row has the bits of the primitive evaluated alone.  The operand
order still matters: on a ``+0.0``/``-0.0`` tie ``np.minimum`` and
``np.maximum`` return an operand by position (the second, on NumPy 2.4 on
x86-64), so swapping two operands can flip the sign of a zero distance.
Re-associating a chain of one combinator cannot: every grouping returns
the operand in the same position among the tied ones.
"""

from __future__ import annotations

import numpy as np

from repro.utils.blocks import FIELD_BLOCK


def _as_points(points: np.ndarray) -> np.ndarray:
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 3:
        raise ValueError(f"expected (N, 3) points, got shape {points.shape}")
    return points


def _vec3(vector) -> list:
    """A 3-vector as three Python floats (one per column)."""
    x, y, z = np.asarray(vector, dtype=np.float64).tolist()
    return [x, y, z]


def _length(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Euclidean length of per-axis columns, summed in ``norm``'s order.

    Overwrites its arguments, which every caller builds fresh.
    """
    x *= x
    y *= y
    z *= z
    x += y
    x += z
    return np.sqrt(x, out=x)


def columns(points: np.ndarray) -> tuple:
    """The x, y and z columns of an ``(N, 3)`` point array (views)."""
    points = _as_points(points)
    return points[:, 0], points[:, 1], points[:, 2]


# ---------------------------------------------------------------------------
# Column kernels.  Coordinates are ``(N,)`` columns; parameters are floats
# (one primitive, ``(N,)`` result) or ``(K, 1)`` columns (a table of K
# primitives, ``(K, N)`` result).  Every operation is elementwise, so a row
# of a table result has the bits of the same primitive evaluated alone.
# ---------------------------------------------------------------------------


def sphere_kernel(x, y, z, cx, cy, cz, radius) -> np.ndarray:
    distance = _length(x - cx, y - cy, z - cz)
    distance -= radius
    return distance


def _abs_minus(values, center, half) -> np.ndarray:
    """``np.abs(values - center) - half`` in one buffer."""
    out = values - center
    np.abs(out, out=out)
    out -= half
    return out


def box_kernel(x, y, z, cx, cy, cz, hx, hy, hz) -> np.ndarray:
    qx = _abs_minus(x, cx, hx)
    qy = _abs_minus(y, cy, hy)
    qz = _abs_minus(z, cz, hz)
    inside = np.maximum(qx, qy)
    np.maximum(inside, qz, out=inside)
    np.minimum(inside, 0.0, out=inside)
    outside = _length(
        np.maximum(qx, 0.0, out=qx), np.maximum(qy, 0.0, out=qy), np.maximum(qz, 0.0, out=qz)
    )
    outside += inside
    return outside


def rounded_box_kernel(x, y, z, cx, cy, cz, hx, hy, hz, radius) -> np.ndarray:
    """A box whose half extents are already shrunk by ``radius``."""
    return box_kernel(x, y, z, cx, cy, cz, hx, hy, hz) - radius


def torus_kernel(x, y, z, cx, cy, cz, major_radius, minor_radius) -> np.ndarray:
    ring = np.sqrt((x - cx) ** 2 + (z - cz) ** 2) - major_radius
    return np.sqrt(ring**2 + (y - cy) ** 2) - minor_radius


def cylinder_kernel(x, y, z, cx, cy, cz, radius, half_height) -> np.ndarray:
    x = x - cx
    z = z - cz
    x *= x
    z *= z
    x += z
    radial = np.sqrt(x, out=x)
    radial -= radius
    axial = _abs_minus(y, cy, half_height)
    outside_r = np.maximum(radial, 0.0)
    outside_a = np.maximum(axial, 0.0)
    outside_r *= outside_r
    outside_a *= outside_a
    outside_r += outside_a
    outside = np.sqrt(outside_r, out=outside_r)
    inside = np.maximum(radial, axial, out=radial)
    np.minimum(inside, 0.0, out=inside)
    outside += inside
    return outside


def capsule_kernel(points, a, ba, radius) -> np.ndarray:
    """A capsule from ``a`` to ``a + ba`` on ``(N, 3)`` points.

    ``pa @ ba`` stays a matmul over all N rows: BLAS fuses it with FMA, so
    column sums would differ in the last ulp and move the pinned
    references, and a one-row product rounds differently again (see
    :mod:`repro.utils.blocks`).
    """
    pa = points - a
    denom = float(ba @ ba)
    if denom == 0.0:
        return _length(pa[:, 0], pa[:, 1], pa[:, 2]) - radius
    h = np.clip((pa @ ba) / denom, 0.0, 1.0)
    bx, by, bz = ba.tolist()
    return _length(pa[:, 0] - h * bx, pa[:, 1] - h * by, pa[:, 2] - h * bz) - radius


# ---------------------------------------------------------------------------
# Primitive tables
# ---------------------------------------------------------------------------


class PrimitiveTable:
    """K primitives of one kind, evaluated as one ``(K, N)`` broadcast.

    Each parameter is held as a ``(K, 1)`` column, built once.  Calling the
    table on ``(N,)`` coordinate columns returns one row of distances per
    primitive, in the order the rows were given.  The rows are evaluated
    in groups of ``max(1, FIELD_BLOCK // N)`` primitives, so a group's
    temporaries stay cache-sized however large N is.
    """

    def __init__(self, kernel, rows: list) -> None:
        params = np.asarray(rows, dtype=np.float64)
        if params.ndim != 2 or len(params) == 0:
            raise ValueError("a primitive table needs at least one row of parameters")
        self.kernel = kernel
        self.columns = tuple(params[:, [j]] for j in range(params.shape[1]))

    def __len__(self) -> int:
        return len(self.columns[0])

    def __call__(self, x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
        count, total = len(self), len(x)
        group = max(1, FIELD_BLOCK // max(total, 1))
        if group >= count:
            return self.kernel(x, y, z, *self.columns)
        out = np.empty((count, total))
        for start in range(0, count, group):
            rows = slice(start, start + group)
            out[rows] = self.kernel(x, y, z, *(column[rows] for column in self.columns))
        return out


def sphere_table(spheres: list) -> PrimitiveTable:
    """Spheres given as ``(center, radius)`` pairs."""
    return PrimitiveTable(sphere_kernel, [(*center, radius) for center, radius in spheres])


def box_table(boxes: list) -> PrimitiveTable:
    """Axis-aligned boxes given as ``(center, half_extents)`` pairs."""
    return PrimitiveTable(box_kernel, [(*center, *half) for center, half in boxes])


def rounded_box_table(boxes: list) -> PrimitiveTable:
    """Rounded boxes given as ``(center, half_extents, radius)`` triples."""
    return PrimitiveTable(
        rounded_box_kernel,
        [(*center, *_shrunk(half, radius), radius) for center, half, radius in boxes],
    )


def cylinder_table(cylinders: list) -> PrimitiveTable:
    """Y-axis capped cylinders given as ``(center, radius, half_height)``."""
    return PrimitiveTable(
        cylinder_kernel,
        [(*center, radius, half_height) for center, radius, half_height in cylinders],
    )


def torus_table(tori: list) -> PrimitiveTable:
    """XZ-plane tori given as ``(center, major_radius, minor_radius)``."""
    return PrimitiveTable(
        torus_kernel, [(*center, major, minor) for center, major, minor in tori]
    )


class Capsule:
    """One capsule with its endpoint difference precomputed.

    Capsules stay one primitive per call: the kernel's matmul needs the
    ``(N, 3)`` points, and no library object has two.
    """

    def __init__(self, endpoint_a, endpoint_b, radius: float) -> None:
        self.a = np.asarray(endpoint_a, dtype=np.float64)
        self.ba = np.asarray(endpoint_b, dtype=np.float64) - self.a
        self.radius = float(radius)

    def __call__(self, points: np.ndarray) -> np.ndarray:
        return capsule_kernel(points, self.a, self.ba, self.radius)


# ---------------------------------------------------------------------------
# One primitive per call
# ---------------------------------------------------------------------------


def _shrunk(half_extents, radius: float) -> list:
    shrunk = np.asarray(half_extents, dtype=np.float64) - float(radius)
    if np.any(shrunk <= 0):
        raise ValueError("rounding radius must be smaller than every half extent")
    return shrunk.tolist()


def sdf_sphere(points: np.ndarray, center: np.ndarray, radius: float) -> np.ndarray:
    """Signed distance to a sphere."""
    return sphere_kernel(*columns(points), *_vec3(center), float(radius))


def sdf_box(points: np.ndarray, center: np.ndarray, half_extents: np.ndarray) -> np.ndarray:
    """Signed distance to an axis-aligned box."""
    return box_kernel(*columns(points), *_vec3(center), *_vec3(half_extents))


def sdf_rounded_box(
    points: np.ndarray, center: np.ndarray, half_extents: np.ndarray, radius: float
) -> np.ndarray:
    """Signed distance to a box with rounded edges of the given radius."""
    return rounded_box_kernel(
        *columns(points), *_vec3(center), *_shrunk(half_extents, radius), float(radius)
    )


def sdf_torus(
    points: np.ndarray, center: np.ndarray, major_radius: float, minor_radius: float
) -> np.ndarray:
    """Signed distance to a torus lying in the XZ plane (axis along Y)."""
    return torus_kernel(
        *columns(points), *_vec3(center), float(major_radius), float(minor_radius)
    )


def sdf_cylinder(
    points: np.ndarray, center: np.ndarray, radius: float, half_height: float
) -> np.ndarray:
    """Signed distance to a capped cylinder with its axis along Y."""
    return cylinder_kernel(
        *columns(points), *_vec3(center), float(radius), float(half_height)
    )


def sdf_capsule(
    points: np.ndarray, endpoint_a: np.ndarray, endpoint_b: np.ndarray, radius: float
) -> np.ndarray:
    """Signed distance to a capsule (a segment with thickness ``radius``)."""
    return Capsule(endpoint_a, endpoint_b, radius)(_as_points(points))


def sdf_union(*distances: np.ndarray) -> np.ndarray:
    """Union of shapes (pointwise minimum of distances)."""
    if not distances:
        raise ValueError("sdf_union needs at least one distance field")
    result = distances[0]
    for dist in distances[1:]:
        result = np.minimum(result, dist)
    return result


def sdf_intersection(*distances: np.ndarray) -> np.ndarray:
    """Intersection of shapes (pointwise maximum of distances)."""
    if not distances:
        raise ValueError("sdf_intersection needs at least one distance field")
    result = distances[0]
    for dist in distances[1:]:
        result = np.maximum(result, dist)
    return result


def sdf_subtraction(base: np.ndarray, cut: np.ndarray) -> np.ndarray:
    """Subtract the ``cut`` shape from the ``base`` shape."""
    return np.maximum(base, -cut)


def wrap(values: np.ndarray, period: float) -> np.ndarray:
    """One coordinate column wrapped into a cell of side ``period`` centred
    at the origin (domain repetition along one axis)."""
    return np.mod(values + 0.5 * period, period) - 0.5 * period


def repeat_xz(points: np.ndarray, period: float) -> np.ndarray:
    """Tile space periodically in X and Z (domain repetition).

    Returns a copy of ``points`` whose X/Z coordinates are wrapped into a
    cell of side ``period`` centred at the origin.  Evaluating a primitive
    on the repeated points yields an infinite grid of copies, which is how
    the high-complexity reference objects (e.g. the lego analogue's studs)
    obtain many geometric features at constant evaluation cost.  The
    library objects call :func:`wrap` on the two columns instead of copying
    the points.
    """
    points = _as_points(points).copy()
    period = float(period)
    if period <= 0:
        raise ValueError("period must be positive")
    for axis in (0, 2):
        points[:, axis] = wrap(points[:, axis], period)
    return points
