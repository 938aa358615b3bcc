"""Test-only oracle: the SDF primitives as they were before the column rewrite.

:mod:`repro.scenes.primitives` evaluates per-axis columns; this copy keeps
the original ``(N, 3)`` reductions (``np.linalg.norm(..., axis=1)``,
``np.max(..., axis=1)``, ``np.stack``) so the tests can demand bit-equal
results from the rewrite.  It is a complete module, so a test can swap it
in for ``repro.scenes.objects.prim`` wholesale.  Do not optimise it.
"""

from __future__ import annotations

import numpy as np


def _as_points(points: np.ndarray) -> np.ndarray:
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 3:
        raise ValueError(f"expected (N, 3) points, got shape {points.shape}")
    return points


def sdf_sphere(points: np.ndarray, center: np.ndarray, radius: float) -> np.ndarray:
    """Signed distance to a sphere."""
    points = _as_points(points)
    center = np.asarray(center, dtype=np.float64)
    return np.linalg.norm(points - center, axis=1) - float(radius)


def sdf_box(points: np.ndarray, center: np.ndarray, half_extents: np.ndarray) -> np.ndarray:
    """Signed distance to an axis-aligned box."""
    points = _as_points(points)
    center = np.asarray(center, dtype=np.float64)
    half = np.asarray(half_extents, dtype=np.float64)
    q = np.abs(points - center) - half
    outside = np.linalg.norm(np.maximum(q, 0.0), axis=1)
    inside = np.minimum(np.max(q, axis=1), 0.0)
    return outside + inside


def sdf_rounded_box(
    points: np.ndarray, center: np.ndarray, half_extents: np.ndarray, radius: float
) -> np.ndarray:
    """Signed distance to a box with rounded edges of the given radius."""
    shrunk = np.asarray(half_extents, dtype=np.float64) - float(radius)
    if np.any(shrunk <= 0):
        raise ValueError("rounding radius must be smaller than every half extent")
    return sdf_box(points, center, shrunk) - float(radius)


def sdf_torus(
    points: np.ndarray, center: np.ndarray, major_radius: float, minor_radius: float
) -> np.ndarray:
    """Signed distance to a torus lying in the XZ plane (axis along Y)."""
    points = _as_points(points) - np.asarray(center, dtype=np.float64)
    ring = np.sqrt(points[:, 0] ** 2 + points[:, 2] ** 2) - float(major_radius)
    return np.sqrt(ring**2 + points[:, 1] ** 2) - float(minor_radius)


def sdf_cylinder(
    points: np.ndarray, center: np.ndarray, radius: float, half_height: float
) -> np.ndarray:
    """Signed distance to a capped cylinder with its axis along Y."""
    points = _as_points(points) - np.asarray(center, dtype=np.float64)
    radial = np.sqrt(points[:, 0] ** 2 + points[:, 2] ** 2) - float(radius)
    axial = np.abs(points[:, 1]) - float(half_height)
    q = np.stack([radial, axial], axis=1)
    outside = np.linalg.norm(np.maximum(q, 0.0), axis=1)
    inside = np.minimum(np.max(q, axis=1), 0.0)
    return outside + inside


def sdf_capsule(
    points: np.ndarray, endpoint_a: np.ndarray, endpoint_b: np.ndarray, radius: float
) -> np.ndarray:
    """Signed distance to a capsule (a segment with thickness ``radius``)."""
    points = _as_points(points)
    a = np.asarray(endpoint_a, dtype=np.float64)
    b = np.asarray(endpoint_b, dtype=np.float64)
    pa = points - a
    ba = b - a
    denom = float(ba @ ba)
    if denom == 0.0:
        return np.linalg.norm(pa, axis=1) - float(radius)
    h = np.clip((pa @ ba) / denom, 0.0, 1.0)
    return np.linalg.norm(pa - h[:, None] * ba, axis=1) - float(radius)


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


def repeat_xz(points: np.ndarray, period: float) -> np.ndarray:
    """Tile space periodically in X and Z (domain repetition).

    Returns a copy of ``points`` whose X/Z coordinates are wrapped into a
    cell of side ``period`` centred at the origin.  Evaluating a primitive
    on the repeated points yields an infinite grid of copies, which is how
    the high-complexity reference objects (e.g. the lego analogue's studs)
    obtain many geometric features at constant evaluation cost.
    """
    points = _as_points(points).copy()
    period = float(period)
    if period <= 0:
        raise ValueError("period must be positive")
    for axis in (0, 2):
        points[:, axis] = (
            np.mod(points[:, axis] + 0.5 * period, period) - 0.5 * period
        )
    return points
