"""Test-only oracle: ``DegradedField._floater_sdf`` as it was before the
per-floater rewrite.

:mod:`repro.nerf.degradation` computes the cell dot product once and hashes
offsets and radii only on floating rows; this copy recomputes the dot
product in every hash and evaluates every hash, centre and norm on every
row, so the tests can demand bit-equal results from the rewrite.  Do not
optimise it.
"""

from __future__ import annotations

import numpy as np


def _hash01(cells: np.ndarray, salt: float) -> np.ndarray:
    """Deterministic pseudo-random values in [0, 1) per integer cell."""
    cells = np.asarray(cells, dtype=np.float64)
    dots = cells @ np.array([127.1, 311.7, 74.7]) + salt * 53.7
    return np.modf(np.abs(np.sin(dots) * 43758.5453123))[0]


def floater_sdf(field, points: np.ndarray, base_distance: np.ndarray) -> np.ndarray:
    """The pre-rewrite body of ``field._floater_sdf(points, base_distance)``."""
    spacing = field.floater_spacing
    cells = np.floor(points / spacing)
    exists = _hash01(cells, salt=1.0 + field.seed) < field.floater_rate
    exists &= base_distance < field.floater_shell
    offsets = np.stack(
        [_hash01(cells, salt=salt + field.seed) for salt in (2.0, 3.0, 4.0)], axis=1
    )
    centers = (cells + 0.2 + 0.6 * offsets) * spacing
    radii = field.floater_radius * (0.5 + _hash01(cells, salt=5.0 + field.seed))
    distance = np.linalg.norm(points - centers, axis=1) - radii
    # Cells without a floater contribute a large positive distance.
    return np.where(exists, distance, np.full_like(distance, 10.0 * field.extent))
