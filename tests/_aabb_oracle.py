"""Test-only oracle: the ray/AABB slab test as it was before the column rewrite.

:func:`repro.render.engine._candidate_pairs` works on per-axis columns,
for every box of a frame in one pass; this copy keeps the original
one-box ``(N, 3)`` form with ``nanmax``/``nanmin`` over axis 1, so the
tests can demand bit-equal results from the rewrite.  Do not optimise it.
"""

from __future__ import annotations

import numpy as np


def ray_aabb(origins, directions, lo, hi):
    """Slab-method ray/AABB intersection; returns (t_near, t_far)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / directions
    t_lo = (lo - origins) * inv
    t_hi = (hi - origins) * inv
    t_near = np.nanmax(np.minimum(t_lo, t_hi), axis=1)
    t_far = np.nanmin(np.maximum(t_lo, t_hi), axis=1)
    return t_near, t_far
