"""The vectorised NumPy reference implementation of every render kernel.

These functions are the *semantics* of the kernel layer: each compiled
backend (:mod:`repro.render.kernels.loops` compiled by
:mod:`repro.render.kernels.numba_backend`) is pinned against them by the
tiered parity suite (``tests/test_render_kernels.py``) at the tolerance its
declared tier permits — bit-identical for the occupancy marcher and the
sphere-tracer bookkeeping, bounded-ULP for the exp/reduction-bearing
volume kernels (see ``PARITY_TIERS`` in
:mod:`repro.render.kernels.registry`).

The bodies are the exact hot-loop math that historically lived inline in
:mod:`repro.render.engine` and :mod:`repro.nerf.rendering`; moving it here
changed call boundaries only, never values, so the engine's legacy parity
pins (``tests/test_render_engine.py``) keep holding bit for bit.

Every kernel is a narrow array-in/array-out function: no engine state, no
callables, no I/O — the contract that lets the same signature be compiled
to native loops and shipped through forked/spawned workers.
"""

from __future__ import annotations

import numpy as np

from repro.baking.meshing import _TANGENT_AXES

#: Quad-face in-plane axes by face-normal axis, as flat lookup tables
#: (``u`` spans ``TANGENT_U[axis]``, ``v`` spans ``TANGENT_V[axis]``).
#: Derived from the meshing module's table so there is one source of truth;
#: the loop backend hard-codes the same mapping as branches (verified
#: against these tables by the parity suite).
TANGENT_U = np.array([_TANGENT_AXES[axis][0] for axis in range(3)], dtype=np.int64)
TANGENT_V = np.array([_TANGENT_AXES[axis][1] for axis in range(3)], dtype=np.int64)


#: Skip-table margin, in voxels: a jump from a cell at chessboard distance
#: ``d`` covers at most ``d - 1 - SKIP_EPSILON`` voxels per axis, so the
#: rounding in ``floor((p - lo) / voxel)`` (about 1e-13 voxel for scene
#: coordinates) can never carry a skipped sample into an occupied cell.
SKIP_EPSILON = 0.01


def march_occupancy(
    origins: np.ndarray,
    directions: np.ndarray,
    t_near: np.ndarray,
    t_far: np.ndarray,
    grid_lo: np.ndarray,
    voxel: float,
    step: float,
    resolution: int,
    skip_distance: np.ndarray,
    face_keys: np.ndarray,
    face_order: np.ndarray,
    voxel_keys: np.ndarray,
) -> tuple:
    """First-hit occupancy-grid march of one chunk of candidate rays.

    Finds, per ray, the first sample of the ladder ``t = t_near + (k +
    0.5) * step`` (``t <= t_far``) that lands in an occupied voxel (skip
    distance ``0``), computes the exact entry point into its AABB and
    resolves the ``(voxel, axis, sign)`` face key against the sorted face
    tables (interior entries fall back to any face of the voxel).  Texture
    sampling stays with the caller — the kernel returns in-face
    coordinates, not colours.

    Empty space is skipped with the chessboard distance table: from an
    empty sample whose cell is ``d`` cells from the nearest occupied one,
    the next ``floor((d - 1 - SKIP_EPSILON) * voxel / (step * max|dir|))``
    ladder samples provably land in empty or out-of-grid cells, so the
    ray jumps over them.  The first occupied sample is the one the full
    ladder finds, so every output is bit-identical to evaluating every
    sample.

    Args:
        origins / directions: ``(N, 3)`` float64 candidate rays.
        t_near / t_far: ``(N,)`` clamped AABB entry/exit distances
            (``t_far > t_near`` for every candidate).
        grid_lo: ``(3,)`` world position of the grid's minimum corner.
        voxel: voxel edge length; ``step``: marching step (``voxel *
            step_scale``).
        resolution: grid resolution ``g``.
        skip_distance: ``(g, g, g)`` unsigned chessboard distance of each
            cell to the nearest occupied cell, ``0`` exactly at occupied
            cells: :attr:`repro.baking.voxelize.VoxelGrid.skip_distance`.
            It is the grid's occupancy and its skip table in one array.
        face_keys / face_order / voxel_keys: the sorted face-lookup tables
            of :attr:`repro.baking.meshing.QuadFaceSet.lookup_keys`.

    Returns:
        ``(hit_rows, face_indices, u, v, t_entry)`` — ascending chunk-local
        hit rows, the face index and in-face coordinates to sample, and the
        entry distance.  Empty int64/float64 arrays when nothing hit.
    """
    num_rays = origins.shape[0]
    g = int(resolution)

    span = float(np.max(t_far - t_near)) if num_rays else 0.0
    num_steps = max(int(np.ceil(span / step)) + 1, 1)

    # The skip table padded by one out-of-grid cell per side, flattened:
    # clipping a sample's cell index into the padded range replaces the
    # inside-the-grid test.  Border cells read distance 1: empty, with no
    # claim about their neighbours (a zero-length jump).
    padded_g = g + 2
    table = np.ones((padded_g,) * 3, dtype=skip_distance.dtype)
    table[1:-1, 1:-1, 1:-1] = skip_distance
    table = table.ravel()
    interior_offset = padded_g * padded_g + padded_g + 1
    # Jump reach in voxels by distance, max(d - 1 - SKIP_EPSILON, 0), for
    # every distance a table can hold (at most g): one gather per round.
    reach = np.maximum(np.arange(g + 1) - 1.0 - SKIP_EPSILON, 0.0)

    # Ladder samples a ray may skip per voxel of reach.  Zero-direction
    # rays never skip; the cap keeps the jump finite (a smaller jump is
    # always safe) for rays whose largest component is tiny.
    max_component = np.abs(directions).max(axis=1)
    with np.errstate(divide="ignore"):
        per_voxel = np.where(
            max_component > 0.0, voxel / (step * max_component), 0.0
        )
    per_voxel = np.minimum(per_voxel, float(num_steps))

    # One ladder sample per active ray per round, each at its own index
    # ``k`` (held as float64: exact for these magnitudes, and ``k + 0.5``
    # then matches the int-to-float ladder bit for bit).  A ray retires
    # at its first occupied sample or its first sample beyond ``t_far``;
    # the ladder is monotone in ``k``, so no later sample could be valid.
    # Per-ray state is kept per axis and compacted as rays retire.
    hit = np.zeros(num_rays, dtype=bool)
    hit_voxels = np.empty((num_rays, 3), dtype=np.int64)
    rows = np.arange(num_rays)
    ks = np.zeros(num_rays)
    state = [
        np.ascontiguousarray(column)
        for column in (*origins.T, *directions.T, t_near, t_far, per_voxel)
    ]
    lo0, lo1, lo2 = (float(value) for value in grid_lo)
    outside = float(g)
    while rows.size:
        ox, oy, oz, dx, dy, dz, near, far, scale = state
        t = near + (ks + 0.5) * step
        valid = t <= far
        cells = []
        for o_axis, d_axis, lo_axis in ((ox, dx, lo0), (oy, dy, lo1), (oz, dz, lo2)):
            cell = np.floor((o_axis + t * d_axis - lo_axis) / voxel)
            cells.append(np.clip(cell, -1.0, outside, out=cell))
        cx, cy, cz = cells
        flat = ((cx * padded_g + cy) * padded_g + cz).astype(np.intp)
        distance = table[flat + interior_offset]
        occupied = (distance == 0) & valid
        if occupied.any():
            newly_hit = rows[occupied]
            hit[newly_hit] = True
            for axis, cell in enumerate(cells):
                hit_voxels[newly_hit, axis] = cell[occupied]
        ks += 1.0 + np.floor(reach[distance] * scale)
        keep = valid & ~occupied
        if not keep.all():
            rows = rows[keep]
            ks = ks[keep]
            state = [column[keep] for column in state]

    hit_rows = np.flatnonzero(hit)
    if hit_rows.size == 0:
        empty_i = np.empty(0, dtype=np.int64)
        empty_f = np.empty(0, dtype=np.float64)
        return empty_i, empty_i.copy(), empty_f, empty_f.copy(), empty_f.copy()
    hit_voxels = hit_voxels[hit_rows]

    # Exact entry point into the hit voxel (slab test on its AABB).
    voxel_lo = grid_lo + hit_voxels * voxel
    voxel_hi = voxel_lo + voxel
    sub_origins = origins[hit_rows]
    sub_dirs = directions[hit_rows]
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / sub_dirs
    t_lo_axis = (voxel_lo - sub_origins) * inv
    t_hi_axis = (voxel_hi - sub_origins) * inv
    t_axis_entry = np.minimum(t_lo_axis, t_hi_axis)
    # Guard against rays parallel to an axis (inv = inf -> t = -inf/nan).
    t_axis_entry = np.where(np.isfinite(t_axis_entry), t_axis_entry, -np.inf)
    entry_axis = t_axis_entry.argmax(axis=1)
    t_entry = np.maximum(t_axis_entry[np.arange(len(hit_rows)), entry_axis], 0.0)
    entry_points = sub_origins + t_entry[:, None] * sub_dirs
    entry_sign = np.where(sub_dirs[np.arange(len(hit_rows)), entry_axis] > 0, -1, 1)

    # Face lookup: exact (voxel, axis, sign) key, falling back to any face
    # of the voxel when marching entered through an interior face.
    voxel_key = (hit_voxels[:, 0] * g + hit_voxels[:, 1]) * g + hit_voxels[:, 2]
    face_key = voxel_key * 6 + entry_axis * 2 + (entry_sign > 0)
    pos = np.searchsorted(face_keys, face_key)
    pos = np.clip(pos, 0, len(face_keys) - 1)
    found = face_keys[pos] == face_key
    face_indices = face_order[pos]
    if not found.all():
        fallback_pos = np.searchsorted(voxel_keys, voxel_key[~found])
        fallback_pos = np.clip(fallback_pos, 0, len(voxel_keys) - 1)
        face_indices[~found] = face_order[fallback_pos]

    # In-face texture coordinates from the entry point.
    local = (entry_points - voxel_lo) / voxel
    tangent_u = TANGENT_U[entry_axis]
    tangent_v = TANGENT_V[entry_axis]
    rows = np.arange(len(hit_rows))
    u = np.clip(local[rows, tangent_u], 0.0, 1.0)
    v = np.clip(local[rows, tangent_v], 0.0, 1.0)

    return (
        hit_rows.astype(np.int64, copy=False),
        face_indices.astype(np.int64, copy=False),
        u,
        v,
        t_entry,
    )


def sdf_to_density(sdf: np.ndarray, surface_width: float) -> np.ndarray:
    """Convert ``(R, S)`` signed distances to volume density.

    Density is high inside the surface and falls off smoothly across a band
    of width ``surface_width`` outside it (the logistic bump of the volume
    renderer).
    """
    width = max(surface_width, 1e-9)
    scaled = np.clip(-sdf / width, -30.0, 30.0)
    return 30.0 / width * (1.0 / (1.0 + np.exp(-scaled))) * 0.5


def composite_forward(
    densities: np.ndarray,
    colors: np.ndarray,
    deltas: np.ndarray,
    background: np.ndarray,
    sample_distances: np.ndarray,
) -> tuple:
    """Alpha-composite per-sample densities and colours along rays.

    Args:
        densities: ``(R, S)`` densities (clamped at zero inside the kernel).
        colors: ``(R, S, 3)`` per-sample colours.
        deltas: ``(R, S)`` distances between consecutive samples.
        background: ``(3,)`` colour composited behind the volume.
        sample_distances: ``(R, S)`` absolute sample distances (the
            reported depth is their weighted expectation).

    Returns:
        ``(rgb, weights, transmittance, depth, alpha)`` with shapes
        ``(R, 3)``, ``(R, S)``, ``(R, S+1)``, ``(R,)``, ``(R,)``.
    """
    densities = np.maximum(densities, 0.0)
    alphas = 1.0 - np.exp(-densities * deltas)
    ones = np.ones((alphas.shape[0], 1))
    transmittance = np.concatenate(
        [ones, np.cumprod(1.0 - alphas + 1e-12, axis=1)], axis=1
    )
    weights = transmittance[:, :-1] * alphas
    rgb = (weights[..., None] * colors).sum(axis=1)
    rgb = rgb + transmittance[:, -1:] * background
    cumulative = weights.sum(axis=1)
    depth = (weights * sample_distances).sum(axis=1) / np.maximum(cumulative, 1e-8)
    return rgb, weights, transmittance, depth, cumulative


def gather_ray_points(
    origins: np.ndarray,
    directions: np.ndarray,
    t_values: np.ndarray,
    alive: np.ndarray,
) -> np.ndarray:
    """Current sample positions ``o + t * d`` of the ``alive`` rays."""
    return origins[alive] + t_values[alive, None] * directions[alive]


def sphere_advance(
    t_values: np.ndarray,
    hit: np.ndarray,
    alive: np.ndarray,
    distances: np.ndarray,
    limits: np.ndarray,
    hit_epsilon: float,
) -> np.ndarray:
    """One sphere-tracing step: record hits, advance survivors, compact.

    Mutates ``t_values`` and ``hit`` in place (rows indexed by ``alive``)
    and returns the compacted alive set — rays that neither hit nor
    escaped their per-ray ``limits``.
    """
    newly_hit = distances < hit_epsilon
    hit[alive[newly_hit]] = True
    advancing = ~newly_hit
    advancing_ids = alive[advancing]
    t_values[advancing_ids] += np.maximum(distances[advancing], hit_epsilon)
    escaped = t_values[advancing_ids] > limits[advancing_ids]
    return advancing_ids[~escaped]
