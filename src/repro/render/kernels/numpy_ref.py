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
:func:`stack_grids` packs per-grid tables into the multi-grid marcher's
array arguments, for every backend.
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


def stack_grids(grids) -> tuple:
    """Pack per-grid tables into the multi-grid marcher's grid arguments.

    Args:
        grids: one ``(grid_lo, voxel, step, skip_distance, face_tables)``
            tuple per grid: the world position of the grid's minimum
            corner, its voxel edge, its marching step, its
            :attr:`repro.baking.voxelize.VoxelGrid.skip_distance` table and
            its ``(face_keys, face_order, voxel_keys)`` lookup tables
            (:attr:`repro.baking.meshing.QuadFaceSet.lookup_keys`,
            non-empty).

    Returns:
        The arguments of :func:`march_occupancy` after ``grid_index``:
        ``(grid_lo, voxel, step, resolution, skip_tables, skip_base,
        face_keys, face_order, voxel_keys, key_base, face_start)``.  Each
        skip table is padded by one cell per side (value ``1``: empty,
        with no claim about its neighbours), flattened and concatenated at
        the tables' own unsigned dtype; ``skip_base[j]`` is where grid
        ``j``'s padded table starts.  The face tables are concatenated in
        grid order, grid ``j``'s voxel keys shifted by ``key_base[j]`` (the
        cell count of the grids before it) and its face keys by ``6 *
        key_base[j]``, so the concatenated keys stay ascending and no two
        grids share a key; ``face_start[j]:face_start[j + 1]`` is grid
        ``j``'s slice.
    """
    grid_lo, voxel, step, resolution = [], [], [], []
    tables, face_keys, face_order, voxel_keys = [], [], [], []
    skip_base, key_base, face_start = [0], [0], [0]
    for lo, size, ray_step, skip_distance, (keys, order, cell_keys) in grids:
        g = int(skip_distance.shape[0])
        padded = np.ones((g + 2,) * 3, dtype=skip_distance.dtype)
        padded[1:-1, 1:-1, 1:-1] = skip_distance
        grid_lo.append(lo)
        voxel.append(size)
        step.append(ray_step)
        resolution.append(g)
        tables.append(padded.ravel())
        face_keys.append(keys + 6 * key_base[-1])
        face_order.append(order)
        voxel_keys.append(cell_keys + key_base[-1])
        skip_base.append(skip_base[-1] + padded.size)
        key_base.append(key_base[-1] + g**3)
        face_start.append(face_start[-1] + len(keys))
    return (
        np.array(grid_lo, dtype=np.float64).reshape(-1, 3),
        np.array(voxel, dtype=np.float64),
        np.array(step, dtype=np.float64),
        np.array(resolution, dtype=np.int64),
        np.concatenate(tables),
        np.array(skip_base[:-1], dtype=np.int64),
        np.concatenate(face_keys).astype(np.int64, copy=False),
        np.concatenate(face_order).astype(np.int64, copy=False),
        np.concatenate(voxel_keys).astype(np.int64, copy=False),
        np.array(key_base[:-1], dtype=np.int64),
        np.array(face_start, dtype=np.int64),
    )


#: Rows of the numpy marcher's stacked per-ray state (one column per ray).
_ORIGIN, _DIRECTION, _LO = slice(0, 3), slice(3, 6), slice(6, 9)
_VOXEL, _OUTSIDE, _PADDED, _BASE, _NEAR, _FAR, _STEP, _SCALE, _K, _ROW = range(9, 19)
_STATE_ROWS = 19

#: The numpy marcher compacts its state only once this share of the rows
#: has retired: retired rows stay invalid (their ladder is monotone, and a
#: hit row's ``t_far`` is set to ``-inf``), so carrying them a few rounds
#: changes no output and saves a copy of every column per round.
COMPACT_SHARE = 0.25


def march_occupancy(
    origins: np.ndarray,
    directions: np.ndarray,
    t_near: np.ndarray,
    t_far: np.ndarray,
    grid_index: np.ndarray,
    grid_lo: np.ndarray,
    voxel: np.ndarray,
    step: np.ndarray,
    resolution: np.ndarray,
    skip_tables: np.ndarray,
    skip_base: np.ndarray,
    face_keys: np.ndarray,
    face_order: np.ndarray,
    voxel_keys: np.ndarray,
    key_base: np.ndarray,
    face_start: np.ndarray,
) -> tuple:
    """First-hit occupancy march of one chunk of (ray, grid) candidates.

    Each row is one ray marched through one grid (``grid_index``); the rows
    of every grid of a frame share one call, so the per-round fixed cost is
    paid once per chunk, not once per grid.  Per row, finds the first
    sample of the ladder ``t = t_near + (k + 0.5) * step`` (``t <=
    t_far``) that lands in an occupied voxel (skip distance ``0``) of the
    row's grid, computes the exact entry point into its AABB and resolves
    the ``(voxel, axis, sign)`` face key against that grid's slice of the
    face tables (interior entries fall back to any face of the voxel).
    Texture sampling stays with the caller — the kernel returns in-face
    coordinates, not colours.

    Empty space is skipped with the chessboard distance table: from an
    empty sample whose cell is ``d`` cells from the nearest occupied one,
    the next ``floor((d - 1 - SKIP_EPSILON) * voxel / (step * max|dir|))``
    ladder samples provably land in empty or out-of-grid cells, so the
    ray jumps over them.  The first occupied sample is the one the full
    ladder finds, so every output is bit-identical to evaluating every
    sample, and each row's outputs are those of a call holding its grid
    alone.

    Args:
        origins / directions: ``(N, 3)`` float64 ray of each row.
        t_near / t_far: ``(N,)`` clamped AABB entry/exit distances
            (``t_far > t_near`` for every row).
        grid_index: ``(N,)`` int64 grid of each row.
        grid_lo: ``(G, 3)`` world position of each grid's minimum corner.
        voxel / step: ``(G,)`` voxel edge and marching step (``voxel *
            step_scale``) of each grid.
        resolution: ``(G,)`` int64 resolution ``g`` of each grid.
        skip_tables / skip_base / face_keys / face_order / voxel_keys /
            key_base / face_start: the padded skip tables and shifted face
            tables of every grid, as :func:`stack_grids` packs them.  A
            skip table is the grid's occupancy and its skip table in one
            array.

    Returns:
        ``(hit_rows, face_indices, u, v, t_entry)`` — ascending chunk-local
        hit rows, the face index (within the row's grid) and in-face
        coordinates to sample, and the entry distance.  Empty int64/float64
        arrays when nothing hit.
    """
    num_rays = origins.shape[0]
    grid_index = np.asarray(grid_index, dtype=np.intp)
    ray_voxel = voxel[grid_index]
    ray_step = step[grid_index]
    ray_g = resolution[grid_index]

    # Ladder samples a ray may skip per voxel of reach.  Zero-direction
    # rays never skip; the cap (the ray's ladder length, at least 1, so a
    # jump never goes backwards and a retired row stays retired) keeps the
    # jump finite (a smaller jump is always safe) for rays whose largest
    # component is tiny.
    max_component = np.maximum(
        np.maximum(np.abs(directions[:, 0]), np.abs(directions[:, 1])),
        np.abs(directions[:, 2]),
    )
    with np.errstate(divide="ignore"):
        per_voxel = np.where(
            max_component > 0.0, ray_voxel / (ray_step * max_component), 0.0
        )
    ladder = np.maximum(np.ceil((t_far - t_near) / ray_step) + 1.0, 1.0)
    per_voxel = np.minimum(per_voxel, ladder)
    # Jump reach in voxels by distance, max(d - 1 - SKIP_EPSILON, 0), for
    # every distance a table can hold (at most its g): one gather a round.
    reach = np.maximum(np.arange(resolution.max() + 1) - 1.0 - SKIP_EPSILON, 0.0)

    # One ladder sample per live row per round, each at its own index
    # ``k`` (the state holds ``k + 0.5`` as float64: exact for these
    # magnitudes, so it matches the int-to-float ladder bit for bit).  A
    # row retires at its first occupied sample or its first sample beyond
    # ``t_far``; the ladder is monotone in ``k``, so no later sample could
    # be valid.
    # Cells are clipped into the padded table (clipping replaces the
    # inside-the-grid test: border cells read distance 1, a zero-length
    # jump), and the flat index carries the grid's table base.  All
    # per-row state is one stacked float64 array (row ids, cells and table
    # offsets are integers far below 2**53, so exact).
    padded = ray_g + 2
    state = np.empty((_STATE_ROWS, num_rays))
    state[_ORIGIN] = origins.T
    state[_DIRECTION] = directions.T
    state[_LO] = grid_lo[grid_index].T
    state[_VOXEL] = ray_voxel
    state[_OUTSIDE] = ray_g
    state[_PADDED] = padded
    state[_BASE] = skip_base[grid_index] + (padded * padded + padded + 1)
    state[_NEAR] = t_near
    state[_FAR] = t_far
    state[_STEP] = ray_step
    state[_SCALE] = per_voxel
    state[_K] = 0.5
    state[_ROW] = np.arange(num_rays)
    hit = np.zeros(num_rays, dtype=bool)
    hit_voxels = np.empty((num_rays, 3), dtype=np.int64)
    # Per-round scratch, reused as the state shrinks (views of the first
    # ``n`` columns), so a round allocates nothing of the state's size.
    cells_buf = np.empty((3, num_rays))
    t_buf, flat_buf, jump_buf = np.empty((3, num_rays))
    index_buf = np.empty(num_rays, dtype=np.intp)
    distance_buf = np.empty(num_rays, dtype=skip_tables.dtype)
    while state.shape[1]:
        n = state.shape[1]
        t = np.multiply(state[_K], state[_STEP], out=t_buf[:n])
        t += state[_NEAR]
        valid = t <= state[_FAR]
        cells = np.multiply(t, state[_DIRECTION], out=cells_buf[:, :n])
        cells += state[_ORIGIN]
        cells -= state[_LO]
        cells /= state[_VOXEL]
        np.floor(cells, out=cells)
        np.maximum(cells, -1.0, out=cells)
        np.minimum(cells, state[_OUTSIDE], out=cells)
        flat = np.multiply(cells[0], state[_PADDED], out=flat_buf[:n])
        flat += cells[1]
        flat *= state[_PADDED]
        flat += cells[2]
        flat += state[_BASE]
        index = index_buf[:n]
        index[...] = flat
        distance = skip_tables.take(index, out=distance_buf[:n])
        occupied = distance == 0
        occupied &= valid
        if occupied.any():
            newly_hit = state[_ROW, occupied].astype(np.intp)
            hit[newly_hit] = True
            hit_voxels[newly_hit] = cells[:, occupied].T
            state[_FAR, occupied] = -np.inf
        jump = reach.take(distance, out=jump_buf[:n])
        jump *= state[_SCALE]
        np.floor(jump, out=jump)
        jump += 1.0
        state[_K] += jump
        live = valid > occupied
        live_count = np.count_nonzero(live)
        if live_count == 0:
            break
        if live_count <= (1.0 - COMPACT_SHARE) * n:
            state = state[:, live]

    hit_rows = np.flatnonzero(hit)
    if hit_rows.size == 0:
        empty_i = np.empty(0, dtype=np.int64)
        empty_f = np.empty(0, dtype=np.float64)
        return empty_i, empty_i.copy(), empty_f, empty_f.copy(), empty_f.copy()
    hit_voxels = hit_voxels[hit_rows]
    hit_grids = grid_index[hit_rows]
    hit_size = ray_voxel[hit_rows, None]

    # Exact entry point into the hit voxel (slab test on its AABB).
    voxel_lo = grid_lo[hit_grids] + hit_voxels * hit_size
    voxel_hi = voxel_lo + hit_size
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
    # of the voxel when marching entered through an interior face.  Both
    # searches run over the concatenated tables and are clipped to the
    # row's grid slice, so a key past the end of grid j's table resolves
    # to grid j's last face, never to the next grid's first.
    g = resolution[hit_grids]
    voxel_key = (hit_voxels[:, 0] * g + hit_voxels[:, 1]) * g + hit_voxels[:, 2]
    voxel_key += key_base[hit_grids]
    face_key = voxel_key * 6 + entry_axis * 2 + (entry_sign > 0)
    first = face_start[hit_grids]
    last = face_start[hit_grids + 1] - 1
    pos = np.minimum(np.maximum(np.searchsorted(face_keys, face_key), first), last)
    found = face_keys[pos] == face_key
    face_indices = face_order[pos]
    if not found.all():
        missing = ~found
        fallback_pos = np.searchsorted(voxel_keys, voxel_key[missing])
        fallback_pos = np.minimum(
            np.maximum(fallback_pos, first[missing]), last[missing]
        )
        face_indices[missing] = face_order[fallback_pos]

    # In-face texture coordinates from the entry point.
    local = (entry_points - voxel_lo) / hit_size
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
