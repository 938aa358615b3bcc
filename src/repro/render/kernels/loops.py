"""Per-ray loop implementations of the render kernels (numba-compilable).

Each function here is the scalar-loop form of the matching vectorised
reference in :mod:`repro.render.kernels.numpy_ref`, written in the
restricted Python subset numba's nopython mode compiles: preallocated
outputs, explicit index loops, ``math`` scalar functions, no fancy
indexing, no closures, no Python objects.  The functions run *uncompiled*
too — deliberately: the tiered parity suite executes them as plain Python
on every machine, so the algorithmic equivalence to the reference is
proven even where numba is not installed, and the numba backend merely
compiles code that is already pinned.

Determinism notes, load-bearing for the parity tiers:

* no ``fastmath`` anywhere (the numba backend compiles with
  ``fastmath=False``), so LLVM may not contract ``a + t * d`` into fma or
  reorder reductions — the "exact" tier kernels stay bit-identical to the
  reference;
* float division by zero is guarded explicitly (``copysign(inf, d)``)
  instead of relying on IEEE division, because plain Python raises
  ``ZeroDivisionError`` where NumPy returns ``inf`` — the guard makes the
  uncompiled and compiled behaviour identical;
* NaN propagation mirrors ``np.minimum`` / ``np.maximum`` semantics
  wherever the reference could see a NaN (axis-parallel slab tests).

The per-row march walks the sample ladder ``t = t_near + (k + 0.5) *
step`` of the row's grid for ``t <= t_far`` and jumps over the samples the
skip table proves empty, exactly as the vectorised reference does, so the
first occupied voxel — and everything derived from it — is identical.
"""

from __future__ import annotations

import math

import numpy as np

from repro.render.kernels.numpy_ref import SKIP_EPSILON

#: The kernel entry points every backend must provide, in one canonical
#: place (the registry builds KernelSets from this tuple and the numba
#: backend compiles exactly these names).
KERNEL_FUNCTION_NAMES = (
    "march_occupancy",
    "sdf_to_density",
    "composite_forward",
    "gather_ray_points",
    "sphere_advance",
)


def march_occupancy(
    origins,
    directions,
    t_near,
    t_far,
    grid_index,
    grid_lo,
    voxel,
    step,
    resolution,
    skip_tables,
    skip_base,
    face_keys,
    face_order,
    voxel_keys,
    key_base,
    face_start,
):
    """Per-row multi-grid first-hit march with empty-space skipping (see numpy_ref)."""
    num_rays = origins.shape[0]

    hit_rows = np.empty(num_rays, dtype=np.int64)
    face_indices = np.empty(num_rays, dtype=np.int64)
    u_out = np.empty(num_rays, dtype=np.float64)
    v_out = np.empty(num_rays, dtype=np.float64)
    t_entry_out = np.empty(num_rays, dtype=np.float64)
    count = 0

    for i in range(num_rays):
        grid = grid_index[i]
        g = resolution[grid]
        size = voxel[grid]
        ray_step = step[grid]
        lo0 = grid_lo[grid, 0]
        lo1 = grid_lo[grid, 1]
        lo2 = grid_lo[grid, 2]
        padded = g + 2
        # The grid's padded table, offset to its interior (cell 0, 0, 0).
        base = skip_base[grid] + (padded * padded + padded + 1)

        near = t_near[i]
        far = t_far[i]
        o0 = origins[i, 0]
        o1 = origins[i, 1]
        o2 = origins[i, 2]
        d0 = directions[i, 0]
        d1 = directions[i, 1]
        d2 = directions[i, 2]

        # Upper bound on the ladder index: every sample from here on lies
        # beyond ``far``.  Jumps are capped at it, which keeps them finite.
        k_limit = int((far - near) / ray_step) + 2
        # Ladder samples skippable per voxel of reach (numpy_ref's
        # ``per_voxel``), without dividing by a vanishing component.
        max_component = abs(d0)
        if abs(d1) > max_component:
            max_component = abs(d1)
        if abs(d2) > max_component:
            max_component = abs(d2)
        denominator = ray_step * max_component
        if denominator * k_limit > size:
            per_voxel = size / denominator
        elif max_component > 0.0:
            per_voxel = float(k_limit)
        else:
            per_voxel = 0.0

        # -- first-hit march along the shared sample ladder ---------------
        v0 = -1
        v1 = -1
        v2 = -1
        found = False
        k = 0
        while k < k_limit:
            t = near + (k + 0.5) * ray_step
            if t > far:
                break
            k += 1
            p0 = o0 + t * d0
            p1 = o1 + t * d1
            p2 = o2 + t * d2
            i0 = int(math.floor((p0 - lo0) / size))
            if i0 < 0 or i0 >= g:
                continue
            i1 = int(math.floor((p1 - lo1) / size))
            if i1 < 0 or i1 >= g:
                continue
            i2 = int(math.floor((p2 - lo2) / size))
            if i2 < 0 or i2 >= g:
                continue
            distance = skip_tables[base + (i0 * padded + i1) * padded + i2]
            if distance == 0:
                v0 = i0
                v1 = i1
                v2 = i2
                found = True
                break
            # Empty cell at chessboard distance d: the next
            # floor((d - 1 - eps) * per_voxel) samples stay in empty cells.
            reach = float(distance) - 1.0 - SKIP_EPSILON
            if reach > 0.0:
                k += int(math.floor(reach * per_voxel))
        if not found:
            continue

        # -- exact entry point into the hit voxel (slab test on its AABB) --
        vlo0 = lo0 + v0 * size
        vlo1 = lo1 + v1 * size
        vlo2 = lo2 + v2 * size

        best_t = -math.inf
        entry_axis = 0
        for axis in range(3):
            if axis == 0:
                d_axis = d0
                o_axis = o0
                vlo_axis = vlo0
            elif axis == 1:
                d_axis = d1
                o_axis = o1
                vlo_axis = vlo1
            else:
                d_axis = d2
                o_axis = o2
                vlo_axis = vlo2
            if d_axis != 0.0:
                inv = 1.0 / d_axis
            else:
                inv = math.copysign(math.inf, d_axis)
            a = (vlo_axis - o_axis) * inv
            b = (vlo_axis + size - o_axis) * inv
            # np.minimum semantics: NaN (0 * inf on a face-touching,
            # axis-parallel ray) propagates, then non-finite entries are
            # replaced by -inf exactly as the reference does.
            if a != a or b != b:
                m = -math.inf
            else:
                m = a if a < b else b
                if not math.isfinite(m):
                    m = -math.inf
            if m > best_t:
                best_t = m
                entry_axis = axis
        t_entry = best_t if best_t > 0.0 else 0.0

        if entry_axis == 0:
            d_axis = d0
        elif entry_axis == 1:
            d_axis = d1
        else:
            d_axis = d2
        sign_bit = 0 if d_axis > 0.0 else 1  # entry sign -1 for d > 0

        # -- face lookup: exact (voxel, axis, sign) key, voxel fallback ----
        # Both binary searches stay inside the grid's slice of the
        # concatenated tables (numpy_ref clips to it the same way).
        first = face_start[grid]
        last = face_start[grid + 1] - 1
        voxel_key = key_base[grid] + (v0 * g + v1) * g + v2
        face_key = voxel_key * 6 + entry_axis * 2 + sign_bit
        lo_i = first
        hi_i = last + 1
        while lo_i < hi_i:
            mid = (lo_i + hi_i) // 2
            if face_keys[mid] < face_key:
                lo_i = mid + 1
            else:
                hi_i = mid
        pos = lo_i
        if pos > last:
            pos = last
        if face_keys[pos] == face_key:
            face_index = face_order[pos]
        else:
            lo_i = first
            hi_i = last + 1
            while lo_i < hi_i:
                mid = (lo_i + hi_i) // 2
                if voxel_keys[mid] < voxel_key:
                    lo_i = mid + 1
                else:
                    hi_i = mid
            pos = lo_i
            if pos > last:
                pos = last
            face_index = face_order[pos]

        # -- in-face texture coordinates from the entry point --------------
        e0 = o0 + t_entry * d0
        e1 = o1 + t_entry * d1
        e2 = o2 + t_entry * d2
        l0 = (e0 - vlo0) / size
        l1 = (e1 - vlo1) / size
        l2 = (e2 - vlo2) / size
        # The tangent table of repro.baking.meshing (_TANGENT_AXES), as
        # branches: u spans TANGENT_U[axis], v spans TANGENT_V[axis].
        if entry_axis == 0:
            u_val = l1
            v_val = l2
        elif entry_axis == 1:
            u_val = l0
            v_val = l2
        else:
            u_val = l0
            v_val = l1
        if u_val < 0.0:
            u_val = 0.0
        elif u_val > 1.0:
            u_val = 1.0
        if v_val < 0.0:
            v_val = 0.0
        elif v_val > 1.0:
            v_val = 1.0

        hit_rows[count] = i
        face_indices[count] = face_index
        u_out[count] = u_val
        v_out[count] = v_val
        t_entry_out[count] = t_entry
        count += 1

    return (
        hit_rows[:count].copy(),
        face_indices[:count].copy(),
        u_out[:count].copy(),
        v_out[:count].copy(),
        t_entry_out[:count].copy(),
    )


def sdf_to_density(sdf, surface_width):
    """Elementwise logistic density bump over a ``(R, S)`` SDF slab."""
    width = surface_width if surface_width > 1e-9 else 1e-9
    scale = 30.0 / width
    num_rays = sdf.shape[0]
    num_samples = sdf.shape[1]
    out = np.empty((num_rays, num_samples), dtype=np.float64)
    for r in range(num_rays):
        for s in range(num_samples):
            scaled = -sdf[r, s] / width
            if scaled < -30.0:
                scaled = -30.0
            elif scaled > 30.0:
                scaled = 30.0
            out[r, s] = scale * (1.0 / (1.0 + math.exp(-scaled))) * 0.5
    return out


def composite_forward(densities, colors, deltas, background, sample_distances):
    """Sequential per-ray alpha compositing (see numpy_ref for the contract).

    The running transmittance product matches ``np.cumprod`` order exactly;
    the rgb/weight/depth accumulations are sequential where NumPy sums
    pairwise, which is why this kernel sits in the bounded-ULP parity tier.
    """
    num_rays = densities.shape[0]
    num_samples = densities.shape[1]
    rgb = np.empty((num_rays, 3), dtype=np.float64)
    weights = np.empty((num_rays, num_samples), dtype=np.float64)
    transmittance = np.empty((num_rays, num_samples + 1), dtype=np.float64)
    depth = np.empty(num_rays, dtype=np.float64)
    alpha = np.empty(num_rays, dtype=np.float64)

    for r in range(num_rays):
        trans = 1.0
        transmittance[r, 0] = 1.0
        weight_sum = 0.0
        depth_sum = 0.0
        c0 = 0.0
        c1 = 0.0
        c2 = 0.0
        for s in range(num_samples):
            density = densities[r, s]
            if density < 0.0:
                density = 0.0
            a = 1.0 - math.exp(-density * deltas[r, s])
            w = trans * a
            weights[r, s] = w
            trans = trans * (1.0 - a + 1e-12)
            transmittance[r, s + 1] = trans
            c0 += w * colors[r, s, 0]
            c1 += w * colors[r, s, 1]
            c2 += w * colors[r, s, 2]
            weight_sum += w
            depth_sum += w * sample_distances[r, s]
        rgb[r, 0] = c0 + trans * background[0]
        rgb[r, 1] = c1 + trans * background[1]
        rgb[r, 2] = c2 + trans * background[2]
        denom = weight_sum if weight_sum > 1e-8 else 1e-8
        depth[r] = depth_sum / denom
        alpha[r] = weight_sum
    return rgb, weights, transmittance, depth, alpha


def gather_ray_points(origins, directions, t_values, alive):
    """Current sample positions ``o + t * d`` of the ``alive`` rays."""
    count = alive.shape[0]
    points = np.empty((count, 3), dtype=np.float64)
    for i in range(count):
        ray = alive[i]
        t = t_values[ray]
        points[i, 0] = origins[ray, 0] + t * directions[ray, 0]
        points[i, 1] = origins[ray, 1] + t * directions[ray, 1]
        points[i, 2] = origins[ray, 2] + t * directions[ray, 2]
    return points


def sphere_advance(t_values, hit, alive, distances, limits, hit_epsilon):
    """One sphere-tracing step; mutates ``t_values``/``hit``, compacts alive.

    A non-hitting ray advances by its SDF distance (which is ``>=
    hit_epsilon`` whenever this branch is taken, so the reference's
    ``maximum(distance, hit_epsilon)`` reduces to the distance itself) and
    survives unless it passed its per-ray limit.
    """
    count = alive.shape[0]
    survivors = np.empty(count, dtype=np.int64)
    kept = 0
    for i in range(count):
        ray = alive[i]
        distance = distances[i]
        if distance < hit_epsilon:
            hit[ray] = True
        else:
            t = t_values[ray] + distance
            t_values[ray] = t
            if not (t > limits[ray]):
                survivors[kept] = ray
                kept += 1
    return survivors[:kept].copy()
