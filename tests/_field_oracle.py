"""Test-only oracle: bulk field queries as one call each.

:func:`repro.baking.voxelize.voxelize_field`,
:func:`repro.baking.texture.bake_texture_atlas` and
:meth:`repro.render.engine.RenderEngine.volume_render_views` query their
fields in cache-sized blocks (:mod:`repro.utils.blocks`).  This module keeps
each of them as it was before: every query point built up front and handed
to the field in one call.  :func:`estimate_normals_six_calls` keeps the
central-difference normals as six separate queries, where
:func:`repro.scenes.raytrace.estimate_normals` stacks them into one.  The
tests demand bit-equal results from the blocked versions.  Do not optimise
it.
"""

from __future__ import annotations

import numpy as np

from repro.baking.texture import TextureAtlas
from repro.baking.voxelize import _LIPSCHITZ_SAFETY, _REFINE_FACTOR, _cubic_bounds
from repro.render.engine import _stack_camera_rays
from repro.render.kernels import get_kernels
from repro.scenes.raytrace import shade_lambertian


def estimate_normals_six_calls(field, points, epsilon=1e-3):
    """Central-difference normals, one ``sdf`` call per offset."""
    points = np.asarray(points, dtype=np.float64)
    normals = np.zeros_like(points)
    for axis in range(3):
        offset = np.zeros(3)
        offset[axis] = epsilon
        normals[:, axis] = field.sdf(points + offset) - field.sdf(points - offset)
    norms = np.linalg.norm(normals, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return normals / norms


def _lattice_centers(lo, spacing, resolution):
    coords = (np.arange(resolution) + 0.5) * spacing
    grid_x, grid_y, grid_z = np.meshgrid(coords, coords, coords, indexing="ij")
    return np.stack([grid_x, grid_y, grid_z], axis=-1).reshape(-1, 3) + lo


def voxelize_flat(field, resolution, padding=0.06, threshold=0.0):
    """Occupancy of every cell centre, one SDF call over the whole grid."""
    lo, hi = _cubic_bounds(field.bounds_min, field.bounds_max, padding)
    voxel_size = float((hi - lo)[0]) / resolution
    centers = _lattice_centers(lo, voxel_size, resolution)
    return (field.sdf(centers) <= threshold).reshape((resolution,) * 3)


def voxelize_hierarchical(field, resolution, padding=0.06, threshold=0.0):
    """The Lipschitz-pruned coarse-to-fine occupancy, one SDF call per level."""
    lo, hi = _cubic_bounds(field.bounds_min, field.bounds_max, padding)
    voxel_size = float((hi - lo)[0]) / resolution
    factor = _REFINE_FACTOR
    coarse_res = resolution // factor
    coarse_sdf = field.sdf(_lattice_centers(lo, voxel_size * factor, coarse_res))

    max_offset = np.sqrt(3.0) * 0.5 * (factor - 1) * voxel_size
    margin = _LIPSCHITZ_SAFETY * max(float(field.sdf_lipschitz), 1.0) * max_offset
    decided = np.abs(coarse_sdf - threshold) > margin
    occupancy = ((coarse_sdf <= threshold) & decided).reshape((coarse_res,) * 3)
    for axis in range(3):
        occupancy = np.repeat(occupancy, factor, axis=axis)

    undecided = np.flatnonzero(~decided)
    block_index = np.stack(np.unravel_index(undecided, (coarse_res,) * 3), axis=1)
    sub = np.arange(factor)
    sub_x, sub_y, sub_z = np.meshgrid(sub, sub, sub, indexing="ij")
    sub_offsets = np.stack([sub_x, sub_y, sub_z], axis=-1).reshape(-1, 3)
    fine_index = (block_index[:, None, :] * factor + sub_offsets[None, :, :]).reshape(-1, 3)
    fine_centers = (fine_index + 0.5) * voxel_size + lo
    fine_occupied = field.sdf(fine_centers) <= threshold
    occupancy[fine_index[:, 0], fine_index[:, 1], fine_index[:, 2]] = fine_occupied
    return occupancy


def bake_atlas(radiance_fn, faces, patch_size):
    """Every texel of every face in one radiance call."""
    coords = (np.arange(patch_size) + 0.5) / patch_size
    grid_u, grid_v = np.meshgrid(coords, coords, indexing="ij")
    texels_per_face = patch_size * patch_size
    face_rep = np.repeat(np.arange(faces.num_faces), texels_per_face)
    u_rep = np.tile(grid_u.ravel(), faces.num_faces)
    v_rep = np.tile(grid_v.ravel(), faces.num_faces)
    colors = radiance_fn(faces.face_points(face_rep, u_rep, v_rep))
    return TextureAtlas(
        patch_size=patch_size,
        texels=colors.reshape(faces.num_faces, patch_size, patch_size, 3),
    )


def volume_render(field, cameras, num_samples, background=(1.0, 1.0, 1.0),
                  density_scale=160.0):
    """The engine's volume render as one chunk: every ray's samples in one
    SDF call, then one radiance call over the hit rays.

    Returns ``(rgb, depth, hit)`` over the stacked rays of ``cameras``.
    """
    kernels = get_kernels("numpy")
    origins, directions, slices = _stack_camera_rays(cameras)
    num_rays = origins.shape[0]
    bounds_min = np.asarray(field.bounds_min)
    bounds_max = np.asarray(field.bounds_max)
    extent = float(np.max(bounds_max - bounds_min))
    surface_width = extent / max(density_scale, 1e-6)
    center = 0.5 * (bounds_min + bounds_max)
    near = np.empty(num_rays)
    far = np.empty(num_rays)
    for camera, view_slice in zip(cameras, slices):
        distance_to_center = np.linalg.norm(camera.position - center)
        near[view_slice] = max(distance_to_center - extent, 1e-3)
        far[view_slice] = distance_to_center + extent

    # Bin centres of ``num_samples`` equal bins in [near, far].
    bins = np.linspace(0.0, 1.0, num_samples + 1)
    fractions = bins[:-1] + 0.5 * (bins[1:] - bins[:-1])
    t_values = near[:, None] + fractions * (far - near)[:, None]
    points = origins[:, None, :] + t_values[..., None] * directions[:, None, :]
    sdf = field.sdf(points.reshape(-1, 3)).reshape(num_rays, num_samples)
    densities = kernels.sdf_to_density(sdf, surface_width)
    deltas = np.diff(
        t_values, axis=1,
        append=t_values[:, -1:] + (far - near)[:, None] / num_samples,
    )
    _, _, _, ray_depth, ray_alpha = kernels.composite_forward(
        densities, np.zeros((num_rays, num_samples, 3)), deltas, np.zeros(3), t_values
    )
    bg = np.asarray(background, dtype=np.float64)
    rgb = np.tile(bg, (num_rays, 1))
    depth = np.full(num_rays, np.inf)
    hit_rows = np.flatnonzero(ray_alpha > 0.05)
    surface_points = origins[hit_rows] + ray_depth[hit_rows, None] * directions[hit_rows]
    mix = ray_alpha[hit_rows, None]
    radiance = shade_lambertian(
        field.albedo(surface_points), estimate_normals_six_calls(field, surface_points)
    )
    rgb[hit_rows] = mix * radiance + (1.0 - mix) * bg
    depth[hit_rows] = ray_depth[hit_rows]
    hit = ray_alpha > 0.5
    return np.clip(rgb, 0.0, 1.0), np.where(hit, depth, np.inf), hit
