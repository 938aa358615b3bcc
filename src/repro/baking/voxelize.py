"""Voxelisation of a field onto a cubic ``g^3`` occupancy grid.

The mesh-granularity knob ``g`` of NeRFlex is the number of voxels allocated
per axis.  Voxelisation pads the field's bounding box to a cube (so voxels
are cubic), samples the signed distance at every cell centre and marks cells
with non-positive distance as occupied.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.ndimage import distance_transform_cdt


@dataclass
class VoxelGrid:
    """A cubic occupancy grid.

    Attributes:
        origin: world position of the grid's minimum corner.
        voxel_size: edge length of one (cubic) voxel.
        resolution: number of voxels per axis (``g``).
        occupancy: ``(g, g, g)`` boolean array, indexed ``[ix, iy, iz]``.
    """

    origin: np.ndarray
    voxel_size: float
    resolution: int
    occupancy: np.ndarray

    def __post_init__(self) -> None:
        self.origin = np.asarray(self.origin, dtype=np.float64)
        self.occupancy = np.asarray(self.occupancy, dtype=bool)
        expected = (self.resolution,) * 3
        if self.occupancy.shape != expected:
            raise ValueError(
                f"occupancy shape {self.occupancy.shape} does not match resolution {expected}"
            )

    @property
    def bounds_min(self) -> np.ndarray:
        return self.origin

    @property
    def bounds_max(self) -> np.ndarray:
        return self.origin + self.voxel_size * self.resolution

    @property
    def num_occupied(self) -> int:
        return int(self.occupancy.sum())

    @cached_property
    def skip_distance(self) -> np.ndarray:
        """Chessboard (L-inf) distance, in cells, to the nearest occupied cell.

        ``0`` exactly at occupied cells; a cell at distance ``d`` has only
        empty cells within ``d - 1`` cells along every axis.  The occupancy
        marcher jumps over empty space with it.  An all-empty grid gets
        ``resolution`` everywhere: every cell of the grid is within
        ``resolution - 1`` of any other, so each ray misses in one jump.
        Built on first use and cached, read-only, in the narrowest unsigned
        dtype that holds ``resolution``.  The occupancy must not be mutated
        in place after the first access.
        """
        dtype = np.min_scalar_type(self.resolution)
        if self.occupancy.any():
            distance = distance_transform_cdt(~self.occupancy, metric="chessboard")
            distance = distance.astype(dtype)
        else:
            distance = np.full(self.occupancy.shape, self.resolution, dtype=dtype)
        distance.flags.writeable = False  # shared by every render of the grid
        return distance

    def cell_centers(self, indices: np.ndarray) -> np.ndarray:
        """World-space centres of the voxels at the given ``(N, 3)`` indices."""
        indices = np.asarray(indices, dtype=np.float64)
        return self.origin + (indices + 0.5) * self.voxel_size

    def world_to_index(self, points: np.ndarray) -> np.ndarray:
        """Integer voxel indices containing the given world points."""
        points = np.asarray(points, dtype=np.float64)
        return np.floor((points - self.origin) / self.voxel_size).astype(int)

    def contains_index(self, indices: np.ndarray) -> np.ndarray:
        """Boolean mask: which of the ``(N, 3)`` indices lie inside the grid."""
        indices = np.asarray(indices)
        return np.all((indices >= 0) & (indices < self.resolution), axis=-1)

    def occupied_at(self, indices: np.ndarray) -> np.ndarray:
        """Occupancy lookup with out-of-grid indices treated as empty."""
        indices = np.asarray(indices)
        inside = self.contains_index(indices)
        clipped = np.clip(indices, 0, self.resolution - 1)
        values = self.occupancy[clipped[..., 0], clipped[..., 1], clipped[..., 2]]
        return values & inside


def _cubic_bounds(bounds_min: np.ndarray, bounds_max: np.ndarray, padding: float) -> tuple:
    """Pad an AABB to a cube (equal side lengths, shared centre)."""
    bounds_min = np.asarray(bounds_min, dtype=np.float64)
    bounds_max = np.asarray(bounds_max, dtype=np.float64)
    center = 0.5 * (bounds_min + bounds_max)
    side = float(np.max(bounds_max - bounds_min)) * (1.0 + padding)
    if side <= 0:
        raise ValueError("field has a degenerate bounding box")
    half = 0.5 * side
    return center - half, center + half


#: Coarse-to-fine block edge of the hierarchical voxeliser.
_REFINE_FACTOR = 4
#: Safety multiplier on the assumed SDF Lipschitz constant.  Fields that
#: distort distances (e.g. the degradation model's geometry noise) can
#: advertise a larger bound via an ``sdf_lipschitz`` attribute.
_LIPSCHITZ_SAFETY = 2.0


def _chunked_sdf(field, centers: np.ndarray, chunk_size: int) -> np.ndarray:
    values = np.empty(centers.shape[0])
    for start in range(0, centers.shape[0], chunk_size):
        stop = start + chunk_size
        values[start:stop] = field.sdf(centers[start:stop])
    return values


def voxelize_field(
    field,
    resolution: int,
    padding: float = 0.06,
    occupancy_threshold: float = 0.0,
    chunk_size: int = 262144,
) -> VoxelGrid:
    """Sample a field's SDF onto a cubic occupancy grid.

    For large resolutions divisible by the refinement factor, sampling is
    hierarchical: the SDF is first evaluated on a 4x-coarser lattice, and a
    fine cell is only evaluated individually when its coarse sample lies
    within the (safety-scaled) Lipschitz bound of the occupancy threshold —
    otherwise the sign of ``sdf - threshold`` provably cannot change
    anywhere inside the coarse block, so the whole block inherits it.  The
    occupancy is identical to evaluating every cell centre (the fine
    centres that *are* evaluated use the exact same coordinates), at an
    order of magnitude fewer SDF evaluations for large ``g``.  Only fields
    that *advertise* a finite Lipschitz bound via an ``sdf_lipschitz``
    attribute take the hierarchical path (scenes and placed objects are
    exact 1-Lipschitz SDF compositions; :class:`~repro.nerf.degradation.
    DegradedField` derives its bound from the noise slope); everything
    else — notably MLP-backed pseudo-SDFs with unbounded gradients — is
    sampled exhaustively.

    Args:
        field: any object with ``sdf(points)`` and ``bounds_min``/``bounds_max``
            (a :class:`~repro.scenes.scene.Scene`, a placed object, or a
            trained/degraded radiance field).
        resolution: the mesh-granularity knob ``g`` (voxels per axis).
        padding: fractional padding added around the field bounds.
        occupancy_threshold: cells with ``sdf <= threshold`` are occupied; a
            small positive value makes voxelisation slightly conservative so
            thin structures survive at low ``g``.
        chunk_size: number of cell centres evaluated per SDF call (bounds the
            peak memory of the field evaluation).
    """
    if resolution < 2:
        raise ValueError("voxel resolution must be at least 2")
    lo, hi = _cubic_bounds(field.bounds_min, field.bounds_max, padding)
    voxel_size = float((hi - lo)[0]) / resolution
    threshold = float(occupancy_threshold)

    # Hierarchical pruning is only sound for fields that explicitly
    # advertise a finite Lipschitz bound; anything else (e.g. MLP-backed
    # pseudo-SDFs, whose gradients are unbounded) is sampled exhaustively.
    lipschitz = getattr(field, "sdf_lipschitz", None)
    if (
        resolution >= 8 * _REFINE_FACTOR
        and resolution % _REFINE_FACTOR == 0
        and lipschitz is not None
        and np.isfinite(lipschitz)
    ):
        occupancy = _voxelize_hierarchical(
            field, lo, voxel_size, int(resolution), threshold, chunk_size
        )
    else:
        coords = (np.arange(resolution) + 0.5) * voxel_size
        grid_x, grid_y, grid_z = np.meshgrid(coords, coords, coords, indexing="ij")
        centers = np.stack([grid_x, grid_y, grid_z], axis=-1).reshape(-1, 3) + lo
        occupancy = (_chunked_sdf(field, centers, chunk_size) <= threshold).reshape(
            resolution, resolution, resolution
        )

    return VoxelGrid(
        origin=lo,
        voxel_size=voxel_size,
        resolution=int(resolution),
        occupancy=occupancy,
    )


def _voxelize_hierarchical(
    field,
    lo: np.ndarray,
    voxel_size: float,
    resolution: int,
    threshold: float,
    chunk_size: int,
) -> np.ndarray:
    """Coarse-to-fine occupancy sampling with a Lipschitz pruning bound."""
    factor = _REFINE_FACTOR
    coarse_res = resolution // factor
    coarse_voxel = voxel_size * factor

    coarse_coords = (np.arange(coarse_res) + 0.5) * coarse_voxel
    grid_x, grid_y, grid_z = np.meshgrid(
        coarse_coords, coarse_coords, coarse_coords, indexing="ij"
    )
    coarse_centers = np.stack([grid_x, grid_y, grid_z], axis=-1).reshape(-1, 3) + lo
    coarse_sdf = _chunked_sdf(field, coarse_centers, chunk_size)

    # Farthest fine-cell centre from its coarse block's centre, times the
    # field's (safety-scaled) Lipschitz bound: outside this margin the sign
    # of ``sdf - threshold`` is constant across the whole block.
    lipschitz = float(field.sdf_lipschitz)
    max_offset = np.sqrt(3.0) * 0.5 * (factor - 1) * voxel_size
    margin = _LIPSCHITZ_SAFETY * max(lipschitz, 1.0) * max_offset

    decided = np.abs(coarse_sdf - threshold) > margin
    coarse_occupied = coarse_sdf <= threshold

    occupancy = (coarse_occupied & decided).reshape(coarse_res, coarse_res, coarse_res)
    for axis in range(3):
        occupancy = np.repeat(occupancy, factor, axis=axis)

    undecided = np.flatnonzero(~decided)
    if undecided.size:
        block_index = np.stack(
            np.unravel_index(undecided, (coarse_res, coarse_res, coarse_res)), axis=1
        )
        sub = np.arange(factor)
        sub_x, sub_y, sub_z = np.meshgrid(sub, sub, sub, indexing="ij")
        sub_offsets = np.stack([sub_x, sub_y, sub_z], axis=-1).reshape(-1, 3)
        fine_index = (
            block_index[:, None, :] * factor + sub_offsets[None, :, :]
        ).reshape(-1, 3)
        # Exact same centre coordinates as the flat path computes.
        fine_centers = (fine_index + 0.5) * voxel_size + lo
        fine_occupied = _chunked_sdf(field, fine_centers, chunk_size) <= threshold
        occupancy[fine_index[:, 0], fine_index[:, 1], fine_index[:, 2]] = fine_occupied

    return occupancy
