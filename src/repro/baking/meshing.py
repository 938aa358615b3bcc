"""Quad-face extraction from a voxel occupancy grid.

The baked geometry of a mesh-assisted NeRF consists of the boundary faces
between occupied and empty voxels (the "blocky" mesh that the rasteriser
draws, one textured quad per face).  The number of extracted faces is the
paper's measure of 3D geometric complexity and the main driver of baked data
size.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.baking.voxelize import VoxelGrid

#: Per-axis in-plane direction pairs: for a face normal along ``axis`` the
#: quad spans the two remaining axes.
_TANGENT_AXES = {0: (1, 2), 1: (0, 2), 2: (0, 1)}


@dataclass
class QuadFaceSet:
    """The boundary quad faces of a voxel grid.

    Each face is stored as the index of its *occupied* voxel, the axis of its
    outward normal and the sign of that normal (+1 means the face lies on the
    voxel's positive side along ``axis``).

    Attributes:
        voxel_indices: ``(N, 3)`` integer indices of the occupied voxels.
        axes: ``(N,)`` face normal axis in {0, 1, 2}.
        signs: ``(N,)`` face normal sign in {-1, +1}.
        grid: the voxel grid the faces were extracted from.
    """

    voxel_indices: np.ndarray
    axes: np.ndarray
    signs: np.ndarray
    grid: VoxelGrid

    def __post_init__(self) -> None:
        self.voxel_indices = np.asarray(self.voxel_indices, dtype=int).reshape(-1, 3)
        self.axes = np.asarray(self.axes, dtype=int).reshape(-1)
        self.signs = np.asarray(self.signs, dtype=int).reshape(-1)
        if not (len(self.voxel_indices) == len(self.axes) == len(self.signs)):
            raise ValueError("face arrays must have matching lengths")

    @property
    def num_faces(self) -> int:
        return int(len(self.axes))

    @cached_property
    def lookup_keys(self) -> tuple:
        """Sorted integer keys for ``(voxel, axis, sign)`` face lookup.

        Returns ``(face_keys, order, voxel_keys)``: the face keys
        ``voxel_key * 6 + axis * 2 + (sign > 0)`` in ascending order, the
        face index behind each, and each face's voxel key ``(ix * g + iy) *
        g + iz`` in the same order.  The occupancy marcher binary-searches
        them.  Built on first use and cached, read-only; all int64, the
        dtype the compiled marching kernels are specialised on.
        """
        g = self.grid.resolution
        idx = self.voxel_indices.astype(np.int64, copy=False)
        voxel_key = (idx[:, 0] * g + idx[:, 1]) * g + idx[:, 2]
        face_key = voxel_key * 6 + self.axes * 2 + (self.signs > 0)
        face_key = face_key.astype(np.int64, copy=False)
        order = np.argsort(face_key, kind="stable").astype(np.int64, copy=False)
        tables = (face_key[order], order, voxel_key[order])
        for table in tables:  # shared by every render of the model
            table.flags.writeable = False
        return tables

    @property
    def face_size(self) -> float:
        """Edge length of every (square) face."""
        return float(self.grid.voxel_size)

    def face_centers(self) -> np.ndarray:
        """World-space centres of all faces, shape ``(N, 3)``."""
        centers = self.grid.cell_centers(self.voxel_indices)
        offsets = np.zeros_like(centers)
        offsets[np.arange(self.num_faces), self.axes] = (
            0.5 * self.grid.voxel_size * self.signs
        )
        return centers + offsets

    def face_points(self, face_indices: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """World-space points on faces at in-plane coordinates ``(u, v)``.

        ``u`` and ``v`` are in ``[0, 1]`` across the face; ``face_indices``
        selects which faces to evaluate.  Used both for texture baking (texel
        centres) and for texture lookup during rendering.
        """
        face_indices = np.asarray(face_indices, dtype=int)
        u = np.asarray(u, dtype=np.float64)
        v = np.asarray(v, dtype=np.float64)
        centers = self.face_centers()[face_indices]
        axes = self.axes[face_indices]
        size = self.grid.voxel_size

        points = centers.copy()
        tangent_u = np.array([_TANGENT_AXES[axis][0] for axis in axes])
        tangent_v = np.array([_TANGENT_AXES[axis][1] for axis in axes])
        rows = np.arange(len(face_indices))
        points[rows, tangent_u] += (u - 0.5) * size
        points[rows, tangent_v] += (v - 0.5) * size
        return points


def extract_quad_faces(grid: VoxelGrid) -> QuadFaceSet:
    """Extract all boundary faces between occupied and empty voxels.

    A face is emitted wherever an occupied voxel touches an empty voxel (or
    the grid boundary) along any axis, which is exactly the visible surface
    of the blocky reconstruction.
    """
    occupancy = grid.occupancy
    padded = np.pad(occupancy, 1, mode="constant", constant_values=False)

    all_indices = []
    all_axes = []
    all_signs = []
    core = (slice(1, -1), slice(1, -1), slice(1, -1))
    for axis in range(3):
        for sign in (-1, 1):
            shifted = np.roll(padded, -sign, axis=axis)[core]
            boundary = occupancy & ~shifted
            indices = np.argwhere(boundary)
            if indices.size:
                all_indices.append(indices)
                all_axes.append(np.full(len(indices), axis, dtype=int))
                all_signs.append(np.full(len(indices), sign, dtype=int))

    if all_indices:
        voxel_indices = np.concatenate(all_indices, axis=0)
        axes = np.concatenate(all_axes)
        signs = np.concatenate(all_signs)
    else:
        voxel_indices = np.zeros((0, 3), dtype=int)
        axes = np.zeros(0, dtype=int)
        signs = np.zeros(0, dtype=int)

    return QuadFaceSet(voxel_indices=voxel_indices, axes=axes, signs=signs, grid=grid)
