"""Texture baking: ``p x p`` texel patches per quad face.

The texture knob ``p`` controls how many texels are allocated to each quad
face.  Two implementations share one lookup interface:

* :class:`TextureAtlas` materialises the full ``(num_faces, p, p, 3)`` texel
  array — byte-for-byte what would be shipped to the device;
* :class:`LazyTexture` defers texel evaluation to lookup time.  It quantises
  the lookup coordinate to the texel centre and evaluates the source field
  there, which is mathematically identical to nearest-texel sampling of a
  materialised atlas while only ever evaluating the texels that are actually
  seen.  Benchmarks use it to keep large-``g`` sweeps tractable; the baked
  data *size* is always accounted as if the atlas were materialised.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baking.meshing import QuadFaceSet
from repro.utils.blocks import block_ranges


def _texel_center(coord: np.ndarray, patch_size: int) -> np.ndarray:
    """Snap in-face coordinates in [0, 1] to the nearest texel centre."""
    texel = np.clip(np.floor(coord * patch_size), 0, patch_size - 1)
    return (texel + 0.5) / patch_size


@dataclass
class TextureAtlas:
    """A materialised texture atlas: one ``p x p`` RGB patch per face."""

    patch_size: int
    texels: np.ndarray  # (num_faces, p, p, 3)

    def __post_init__(self) -> None:
        self.texels = np.asarray(self.texels, dtype=np.float64)
        expected = (self.patch_size, self.patch_size, 3)
        if self.texels.ndim != 4 or self.texels.shape[1:] != expected:
            raise ValueError(
                f"texel array shape {self.texels.shape} does not match patch size {self.patch_size}"
            )

    @property
    def num_faces(self) -> int:
        return int(self.texels.shape[0])

    def sample(self, face_indices: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Nearest-texel lookup at in-face coordinates ``(u, v)`` in [0, 1]."""
        face_indices = np.asarray(face_indices, dtype=int)
        u_texel = np.clip(
            np.floor(np.asarray(u) * self.patch_size), 0, self.patch_size - 1
        ).astype(int)
        v_texel = np.clip(
            np.floor(np.asarray(v) * self.patch_size), 0, self.patch_size - 1
        ).astype(int)
        return self.texels[face_indices, u_texel, v_texel]


@dataclass
class LazyTexture:
    """Texture patches evaluated on demand from a radiance function.

    ``radiance_fn`` maps world-space points ``(N, 3)`` to RGB; the lookup
    quantises ``(u, v)`` to the texel centre of the ``p x p`` patch and
    evaluates the radiance there, matching :class:`TextureAtlas` exactly.
    """

    patch_size: int
    faces: QuadFaceSet
    radiance_fn: "object"

    def sample(self, face_indices: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        face_indices = np.asarray(face_indices, dtype=int)
        u_center = _texel_center(np.asarray(u, dtype=np.float64), self.patch_size)
        v_center = _texel_center(np.asarray(v, dtype=np.float64), self.patch_size)
        # Lookups quantise to texel centres, so any two queries landing in
        # the same texel of the same face evaluate the radiance at exactly
        # the same world point.  Deduplicate before evaluating: when the
        # texture is coarser than the screen sampling (small ``p``), this
        # cuts the dominant cost of lazy rendering by a large factor while
        # returning byte-identical colours.
        p = int(self.patch_size)
        u_texel = np.minimum((u_center * p).astype(np.int64), p - 1)
        v_texel = np.minimum((v_center * p).astype(np.int64), p - 1)
        texel_key = (face_indices.astype(np.int64) * p + u_texel) * p + v_texel
        unique_keys, inverse = np.unique(texel_key, return_inverse=True)
        if unique_keys.size == texel_key.size:
            points = self.faces.face_points(face_indices, u_center, v_center)
            return self.radiance_fn(points)
        first_occurrence = np.zeros(unique_keys.size, dtype=np.int64)
        first_occurrence[inverse[::-1]] = np.arange(texel_key.size - 1, -1, -1)
        points = self.faces.face_points(
            face_indices[first_occurrence],
            u_center[first_occurrence],
            v_center[first_occurrence],
        )
        return self.radiance_fn(points)[inverse]

    @property
    def num_faces(self) -> int:
        return self.faces.num_faces


def bake_texture_atlas(
    radiance_fn,
    faces: QuadFaceSet,
    patch_size: int,
) -> TextureAtlas:
    """Materialise the full texture atlas by evaluating every texel centre.

    Faces are baked in batches of ``max(1, FIELD_BLOCK // p^2)``, so each
    radiance query holds about :data:`~repro.utils.blocks.FIELD_BLOCK`
    texels whatever the patch size.

    Args:
        radiance_fn: ``(N, 3) world points -> (N, 3) RGB`` (typically the
            shaded radiance of the source field).
        faces: quad faces to texture.
        patch_size: the texture knob ``p`` (texels per face edge).
    """
    if patch_size < 1:
        raise ValueError("patch size must be at least 1")
    num_faces = faces.num_faces
    texels = np.zeros((num_faces, patch_size, patch_size, 3), dtype=np.float64)
    if num_faces == 0:
        return TextureAtlas(patch_size=patch_size, texels=texels)

    coords = (np.arange(patch_size) + 0.5) / patch_size
    grid_u, grid_v = np.meshgrid(coords, coords, indexing="ij")
    flat_u = grid_u.ravel()
    flat_v = grid_v.ravel()
    texels_per_face = patch_size * patch_size

    for start, stop in block_ranges(num_faces, texels_per_face):
        batch = np.arange(start, stop)
        face_rep = np.repeat(batch, texels_per_face)
        u_rep = np.tile(flat_u, stop - start)
        v_rep = np.tile(flat_v, stop - start)
        colors = radiance_fn(faces.face_points(face_rep, u_rep, v_rep))
        texels[start:stop] = colors.reshape(stop - start, patch_size, patch_size, 3)

    return TextureAtlas(patch_size=patch_size, texels=texels)
