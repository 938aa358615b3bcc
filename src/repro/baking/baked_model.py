"""The baked multi-modal NeRF representation and its size accounting.

A :class:`BakedSubModel` is the on-device artefact for one NeRF network —
the voxel-grid quad mesh, its texture patches and the tiny deferred-shading
decoder network.  Its byte size is what the paper's ``S`` (data size) measures and what
the device memory budget ``H`` constrains.  A :class:`BakedMultiModel`
bundles the sub-models of a multi-NeRF decomposition (NeRFlex, Block-NeRF).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.baking.meshing import QuadFaceSet, extract_quad_faces
from repro.baking.texture import LazyTexture, TextureAtlas, bake_texture_atlas
from repro.baking.voxelize import VoxelGrid, voxelize_field
from repro.scenes.raytrace import field_radiance


@dataclass(frozen=True)
class SizeConstants:
    """Byte-cost constants of the baked representation.

    The constants model the multi-modal data a mesh-assisted NeRF ships to
    the device: vertex/index buffers for the quad mesh, feature texels (the
    deferred-shading features MobileNeRF stores per texel), the per-grid-cell
    volume data (a compressed alpha/indirection volume that scales with
    ``g^3``), a per-occupied-voxel entry in the sparse index and the small
    decoder network (``mlp_bytes``).  They are calibration constants — chosen so that the
    reference configurations land in the same size regime the paper reports
    (one network at the recommended configuration is a few hundred MB) —
    and every size the library reports is derived from them.

    Calibration notes.  The reproduction renders and scores at 100–200 px,
    so its patch sizes are scaled down from the paper's (``p <= 8`` instead
    of ``p <= 41``, see EXPERIMENTS.md); one reproduction texel therefore
    stands for roughly ``(800/128)^2 ~ 39`` device texels of ~10 bytes of
    deferred-shading features, giving ``texel_bytes = 384``.  The volume
    data is a compressed occupancy/indirection grid at ~4 bytes per cell —
    **not** a fat dense payload: an earlier calibration charged 128 B/cell,
    which made the ``g^3`` term dominate every model, priced the granularity
    the detail objects need (``g ~ 96``) out of any mobile budget and caused
    the Fig. 4 detail-region quality regression.  With the byte budget
    carried by textures and geometry (as in real MobileNeRF-class bundles),
    the selector can buy detail where the paper says it should.
    """

    geometry_bytes_per_face: float = 96.0
    texel_bytes: float = 384.0
    dense_grid_bytes_per_cell: float = 4.0
    voxel_index_bytes: float = 16.0
    mlp_bytes: float = 8192.0
    header_bytes: float = 4096.0

    def model_bytes(
        self,
        num_faces: int,
        patch_size: int,
        num_occupied_voxels: int,
        grid_resolution: int,
    ) -> float:
        """Total bytes of one baked sub-model."""
        geometry = num_faces * self.geometry_bytes_per_face
        textures = num_faces * (patch_size**2) * self.texel_bytes
        dense = float(grid_resolution) ** 3 * self.dense_grid_bytes_per_cell
        sparse = num_occupied_voxels * self.voxel_index_bytes
        return float(
            self.header_bytes + self.mlp_bytes + geometry + textures + dense + sparse
        )


#: Default size constants shared by all baking entry points.
DEFAULT_SIZE_CONSTANTS = SizeConstants()


@dataclass
class BakedSubModel:
    """The baked representation of one NeRF network.

    Attributes:
        name: sub-scene / object name this model represents.
        grid: occupancy grid at granularity ``g``.
        faces: extracted boundary quad faces.
        texture: texture patches (materialised atlas or lazy evaluator).
        patch_size: the texture knob ``p``.
        size_constants: byte-cost constants used for size accounting.
    """

    name: str
    grid: VoxelGrid
    faces: QuadFaceSet
    texture: "TextureAtlas | LazyTexture"
    patch_size: int
    size_constants: SizeConstants = field(default=DEFAULT_SIZE_CONSTANTS)

    @property
    def granularity(self) -> int:
        """The mesh-granularity knob ``g`` this model was baked at."""
        return int(self.grid.resolution)

    @property
    def num_faces(self) -> int:
        return self.faces.num_faces

    def size_bytes(self) -> float:
        """Total baked data size in bytes (geometry + textures + grid + decoder)."""
        return self.size_constants.model_bytes(
            num_faces=self.num_faces,
            patch_size=self.patch_size,
            num_occupied_voxels=self.grid.num_occupied,
            grid_resolution=self.grid.resolution,
        )

    def size_mb(self) -> float:
        """Total baked data size in megabytes (1 MB = 2**20 bytes)."""
        return self.size_bytes() / (1024.0 * 1024.0)

    def describe(self) -> dict:
        return {
            "name": self.name,
            "granularity": self.granularity,
            "patch_size": self.patch_size,
            "num_faces": self.num_faces,
            "num_occupied_voxels": self.grid.num_occupied,
            "size_mb": self.size_mb(),
        }


@dataclass
class BakedMultiModel:
    """A collection of baked sub-models forming one deployable scene.

    This is the artefact NeRFlex ships to a mobile device: one baked
    sub-model per sub-scene, rendered jointly by depth compositing.
    """

    submodels: list

    def __post_init__(self) -> None:
        if not self.submodels:
            raise ValueError("BakedMultiModel needs at least one sub-model")

    @property
    def num_submodels(self) -> int:
        return len(self.submodels)

    @property
    def num_faces(self) -> int:
        return int(sum(model.num_faces for model in self.submodels))

    def size_bytes(self) -> float:
        return float(sum(model.size_bytes() for model in self.submodels))

    def size_mb(self) -> float:
        return self.size_bytes() / (1024.0 * 1024.0)

    def by_name(self, name: str) -> BakedSubModel:
        for model in self.submodels:
            if model.name == name:
                return model
        raise KeyError(f"no baked sub-model named {name!r}")

    def describe(self) -> dict:
        return {
            "num_submodels": self.num_submodels,
            "total_size_mb": self.size_mb(),
            "total_faces": self.num_faces,
            "submodels": [model.describe() for model in self.submodels],
        }


def make_radiance_fn(field, normal_epsilon: float = 1e-3):
    """Build a shaded-radiance function for a field.

    The baked textures store the *shaded* surface radiance (albedo lit by the
    fixed scene light), matching what the ground-truth renderer produces, so
    baked-versus-ground-truth SSIM isolates the representation error that the
    configuration knobs control.
    """

    def radiance(points: np.ndarray) -> np.ndarray:
        return field_radiance(field, points, normal_epsilon=normal_epsilon)

    return radiance


def field_cache_identity(field) -> tuple:
    """A hashable identity of the *content* a field voxelises to.

    Geometry caches shared across pipelines key on this in addition to the
    dataset/sub-scene name, so two fields that merely share a name (e.g.
    the same object under a different segmentation threshold or a
    different degradation scale) can never collide: the identity captures
    the placed instance ids of the underlying scene subset and the
    degradation detail scale, the two inputs that determine the SDF.
    """
    base = getattr(field, "base", field)
    placed = getattr(base, "placed", None)
    instance_ids = (
        tuple(int(p.instance_id) for p in placed) if placed is not None else None
    )
    detail_scale = getattr(field, "detail_scale", None)
    return (
        instance_ids,
        None if detail_scale is None else round(float(detail_scale), 12),
    )


def bake_geometry(
    field,
    granularity: int,
    occupancy_threshold: "float | None" = None,
    padding: float = 0.06,
) -> tuple:
    """Voxelise a field and extract its boundary quad faces.

    The geometry of a bake depends only on the granularity knob ``g`` (never
    on the texture knob ``p``), so profilers sweeping many ``(g, p)`` pairs
    can compute it once per ``g`` and hand it to :func:`bake_field` via its
    ``geometry`` argument instead of re-voxelising for every patch size.

    Returns:
        ``(grid, faces)`` — the occupancy grid and its quad faces.
    """
    grid = voxelize_field(
        field,
        resolution=granularity,
        padding=padding,
        occupancy_threshold=(
            occupancy_threshold if occupancy_threshold is not None else 0.0
        ),
    )
    return grid, extract_quad_faces(grid)


def bake_field(
    field,
    granularity: int,
    patch_size: int,
    name: str = "field",
    materialize_textures: bool = False,
    size_constants: SizeConstants = DEFAULT_SIZE_CONSTANTS,
    occupancy_threshold: "float | None" = None,
    padding: float = 0.06,
    geometry: "tuple | None" = None,
) -> BakedSubModel:
    """Bake a field into the mesh + texture representation.

    Args:
        field: any object with ``sdf``, ``albedo`` and bounds (scene, placed
            object, joint sub-scene, or trained/degraded radiance field).
        granularity: the voxel-grid knob ``g``.
        patch_size: the texture knob ``p``.
        name: name recorded on the resulting sub-model.
        materialize_textures: when true the full texture atlas is evaluated
            up front; when false texels are evaluated lazily at render time
            (identical output, used by large parameter sweeps).
        size_constants: byte-cost constants for size accounting.
        occupancy_threshold: voxel occupancy threshold; defaults to a third
            of the voxel size (slightly conservative so thin structures
            survive at coarse granularity).
        padding: fractional padding applied around the field bounds.
        geometry: optional pre-computed ``(grid, faces)`` from
            :func:`bake_geometry` (must match ``granularity``); lets callers
            reuse the voxelisation across texture knobs.
    """
    if geometry is not None:
        grid, faces = geometry
        if grid.resolution != int(granularity):
            raise ValueError(
                f"precomputed geometry at resolution {grid.resolution} does not "
                f"match granularity {granularity}"
            )
    else:
        grid, faces = bake_geometry(
            field,
            granularity,
            occupancy_threshold=occupancy_threshold,
            padding=padding,
        )
    radiance = make_radiance_fn(field)
    if materialize_textures:
        texture: "TextureAtlas | LazyTexture" = bake_texture_atlas(
            radiance, faces, patch_size
        )
    else:
        texture = LazyTexture(patch_size=patch_size, faces=faces, radiance_fn=radiance)
    return BakedSubModel(
        name=name,
        grid=grid,
        faces=faces,
        texture=texture,
        patch_size=int(patch_size),
        size_constants=size_constants,
    )
