"""Ground-truth renderer: sphere tracing against scene SDFs.

This renderer plays the role of the physical capture process in the paper:
it produces the RGB training/test images, depth maps and per-pixel instance
IDs that the segmentation module, the NeRF trainer and the quality metrics
consume.  It is also used as the reference ("ground truth") against which
every baked representation's SSIM/PSNR/LPIPS is computed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.scenes.cameras import Camera
from repro.scenes.scene import Scene
from repro.utils.blocks import block_ranges

#: Default directional light used for Lambertian shading.
_LIGHT_DIRECTION = np.array([0.45, 0.8, 0.35])
_LIGHT_DIRECTION = _LIGHT_DIRECTION / np.linalg.norm(_LIGHT_DIRECTION)
_AMBIENT = 0.35
_DIFFUSE = 0.65


@dataclass
class RenderResult:
    """Output buffers of one rendered view.

    Attributes:
        rgb: ``(H, W, 3)`` image in [0, 1].
        depth: ``(H, W)`` distance from the camera to the first hit
            (``inf`` where the ray missed everything).
        object_ids: ``(H, W)`` instance-ID buffer (``-1`` for background).
        hit_mask: ``(H, W)`` boolean, true where a surface was hit.
    """

    rgb: np.ndarray
    depth: np.ndarray
    object_ids: np.ndarray
    hit_mask: np.ndarray

    @property
    def height(self) -> int:
        return int(self.rgb.shape[0])

    @property
    def width(self) -> int:
        return int(self.rgb.shape[1])

    def object_mask(self, instance_id: int) -> np.ndarray:
        """Boolean mask of the pixels covered by one object instance."""
        return self.object_ids == int(instance_id)


def estimate_normals(field, points: np.ndarray, epsilon: float = 1e-3) -> np.ndarray:
    """Central-difference surface normals of a field's SDF.

    The six offset points of each block of ``block_ranges(n, item_points=6)``
    points go to the field as one ``sdf`` call, ordered ``+x, -x, +y, -y,
    +z, -z``.  Each is ``p + offset`` or ``p - offset`` with the whole
    offset vector, zeros included, as six separate calls would build it,
    so signed zeros come out the same.  A one-point query keeps six calls:
    stacked, its single row would become a six-row product, which NumPy
    rounds differently from a one-row product (see
    :mod:`repro.utils.blocks`).
    """
    points = np.asarray(points, dtype=np.float64)
    offsets = np.zeros((3, 3))
    for axis in range(3):
        offsets[axis, axis] = epsilon
    normals = np.zeros_like(points)
    if len(points) == 1:
        for axis, offset in enumerate(offsets):
            normals[:, axis] = field.sdf(points + offset) - field.sdf(points - offset)
    else:
        for start, stop in block_ranges(len(points), item_points=6):
            block = points[start:stop]
            queries = np.empty((6,) + block.shape)
            for axis, offset in enumerate(offsets):
                np.add(block, offset, out=queries[2 * axis])
                np.subtract(block, offset, out=queries[2 * axis + 1])
            distances = field.sdf(queries.reshape(-1, 3)).reshape(6, -1)
            normals[start:stop] = (distances[0::2] - distances[1::2]).T
    norms = np.linalg.norm(normals, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return normals / norms


def field_radiance(field, points: np.ndarray, normal_epsilon: float = 1e-3) -> np.ndarray:
    """Shaded surface radiance of a field at the given points.

    Combines the field's albedo with Lambertian shading under the fixed
    scene light — the same shading model the ground-truth renderer uses, so
    representations that store radiance (baked textures, volume renderers)
    are directly comparable to ground-truth images.
    """
    normals = estimate_normals(field, points, epsilon=normal_epsilon)
    return shade_lambertian(field.albedo(points), normals)


def shade_lambertian(albedo: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """Simple Lambertian shading with a fixed directional light."""
    diffuse = np.clip(normals @ _LIGHT_DIRECTION, 0.0, 1.0)
    return np.clip(albedo * (_AMBIENT + _DIFFUSE * diffuse[:, None]), 0.0, 1.0)


def render_field(
    field,
    camera: Camera,
    background=(1.0, 1.0, 1.0),
    max_steps: int = 96,
    hit_epsilon: float = 2e-3,
    max_distance: "float | None" = None,
) -> RenderResult:
    """Sphere-trace and shade any field-protocol object (SDF + albedo).

    Unlike :func:`render_scene`, this works for fields that are not scenes —
    trained or degraded radiance fields — and therefore cannot attribute
    pixels to object instances (``object_ids`` is 0 where a surface was hit
    and -1 elsewhere).  It is the rendering path of the workstation-class
    baseline emulators (Instant-NGP, Mip-NeRF 360).

    This is a thin wrapper over the shared :class:`~repro.render.RenderEngine`
    (see :mod:`repro.render`); use the engine directly for cross-view
    batching and render caching.
    """
    from repro.render.engine import default_engine

    return default_engine().render_field(
        field,
        camera,
        background=background,
        max_steps=max_steps,
        hit_epsilon=hit_epsilon,
        max_distance=max_distance,
    )


def render_scene(
    scene: Scene,
    camera: Camera,
    max_steps: int = 96,
    hit_epsilon: float = 2e-3,
    max_distance: "float | None" = None,
    shading: bool = True,
) -> RenderResult:
    """Render one view of a scene by sphere tracing its SDF.

    Args:
        scene: the scene to render.
        camera: viewpoint and image resolution.
        max_steps: maximum sphere-tracing iterations per ray.
        hit_epsilon: distance threshold below which a ray is considered to
            have hit a surface.
        max_distance: rays are terminated beyond this distance (defaults to
            four times the scene extent).
        shading: when false, the raw albedo is returned without lighting
            (useful for texture-frequency analysis in isolation).

    This is a thin wrapper over the shared :class:`~repro.render.RenderEngine`
    (see :mod:`repro.render`); use the engine directly for cross-view
    batching and render caching.
    """
    from repro.render.engine import default_engine

    return default_engine().render_scene(
        scene,
        camera,
        max_steps=max_steps,
        hit_epsilon=hit_epsilon,
        max_distance=max_distance,
        shading=shading,
    )
