"""The unified, batched ray-marching engine.

Historically the library grew independent ray-marching loops — the
ground-truth sphere tracer (:mod:`repro.scenes.raytrace`), a volume
renderer's ray chunking and the baked occupancy-grid marcher
(:mod:`repro.baking.renderer`) — each with its own hand-rolled
``active``-mask bookkeeping, its own chunking and no sharing of rendered
results.  :class:`RenderEngine` subsumes them behind one batched API:

* **cross-view ray batching** — the ``*_views`` methods stack every
  camera's rays into a single ``(N, 3)`` march, so rendering eight views
  costs one marching loop instead of eight;
* **one early-termination compaction** — :meth:`sphere_trace_rays` is the
  single surviving active-set loop; both the scene and the field renderers
  are thin shading passes over it;
* **a persistent render cache** — results are memoised under
  ``(scene, camera, quality)`` keys (see :mod:`repro.render.cache`);
* **chunk-size / backend knobs** — ``chunk_rays`` bounds peak memory of the
  sample-heavy paths, and independent ray chunks are fanned out through a
  pluggable execution backend (:mod:`repro.exec.backends`): serial loop,
  thread pool (the historical ``workers`` knob) or a fork-based process
  pool.  Chunks are pure functions of disjoint ray ranges and results are
  assembled in chunk order, so every backend produces bit-identical images.
  The chunk size itself can move a pixel: when a sphere-tracing chunk's
  active set shrinks to one ray, the SDF gets a one-row query, and a
  one-row matmul (``sdf_capsule``'s ``pa @ ba``) rounds differently from
  the same row in a larger product (see :mod:`repro.utils.blocks`).
  Cross-view batching changes which rays share an active set, so it rests
  on the same exception.

The legacy module-level functions (``render_scene``, ``render_field``,
``render_baked_multi``) remain as thin wrappers over a shared default
engine, so downstream callers keep working unchanged.
"""

from __future__ import annotations

import contextlib

import numpy as np

from repro.exec.backends import Backend, resolve_backend
from repro.render.cache import RenderCache
from repro.render.kernels import get_kernels, resolve_kernel_name
from repro.render.kernels.numpy_ref import stack_grids
from repro.scenes.cameras import Camera, camera_rays
from repro.scenes.raytrace import (
    RenderResult,
    estimate_normals,
    field_radiance,
    shade_lambertian,
)
from repro.utils.blocks import block_ranges

#: Default number of rays marched per chunk in the sample-heavy paths.
DEFAULT_CHUNK_RAYS = 8192


def baked_fingerprint(multi) -> tuple:
    """A hashable fingerprint of a baked multi-model's content and knobs.

    Geometry counts alone cannot distinguish two bakes of *different*
    fields that happen to voxelise identically (e.g. degraded versus clean
    albedo at a coarse granularity), so each sub-model also contributes a
    small deterministic texture probe: the sampled colour of a few spread
    faces.  Two models that agree on name, configuration, geometry and the
    probe render identically for caching purposes.
    """
    parts = []
    for model in multi.submodels:
        num_faces = int(model.num_faces)
        if num_faces:
            probe_faces = np.unique(
                np.array([0, num_faces // 3, (2 * num_faces) // 3, num_faces - 1])
            )
            centers = np.full(probe_faces.size, 0.5)
            probe = tuple(
                round(float(v), 9)
                for v in model.texture.sample(probe_faces, centers, centers).ravel()
            )
        else:
            probe = ()
        parts.append(
            (
                model.name,
                int(model.granularity),
                int(model.patch_size),
                num_faces,
                int(model.grid.num_occupied),
                probe,
            )
        )
    return tuple(parts)


def _content_identity(content) -> tuple:
    """Best-effort fingerprint of a scene's / field's renderable content.

    Caller-supplied ``scene_key`` names are not guaranteed unique (two
    datasets generated without explicit names both default to ``"scene"``),
    so the cache key also carries what the library can observe about the
    content: the degradation parameters of a wrapped field, and either the
    placed-object configuration of a scene or the raw bounds of an opaque
    field.  Deterministically rebuilt content (e.g. a baseline emulator's
    field) fingerprints identically across instances, so cross-instance
    cache reuse is preserved.  Custom fields with identical identities must
    render identically — that residual contract is documented on
    :mod:`repro.render.cache`.
    """
    parts = []
    detail_scale = getattr(content, "detail_scale", None)
    if detail_scale is not None:
        parts.append(
            (
                "degraded",
                round(float(detail_scale), 12),
                int(getattr(content, "seed", 0)),
                round(float(getattr(content, "floater_rate", 0.0)), 12),
            )
        )
        content = getattr(content, "base", content)
    placed = getattr(content, "placed", None)
    if placed is not None:
        parts.append(
            tuple(
                (
                    p.instance_name,
                    int(p.instance_id),
                    getattr(p.obj, "name", ""),
                    round(float(getattr(p, "texture_frequency", 0.0)), 12),
                    tuple(round(float(v), 12) for v in p.translation),
                    round(float(p.scale), 12),
                )
                for p in placed
            )
        )
    else:
        parts.append(
            (
                tuple(np.round(np.asarray(content.bounds_min, dtype=np.float64), 12)),
                tuple(np.round(np.asarray(content.bounds_max, dtype=np.float64), 12)),
            )
        )
    return tuple(parts)


def _stack_camera_rays(cameras) -> tuple:
    """Stack all cameras' rays into one flat batch.

    Returns ``(origins, directions, slices)`` where ``slices[i]`` recovers
    camera ``i``'s rays from the stacked arrays.
    """
    origins_list = []
    directions_list = []
    slices = []
    offset = 0
    for camera in cameras:
        origins, directions = camera_rays(camera)
        origins_list.append(origins)
        directions_list.append(directions)
        slices.append(slice(offset, offset + origins.shape[0]))
        offset += origins.shape[0]
    return (
        np.concatenate(origins_list, axis=0),
        np.concatenate(directions_list, axis=0),
        slices,
    )


def _default_max_distance(content, camera: Camera) -> float:
    """The legacy per-camera ray-termination distance."""
    bounds_min = np.asarray(content.bounds_min, dtype=np.float64)
    bounds_max = np.asarray(content.bounds_max, dtype=np.float64)
    center = 0.5 * (bounds_min + bounds_max)
    extent = float(np.max(bounds_max - bounds_min))
    return 4.0 * max(extent, 1.0) + float(np.linalg.norm(camera.position - center))


def _bin_centres(near: np.ndarray, far: np.ndarray, num_samples: int) -> np.ndarray:
    """``(R, num_samples)`` distances at the centres of equal bins in ``[near, far]``."""
    bins = np.linspace(0.0, 1.0, num_samples + 1)
    fractions = bins[:-1] + 0.5 * (bins[1:] - bins[:-1])
    return near[:, None] + fractions * (far - near)[:, None]


def _candidate_pairs(origins, directions, lo, hi) -> tuple:
    """The (ray, box) pairs whose clamped slab interval is non-empty.

    ``lo``/``hi`` are ``(G, 3)`` box corners.  Returns ``(box_index,
    ray_index, t_near, t_far)`` of every pair with ``t_far > t_near``, box
    by box and ray by ray within a box, ``t_near`` clamped at ``0``.  The
    slab test runs on per-axis columns with ``1 / directions`` computed once
    for all boxes, and ``np.fmax``/``np.fmin`` chains take the NaN-ignoring
    max/min over the axes (the ``0 * inf`` of a ray lying in a slab plane),
    so the intervals are bit-identical to the row-wise ``nanmax``/``nanmin``
    form.  Boxes are processed one at a time in ``(N,)`` buffers, so each
    pass stays cache-sized and no ``(G, N)`` array is held.
    """
    num_rays = origins.shape[0]
    near, far, t_lo, t_hi, bound = (np.empty(num_rays) for _ in range(5))
    parts = []
    with np.errstate(divide="ignore", invalid="ignore"):
        columns = [np.ascontiguousarray(origins[:, axis]) for axis in range(3)]
        inverses = [1.0 / directions[:, axis] for axis in range(3)]
        for box, (box_lo, box_hi) in enumerate(zip(lo, hi)):
            for axis, (origin, inv) in enumerate(zip(columns, inverses)):
                np.multiply(np.subtract(box_lo[axis], origin, out=t_lo), inv, out=t_lo)
                np.multiply(np.subtract(box_hi[axis], origin, out=t_hi), inv, out=t_hi)
                if axis == 0:
                    np.minimum(t_lo, t_hi, out=near)
                    np.maximum(t_lo, t_hi, out=far)
                else:
                    np.fmax(near, np.minimum(t_lo, t_hi, out=bound), out=near)
                    np.fmin(far, np.maximum(t_lo, t_hi, out=bound), out=far)
            np.maximum(near, 0.0, out=near)
            rays = np.flatnonzero(far > near)
            parts.append((np.full(rays.size, box), rays, near[rays], far[rays]))
    return tuple(np.concatenate(column) for column in zip(*parts))


def _sphere_trace_chunk(
    sdf_fn,
    origins: np.ndarray,
    directions: np.ndarray,
    limits: np.ndarray,
    max_steps: int,
    hit_epsilon: float,
    kernel_name: str = "numpy",
) -> tuple:
    """The active-set sphere-tracing loop over one chunk of rays.

    The per-step bookkeeping (point gathering, hit recording, advancing,
    compaction) dispatches to the kernel layer; the SDF itself stays an
    arbitrary Python callable evaluated between kernel calls.  Both steps
    sit in the exact parity tier, so every kernel backend traces
    bit-identically.
    """
    kernels = get_kernels(kernel_name)
    num_rays = origins.shape[0]
    t_values = np.zeros(num_rays)
    hit = np.zeros(num_rays, dtype=bool)
    alive = np.arange(num_rays, dtype=np.int64)
    origins = np.ascontiguousarray(origins)
    directions = np.ascontiguousarray(directions)
    # ``limits`` may arrive as a stride-0 broadcast view; compiled kernels
    # want a real buffer.
    limits = np.ascontiguousarray(limits, dtype=np.float64)
    for _ in range(max_steps):
        if alive.size == 0:
            break
        points = kernels.gather_ray_points(origins, directions, t_values, alive)
        distances = np.ascontiguousarray(sdf_fn(points), dtype=np.float64)
        alive = kernels.sphere_advance(
            t_values, hit, alive, distances, limits, hit_epsilon
        )
    return t_values, hit


class RenderEngine:
    """Batched, cached renderer for every representation in the library.

    Args:
        chunk_rays: rays marched per chunk in the sample-heavy paths
            (bounds peak memory).  Output does not depend on it except
            where a sphere-tracing chunk narrows to one active ray through
            a capsule, whose one-row matmul rounds differently (see
            :mod:`repro.utils.blocks`).
        workers: worker count handed to the execution backend when one is
            resolved by name; ``None`` (the default) means the backend's own
            default — 1 (today's inline loop) for serial/thread, the host
            CPU count for the process pool — while an explicit count is
            always honoured (``workers=1`` forces even a process backend
            down to one worker).
        cache: optional :class:`RenderCache`; when present, the camera-level
            methods memoise results for callers that supply a ``scene_key``.
        backend: execution backend for independent ray chunks — a
            :class:`repro.exec.backends.Backend` instance, a backend name
            (``"serial"`` / ``"thread"`` / ``"process"``), or ``None`` to
            consult the ``REPRO_BACKEND`` environment variable.  Chunks are
            pure and assembled in order, so every backend renders
            bit-identical images.
        kernel: hot-loop kernel backend for the marching/compositing
            bodies — a name from
            :func:`repro.render.kernels.known_kernel_names` (``"numpy"`` /
            ``"loops"`` / ``"numba"`` / ``"auto"``), or ``None`` to consult
            the ``REPRO_KERNEL`` environment variable (default ``auto``:
            compiled when numba is available, numpy otherwise).  The
            marching and sphere-tracing kernels are pinned bit-identical
            across backends; the volume sdf→density→composite kernels are
            pinned to a few ULP (see DESIGN.md "Kernels").
    """

    def __init__(
        self,
        chunk_rays: int = DEFAULT_CHUNK_RAYS,
        workers: "int | None" = None,
        cache: "RenderCache | None" = None,
        backend: "Backend | str | None" = None,
        kernel: "str | None" = None,
    ) -> None:
        if chunk_rays < 1:
            raise ValueError("chunk_rays must be positive")
        if workers is not None and workers < 1:
            raise ValueError("workers must be positive")
        self.chunk_rays = int(chunk_rays)
        self.cache = cache
        self.backend = resolve_backend(backend, workers=workers)
        # Resolved to a backend *name* (string), never a KernelSet: chunk
        # closures re-resolve it via get_kernels() at execution time, so
        # compiled functions never cross the worker wire.
        self.kernel = resolve_kernel_name(kernel)
        self._stage_timer = None
        self._stage_name = None

    # -- shared machinery ----------------------------------------------------

    @contextlib.contextmanager
    def attribute(self, timer, stage: "str | None"):
        """Attribute engine-internal chunk maps to a stage while active.

        Within the context, every ray-chunk map run by this engine reports
        its worker-side task seconds to ``timer`` (a
        :class:`repro.utils.timing.StageTimer`) under ``stage`` — the
        channel that makes the marching work *inside* a render visible to
        the per-stage overhead accounting, which otherwise only sees
        pipeline-level maps.  Callers use a dedicated stage name (the
        pipeline uses ``"render:<stage>"``) because with an in-process
        backend a render issued from inside another attributed task would
        otherwise be double-counted into that task's stage.  Attribution is
        engine-instance state, not thread-local: attribute and render from
        the same thread.
        """
        previous = (self._stage_timer, self._stage_name)
        self._stage_timer = timer if stage is not None else None
        self._stage_name = stage
        try:
            yield self
        finally:
            self._stage_timer, self._stage_name = previous

    def _map_chunks(self, process, starts) -> list:
        """Map ``process`` over chunk starts via the execution backend.

        ``process(start)`` must be a pure function of its chunk (no writes
        to shared state — with the process backend they would be lost in the
        worker); results come back in chunk order for deterministic
        assembly.  Worker-side task time lands on the stage configured via
        :meth:`attribute`, when one is active.
        """
        return self.backend.map(
            process, list(starts), timer=self._stage_timer, stage=self._stage_name
        )

    def _cached_views(self, cameras, scene_key, quality_key, render_batch):
        """Memoise per-camera results, rendering the misses in one batch.

        ``render_batch(cameras)`` must return one result per camera.  When
        no cache or no ``scene_key`` is configured, everything is rendered.
        """
        cameras = list(cameras)
        if self.cache is None or scene_key is None:
            return render_batch(cameras)
        keys = [self.cache.make_key(scene_key, camera, quality_key) for camera in cameras]
        results: list = [self.cache.get(key) for key in keys]
        miss_indices = [i for i, value in enumerate(results) if value is None]
        if miss_indices:
            rendered = render_batch([cameras[i] for i in miss_indices])
            for i, result in zip(miss_indices, rendered):
                self.cache.put(keys[i], result)
                results[i] = result
        return results

    # -- the one sphere-tracing loop ----------------------------------------

    def sphere_trace_rays(
        self,
        sdf_fn,
        origins: np.ndarray,
        directions: np.ndarray,
        max_steps: int = 96,
        hit_epsilon: float = 2e-3,
        max_distance: "float | np.ndarray" = np.inf,
    ) -> tuple:
        """March rays against an SDF with early-termination compaction.

        This is the single active-set loop that both the ground-truth scene
        renderer and the field renderer shade on top of.  ``max_distance``
        may be a scalar or a per-ray array (cross-view batches mix cameras
        with different termination distances).

        Returns:
            ``(t_values, hit)`` — per-ray hit distance and hit mask.
        """
        num_rays = origins.shape[0]
        limits = np.broadcast_to(
            np.asarray(max_distance, dtype=np.float64), (num_rays,)
        )
        starts = list(range(0, num_rays, self.chunk_rays))
        kernel_name = self.kernel
        if len(starts) <= 1:
            return _sphere_trace_chunk(
                sdf_fn, origins, directions, limits, max_steps, hit_epsilon,
                kernel_name=kernel_name,
            )

        # Each ray's march is independent, so splitting the batch into
        # chunks and re-concatenating is bit-identical to one global
        # active-set loop — which makes the tracer shardable across the
        # execution backend.
        def process(start):
            stop = min(start + self.chunk_rays, num_rays)
            return _sphere_trace_chunk(
                sdf_fn,
                origins[start:stop],
                directions[start:stop],
                limits[start:stop],
                max_steps,
                hit_epsilon,
                kernel_name=kernel_name,
            )

        parts = self._map_chunks(process, starts)
        return (
            np.concatenate([part[0] for part in parts]),
            np.concatenate([part[1] for part in parts]),
        )

    # -- ground-truth scenes -------------------------------------------------

    def render_scene_rays(
        self,
        scene,
        origins: np.ndarray,
        directions: np.ndarray,
        max_steps: int = 96,
        hit_epsilon: float = 2e-3,
        max_distance: "float | np.ndarray" = np.inf,
        shading: bool = True,
    ) -> dict:
        """Flat-ray sphere tracing of a scene with per-object attribution.

        Returns a dict with flat ``rgb``, ``depth``, ``object_ids`` and
        ``hit`` buffers (one row per input ray).
        """
        num_rays = origins.shape[0]
        t_values, hit = self.sphere_trace_rays(
            scene.sdf,
            origins,
            directions,
            max_steps=max_steps,
            hit_epsilon=hit_epsilon,
            max_distance=max_distance,
        )
        rgb = np.tile(scene.background_color, (num_rays, 1))
        depth = np.full(num_rays, np.inf)
        object_ids = np.full(num_rays, -1, dtype=int)
        if hit.any():
            hit_points = origins[hit] + t_values[hit, None] * directions[hit]
            _, ids = scene.classify(hit_points)
            albedo = scene.albedo(hit_points)
            if shading:
                normals = estimate_normals(scene, hit_points, epsilon=1e-3)
                colors = shade_lambertian(albedo, normals)
            else:
                colors = albedo
            rgb[hit] = colors
            depth[hit] = t_values[hit]
            object_ids[hit] = ids
        return {"rgb": rgb, "depth": depth, "object_ids": object_ids, "hit": hit}

    def render_scene_views(
        self,
        scene,
        cameras,
        max_steps: int = 96,
        hit_epsilon: float = 2e-3,
        max_distance: "float | None" = None,
        shading: bool = True,
        scene_key=None,
    ) -> list:
        """Render several views of a scene in one cross-view ray batch."""
        quality_key = (
            "scene",
            _content_identity(scene) if scene_key is not None else None,
            tuple(np.asarray(scene.background_color, dtype=np.float64).tolist()),
            max_steps,
            hit_epsilon,
            max_distance,
            shading,
        )

        def render_batch(batch_cameras):
            if not batch_cameras:
                return []
            origins, directions, slices = _stack_camera_rays(batch_cameras)
            limits = np.empty(origins.shape[0])
            for camera, view_slice in zip(batch_cameras, slices):
                limits[view_slice] = (
                    max_distance
                    if max_distance is not None
                    else _default_max_distance(scene, camera)
                )
            buffers = self.render_scene_rays(
                scene,
                origins,
                directions,
                max_steps=max_steps,
                hit_epsilon=hit_epsilon,
                max_distance=limits,
                shading=shading,
            )
            return [
                _assemble_result(buffers, view_slice, camera)
                for camera, view_slice in zip(batch_cameras, slices)
            ]

        return self._cached_views(cameras, scene_key, quality_key, render_batch)

    def render_scene(self, scene, camera: Camera, **kwargs) -> RenderResult:
        """Render one view of a scene (see :meth:`render_scene_views`)."""
        return self.render_scene_views(scene, [camera], **kwargs)[0]

    # -- radiance fields -----------------------------------------------------

    def render_field_rays(
        self,
        field,
        origins: np.ndarray,
        directions: np.ndarray,
        background=(1.0, 1.0, 1.0),
        max_steps: int = 96,
        hit_epsilon: float = 2e-3,
        max_distance: "float | np.ndarray" = np.inf,
    ) -> dict:
        """Flat-ray sphere tracing of a field-protocol object (SDF + albedo)."""
        num_rays = origins.shape[0]
        t_values, hit = self.sphere_trace_rays(
            field.sdf,
            origins,
            directions,
            max_steps=max_steps,
            hit_epsilon=hit_epsilon,
            max_distance=max_distance,
        )
        rgb = np.tile(np.asarray(background, dtype=np.float64), (num_rays, 1))
        depth = np.full(num_rays, np.inf)
        object_ids = np.full(num_rays, -1, dtype=int)
        if hit.any():
            hit_points = origins[hit] + t_values[hit, None] * directions[hit]
            rgb[hit] = field_radiance(field, hit_points)
            depth[hit] = t_values[hit]
            object_ids[hit] = 0
        return {"rgb": rgb, "depth": depth, "object_ids": object_ids, "hit": hit}

    def render_field_views(
        self,
        field,
        cameras,
        background=(1.0, 1.0, 1.0),
        max_steps: int = 96,
        hit_epsilon: float = 2e-3,
        max_distance: "float | None" = None,
        scene_key=None,
    ) -> list:
        """Render several views of a field in one cross-view ray batch."""
        quality_key = (
            "field",
            _content_identity(field) if scene_key is not None else None,
            max_steps,
            hit_epsilon,
            max_distance,
            tuple(np.asarray(background, dtype=np.float64).tolist()),
        )

        def render_batch(batch_cameras):
            if not batch_cameras:
                return []
            origins, directions, slices = _stack_camera_rays(batch_cameras)
            limits = np.empty(origins.shape[0])
            for camera, view_slice in zip(batch_cameras, slices):
                limits[view_slice] = (
                    max_distance
                    if max_distance is not None
                    else _default_max_distance(field, camera)
                )
            buffers = self.render_field_rays(
                field,
                origins,
                directions,
                background=background,
                max_steps=max_steps,
                hit_epsilon=hit_epsilon,
                max_distance=limits,
            )
            return [
                _assemble_result(buffers, view_slice, camera)
                for camera, view_slice in zip(batch_cameras, slices)
            ]

        return self._cached_views(cameras, scene_key, quality_key, render_batch)

    def render_field(self, field, camera: Camera, **kwargs) -> RenderResult:
        """Render one view of a field (see :meth:`render_field_views`)."""
        return self.render_field_views(field, [camera], **kwargs)[0]

    # -- volume rendering ----------------------------------------------------

    def volume_render_views(
        self,
        field,
        cameras,
        num_samples: int = 96,
        background=(1.0, 1.0, 1.0),
        density_scale: float = 160.0,
        scene_key=None,
    ) -> list:
        """Volume-render several views of a field in one chunked ray batch.

        Each ray is sampled at ``num_samples`` bin centres between its near
        and far bounds.  The SDF is converted to density with a logistic
        bump around the surface; per-ray colour is the shaded radiance at
        the expected termination depth, a two-pass scheme that shades one
        point per ray instead of every sample.
        """
        if num_samples < 1:
            raise ValueError("num_samples must be at least 1")
        quality_key = (
            "volume",
            _content_identity(field) if scene_key is not None else None,
            num_samples,
            tuple(np.asarray(background, dtype=np.float64).tolist()),
            density_scale,
        )

        def render_batch(batch_cameras):
            if not batch_cameras:
                return []
            origins, directions, slices = _stack_camera_rays(batch_cameras)
            num_rays = origins.shape[0]
            extent = float(np.max(np.asarray(field.bounds_max) - np.asarray(field.bounds_min)))
            surface_width = extent / max(density_scale, 1e-6)
            center = 0.5 * (np.asarray(field.bounds_min) + np.asarray(field.bounds_max))

            near = np.empty(num_rays)
            far = np.empty(num_rays)
            for camera, view_slice in zip(batch_cameras, slices):
                distance_to_center = np.linalg.norm(camera.position - center)
                near[view_slice] = max(distance_to_center - extent, 1e-3)
                far[view_slice] = distance_to_center + extent

            bg = np.asarray(background, dtype=np.float64)
            rgb = np.tile(bg, (num_rays, 1))
            depth = np.full(num_rays, np.inf)
            alpha = np.zeros(num_rays)

            kernel_name = self.kernel

            def process(start):
                # Pure chunk function: reads the stacked ray buffers, returns
                # this chunk's rows — no writes to shared state, so the chunk
                # can run in a forked worker and ship its rows back pickled.
                # The kernel set is re-resolved by name inside the worker.
                kernels = get_kernels(kernel_name)
                stop = min(start + self.chunk_rays, num_rays)
                count = stop - start
                t_values = _bin_centres(near[start:stop], far[start:stop], num_samples)
                # The SDF is queried in cache-sized blocks of rays, each
                # block's sample points built inside the loop.
                sdf = np.empty((count, num_samples))
                for first, last in block_ranges(count, num_samples):
                    rays = slice(start + first, start + last)
                    points = origins[rays, None, :] + t_values[first:last, :, None] * (
                        directions[rays, None, :]
                    )
                    sdf[first:last] = field.sdf(points.reshape(-1, 3)).reshape(
                        last - first, num_samples
                    )
                densities = kernels.sdf_to_density(sdf, surface_width)
                deltas = np.diff(
                    t_values,
                    axis=1,
                    append=t_values[:, -1:]
                    + (far[start:stop] - near[start:stop])[:, None] / num_samples,
                )
                _, _, _, ray_depth, ray_alpha = kernels.composite_forward(
                    densities,
                    np.zeros((count, num_samples, 3)),
                    np.ascontiguousarray(deltas),
                    np.zeros(3),
                    np.ascontiguousarray(t_values),
                )
                hit_rows = np.flatnonzero(ray_alpha > 0.05)
                if hit_rows.size:
                    surface_points = origins[start:stop][hit_rows] + ray_depth[
                        hit_rows, None
                    ] * (directions[start:stop][hit_rows])
                    radiance = field_radiance(field, surface_points)
                    mix = ray_alpha[hit_rows, None]
                    chunk_rgb = mix * radiance + (1.0 - mix) * bg
                    chunk_depth = ray_depth[hit_rows]
                else:
                    chunk_rgb = np.zeros((0, 3))
                    chunk_depth = np.zeros(0)
                return start, ray_alpha, hit_rows, chunk_rgb, chunk_depth

            chunk_results = self._map_chunks(
                process, range(0, num_rays, self.chunk_rays)
            )
            for start, ray_alpha, hit_rows, chunk_rgb, chunk_depth in chunk_results:
                alpha[start : start + ray_alpha.shape[0]] = ray_alpha
                if hit_rows.size:
                    rgb[start + hit_rows] = chunk_rgb
                    depth[start + hit_rows] = chunk_depth

            hit = alpha > 0.5
            buffers = {
                "rgb": np.clip(rgb, 0.0, 1.0),
                "depth": np.where(hit, depth, np.inf),
                "object_ids": np.where(hit, 0, -1),
                "hit": hit,
            }
            return [
                _assemble_result(buffers, view_slice, camera)
                for camera, view_slice in zip(batch_cameras, slices)
            ]

        return self._cached_views(cameras, scene_key, quality_key, render_batch)

    def volume_render_field(self, field, camera: Camera, **kwargs) -> RenderResult:
        """Volume-render one view of a field (see :meth:`volume_render_views`)."""
        return self.volume_render_views(field, [camera], **kwargs)[0]

    # -- baked models --------------------------------------------------------

    def _march_baked(self, models, origins, directions, step_scale) -> tuple:
        """First-hit occupancy marching of every ray through every grid.

        The (ray, sub-model) candidate pairs — rays whose clamped interval
        through a sub-model's grid is non-empty — are concatenated in
        sub-model order and marched in chunks of ``chunk_rays`` pairs, one
        multi-grid kernel call per chunk.  Returns the hits in pair order
        (sub-model by sub-model) as ``(rays, grids, colors, depths)``, or
        ``None`` when nothing hit.
        """
        grids = [model.grid for model in models]
        pair_grid, pair_ray, pair_near, pair_far = _candidate_pairs(
            origins,
            directions,
            np.array([grid.bounds_min for grid in grids], dtype=np.float64),
            np.array([grid.bounds_max for grid in grids], dtype=np.float64),
        )
        grid_args = stack_grids(
            (
                grid.bounds_min,
                float(grid.voxel_size),
                float(grid.voxel_size) * step_scale,
                grid.skip_distance,
                model.faces.lookup_keys,
            )
            for grid, model in zip(grids, models)
        )
        kernel_name = self.kernel

        def process(start):
            # Pure chunk function (see volume path): returns the chunk's hits
            # instead of writing shared buffers, so it can execute on any
            # backend.  The march itself — skipping march, voxel entry, face
            # lookup — is one kernel call over the chunk's pairs (exact
            # parity tier: every backend returns bit-identical hits);
            # texture sampling stays here with the model objects, one call
            # per sub-model run of hits.
            kernels = get_kernels(kernel_name)
            stop = start + self.chunk_rays
            ray_ids = pair_ray[start:stop]
            grid_ids = pair_grid[start:stop]
            hit_rows, face_indices, u, v, t_entry = kernels.march_occupancy(
                origins[ray_ids],
                directions[ray_ids],
                pair_near[start:stop],
                pair_far[start:stop],
                grid_ids,
                *grid_args,
            )
            if hit_rows.size == 0:
                return None
            hit_grids = grid_ids[hit_rows]
            sampled = np.empty((hit_rows.size, 3))
            runs = np.flatnonzero(np.diff(hit_grids)) + 1
            for run in np.split(np.arange(hit_rows.size), runs):
                sampled[run] = models[hit_grids[run[0]]].texture.sample(
                    face_indices[run], u[run], v[run]
                )
            return ray_ids[hit_rows], hit_grids, sampled, t_entry

        chunk_results = [
            result
            for result in self._map_chunks(
                process, range(0, pair_ray.size, self.chunk_rays)
            )
            if result is not None
        ]
        if not chunk_results:
            return None
        return tuple(np.concatenate(parts) for parts in zip(*chunk_results))

    def render_baked_rays(
        self,
        multi,
        origins: np.ndarray,
        directions: np.ndarray,
        background=(1.0, 1.0, 1.0),
        step_scale: float = 0.5,
    ) -> dict:
        """Flat-ray rendering of a baked multi-model (depth compositing).

        All sub-models are marched together (:meth:`_march_baked`); their
        hits are then depth-composited in sub-model order with a strict
        ``<``, so a depth tie goes to the lowest sub-model index.
        """
        num_rays = origins.shape[0]
        background = np.asarray(background, dtype=np.float64)
        best_colors = np.tile(background, (num_rays, 1))
        best_depths = np.full(num_rays, np.inf)
        best_ids = np.full(num_rays, -1, dtype=int)
        marched = [
            index for index, model in enumerate(multi.submodels)
            if model.faces.num_faces
        ]
        hits = None
        if marched:
            hits = self._march_baked(
                [multi.submodels[index] for index in marched],
                origins, directions, step_scale,
            )
        if hits is not None:
            hit_rays, hit_grids, colors, depths = hits
            bounds = np.searchsorted(hit_grids, np.arange(len(marched) + 1))
            for grid, index in enumerate(marched):
                run = slice(bounds[grid], bounds[grid + 1])
                closer = depths[run] < best_depths[hit_rays[run]]
                rays = hit_rays[run][closer]
                best_colors[rays] = colors[run][closer]
                best_depths[rays] = depths[run][closer]
                best_ids[rays] = index
        return {
            "rgb": best_colors,
            "depth": best_depths,
            "object_ids": best_ids,
            "hit": best_ids >= 0,
        }

    def render_baked_views(
        self,
        multi,
        cameras,
        background=(1.0, 1.0, 1.0),
        step_scale: float = 0.5,
        scene_key=None,
    ) -> list:
        """Render several views of a baked multi-model in one ray batch."""
        multi = _as_multi_model(multi)
        quality_key = (
            "baked",
            baked_fingerprint(multi) if scene_key is not None else None,
            tuple(np.asarray(background, dtype=np.float64).tolist()),
            step_scale,
        )

        def render_batch(batch_cameras):
            if not batch_cameras:
                return []
            origins, directions, slices = _stack_camera_rays(batch_cameras)
            buffers = self.render_baked_rays(
                multi,
                origins,
                directions,
                background=background,
                step_scale=step_scale,
            )
            return [
                _assemble_result(buffers, view_slice, camera)
                for camera, view_slice in zip(batch_cameras, slices)
            ]

        return self._cached_views(cameras, scene_key, quality_key, render_batch)

    def render_baked(self, multi, camera: Camera, **kwargs) -> RenderResult:
        """Render one view of a baked model (see :meth:`render_baked_views`)."""
        return self.render_baked_views(multi, [camera], **kwargs)[0]

    # -- generic dispatch ----------------------------------------------------

    def render_rays(
        self, content, origins: np.ndarray, directions: np.ndarray, **kwargs
    ) -> dict:
        """Render arbitrary rays against any supported representation.

        Dispatches on the content type: baked multi/sub-models use the
        occupancy marcher, scenes (objects with ``classify``) the attributed
        sphere tracer, and everything else the field renderer.  All paths
        return the same flat ``rgb`` / ``depth`` / ``object_ids`` / ``hit``
        buffers.
        """
        origins = np.asarray(origins, dtype=np.float64)
        directions = np.asarray(directions, dtype=np.float64)
        if hasattr(content, "submodels"):
            return self.render_baked_rays(content, origins, directions, **kwargs)
        if hasattr(content, "texture") and hasattr(content, "grid"):
            from repro.baking.baked_model import BakedMultiModel

            return self.render_baked_rays(
                BakedMultiModel([content]), origins, directions, **kwargs
            )
        if hasattr(content, "classify"):
            return self.render_scene_rays(content, origins, directions, **kwargs)
        return self.render_field_rays(content, origins, directions, **kwargs)

    def render_views(self, content, cameras, **kwargs) -> list:
        """Camera-level analogue of :meth:`render_rays` (cross-view batched)."""
        if hasattr(content, "submodels") or (
            hasattr(content, "texture") and hasattr(content, "grid")
        ):
            return self.render_baked_views(content, cameras, **kwargs)
        if hasattr(content, "classify"):
            return self.render_scene_views(content, cameras, **kwargs)
        return self.render_field_views(content, cameras, **kwargs)


def _as_multi_model(multi):
    """Coerce a sub-model or list of sub-models into a multi-model."""
    if hasattr(multi, "submodels"):
        return multi
    from repro.baking.baked_model import BakedMultiModel

    if isinstance(multi, list):
        return BakedMultiModel(multi)
    return BakedMultiModel([multi])


def _assemble_result(buffers: dict, view_slice: slice, camera: Camera) -> RenderResult:
    """Cut one camera's rows out of flat ray buffers and shape them."""
    height, width = camera.height, camera.width
    return RenderResult(
        rgb=buffers["rgb"][view_slice].reshape(height, width, 3),
        depth=buffers["depth"][view_slice].reshape(height, width),
        object_ids=buffers["object_ids"][view_slice].reshape(height, width),
        hit_mask=buffers["hit"][view_slice].reshape(height, width),
    )


#: Lazily constructed engine shared by the legacy module-level wrappers.
_DEFAULT_ENGINE: "RenderEngine | None" = None

#: Bound on the shared default cache (LRU beyond this; a 128x128 result is
#: well under a megabyte, so the default cache stays a few hundred MB).
DEFAULT_CACHE_ENTRIES = 512


def default_engine() -> RenderEngine:
    """The shared engine behind the legacy module-level render functions.

    It carries a process-wide render cache, so every caller that supplies a
    ``scene_key`` — the pipeline, the baselines and the benchmark harness —
    transparently shares rendered ground truth and baked views.
    """
    global _DEFAULT_ENGINE
    if _DEFAULT_ENGINE is None:
        _DEFAULT_ENGINE = RenderEngine(
            cache=RenderCache(max_entries=DEFAULT_CACHE_ENTRIES)
        )
    return _DEFAULT_ENGINE


def default_cache() -> RenderCache:
    """The process-wide render cache carried by :func:`default_engine`."""
    return default_engine().cache


def engine_for_chunk(chunk_rays: int) -> RenderEngine:
    """The engine a legacy wrapper should use for a given chunk size.

    The shared default engine (with its cache) serves the default chunk
    size; a non-default request gets a transient uncached engine so the
    knob is honoured without polluting shared state.
    """
    if chunk_rays == DEFAULT_CHUNK_RAYS:
        return default_engine()
    return RenderEngine(chunk_rays=chunk_rays)
