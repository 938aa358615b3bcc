"""The end-to-end NeRFlex pipeline.

``segment -> profile -> select -> bake -> deploy``:

1. the **segmentation** module decides which objects get dedicated NeRFs and
   constructs their enlarged training sets;
2. the **profiler** fits, per sub-scene, white-box models mapping a
   configuration ``(g, p)`` to rendering quality and baked size, by baking
   and scoring a handful of sample configurations;
3. the **selector** (the DP of Algorithm 1 by default) picks one
   configuration per sub-scene under the target device's memory budget;
4. each sub-scene's field is **baked** at its selected configuration;
5. the resulting multi-NeRF bundle is **deployed** to the device simulator,
   which reports data size, rendering quality against ground truth and an
   FPS trace.

The wall-clock split across segmentation / profiler / solver is recorded for
the overhead analysis (Fig. 9).

Independent scenes share nothing, so :func:`run_corpus` overlaps them by
running each scene's whole chain on a thread pool; the parallelism inside
one chain is per object, on the pipeline's execution backend.
"""

from __future__ import annotations

import contextlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro.baking.baked_model import (
    BakedMultiModel,
    DEFAULT_SIZE_CONSTANTS,
    SizeConstants,
    bake_field,
    bake_geometry,
    field_cache_identity,
)
from repro.core.config_space import Configuration, ConfigurationSpace
from repro.core.profiler import ObjectProfile, ProfileFitter, load_solver
from repro.core.segmentation import DetailBasedSegmenter, SegmentationResult, SubScene
from repro.core.selector import NeRFlexDPSelector, SelectionResult
from repro.device.memory import MemoryModel
from repro.device.models import DeviceProfile
from repro.device.render_sim import RenderSimulator
from repro.exec.artifacts import ArtifactStore
from repro.exec.backends import Backend, ProcessBackend, resolve_backend
from repro.metrics import lpips_proxy, psnr, ssim
from repro.metrics.fps import FPSTrace
from repro.nerf.degradation import DegradedField, coverage_detail_scale
from repro.render.engine import (
    RenderEngine,
    _content_identity,
    default_cache,
    default_engine,
)
from repro.scenes.cameras import orbit_cameras
from repro.utils.timing import StageTimer


@dataclass
class PipelineConfig:
    """Tunable parameters of the NeRFlex pipeline.

    Attributes:
        config_space: per-object configuration space searched by the selector.
        profile_resolution: image resolution used for profiler measurements.
        num_profile_views: views rendered per profiler measurement.
        num_eval_views: held-out test views scored at deployment time.
        frequency_threshold: segmentation threshold (``None`` = the paper's
            setting: the lowest maximum frequency among detected objects).
        size_constants: byte-cost constants of the baked representation.
        num_fps_frames: length of the simulated FPS trace.
        materialize_textures: bake full texture atlases (slower, only needed
            when the atlas itself is inspected).
        selector_safety_margin: fraction of the device budget held back from
            the selector to absorb profiler prediction error (the baked data
            must actually load on the device, not just be predicted to).
        object_eval_resolution: resolution of the per-object close-up views
            used for per-object quality scores.
        seed: seed for the degradation noise and the FPS simulation.
        render_chunk_rays: ray-chunk size of the pipeline's render engine
            (bounds peak memory of the sample-heavy render paths).
        render_workers: worker count of the execution backend (independent
            ray chunks / profiler measurements / bakes run concurrently;
            output is bit-identical for any count).  ``None`` (the default)
            means the backend's own default — 1 for serial/thread, the host
            CPU count for the process pool; an explicit count is always
            honoured, so ``render_workers=1`` bounds even a process backend
            to one worker.
        backend: execution-backend name (``"serial"`` / ``"thread"`` /
            ``"process"``); ``None`` consults the ``REPRO_BACKEND``
            environment variable and defaults to the behaviour-preserving
            thread backend.  Every backend shards stage work the same way
            (objects for profile, sub-models for bake geometry, ray chunks
            for deploy) and produces bit-identical pipeline output.
        kernel: hot-loop kernel backend of the render engine (``"numpy"`` /
            ``"loops"`` / ``"numba"`` / ``"auto"``); ``None`` consults
            ``REPRO_KERNEL`` (default ``auto`` — compiled when numba is
            installed, numpy otherwise).  Marching and sphere tracing are
            bit-identical across kernels; the volume path is pinned to a
            few ULP (see DESIGN.md "Kernels").
    """

    config_space: ConfigurationSpace = field(default_factory=ConfigurationSpace)
    profile_resolution: int = 160
    num_profile_views: int = 1
    num_eval_views: int = 2
    frequency_threshold: "float | None" = None
    size_constants: SizeConstants = field(default_factory=lambda: DEFAULT_SIZE_CONSTANTS)
    num_fps_frames: int = 2000
    materialize_textures: bool = False
    selector_safety_margin: float = 0.04
    object_eval_resolution: int = 176
    seed: int = 0
    render_chunk_rays: int = 8192
    render_workers: "int | None" = None
    backend: "str | None" = None
    kernel: "str | None" = None


@dataclass
class PreparationResult:
    """Everything produced by the cloud-side preparation stage."""

    segmentation: SegmentationResult
    profiles: list
    selection: SelectionResult
    timers: StageTimer
    fields: dict
    truths: dict
    dataset_name: str = ""

    #: Stage names that constitute the paper's one-shot preparation overhead.
    PREPARATION_STAGES = ("segmentation", "profiler", "solver")

    @property
    def overhead_seconds(self) -> dict:
        """Wall-clock split across segmentation / profiler / solver (Fig. 9).

        Restricted to the paper's preparation stages even after ``bake`` /
        ``deploy`` have added their own stages to the shared timers.
        """
        stages = self.timers.as_dict()
        return {name: stages[name] for name in self.PREPARATION_STAGES if name in stages}

    @property
    def stage_seconds(self) -> dict:
        """Wall-clock of every recorded stage, bake and deploy included."""
        return self.timers.as_dict()


@dataclass
class DeploymentReport:
    """Evaluation of one deployment (method x scene x device).

    Quality metrics are computed against the ground-truth test renders of the
    full scene; ``per_object_ssim`` restricts SSIM to each object's pixels.
    """

    method: str
    device_name: str
    size_mb: float
    per_object_size_mb: dict
    loaded: bool
    ssim: float
    psnr: float
    lpips: float
    per_object_ssim: dict
    fps_trace: FPSTrace
    num_submodels: int = 1
    selection: "SelectionResult | None" = None
    overhead_seconds: dict = field(default_factory=dict)
    backend_name: str = ""
    stage_seconds: dict = field(default_factory=dict)
    worker_seconds: dict = field(default_factory=dict)
    #: Snapshot of the pipeline's artifact-store statistics at deploy time
    #: (see :meth:`repro.exec.ArtifactStore.stats_summary`); empty when the
    #: pipeline runs without a store.  ``worker_seconds`` carries both the
    #: pipeline-level stages ("profiler", "bake") and the engine-internal
    #: render channels ("render:profiler", "render:deploy", ...).
    artifact_stats: dict = field(default_factory=dict)

    @property
    def average_fps(self) -> float:
        return self.fps_trace.average

    def describe(self) -> dict:
        return {
            "method": self.method,
            "device": self.device_name,
            "size_mb": round(self.size_mb, 1),
            "loaded": self.loaded,
            "ssim": round(self.ssim, 4),
            "psnr": round(self.psnr, 2),
            "lpips": round(self.lpips, 4),
            "average_fps": round(self.average_fps, 1),
            "per_object_ssim": {k: round(v, 4) for k, v in self.per_object_ssim.items()},
            "per_object_size_mb": {
                k: round(v, 1) for k, v in self.per_object_size_mb.items()
            },
        }


def _bake_geometry_task(task: tuple):
    """Voxelise one field at one granularity: the bake stage's per-sub-model
    task."""
    return bake_geometry(task[1], task[2])


def object_evaluation_cameras(dataset, resolution: int = 128) -> dict:
    """One close-up evaluation camera per object instance.

    Per-object quality (Fig. 8a) is scored from an object-centred viewpoint
    so that the configuration chosen for that object's NeRF actually shows
    up in the measurement (from a far scene-level view every configuration
    above a low floor looks identical).
    """
    cameras = {}
    for placed in dataset.scene.placed:
        extent = float(np.max(placed.bounds_max - placed.bounds_min))
        center = 0.5 * (placed.bounds_min + placed.bounds_max)
        cameras[placed.instance_name] = orbit_cameras(
            center,
            radius=1.25 * extent,
            count=1,
            elevation_deg=28.0,
            width=resolution,
            height=resolution,
        )[0]
    return cameras


def evaluate_baked_deployment(
    multi_model: BakedMultiModel,
    dataset,
    device: DeviceProfile,
    method: str,
    num_eval_views: int = 2,
    num_fps_frames: int = 2000,
    seed: int = 0,
    selection: "SelectionResult | None" = None,
    overhead_seconds: "dict | None" = None,
    object_eval_resolution: int = 176,
    gt_cache: "dict | None" = None,
    engine: "RenderEngine | None" = None,
    backend_name: str = "",
    worker_seconds: "dict | None" = None,
) -> DeploymentReport:
    """Score a baked multi-NeRF bundle on a dataset and device.

    Shared by the NeRFlex pipeline and the Single-NeRF / Block-NeRF
    baselines so every method is evaluated identically.  Scene-level
    quality (SSIM / PSNR / LPIPS) is computed on the dataset's held-out test
    views; per-object quality is computed from object-centred close-up
    views.  Rendering goes through ``engine`` (the shared default engine
    when omitted), whose ``(scene, camera, quality)`` cache dedupes the
    ground-truth close-ups and any re-render of the same baked bundle
    across methods and figures.  ``gt_cache`` (optional legacy dict, shared
    across methods) is still honoured for the ground-truth close-ups.
    """
    engine = engine or default_engine()
    size_mb = multi_model.size_mb()
    per_object_size = {model.name: model.size_mb() for model in multi_model.submodels}

    memory = MemoryModel(device)
    outcome = memory.try_load(size_mb)
    fps_trace = RenderSimulator(device=device, seed=seed).simulate(
        size_mb=size_mb,
        num_submodels=multi_model.num_submodels,
        num_frames=num_fps_frames,
    )

    views = dataset.test_views[: max(num_eval_views, 1)]
    ssim_scores, psnr_scores, lpips_scores = [], [], []
    per_object_ssim: dict = {}
    if outcome.loaded:
        # All test views march in one cross-view ray batch; the baked-model
        # fingerprint in the cache key dedupes identical re-renders (e.g.
        # the detail-region metrics scoring the same bundle later).
        test_cameras = dataset.test_cameras[: len(views)]
        rendered_views = engine.render_baked_views(
            multi_model,
            test_cameras,
            background=dataset.scene.background_color,
            scene_key=dataset.name,
        )
        for view, rendered in zip(views, rendered_views):
            ssim_scores.append(ssim(view.rgb, rendered.rgb))
            psnr_scores.append(psnr(view.rgb, rendered.rgb))
            lpips_scores.append(lpips_proxy(view.rgb, rendered.rgb))

        cache = gt_cache if gt_cache is not None else {}
        cameras = object_evaluation_cameras(dataset, resolution=object_eval_resolution)
        gt_keys = {name: (dataset.name, name, object_eval_resolution) for name in cameras}
        # The close-ups missing from the legacy dict trace as one ray batch.
        missing = [name for name, gt_key in gt_keys.items() if gt_key not in cache]
        if missing:
            references = engine.render_scene_views(
                dataset.scene,
                [cameras[name] for name in missing],
                scene_key=(dataset.name, "scene-gt"),
            )
            cache.update(zip((gt_keys[name] for name in missing), references))
        for placed in dataset.scene.placed:
            name = placed.instance_name
            camera = cameras[name]
            reference = cache[gt_keys[name]]
            # Only sub-models whose grid lies near the object can appear in
            # its close-up view; skipping the rest keeps evaluation cheap.
            target_center = 0.5 * (placed.bounds_min + placed.bounds_max)
            target_extent = float(np.max(placed.bounds_max - placed.bounds_min))
            nearby = []
            for submodel in multi_model.submodels:
                grid_center = 0.5 * (submodel.grid.bounds_min + submodel.grid.bounds_max)
                grid_radius = 0.5 * np.linalg.norm(
                    submodel.grid.bounds_max - submodel.grid.bounds_min
                )
                if np.linalg.norm(grid_center - target_center) <= grid_radius + 2.0 * target_extent:
                    nearby.append(submodel)
            rendered = engine.render_baked(
                BakedMultiModel(nearby) if nearby else multi_model,
                camera,
                background=dataset.scene.background_color,
                scene_key=dataset.name,
            )
            if reference.object_mask(placed.instance_id).sum() < 16:
                continue
            per_object_ssim[name] = float(ssim(reference.rgb, rendered.rgb))
    return DeploymentReport(
        method=method,
        device_name=device.name,
        size_mb=size_mb,
        per_object_size_mb=per_object_size,
        loaded=outcome.loaded,
        ssim=float(np.mean(ssim_scores)) if ssim_scores else 0.0,
        psnr=float(np.mean(psnr_scores)) if psnr_scores else 0.0,
        lpips=float(np.mean(lpips_scores)) if lpips_scores else 1.0,
        per_object_ssim=per_object_ssim,
        fps_trace=fps_trace,
        num_submodels=multi_model.num_submodels,
        selection=selection,
        overhead_seconds=dict(overhead_seconds or {}),
        backend_name=backend_name or (engine.backend.name if engine else ""),
        worker_seconds=dict(worker_seconds or {}),
    )


class NeRFlexPipeline:
    """Orchestrates the full NeRFlex workflow for one target device.

    Args:
        device: the target device profile (its ``memory_budget_mb`` is the
            selector's size limit ``H``).
        config: pipeline parameters.
        selector: configuration selector; defaults to the paper's DP
            (Algorithm 1).  Passing a different selector reproduces the
            Fairness / SLSQP ablations of §IV-C.
        segmenter: detail-based segmenter (a default one is built from the
            config when omitted).
        measurement_cache: optional dict shared between pipelines so that
            profiler measurements and bake geometry (which do not depend on
            the device) are reused across devices and selectors.  Rendered
            views are cached separately by the render engine.
        engine: render engine used for every ground-truth and baked render;
            defaults to one built from the config's chunk/worker knobs that
            shares the process-wide render cache and this pipeline's
            execution backend.
        artifacts: optional :class:`~repro.exec.artifacts.ArtifactStore`.
            When present, the profile stage reuses fitted profile curves and
            the bake stage reuses baked sub-models whose content-addressed
            keys match — across devices, selectors and repeated
            ``prepare()`` calls (the keys carry content fingerprints and
            every preparation knob, never the device).
        backend: execution backend for the pipeline's bulk stages (profiler
            measurements, per-object bake geometry) — an instance, a name,
            or ``None`` to use ``config.backend`` / ``REPRO_BACKEND``.
    """

    def __init__(
        self,
        device: DeviceProfile,
        config: "PipelineConfig | None" = None,
        selector=None,
        segmenter: "DetailBasedSegmenter | None" = None,
        measurement_cache: "dict | None" = None,
        engine: "RenderEngine | None" = None,
        artifacts: "ArtifactStore | None" = None,
        backend: "Backend | str | None" = None,
    ) -> None:
        self.device = device
        self.config = config or PipelineConfig()
        self.selector = selector or NeRFlexDPSelector()
        self.segmenter = segmenter or DetailBasedSegmenter(
            frequency_threshold=self.config.frequency_threshold
        )
        self.measurement_cache = measurement_cache if measurement_cache is not None else {}
        self.artifacts = artifacts
        self.backend = resolve_backend(
            backend if backend is not None else self.config.backend,
            workers=self.config.render_workers,
        )
        self.engine = engine or RenderEngine(
            chunk_rays=self.config.render_chunk_rays,
            workers=self.config.render_workers,
            cache=default_cache(),
            backend=self.backend,
            kernel=self.config.kernel,
        )

    # -- staged preparation ---------------------------------------------------

    def stage_segment(self, dataset) -> SegmentationResult:
        """Stage 1: detail-based segmentation of the dataset's scene."""
        return self.segmenter.segment(dataset)

    def stage_profile(
        self, dataset, segmentation: SegmentationResult, timers: "StageTimer | None" = None
    ) -> tuple:
        """Stage 2: fit (or reuse) per-sub-scene quality/size profiles.

        Returns ``(fields, truths, profiles)``.  Profile curves are looked
        up in the artifact store first — they depend on the scene content
        and the preparation knobs, never on the device, so a store shared
        across pipelines fits each sub-scene exactly once.  Misses fan out
        through the execution backend one whole object per item — the
        paper's unit of decomposition — and worker-side time is attributed
        to the ``"profiler"`` stage on ``timers``.

        Each object's fit fans its sample measurements out through the same
        backend.  Inside a forked worker that nested map runs serially, so
        with several pending objects the parallelism is across objects; a
        lone pending object runs in this process and its measurements fan
        out instead.  Fits are pure per object, so profiles are
        bit-identical on every backend and worker count.
        """
        fields: dict = {}
        truths: dict = {}
        profiles_by_name: dict = {}
        pending: list = []
        for sub_scene in segmentation.sub_scenes:
            truth = dataset.scene.subset(sub_scene.instance_ids)
            field_model = self._build_field(truth, sub_scene)
            fields[sub_scene.name] = field_model
            truths[sub_scene.name] = truth
            artifact_key = self._profile_artifact_key(dataset, sub_scene, field_model)
            profile = self.artifacts.get(artifact_key) if self.artifacts is not None else None
            if profile is None:
                pending.append((sub_scene, truth, field_model, artifact_key))
            else:
                profiles_by_name[sub_scene.name] = profile

        if pending:
            if isinstance(self.backend, ProcessBackend):
                # Forked workers inherit the solver instead of each
                # importing it; in-process fits import it in their first
                # fit, inside the profiler's own time.
                load_solver()
            fitted = self.backend.map(
                self._profile_fit_task(dataset),
                pending,
                timer=timers,
                stage="profiler",
            )
            for (sub_scene, _, _, artifact_key), profile in zip(pending, fitted):
                # Re-apply worker-side memoisation in this process: with the
                # process backend the fits ran in forked workers, whose
                # measurement_cache writes died with them.
                for config, measurement in profile.measurements.items():
                    key = (
                        dataset.name,
                        sub_scene.name,
                        config.granularity,
                        config.patch_size,
                    )
                    self.measurement_cache.setdefault(key, measurement)
                if self.artifacts is not None:
                    self.artifacts.put(artifact_key, profile)
                profiles_by_name[sub_scene.name] = profile

        profiles = [
            profiles_by_name[sub_scene.name] for sub_scene in segmentation.sub_scenes
        ]

        # Detail weights: the selector's objective follows the segmentation
        # module's detail frequencies (normalised to mean 1), so texture
        # budget flows toward the high-frequency region the paper evaluates
        # rather than being spent on low-detail backdrops.  Recomputed on
        # every call (store-reused profiles included): the weights are a
        # deterministic function of the segmentation.
        frequencies = np.array(
            [sub.max_frequency for sub in segmentation.sub_scenes], dtype=np.float64
        )
        mean_frequency = float(frequencies.mean())
        if mean_frequency > 0:
            for profile, sub_scene in zip(profiles, segmentation.sub_scenes):
                profile.detail_weight = float(sub_scene.max_frequency / mean_frequency)
        return fields, truths, profiles

    def stage_select(self, profiles: list) -> SelectionResult:
        """Stage 3: pick one configuration per sub-scene under the budget."""
        selector_budget = self.device.memory_budget_mb * (
            1.0 - self.config.selector_safety_margin
        )
        return self.selector.select(profiles, selector_budget)

    def prepare(self, dataset) -> PreparationResult:
        """Run the segment -> profile -> select stages, timing each."""
        timers = StageTimer()

        with timers.time("segmentation"):
            segmentation = self.stage_segment(dataset)
        # The engine attribution channel ("render:profiler") captures the
        # chunk maps of the ground-truth and measurement renders — work that
        # the pipeline-level "profiler" map cannot see when it happens
        # outside a mapped task (and that an in-process backend would
        # double-count if it shared the "profiler" key).
        with timers.time("profiler"), self.engine.attribute(timers, "render:profiler"):
            fields, truths, profiles = self.stage_profile(dataset, segmentation, timers)
        with timers.time("solver"):
            selection = self.stage_select(profiles)

        return PreparationResult(
            segmentation=segmentation,
            profiles=profiles,
            selection=selection,
            timers=timers,
            fields=fields,
            truths=truths,
            dataset_name=getattr(dataset, "name", ""),
        )

    # -- execution-layer plumbing ---------------------------------------------

    def _profile_fit_task(self, dataset):
        """The profile stage's per-object task over ``dataset``.

        Each task fits one sub-scene's profile end to end (ground-truth
        close-ups, sample bakes, model fits); its measurement map goes
        through this pipeline's backend untimed, since the outer map
        credits the whole fit to the ``"profiler"`` stage.  The closure is
        built per stage call and never stored on the pipeline, so it forms
        no reference cycle that would keep a finished pipeline (and its
        caches) alive until the next garbage collection.
        """
        config_space = self.config.config_space
        pipeline = self

        def fit_task(entry):
            sub_scene, truth, field_model, _ = entry
            measure = pipeline._make_measure_fn(dataset, sub_scene, truth, field_model)
            return ProfileFitter(config_space).fit(
                sub_scene.name, measure, map_fn=pipeline.backend.map
            )

        return fit_task

    def _profile_artifact_key(self, dataset, sub_scene: SubScene, field_model) -> tuple:
        """Content-addressed artifact key of one sub-scene's profile curves."""
        space = self.config.config_space
        return (
            "profile",
            getattr(dataset, "name", ""),
            sub_scene.name,
            _content_identity(field_model),
            tuple(space.granularities),
            tuple(space.patch_sizes),
            self.config.profile_resolution,
            self.config.num_profile_views,
            self.config.seed,
            self.config.size_constants,
        )

    def _baked_artifact_key(self, dataset_name, name, field_model, config) -> tuple:
        """Content-addressed artifact key of one baked sub-model."""
        return (
            "baked",
            dataset_name,
            name,
            _content_identity(field_model),
            config.granularity,
            config.patch_size,
            self.config.materialize_textures,
            self.config.size_constants,
        )

    def _build_field(self, truth, sub_scene: SubScene):
        """The field that the sub-scene's NeRF would learn from its training set."""
        extent = float(np.max(truth.bounds_max - truth.bounds_min))
        detail_scale = coverage_detail_scale(sub_scene.training_pixel_counts, extent)
        return DegradedField(truth, detail_scale, seed=self.config.seed)

    def _profile_cameras(self, truth) -> list:
        """Object-centred measurement viewpoints for the profiler."""
        extent = float(np.max(truth.bounds_max - truth.bounds_min))
        return orbit_cameras(
            truth.center,
            radius=1.25 * extent,
            count=max(self.config.num_profile_views, 1),
            elevation_deg=30.0,
            width=self.config.profile_resolution,
            height=self.config.profile_resolution,
        )

    def _make_measure_fn(self, dataset, sub_scene: SubScene, truth, field_model):
        """Build the profiler's measurement callback for one sub-scene.

        Ground-truth close-ups render once through the engine cache; bake
        geometry is voxelised once per granularity (it never depends on the
        texture knob) and shared across every ``(g, p)`` sample and across
        pipelines through ``measurement_cache``.
        """
        cameras = self._profile_cameras(truth)
        ground_truths = self.engine.render_scene_views(
            truth, cameras, scene_key=(dataset.name, sub_scene.name, "profile-gt")
        )

        def measure(config: Configuration) -> tuple:
            key = (dataset.name, sub_scene.name, config.granularity, config.patch_size)
            if key in self.measurement_cache:
                return self.measurement_cache[key]
            baked = self._bake_one(
                field_model, sub_scene.name, config, dataset_name=dataset.name
            )
            # No scene_key: each profiling sample is rendered exactly once
            # (the measurement tuple is memoised above), so caching these
            # one-shot images would only churn the shared LRU and evict the
            # ground-truth and deployment renders other figures reuse.
            renders = self.engine.render_baked_views(
                BakedMultiModel([baked]),
                cameras,
                background=dataset.scene.background_color,
            )
            scores = [
                ssim(reference.rgb, rendered.rgb)
                for reference, rendered in zip(ground_truths, renders)
            ]
            result = (float(np.mean(scores)), baked.size_mb())
            self.measurement_cache[key] = result
            return result

        return measure

    # -- baking and deployment -------------------------------------------------

    def _geometry_key(
        self, dataset_name: str, name: str, field_model, granularity: int
    ) -> tuple:
        """Measurement-cache key of one field's voxelised geometry."""
        return (
            "geometry",
            dataset_name,
            name,
            field_cache_identity(field_model),
            self.config.seed,
            int(granularity),
        )

    def _bake_one(
        self,
        field_model,
        name: str,
        config: Configuration,
        dataset_name: "str | None" = None,
        geometry: "tuple | None" = None,
    ):
        geometry_key = None
        if dataset_name:
            geometry_key = self._geometry_key(
                dataset_name, name, field_model, config.granularity
            )
            if geometry is None:
                geometry = self.measurement_cache.get(geometry_key)
        baked = bake_field(
            field_model,
            granularity=config.granularity,
            patch_size=config.patch_size,
            name=name,
            materialize_textures=self.config.materialize_textures,
            size_constants=self.config.size_constants,
            geometry=geometry,
        )
        if geometry_key is not None and geometry is None:
            self.measurement_cache[geometry_key] = (baked.grid, baked.faces)
        return baked

    def _bake_with_store(
        self, field_model, name: str, config: Configuration, dataset_name: str
    ):
        """Bake one sub-scene, consulting the artifact store first."""
        if self.artifacts is None:
            return self._bake_one(field_model, name, config, dataset_name=dataset_name)
        artifact_key = self._baked_artifact_key(dataset_name, name, field_model, config)
        return self.artifacts.get_or_create(
            artifact_key,
            lambda: self._bake_one(field_model, name, config, dataset_name=dataset_name),
        )

    def stage_bake(
        self, preparation: PreparationResult, assignments: dict
    ) -> dict:
        """Stage 4 (initial pass): bake every sub-scene at its assignment.

        Store-reused bakes return immediately; the misses voxelise their
        geometry in parallel through the execution backend (geometry is the
        dominant cost of a lazy-texture bake, and — unlike the baked model's
        lazy texture, which closes over the field — its grid/face arrays are
        plain data that pickles cheaply out of forked workers).  Texture
        lookup objects are then assembled in-process.
        """
        dataset_name = preparation.dataset_name
        sub_scenes = preparation.segmentation.sub_scenes
        timers = preparation.timers
        baked: dict = {}
        pending: list = []
        for sub_scene in sub_scenes:
            name = sub_scene.name
            field_model = preparation.fields[name]
            config = assignments[name]
            cached = None
            if self.artifacts is not None:
                cached = self.artifacts.get(
                    self._baked_artifact_key(dataset_name, name, field_model, config)
                )
            if cached is not None:
                baked[name] = cached
            else:
                baked[name] = None
                pending.append((name, field_model, config))

        if pending:
            geometries: dict = {}
            tasks: list = []
            for name, field_model, config in pending:
                geometry_key = self._geometry_key(
                    dataset_name, name, field_model, config.granularity
                )
                geometry = self.measurement_cache.get(geometry_key)
                if geometry is None:
                    tasks.append((geometry_key, field_model, config.granularity))
                else:
                    geometries[geometry_key] = geometry
            if tasks:
                computed = self.backend.map(
                    _bake_geometry_task, tasks, timer=timers, stage="bake"
                )
                for (geometry_key, _, _), geometry in zip(tasks, computed):
                    self.measurement_cache[geometry_key] = geometry
                    geometries[geometry_key] = geometry
            for name, field_model, config in pending:
                geometry_key = self._geometry_key(
                    dataset_name, name, field_model, config.granularity
                )
                model = self._bake_one(
                    field_model,
                    name,
                    config,
                    dataset_name=dataset_name,
                    geometry=geometries[geometry_key],
                )
                if self.artifacts is not None:
                    self.artifacts.put(
                        self._baked_artifact_key(dataset_name, name, field_model, config),
                        model,
                    )
                baked[name] = model
        return baked

    def bake(self, preparation: PreparationResult) -> BakedMultiModel:
        """Bake every sub-scene at its selected configuration.

        The selector optimises over *predicted* sizes; after baking, if the
        actual total still exceeds the device budget (profiler error beyond
        the safety margin), sub-scenes are downgraded greedily — smallest
        predicted quality loss per MB recovered — and re-baked until the
        bundle fits.  The selection recorded in ``preparation`` is updated to
        the configurations that were actually deployed.  Wall-clock is
        recorded as the ``"bake"`` stage on the preparation's timers.
        """
        timers = preparation.timers
        with timers.time("bake"), self.engine.attribute(timers, "render:bake"):
            return self._bake_locked(preparation)

    def _bake_locked(self, preparation: PreparationResult) -> BakedMultiModel:
        assignments = dict(preparation.selection.assignments)
        profiles_by_name = {profile.name: profile for profile in preparation.profiles}
        dataset_name = preparation.dataset_name
        baked = self.stage_bake(preparation, assignments)

        def total_size() -> float:
            return sum(model.size_mb() for model in baked.values())

        for _ in range(32):
            if total_size() <= self.device.memory_budget_mb:
                break
            best_name, best_config, best_rate = None, None, np.inf
            for name, profile in profiles_by_name.items():
                current = assignments[name]
                current_size = baked[name].size_mb()
                current_quality = profile.objective_quality(current)
                for config in profile.config_space:
                    size_gain = profile.predict_size(config) - current_size
                    if size_gain >= -1e-6:
                        continue
                    loss_rate = (current_quality - profile.objective_quality(config)) / (
                        -size_gain
                    )
                    if loss_rate < best_rate:
                        best_name, best_config, best_rate = name, config, loss_rate
            if best_name is None:
                break
            assignments[best_name] = best_config
            baked[best_name] = self._bake_with_store(
                preparation.fields[best_name],
                best_name,
                best_config,
                dataset_name,
            )

        # Record the deployed configurations back onto the selection.
        for name, config in assignments.items():
            preparation.selection.assignments[name] = config
            profile = profiles_by_name[name]
            preparation.selection.predicted_quality[name] = profile.predict_quality(config)
            preparation.selection.predicted_size_mb[name] = profile.predict_size(config)

        ordered = [
            baked[sub_scene.name] for sub_scene in preparation.segmentation.sub_scenes
        ]
        return BakedMultiModel(ordered)

    def deploy(
        self,
        multi_model: BakedMultiModel,
        dataset,
        preparation: "PreparationResult | None" = None,
        method: str = "NeRFlex",
    ) -> DeploymentReport:
        """Evaluate a baked bundle on this pipeline's target device.

        When a ``preparation`` is supplied, the evaluation wall-clock is
        recorded as its ``"deploy"`` stage and the report carries the full
        stage split (including bake/deploy) plus the backend name and the
        worker-side per-stage seconds.
        """
        timers = preparation.timers if preparation is not None else None
        context = (
            timers.time("deploy") if timers is not None else contextlib.nullcontext()
        )
        attribution = (
            self.engine.attribute(timers, "render:deploy")
            if timers is not None
            else contextlib.nullcontext()
        )
        with context, attribution:
            report = evaluate_baked_deployment(
                multi_model,
                dataset,
                self.device,
                method=method,
                num_eval_views=self.config.num_eval_views,
                num_fps_frames=self.config.num_fps_frames,
                seed=self.config.seed,
                selection=preparation.selection if preparation else None,
                object_eval_resolution=self.config.object_eval_resolution,
                gt_cache=self.measurement_cache,
                engine=self.engine,
                backend_name=self.backend.name,
            )
        if preparation is not None:
            # Explicit copies: the report must stay a frozen snapshot even
            # if the preparation's timers keep accumulating (a later bake or
            # re-deploy against the same preparation must not rewrite an
            # already-returned report's stage split).
            report.overhead_seconds = dict(preparation.overhead_seconds)
            report.stage_seconds = dict(preparation.stage_seconds)
            report.worker_seconds = dict(timers.worker_as_dict())
        if self.artifacts is not None:
            report.artifact_stats = self.artifacts.stats_summary()
        return report

    def run(self, dataset) -> tuple:
        """Full staged pipeline: segment/profile/select, bake, deploy.

        Returns:
            ``(preparation, multi_model, report)``.  Every stage's
            wall-clock lands on ``preparation.timers`` (``segmentation`` /
            ``profiler`` / ``solver`` / ``bake`` / ``deploy``), and the
            report records the split together with the execution backend.
        """
        preparation = self.prepare(dataset)
        multi_model = self.bake(preparation)
        report = self.deploy(multi_model, dataset, preparation)
        return preparation, multi_model, report


def _run_job(pipeline: NeRFlexPipeline, dataset) -> tuple:
    """One corpus job on a pool thread."""
    return pipeline.run(dataset)


def run_corpus(jobs, workers: int = 0) -> list:
    """Run several independent ``(pipeline, dataset)`` jobs, optionally
    overlapping whole scenes on a thread pool.

    Args:
        jobs: ``(pipeline, dataset)`` pairs.  With ``workers > 0`` each job
            must bring its **own** pipeline instance and its own render
            engine: an engine attributes chunk time to one stage at a time
            (instance state), so concurrent scenes sharing one would credit
            each other's ``render:<stage>`` seconds.
        workers: ``0`` runs the jobs as a plain sequential
            ``pipeline.run(dataset)`` loop — the bit-identity reference;
            ``>= 1`` maps every job's ``run`` over a thread pool of that
            many workers.  Scenes share nothing, so each runs whole; the
            heavy numerics release the GIL or fan out through the
            pipeline's own backend.

    Returns:
        One ``(preparation, multi_model, report)`` tuple per job, in job
        order — identical (timings aside) for every ``workers`` value,
        pinned by the golden corpus-parity tier.
    """
    jobs = list(jobs)
    if workers <= 0:
        return [pipeline.run(dataset) for pipeline, dataset in jobs]
    pipelines = [pipeline for pipeline, _ in jobs]
    engines = [pipeline.engine for pipeline in pipelines]
    if any(
        engine is earlier
        for index, engine in enumerate(engines)
        for earlier in engines[:index]
    ):
        # A shared pipeline shares its engine, so this covers both.
        raise ValueError(
            "several corpus jobs share one pipeline or render engine; each "
            "job needs its own (an engine attributes render time to one "
            "running stage at a time)"
        )
    datasets = [dataset for _, dataset in jobs]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_job, pipelines, datasets))
