"""Block-NeRF baseline: one full-configuration NeRF per object.

The paper's multi-NeRF reference point: every object in the scene is
represented independently by its own mesh-baked NeRF at the recommended
configuration, with no awareness of the device's memory budget.  Quality is
the highest of all methods, but the summed data size far exceeds what mobile
devices can load (Figs. 4-6).
"""

from __future__ import annotations

from repro.baking.baked_model import (
    BakedMultiModel,
    DEFAULT_SIZE_CONSTANTS,
    bake_field,
    bake_geometry,
    field_cache_identity,
)
from repro.baselines.single_nerf import RECOMMENDED_SINGLE_CONFIG
from repro.core.config_space import Configuration
from repro.core.pipeline import DeploymentReport, evaluate_baked_deployment
from repro.core.segmentation import DetailBasedSegmenter
from repro.device.models import DeviceProfile
from repro.exec.backends import resolve_backend
from repro.nerf.degradation import DegradedField, coverage_detail_scale

import numpy as np


class BlockNeRFBaseline:
    """Bake and evaluate the Block-NeRF style per-object representation.

    Each object gets its own dedicated NeRF trained on views of that object
    (the same dedicated training treatment NeRFlex's segmentation provides),
    baked at the fixed recommended configuration regardless of any device
    constraint.
    """

    method_name = "Block-NeRF"

    def __init__(
        self,
        config: Configuration = RECOMMENDED_SINGLE_CONFIG,
        size_constants=DEFAULT_SIZE_CONSTANTS,
        seed: int = 0,
    ) -> None:
        self.config = config
        self.size_constants = size_constants
        self.seed = int(seed)

    def bake(
        self, dataset, geometry_cache: "dict | None" = None, backend=None
    ) -> BakedMultiModel:
        """Bake one sub-model per object at the fixed configuration.

        ``geometry_cache`` (optional) shares voxelised geometry with a
        NeRFlex pipeline's measurement cache: Block-NeRF's per-object fields
        are built exactly like the pipeline's (same segmentation, same
        degradation seed), so a granularity already voxelised during
        profiling is reused instead of re-sampled.  ``backend`` (an
        execution backend, a name, or ``None`` for ``REPRO_BACKEND``) fans
        the remaining per-object voxelisations out in parallel; geometry is
        plain array data, so the fan-out works on every backend.
        """
        backend = resolve_backend(backend)
        segmenter = DetailBasedSegmenter()
        segmentation = segmenter.segment(dataset)
        fields = []
        geometries = []
        pending = []
        for sub_scene in segmentation.sub_scenes:
            truth = dataset.scene.subset(sub_scene.instance_ids)
            extent = float(np.max(truth.bounds_max - truth.bounds_min))
            detail_scale = coverage_detail_scale(
                sub_scene.training_pixel_counts, extent
            )
            field = DegradedField(truth, detail_scale, seed=self.seed)
            geometry_key = (
                "geometry",
                getattr(dataset, "name", ""),
                sub_scene.name,
                field_cache_identity(field),
                self.seed,
                self.config.granularity,
            )
            geometry = (
                geometry_cache.get(geometry_key) if geometry_cache is not None else None
            )
            fields.append(field)
            geometries.append(geometry)
            if geometry is None:
                pending.append((len(fields) - 1, geometry_key, field))
        if pending:
            computed = backend.map(
                lambda task: bake_geometry(task[2], self.config.granularity), pending
            )
            for (index, geometry_key, _), geometry in zip(pending, computed):
                geometries[index] = geometry
                if geometry_cache is not None:
                    geometry_cache[geometry_key] = geometry
        submodels = []
        for sub_scene, field, geometry in zip(
            segmentation.sub_scenes, fields, geometries
        ):
            submodels.append(
                bake_field(
                    field,
                    granularity=self.config.granularity,
                    patch_size=self.config.patch_size,
                    name=sub_scene.name,
                    size_constants=self.size_constants,
                    geometry=geometry,
                )
            )
        return BakedMultiModel(submodels)

    def run(
        self,
        dataset,
        device: DeviceProfile,
        num_eval_views: int = 2,
        num_fps_frames: int = 2000,
        gt_cache: "dict | None" = None,
        engine=None,
        backend=None,
    ) -> DeploymentReport:
        """Bake, deploy and score the Block-NeRF representation."""
        multi_model = self.bake(dataset, geometry_cache=gt_cache, backend=backend)
        return evaluate_baked_deployment(
            multi_model,
            dataset,
            device,
            method=self.method_name,
            num_eval_views=num_eval_views,
            num_fps_frames=num_fps_frames,
            seed=self.seed,
            gt_cache=gt_cache,
            engine=engine,
        )
