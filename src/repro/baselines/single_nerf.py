"""Single-NeRF baseline: the whole scene in one mesh-baked NeRF.

This is the paper's "Single" baseline (MobileNeRF at its recommended
configuration): one network is trained on the original training images of
the entire scene and baked as a single mesh + texture bundle.  Because every
training image must contain the whole scene, each object covers only a small
fraction of the pixels, which is exactly the training-coverage degradation
the NeRFlex decomposition avoids.
"""

from __future__ import annotations

import numpy as np

from repro.baking.baked_model import BakedMultiModel, DEFAULT_SIZE_CONSTANTS, bake_field
from repro.core.config_space import Configuration
from repro.core.pipeline import DeploymentReport, evaluate_baked_deployment
from repro.device.models import DeviceProfile
from repro.nerf.degradation import DegradedField, coverage_detail_scale

#: The MobileNeRF-recommended configuration, expressed in this library's
#: configuration space (the paper's ``(g, p) = (128, 17)``; the patch size is
#: scaled with the renderer resolution as discussed in EXPERIMENTS.md).
RECOMMENDED_SINGLE_CONFIG = Configuration(granularity=128, patch_size=6)


class SingleNeRFBaseline:
    """Bake and evaluate the single-NeRF (MobileNeRF) representation.

    Args:
        config: baked configuration (defaults to the recommended one).
        network_factor: training-capability multiplier of the degradation
            model (1.0 = MobileNeRF-class network).
        size_constants: byte-cost constants (shared with NeRFlex).
    """

    method_name = "Single-NeRF (MobileNeRF)"

    def __init__(
        self,
        config: Configuration = RECOMMENDED_SINGLE_CONFIG,
        network_factor: float = 1.0,
        size_constants=DEFAULT_SIZE_CONSTANTS,
        seed: int = 0,
    ) -> None:
        self.config = config
        self.network_factor = float(network_factor)
        self.size_constants = size_constants
        self.seed = int(seed)

    def build_field(self, dataset):
        """The field a whole-scene NeRF would learn from the training views."""
        scene = dataset.scene
        counts = [int(view.hit_mask.sum()) for view in dataset.train_views]
        detail_scale = coverage_detail_scale(
            counts, scene.extent, network_factor=self.network_factor
        )
        return DegradedField(scene, detail_scale, seed=self.seed)

    def bake(self, dataset) -> BakedMultiModel:
        """Bake the whole scene at the recommended configuration."""
        field = self.build_field(dataset)
        model = bake_field(
            field,
            granularity=self.config.granularity,
            patch_size=self.config.patch_size,
            name="scene",
            size_constants=self.size_constants,
        )
        return BakedMultiModel([model])

    def run(
        self,
        dataset,
        device: DeviceProfile,
        num_eval_views: int = 2,
        num_fps_frames: int = 2000,
        gt_cache: "dict | None" = None,
        engine=None,
    ) -> DeploymentReport:
        """Bake, deploy and score the single-NeRF representation."""
        multi_model = self.bake(dataset)
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
