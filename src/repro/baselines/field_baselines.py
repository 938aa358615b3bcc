"""Full-scale NeRF quality references: Instant-NGP and Mip-NeRF 360 emulators.

The paper compares against the initial full-scale models used by mobile
distillation pipelines — Instant-NGP and Mip-NeRF 360 (Table I, Fig. 4).
Both are whole-scene networks trained on the original images and rendered on
a workstation; neither is deployable to the mobile renderer, so they serve
purely as quality references.

The emulators build the whole-scene field with the same training-coverage
degradation model as every other method; what distinguishes them is the
``network_factor`` — their stronger representations recover finer detail
from the same views than a MobileNeRF-class network — and the fact that
they render the field directly (no mesh discretisation).  Callers render
:meth:`_FieldEmulator.build_field` through the engine's sphere tracer
(:meth:`repro.render.engine.RenderEngine.render_field_views`) under
:meth:`_FieldEmulator.render_key`.
"""

from __future__ import annotations

from repro.nerf.degradation import DegradedField, coverage_detail_scale


class _FieldEmulator:
    """Shared machinery of the whole-scene field baselines."""

    method_name = "field"
    network_factor = 1.0

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)

    def build_field(self, dataset):
        scene = dataset.scene
        counts = [int(view.hit_mask.sum()) for view in dataset.train_views]
        detail_scale = coverage_detail_scale(
            counts, scene.extent, network_factor=self.network_factor
        )
        return DegradedField(scene, detail_scale, seed=self.seed)

    def render_key(self, dataset) -> tuple:
        """Render-cache scene key of this emulator's field on a dataset.

        ``build_field`` is deterministic given the dataset and the
        emulator's parameters, so every caller re-building the field (e.g.
        the benchmark harness's detail-region scorer) shares renders through
        the engine cache.
        """
        return (
            getattr(dataset, "name", ""),
            "field",
            self.method_name,
            self.seed,
        )


class MipNeRF360Emulator(_FieldEmulator):
    """Mip-NeRF 360: an unbounded-scene NeRF, stronger than MobileNeRF."""

    method_name = "Mip-NeRF 360"
    network_factor = 0.7


class NGPEmulator(_FieldEmulator):
    """Instant-NGP: hash-grid NeRF, the strongest whole-scene reference."""

    method_name = "Instant-NGP"
    network_factor = 0.45
