"""Integration tests: the full NeRFlex pipeline and the baselines on a small scene.

These use a deliberately tiny configuration space and low resolutions so the
whole file runs in well under a minute while still exercising every stage:
segmentation -> profiling -> selection -> baking -> deployment.
"""

import numpy as np
import pytest

from repro.baselines import (
    BlockNeRFBaseline,
    MipNeRF360Emulator,
    NGPEmulator,
    SingleNeRFBaseline,
)
from repro.core.config_space import Configuration, ConfigurationSpace
from repro.core.pipeline import (
    NeRFlexPipeline,
    PipelineConfig,
    evaluate_baked_deployment,
    object_evaluation_cameras,
)
from repro.core.selector_baselines import FairnessSelector
from repro.device.models import DeviceProfile
from repro.metrics import ssim
from repro.render import RenderEngine
from repro.scenes.dataset import generate_dataset
from repro.scenes.library import make_realworld_scene

#: A small "device" whose budget binds for the tiny test scene.
TINY_DEVICE = DeviceProfile(
    name="tiny-device",
    memory_budget_mb=6.0,
    hard_memory_limit_mb=6.0,
    compute_score=1.0,
)

TINY_CONFIG = PipelineConfig(
    config_space=ConfigurationSpace(granularities=(8, 12, 16, 24), patch_sizes=(1, 2)),
    profile_resolution=56,
    num_eval_views=1,
    num_fps_frames=200,
    object_eval_resolution=64,
)


@pytest.fixture(scope="module")
def pipeline_run(small_dataset):
    cache = {}
    pipeline = NeRFlexPipeline(TINY_DEVICE, TINY_CONFIG, measurement_cache=cache)
    preparation, multi_model, report = pipeline.run(small_dataset)
    return pipeline, preparation, multi_model, report


class TestPipeline:
    def test_preparation_produces_profiles_and_selection(self, pipeline_run):
        _, preparation, _, _ = pipeline_run
        assert len(preparation.profiles) == len(preparation.segmentation.sub_scenes)
        assert set(preparation.selection.assignments) == {
            sub.name for sub in preparation.segmentation.sub_scenes
        }

    def test_overhead_split_has_all_three_stages(self, pipeline_run):
        _, preparation, _, _ = pipeline_run
        overhead = preparation.overhead_seconds
        assert set(overhead) == {"segmentation", "profiler", "solver"}
        assert all(value >= 0 for value in overhead.values())

    def test_baked_bundle_fits_device_budget(self, pipeline_run):
        _, _, multi_model, report = pipeline_run
        assert multi_model.size_mb() <= TINY_DEVICE.memory_budget_mb + 1e-6
        assert report.loaded
        assert report.size_mb == pytest.approx(multi_model.size_mb())

    def test_report_quality_is_reasonable(self, pipeline_run):
        _, _, _, report = pipeline_run
        assert report.ssim > 0.75
        assert report.psnr > 14.0
        assert 0.0 <= report.lpips < 0.2
        assert report.average_fps > 10.0
        assert set(report.per_object_ssim) == {"sphere", "cube"}

    def test_selected_configs_come_from_space(self, pipeline_run):
        _, preparation, _, _ = pipeline_run
        for config in preparation.selection.assignments.values():
            assert config in TINY_CONFIG.config_space

    def test_measurement_cache_reused_across_devices(self, pipeline_run, small_dataset):
        pipeline, _, _, _ = pipeline_run
        cache_size = len(pipeline.measurement_cache)
        other_device = DeviceProfile(
            name="bigger", memory_budget_mb=12.0, hard_memory_limit_mb=12.0
        )
        second = NeRFlexPipeline(
            other_device, TINY_CONFIG, measurement_cache=pipeline.measurement_cache
        )
        second.prepare(small_dataset)
        # No new profiling measurements were needed (only cached entries reused).
        measurement_keys = [
            key for key in pipeline.measurement_cache if isinstance(key[-1], int)
        ]
        assert len(pipeline.measurement_cache) >= cache_size
        assert measurement_keys

    def test_fairness_selector_plugs_in(self, small_dataset, pipeline_run):
        pipeline, _, _, dp_report = pipeline_run
        fairness = NeRFlexPipeline(
            TINY_DEVICE,
            TINY_CONFIG,
            selector=FairnessSelector(),
            measurement_cache=pipeline.measurement_cache,
        )
        preparation, multi_model, report = fairness.run(small_dataset)
        assert report.loaded
        # The DP never does worse than Fairness in predicted total quality.
        assert (
            dp_report.selection.total_predicted_quality
            >= preparation.selection.total_predicted_quality - 1e-6
        )

    def test_report_describe_is_serialisable(self, pipeline_run):
        import json

        _, _, _, report = pipeline_run
        payload = json.dumps(report.describe())
        assert "NeRFlex" in payload


class TestBaselines:
    def test_single_nerf_baseline_runs(self, small_dataset):
        baseline = SingleNeRFBaseline(config=Configuration(24, 2))
        report = baseline.run(small_dataset, TINY_DEVICE, num_eval_views=1, num_fps_frames=100)
        assert report.method == SingleNeRFBaseline.method_name
        assert report.size_mb > 0
        assert report.num_submodels == 1

    def test_block_nerf_uses_one_model_per_object(self, small_dataset):
        baseline = BlockNeRFBaseline(config=Configuration(16, 1))
        multi_model = baseline.bake(small_dataset)
        assert multi_model.num_submodels == len(small_dataset.scene.placed)

    def test_block_nerf_bigger_than_single(self, small_dataset):
        config = Configuration(16, 1)
        single = SingleNeRFBaseline(config=config).bake(small_dataset)
        block = BlockNeRFBaseline(config=config).bake(small_dataset)
        assert block.size_mb() > single.size_mb()

    def test_field_emulators_quality_ordering(self, small_dataset):
        """Stronger networks (NGP) resolve more detail than Mip-NeRF 360 on
        the same training coverage."""
        view = small_dataset.test_views[0]
        engine = RenderEngine()

        def field_ssim(emulator):
            rendered = engine.render_field_views(
                emulator.build_field(small_dataset),
                small_dataset.test_cameras[:1],
                background=small_dataset.scene.background_color,
            )[0]
            return ssim(view.rgb, rendered.rgb)

        ngp = field_ssim(NGPEmulator(seed=0))
        mip = field_ssim(MipNeRF360Emulator(seed=0))
        assert ngp >= mip - 1e-3
        assert 0.0 < ngp <= 1.0

    def test_evaluate_deployment_failed_load(self, small_dataset):
        baseline = SingleNeRFBaseline(config=Configuration(48, 4))
        multi_model = baseline.bake(small_dataset)
        report = evaluate_baked_deployment(
            multi_model,
            small_dataset,
            TINY_DEVICE,
            method="oversized",
            num_eval_views=1,
            num_fps_frames=100,
        )
        assert not report.loaded
        assert report.ssim == 0.0
        assert report.fps_trace.failed


#: Loads any bundle: the close-up tests need a deployment that renders.
ROOMY_DEVICE = DeviceProfile(
    name="roomy-device", memory_budget_mb=1e4, hard_memory_limit_mb=1e4
)


@pytest.fixture(scope="module")
def realworld_bundle():
    # The perfbench layout: all five reference objects, the ship among them.
    scene = make_realworld_scene(seed=0, num_objects=5)
    dataset = generate_dataset(
        scene, num_train=2, num_test=1, resolution=32, trajectory="forward", name="close-ups"
    )
    return dataset, SingleNeRFBaseline(config=Configuration(16, 1)).bake(dataset)


def _deploy(bundle, dataset, resolution, gt_cache, engine):
    return evaluate_baked_deployment(
        bundle,
        dataset,
        ROOMY_DEVICE,
        method="close-ups",
        num_eval_views=1,
        num_fps_frames=10,
        object_eval_resolution=resolution,
        gt_cache=gt_cache,
        engine=engine,
    )


class TestBatchedCloseUps:
    """The deployment's ground-truth close-ups trace as one ray batch and
    keep the bits of rendering each close-up camera alone."""

    @pytest.mark.parametrize("resolution", [32, 176])
    def test_matches_one_camera_at_a_time(self, realworld_bundle, resolution):
        # 176 px is 30,976 rays a camera, several 8,192-ray chunks.
        dataset, bundle = realworld_bundle
        cameras = object_evaluation_cameras(dataset, resolution=resolution)
        alone = {
            name: RenderEngine().render_scene(dataset.scene, camera)
            for name, camera in cameras.items()
        }
        gt_cache: dict = {}
        batched = _deploy(bundle, dataset, resolution, gt_cache, RenderEngine())
        for name, single in alone.items():
            reference = gt_cache[(dataset.name, name, resolution)]
            for buffer in ("rgb", "depth", "object_ids", "hit_mask"):
                assert getattr(reference, buffer).tobytes() == getattr(single, buffer).tobytes()
        prefilled = {(dataset.name, name, resolution): alone[name] for name in alone}
        one_by_one = _deploy(bundle, dataset, resolution, prefilled, RenderEngine())
        assert batched.per_object_ssim == one_by_one.per_object_ssim
        assert len(batched.per_object_ssim) >= 2

    def test_prefilled_entries_are_reused(self, realworld_bundle, monkeypatch):
        dataset, bundle = realworld_bundle
        cameras = object_evaluation_cameras(dataset, resolution=32)
        engine = RenderEngine()
        kept_name = dataset.scene.placed[1].instance_name
        kept = engine.render_scene(dataset.scene, cameras[kept_name])
        gt_cache = {(dataset.name, kept_name, 32): kept}
        batches = []
        render = engine.render_scene_views

        def spy(scene, batch, **kwargs):
            batches.append([camera.position.tolist() for camera in batch])
            return render(scene, batch, **kwargs)

        monkeypatch.setattr(engine, "render_scene_views", spy)
        _deploy(bundle, dataset, 32, gt_cache, engine)
        assert batches == [
            [cameras[name].position.tolist() for name in cameras if name != kept_name]
        ]
        assert gt_cache[(dataset.name, kept_name, 32)] is kept
        assert len(gt_cache) == len(cameras)
