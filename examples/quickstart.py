"""Quickstart: run the staged NeRFlex pipeline on a small synthetic scene.

This walks through the paper's workflow end to end on a laptop-sized
workload, stage by stage:

1. build a multi-object scene and render its training/testing views;
2. run the staged preparation — detail-based segmentation, lightweight
   profiling (fanned out through the execution backend) and the DP
   configuration selector for a target mobile device;
3. bake the selected per-object representations;
4. "deploy" the bundle to the device simulator and report data size,
   rendering quality, the simulated frame rate — and the wall-clock split
   of every stage.

Run with:  python examples/quickstart.py
Select an execution backend with REPRO_BACKEND=serial|thread|process
(see examples/sharded_evaluation.py for the process backend in detail).
Set REPRO_ARTIFACT_DIR=... to persist profile curves and baked models on
disk — a second invocation then skips the profile and bake stages entirely
(compare the stage timings of two consecutive runs).
"""

from __future__ import annotations

from repro.core.config_space import ConfigurationSpace
from repro.core.pipeline import NeRFlexPipeline, PipelineConfig
from repro.device.models import IPHONE_13
from repro.exec import create_artifact_store
from repro.scenes.dataset import generate_dataset
from repro.scenes.scene import compose_scene


def main() -> None:
    # 1. A compact three-object scene (mixed geometric complexity).
    scene = compose_scene(["hotdog", "torus", "lego"], layout="cluster", spacing=1.1, seed=0)
    dataset = generate_dataset(scene, num_train=6, num_test=2, resolution=96, name="quickstart")
    print(f"Scene objects: {scene.instance_names}")
    print(f"Training views: {dataset.num_train}, test views: {dataset.num_test}")

    # 2. NeRFlex preparation for the iPhone 13 budget (240 MB).  A reduced
    #    configuration space keeps this example fast.  The backend is
    #    resolved from REPRO_BACKEND (serial / thread / process).
    config = PipelineConfig(
        config_space=ConfigurationSpace(granularities=(16, 24, 32, 48, 64), patch_sizes=(1, 2, 3)),
        profile_resolution=112,
        object_eval_resolution=112,
    )
    artifacts = create_artifact_store()  # disk-backed iff REPRO_ARTIFACT_DIR is set
    pipeline = NeRFlexPipeline(IPHONE_13, config, artifacts=artifacts)
    print(f"Execution backend: {pipeline.backend.describe()}")
    if artifacts.disk is not None:
        print(f"Persistent artifact store: {artifacts.disk.root}")
    preparation = pipeline.prepare(dataset)

    print("\nDetail-based segmentation:")
    for sub_scene in preparation.segmentation.sub_scenes:
        kind = "dedicated NeRF" if sub_scene.dedicated else "joint NeRF"
        print(
            f"  {sub_scene.name:10s} -> {kind}, max detail frequency "
            f"{sub_scene.max_frequency:.3f}, mean enlargement x{sub_scene.mean_enlargement:.1f}"
        )

    print("\nSelected configurations (DP selector, budget 240 MB):")
    for name, cfg in preparation.selection.assignments.items():
        print(
            f"  {name:10s} -> g={cfg.granularity:3d}, p={cfg.patch_size}  "
            f"(predicted {preparation.selection.predicted_size_mb[name]:.1f} MB, "
            f"SSIM {preparation.selection.predicted_quality[name]:.3f})"
        )

    # 3 + 4. Bake and deploy (timed as their own stages on the shared timers).
    multi_model = pipeline.bake(preparation)
    report = pipeline.deploy(multi_model, dataset, preparation)

    print("\nDeployment on", report.device_name)
    print(f"  baked data size : {report.size_mb:.1f} MB ({report.num_submodels} sub-models)")
    print(f"  loaded          : {report.loaded}")
    print(f"  scene SSIM      : {report.ssim:.4f}   PSNR: {report.psnr:.2f} dB   LPIPS: {report.lpips:.4f}")
    print(f"  average FPS     : {report.average_fps:.1f}")
    print("  per-object SSIM :", {k: round(v, 3) for k, v in report.per_object_ssim.items()})

    print(f"\nStage timings ({report.backend_name} backend):")
    for stage, seconds in report.stage_seconds.items():
        worker = report.worker_seconds.get(stage)
        render = report.worker_seconds.get(f"render:{stage}")
        extra = f"  (worker-side {worker:.2f} s)" if worker else ""
        extra += f"  (engine chunks {render:.2f} s)" if render else ""
        print(f"  {stage:12s} {seconds:7.2f} s{extra}")
    print(f"  {'total':12s} {sum(report.stage_seconds.values()):7.2f} s")
    stats = report.artifact_stats
    if stats:
        print(
            f"\nArtifact store: {stats['hits']} hits "
            f"({stats['disk_hits']} from disk), recomputed "
            f"{stats['recompute_by_kind'] or 'nothing'}"
        )


if __name__ == "__main__":
    main()
