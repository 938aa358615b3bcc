"""Sharded scene evaluation: the process backend, worker count by worker count.

The paper's per-object decomposition makes every heavy pipeline stage
shardable: profile fits shard by object, bake geometry by sub-model and
deploy ray marching by chunk.  This example runs the same staged pipeline
under the serial reference and then under the process backend with
increasing worker counts, verifying along the way that every run is
**bit-identical** (sharding is a pure scheduling decision, never a
numerical one) and printing the wall-clock stage split and the seconds
spent inside worker tasks.

Run with:  python examples/sharded_evaluation.py
Set REPRO_ARTIFACT_DIR=... to persist profiles and bakes on disk — a
second invocation then loads them instead of recomputing them.
"""

from __future__ import annotations

import json
import os
import time

from repro.core.config_space import ConfigurationSpace
from repro.core.pipeline import NeRFlexPipeline, PipelineConfig
from repro.device.models import IPHONE_13
from repro.exec import ProcessBackend, SerialBackend, create_artifact_store
from repro.scenes.dataset import generate_dataset
from repro.scenes.scene import compose_scene


def build_dataset():
    scene = compose_scene(
        ["hotdog", "torus", "lego"], layout="cluster", spacing=1.1, seed=0
    )
    return generate_dataset(
        scene, num_train=6, num_test=2, resolution=96, name="sharded-quickstart"
    )


def build_config() -> PipelineConfig:
    return PipelineConfig(
        config_space=ConfigurationSpace(
            granularities=(16, 24, 32, 48), patch_sizes=(1, 2, 3)
        ),
        profile_resolution=96,
        object_eval_resolution=96,
    )


def report_record(preparation, multi_model, report) -> str:
    """Timing-free JSON fingerprint of one run, for bit-identity checks."""
    return json.dumps(
        {
            "assignments": {
                name: config.as_tuple()
                for name, config in sorted(preparation.selection.assignments.items())
            },
            "size_mb": multi_model.size_mb(),
            "ssim": report.ssim,
            "psnr": report.psnr,
            "lpips": report.lpips,
            "per_object_ssim": dict(sorted(report.per_object_ssim.items())),
        },
        sort_keys=True,
    )


def run_once(backend, dataset):
    pipeline = NeRFlexPipeline(
        IPHONE_13, build_config(), artifacts=create_artifact_store(), backend=backend
    )
    start = time.perf_counter()
    preparation, multi_model, report = pipeline.run(dataset)
    elapsed = time.perf_counter() - start
    return report_record(preparation, multi_model, report), elapsed, report


def main() -> None:
    dataset = build_dataset()
    print(f"Scene objects: {dataset.scene.instance_names}")
    print(f"Host CPUs: {os.cpu_count()}")

    reference, serial_seconds, _ = run_once(SerialBackend(), dataset)
    print(f"\nserial reference: {serial_seconds:.1f}s")

    for workers in (1, 2, 4):
        backend = ProcessBackend(workers=workers)
        record, elapsed, report = run_once(backend, dataset)
        identical = "bit-identical" if record == reference else "MISMATCH"
        print(
            f"\nprocess({workers}): "
            f"{elapsed:.1f}s  [{identical} vs serial]"
        )
        stage_parts = ", ".join(
            f"{name} {seconds:.1f}s" for name, seconds in report.stage_seconds.items()
        )
        print(f"  stages: {stage_parts}")
        worker_parts = ", ".join(
            f"{name} {seconds:.1f}s"
            for name, seconds in sorted(report.worker_seconds.items())
            if seconds >= 0.05
        )
        if worker_parts:
            print(f"  worker-side: {worker_parts}")


if __name__ == "__main__":
    main()
