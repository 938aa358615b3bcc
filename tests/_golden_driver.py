"""Subprocess driver for the cross-invocation golden test.

Runs the staged NeRFlex pipeline on a small deterministic scene with the
artifact store resolved from ``$REPRO_ARTIFACT_DIR`` and prints a JSON
record of everything the golden tier compares: the selected allocations,
the profile state, the deployment report and the store statistics.  The
parent test (``tests/test_artifact_golden.py``) executes this file twice
against one artifact directory and asserts that the second run recomputes
nothing and reproduces the first run's outputs bit-identically.

Also home of the golden scene, config and :func:`report_record` that the
in-process golden tiers share.  Not a pytest file — the leading underscore
keeps it out of collection.
"""

from __future__ import annotations

import hashlib
import json
import sys

import numpy as np

from repro.core.config_space import ConfigurationSpace
from repro.core.pipeline import NeRFlexPipeline, PipelineConfig
from repro.device.models import DeviceProfile
from repro.exec import create_artifact_store
from repro.scenes.dataset import generate_dataset
from repro.scenes.objects import make_cube, make_sphere
from repro.scenes.scene import PlacedObject, Scene

GOLDEN_DEVICE = DeviceProfile(
    name="GoldenPhone",
    memory_budget_mb=120.0,
    hard_memory_limit_mb=160.0,
    compute_score=6.0,
)


def golden_dataset():
    placed = [
        PlacedObject(
            obj=make_sphere(frequency=2.0),
            translation=np.array([-0.55, 0.0, 0.0]),
            instance_id=0,
            instance_name="sphere",
        ),
        PlacedObject(
            obj=make_cube(frequency=8.0),
            translation=np.array([0.55, 0.0, 0.0]),
            instance_id=1,
            instance_name="cube",
        ),
    ]
    return generate_dataset(
        Scene(placed), num_train=4, num_test=1, resolution=48, name="golden-tiny"
    )


def golden_config() -> PipelineConfig:
    return PipelineConfig(
        config_space=ConfigurationSpace(granularities=(8, 12, 16), patch_sizes=(1, 2)),
        profile_resolution=48,
        object_eval_resolution=48,
        num_eval_views=1,
        num_fps_frames=64,
        backend="serial",
    )


def report_record(pipeline_run) -> str:
    """The timing-free JSON record of one in-process pipeline run.

    ``pipeline_run`` is the ``(preparation, multi_model, report)`` triple
    of :meth:`NeRFlexPipeline.run`; records of two runs compare equal
    exactly when their outputs are bit-identical.
    """
    preparation, multi_model, report = pipeline_run
    record = {
        "assignments": {
            name: config.as_tuple()
            for name, config in sorted(preparation.selection.assignments.items())
        },
        "profile_state": [
            profile.state_tuple() for profile in preparation.profiles
        ],
        "report": {
            "size_mb": multi_model.size_mb(),
            "per_object_size_mb": dict(sorted(report.per_object_size_mb.items())),
            "loaded": report.loaded,
            "ssim": report.ssim,
            "psnr": report.psnr,
            "lpips": report.lpips,
            "per_object_ssim": dict(sorted(report.per_object_ssim.items())),
            "average_fps": report.average_fps,
            "num_submodels": report.num_submodels,
        },
    }
    return json.dumps(record, sort_keys=True, default=list)


def main() -> None:
    store = create_artifact_store()
    pipeline = NeRFlexPipeline(GOLDEN_DEVICE, golden_config(), artifacts=store)
    preparation, multi_model, report = pipeline.run(golden_dataset())

    # Floats serialise via repr (shortest round-trip), so JSON equality is
    # bit equality for every numeric below.
    record = {
        "assignments": {
            name: config.as_tuple()
            for name, config in sorted(preparation.selection.assignments.items())
        },
        "predicted_size_mb": {
            name: value
            for name, value in sorted(preparation.selection.predicted_size_mb.items())
        },
        "predicted_quality": {
            name: value
            for name, value in sorted(preparation.selection.predicted_quality.items())
        },
        "profile_state_sha256": hashlib.sha256(
            repr([profile.state_tuple() for profile in preparation.profiles]).encode()
        ).hexdigest(),
        "report": {
            "size_mb": multi_model.size_mb(),
            "loaded": report.loaded,
            "ssim": report.ssim,
            "psnr": report.psnr,
            "lpips": report.lpips,
            "per_object_ssim": dict(sorted(report.per_object_ssim.items())),
            "average_fps": report.average_fps,
            "num_submodels": report.num_submodels,
        },
        "store": {
            "recompute_by_kind": store.recompute_by_kind(),
            "reuse_by_kind": store.reuse_by_kind(),
            "disk_hits": store.stats.disk_hits,
            "disk_puts": store.disk.stats.puts if store.disk else 0,
        },
    }
    json.dump(record, sys.stdout, sort_keys=True)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
