"""Corpus-level pipeline benchmark: sequential vs thread-pool scheduling.

Runs a small corpus of independent scenes through
:func:`repro.core.pipeline.run_corpus` twice — once sequentially and once
with whole scenes overlapping on a thread pool — asserts the two produce
bit-identical deployment records, and publishes the wall clocks to the
session's ``BENCH_<suite>.json`` trajectory.

The >= 1.3x speedup acceptance bar only holds where scenes can genuinely
overlap, so it is asserted on hosts with at least four CPU cores (the CI
runner) and recorded — not enforced — elsewhere.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest

from repro.core.config_space import ConfigurationSpace
from repro.core.pipeline import NeRFlexPipeline, PipelineConfig, run_corpus
from repro.device.models import DeviceProfile
from repro.scenes.dataset import generate_dataset
from repro.scenes.objects import make_cube, make_sphere
from repro.scenes.scene import PlacedObject, Scene

CORPUS_DEVICE = DeviceProfile(
    name="CorpusPhone",
    memory_budget_mb=120.0,
    hard_memory_limit_mb=160.0,
    compute_score=6.0,
)

#: Scene specs: (object maker, texture frequency, x offset) per object.
CORPUS_SCENES = {
    "bench-pair": [(make_sphere, 2.0, -0.55), (make_cube, 8.0, 0.55)],
    "bench-solo": [(make_sphere, 4.0, 0.0)],
    "bench-trio": [
        (make_cube, 6.0, -0.8),
        (make_sphere, 3.0, 0.0),
        (make_cube, 9.0, 0.8),
    ],
}

#: Pool worker count: enough to overlap the three scenes, bounded by the
#: host so a small runner is not oversubscribed.
POOL_WORKERS = max(2, min(4, os.cpu_count() or 1))


def corpus_config() -> PipelineConfig:
    """A small, serial-backend pipeline configuration.

    The inner backends stay serial deliberately: the pool's worker threads
    are the only concurrency, so no stage forks while the pool holds
    threads (the fork-while-threaded hazard), and the measured speedup is
    attributable to scene overlap alone.
    """
    return PipelineConfig(
        config_space=ConfigurationSpace(granularities=(8, 12, 16), patch_sizes=(1, 2)),
        profile_resolution=48,
        object_eval_resolution=48,
        num_eval_views=1,
        num_fps_frames=64,
        backend="serial",
    )


def corpus_dataset(name: str):
    placed = [
        PlacedObject(
            obj=maker(frequency=frequency),
            translation=np.array([x, 0.0, 0.0]),
            instance_id=index,
            instance_name=f"obj{index}",
        )
        for index, (maker, frequency, x) in enumerate(CORPUS_SCENES[name])
    ]
    return generate_dataset(
        Scene(placed), num_train=4, num_test=1, resolution=48, name=name
    )


def corpus_jobs() -> list:
    """Fresh ``(pipeline, dataset)`` jobs — one pipeline instance each."""
    return [
        (NeRFlexPipeline(CORPUS_DEVICE, config=corpus_config()), corpus_dataset(name))
        for name in sorted(CORPUS_SCENES)
    ]


def run_record(pipeline_run) -> str:
    """The timing-free JSON record of one run (bit-comparable)."""
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


def test_corpus_dag_matches_sequential_and_overlaps(bench_metrics):
    sequential_jobs = corpus_jobs()
    started = time.perf_counter()
    sequential_runs = run_corpus(sequential_jobs, workers=0)
    sequential_seconds = time.perf_counter() - started

    pool_jobs = corpus_jobs()
    started = time.perf_counter()
    pool_runs = run_corpus(pool_jobs, workers=POOL_WORKERS)
    pool_seconds = time.perf_counter() - started

    # Bit-identity first: overlap is worthless if it changes the outputs.
    sequential_records = [run_record(run) for run in sequential_runs]
    pool_records = [run_record(run) for run in pool_runs]
    assert pool_records == sequential_records

    speedup = sequential_seconds / max(pool_seconds, 1e-9)
    bench_metrics["pipeline"] = {
        "scenes": sorted(CORPUS_SCENES),
        "workers": POOL_WORKERS,
        "cpu_count": os.cpu_count(),
        "sequential_seconds": round(sequential_seconds, 3),
        "pool_seconds": round(pool_seconds, 3),
        "speedup": round(speedup, 3),
    }
    print(
        f"\n[pipeline corpus] sequential {sequential_seconds:.2f}s, "
        f"pool({POOL_WORKERS}) {pool_seconds:.2f}s, speedup {speedup:.2f}x"
    )

    if (os.cpu_count() or 1) >= 4:
        assert speedup >= 1.3, (
            f"thread-pool corpus run only {speedup:.2f}x faster than "
            f"sequential ({pool_seconds:.2f}s vs {sequential_seconds:.2f}s) "
            f"with {POOL_WORKERS} workers on {os.cpu_count()} cores"
        )

