"""Artifact-store reuse across pipeline configurations.

The staged pipeline keys its expensive artefacts — fitted profile curves and
baked sub-models — by content and preparation knobs, never by device.  The
figure suite therefore fits each sub-scene's profile exactly once per scene,
no matter how many devices and selectors it sweeps.  This benchmark pins
that behaviour with an explicit reuse-count assertion on the session store.
"""

from __future__ import annotations

from benchmarks.conftest import DEVICES, make_pipeline_config
from repro.core.pipeline import NeRFlexPipeline


def test_profiles_reused_across_devices(harness, artifact_store, benchmark):
    """A second device on the same scene reuses every profile curve.

    The first run may already be memoised by an earlier benchmark (the
    harness memoises whole pipeline runs); the second device is therefore
    driven through a *fresh* pipeline sharing only the artifact store, so
    the assertion is independent of test execution order.
    """

    def build():
        _, multi_model, report = harness.nerflex("scene4", "iPhone 13")
        before = artifact_store.stats.reuse_count
        fresh = NeRFlexPipeline(
            DEVICES["Pixel 4"],
            make_pipeline_config(),
            measurement_cache=harness.cache("scene4"),
            artifacts=artifact_store,
        )
        preparation = fresh.prepare(harness.dataset("scene4"))
        return preparation, report, before

    preparation, report, before = benchmark.pedantic(build, rounds=1, iterations=1)

    num_sub_scenes = len(preparation.segmentation.sub_scenes)
    reuse = artifact_store.reuse_by_kind()
    # The Pixel 4 preparation must have served all its profile curves from
    # the store (fitted during the iPhone 13 run) instead of re-measuring.
    assert reuse.get("profile", 0) >= num_sub_scenes
    assert artifact_store.stats.reuse_count - before >= num_sub_scenes
    assert len(artifact_store) >= num_sub_scenes
    assert report.backend_name in {"serial", "thread", "process"}

    print(
        f"\nArtifact store after two devices on scene4: "
        f"{len(artifact_store)} artefacts, "
        f"hits={artifact_store.stats.hits}, misses={artifact_store.stats.misses}, "
        f"reuse by kind={reuse}"
    )


def test_repeated_prepare_hits_store(harness, artifact_store):
    """Re-preparing the same scene/device serves profiles from the store."""
    dataset = harness.dataset("scene4")

    def make_pipeline():
        return NeRFlexPipeline(
            DEVICES["iPhone 13"],
            make_pipeline_config(),
            measurement_cache=harness.cache("scene4"),
            artifacts=artifact_store,
        )

    # First preparation populates the store (a no-op if an earlier benchmark
    # already fitted scene4's profiles into the shared session store).
    make_pipeline().prepare(dataset)
    before = artifact_store.stats.reuse_count
    preparation = make_pipeline().prepare(dataset)
    assert artifact_store.stats.reuse_count - before >= len(
        preparation.segmentation.sub_scenes
    )
    # Reused profiles still drive a valid selection.
    assert set(preparation.selection.assignments) == {
        sub.name for sub in preparation.segmentation.sub_scenes
    }
