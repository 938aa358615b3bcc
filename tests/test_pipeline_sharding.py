"""The profile stage shards whole objects on every backend.

Pins the pipeline's one profile path on the process backend: the staged
pipeline's timing-free record (profile state included) is byte-identical
to the serial reference with 1, 2 and 5 workers; a store-backed run
followed by a warm run recomputes no profile; several pending objects are
profiled in one process map (one object per item); and a lone pending
object is fitted in-process, its sample measurements fanning out instead.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config_space import Configuration
from repro.core.pipeline import NeRFlexPipeline
from repro.exec import (
    ArtifactStore,
    DiskArtifactStore,
    ProcessBackend,
    SerialBackend,
    fork_available,
)
from repro.scenes.dataset import generate_dataset
from repro.scenes.objects import make_sphere
from repro.scenes.scene import PlacedObject, Scene

from tests._golden_driver import (
    GOLDEN_DEVICE,
    golden_config,
    golden_dataset,
    report_record,
)

needs_fork = pytest.mark.skipif(not fork_available(), reason="needs fork")


def _golden_pipeline(backend, artifacts=None) -> NeRFlexPipeline:
    config = golden_config()
    config.backend = None
    return NeRFlexPipeline(GOLDEN_DEVICE, config, backend=backend, artifacts=artifacts)


def _solo_dataset():
    placed = [
        PlacedObject(
            obj=make_sphere(frequency=4.0),
            translation=np.zeros(3),
            instance_id=0,
            instance_name="solo",
        )
    ]
    return generate_dataset(
        Scene(placed), num_train=4, num_test=1, resolution=48, name="solo"
    )


def _spy_maps(backend) -> list:
    """Record the items of every map this process hands the backend.

    Maps nested inside a forked worker append to the worker's copy of the
    list, so only the caller's own maps are recorded."""
    calls = []
    run = backend.map

    def spy(fn, items, **kwargs):
        items = list(items)
        calls.append(items)
        return run(fn, items, **kwargs)

    backend.map = spy
    return calls


def _profile_states(pipeline, dataset) -> list:
    segmentation = pipeline.stage_segment(dataset)
    _, _, profiles = pipeline.stage_profile(dataset, segmentation)
    return [profile.state_tuple() for profile in profiles]


@needs_fork
class TestGoldenRecordParity:
    @pytest.fixture(scope="class")
    def serial_record(self):
        return report_record(_golden_pipeline(SerialBackend()).run(golden_dataset()))

    @pytest.mark.parametrize("workers", [1, 2, 5], ids=lambda w: f"w{w}")
    def test_process_matches_serial_bit_identically(self, serial_record, workers):
        backend = ProcessBackend(workers=workers)
        record = report_record(_golden_pipeline(backend).run(golden_dataset()))
        assert record == serial_record

    def test_warm_store_run_recomputes_no_profile(
        self, serial_record, tmp_path, monkeypatch
    ):
        # Workers never touch the store: the parent writes every fresh fit
        # through to disk, and a second pipeline over the same directory
        # serves every profile from it.
        monkeypatch.delenv("REPRO_ARTIFACT_DIR", raising=False)
        root = str(tmp_path / "store")
        backend = ProcessBackend(workers=2)
        cold = ArtifactStore(disk=DiskArtifactStore(root))
        run = _golden_pipeline(backend, artifacts=cold).run(golden_dataset())
        assert report_record(run) == serial_record
        assert cold.disk.stats.puts > 0

        warm = ArtifactStore(disk=DiskArtifactStore(root))
        run = _golden_pipeline(backend, artifacts=warm).run(golden_dataset())
        assert report_record(run) == serial_record
        assert warm.recompute_by_kind().get("profile", 0) == 0


@needs_fork
class TestProfileSharding:
    def test_several_objects_are_one_daemon_map(self):
        dataset = golden_dataset()
        reference = _profile_states(_golden_pipeline(SerialBackend()), dataset)
        assert len(reference) >= 2

        backend = ProcessBackend(workers=2)
        pipeline = _golden_pipeline(backend)
        segmentation = pipeline.stage_segment(dataset)
        calls = _spy_maps(backend)
        _, _, profiles = pipeline.stage_profile(dataset, segmentation)
        # One map, one sub-scene per item; the measurement maps nested in
        # each fit ran serially inside the workers.
        assert [len(items) for items in calls] == [len(segmentation.sub_scenes)]
        assert [profile.state_tuple() for profile in profiles] == reference

    def test_lone_object_fans_its_measurements_out(self):
        dataset = _solo_dataset()
        reference = _profile_states(_golden_pipeline(SerialBackend()), dataset)
        assert len(reference) == 1

        backend = ProcessBackend(workers=2)
        pipeline = _golden_pipeline(backend)
        segmentation = pipeline.stage_segment(dataset)
        calls = _spy_maps(backend)
        _, _, profiles = pipeline.stage_profile(dataset, segmentation)
        measurement_maps = [
            items
            for items in calls
            if all(isinstance(item, Configuration) for item in items)
        ]
        configs = golden_config().config_space.profiling_configs()
        assert measurement_maps == [list(configs)]
        assert len(configs) > 1
        assert [profile.state_tuple() for profile in profiles] == reference
