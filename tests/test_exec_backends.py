"""Tests for the execution layer: backends, parity, artifacts, timing.

The load-bearing property is backend parity: the serial loop is the
reference, and the thread and process backends must produce bit-identical
results for every workload they run — render chunks, profiler measurements,
bake geometry.  The process backend additionally pins its fork-inheritance
contract (closures never pickle; only results do) and its fallbacks.
"""

import os
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.config import env as repro_env
from repro.core.pipeline import NeRFlexPipeline, PipelineConfig
from repro.core.config_space import ConfigurationSpace
from repro.device.models import DeviceProfile
from repro.exec import (
    ArtifactStats,
    ArtifactStore,
    BACKENDS,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    fork_available,
    resolve_backend,
)
from repro.exec.backends import MAX_MAP_RESTARTS
from repro.nerf.degradation import DegradedField
from repro.render import RenderEngine
from repro.scenes.cameras import orbit_cameras
from repro.utils.timing import StageTimer, Timer
from tests._race import SlowTag, run_racing, yielding_counters

ALL_BACKENDS = [
    SerialBackend(),
    ThreadBackend(workers=3),
    ProcessBackend(workers=2),
]


def backend_id(backend):
    return backend.name


# ---------------------------------------------------------------------------
# Backend.map semantics
# ---------------------------------------------------------------------------


class TestBackendMap:
    @pytest.mark.parametrize("backend", ALL_BACKENDS, ids=backend_id)
    def test_map_preserves_order_and_length(self, backend):
        items = list(range(23))
        assert backend.map(lambda x: x * x, items) == [x * x for x in items]

    @pytest.mark.parametrize("backend", ALL_BACKENDS, ids=backend_id)
    def test_map_empty(self, backend):
        assert backend.map(lambda x: x, []) == []

    @pytest.mark.parametrize("backend", ALL_BACKENDS, ids=backend_id)
    def test_map_with_closure_over_arrays(self, backend):
        """Task callables may close over arbitrary unpicklable state."""
        weights = np.arange(10, dtype=np.float64)
        unpicklable = lambda x: float(weights[x] * 2)  # noqa: E731
        assert backend.map(unpicklable, [1, 4, 9]) == [2.0, 8.0, 18.0]

    @pytest.mark.parametrize("backend", ALL_BACKENDS, ids=backend_id)
    def test_worker_time_attributed_to_stage(self, backend):
        timer = StageTimer()
        backend.map(lambda x: sum(range(2000)), list(range(6)), timer=timer, stage="work")
        worker = timer.worker_as_dict()
        assert "work" in worker and worker["work"] > 0.0
        # Worker-side time is kept out of the wall-clock stage totals.
        assert timer.as_dict() == {}

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_process_backend_concurrent_maps_from_threads(self):
        """Two threads mapping at once must each get their own results.

        The process map stashes its task in a module global before
        forking; without the map lock, one thread's executor could inherit
        the other's task.
        """
        backend = ProcessBackend(workers=2)
        results = {}

        def run(tag, offset):
            results[tag] = backend.map(lambda x: x + offset, [1, 2, 3])

        threads = [
            threading.Thread(target=run, args=("a", 100)),
            threading.Thread(target=run, args=("b", 200)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
            assert not thread.is_alive(), "concurrent process maps hung"
        assert results["a"] == [101, 102, 103]
        assert results["b"] == [201, 202, 203]

    def test_serial_and_thread_maps_do_not_load_multiprocessing(self):
        """Only a process map imports :mod:`multiprocessing`."""
        code = (
            "import sys\n"
            "import repro.core.pipeline\n"
            "from repro.exec import SerialBackend, ThreadBackend\n"
            "assert SerialBackend().map(abs, [-1, -2]) == [1, 2]\n"
            "assert ThreadBackend(workers=2).map(abs, [-1, -2]) == [1, 2]\n"
            "print('multiprocessing' in sys.modules)\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        result = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"

    def test_resolve_by_name(self):
        assert resolve_backend("serial").name == "serial"
        assert resolve_backend("thread", workers=5).workers == 5
        assert resolve_backend("process", workers=3).workers == 3
        assert set(BACKENDS) == {"serial", "thread", "process"}

    def test_explicit_single_worker_is_honoured(self):
        # workers=1 is a real request (bounds even the process pool to one
        # worker), distinct from workers=None (the backend's own default).
        assert resolve_backend("process", workers=1).workers == 1
        engine = RenderEngine(workers=1, backend="process")
        assert engine.backend.workers == 1

    def test_resolve_instance_passthrough(self):
        backend = ThreadBackend(workers=2)
        assert resolve_backend(backend) is backend

    def test_resolve_unknown_name_lists_every_valid_backend(self):
        # Regression: the error must name every selectable backend, so a
        # typo in REPRO_BACKEND is self-diagnosing.
        with pytest.raises(
            ValueError, match=r"process, serial, thread"
        ) as excinfo:
            resolve_backend("gpu")
        assert "REPRO_BACKEND" in str(excinfo.value)

    def test_cluster_name_is_rejected(self):
        # The object-sharding cluster backend was folded into the process
        # backend; its old name fails loudly instead of silently resolving.
        with pytest.raises(
            ValueError, match=r"valid backends: process, serial, thread \("
        ):
            resolve_backend("cluster")

    def test_resolve_unknown_env_value_raises_with_names(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "quantum")
        with pytest.raises(ValueError, match="quantum"):
            resolve_backend(None)

    def test_resolve_env_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "serial")
        assert resolve_backend(None).name == "serial"
        monkeypatch.setenv("REPRO_BACKEND", "process")
        assert resolve_backend(None).name == "process"
        monkeypatch.delenv("REPRO_BACKEND")
        assert resolve_backend(None).name == "thread"

    def test_default_thread_backend_is_inline(self):
        # The default resolution must preserve legacy single-worker
        # behaviour: thread backend with one worker.
        backend = resolve_backend(None) if not repro_env.REPRO_BACKEND.is_set() else None
        if backend is not None:
            assert backend.name == "thread" and backend.workers == 1


# ---------------------------------------------------------------------------
# Render parity across backends
# ---------------------------------------------------------------------------


def assert_results_identical(a, b):
    assert np.array_equal(a.rgb, b.rgb)
    assert np.array_equal(a.hit_mask, b.hit_mask)
    assert np.array_equal(a.object_ids, b.object_ids)
    finite = np.isfinite(a.depth)
    assert np.array_equal(finite, np.isfinite(b.depth))
    assert np.array_equal(a.depth[finite], b.depth[finite])


class TestRenderParity:
    """Thread and process backends render bit-identically to serial."""

    @pytest.fixture(scope="class")
    def cameras(self, two_object_scene):
        return orbit_cameras(
            two_object_scene.center,
            radius=1.3 * two_object_scene.extent,
            count=2,
            width=36,
            height=36,
        )

    @pytest.fixture(scope="class")
    def reference_engine(self):
        # Tiny chunks force many shards so the parallel paths really shard.
        return RenderEngine(chunk_rays=193, backend=SerialBackend())

    @pytest.mark.parametrize("backend", ALL_BACKENDS[1:], ids=backend_id)
    def test_scene_parity(self, two_object_scene, cameras, reference_engine, backend):
        engine = RenderEngine(chunk_rays=193, backend=backend)
        for camera in cameras:
            assert_results_identical(
                reference_engine.render_scene(two_object_scene, camera),
                engine.render_scene(two_object_scene, camera),
            )

    @pytest.mark.parametrize("backend", ALL_BACKENDS[1:], ids=backend_id)
    def test_field_parity(self, two_object_scene, cameras, reference_engine, backend):
        field = DegradedField(two_object_scene, 0.02, seed=0)
        engine = RenderEngine(chunk_rays=193, backend=backend)
        assert_results_identical(
            reference_engine.render_field(field, cameras[0]),
            engine.render_field(field, cameras[0]),
        )

    @pytest.mark.parametrize("backend", ALL_BACKENDS[1:], ids=backend_id)
    def test_volume_parity(self, two_object_scene, cameras, reference_engine, backend):
        engine = RenderEngine(chunk_rays=193, backend=backend)
        assert_results_identical(
            reference_engine.volume_render_field(
                two_object_scene, cameras[0], num_samples=24
            ),
            engine.volume_render_field(two_object_scene, cameras[0], num_samples=24),
        )

    @pytest.mark.parametrize("backend", ALL_BACKENDS[1:], ids=backend_id)
    def test_baked_parity(self, two_object_scene, cameras, reference_engine, backend):
        from repro.baking.baked_model import BakedMultiModel, bake_field

        baked = BakedMultiModel(
            [
                bake_field(placed, 12, 2, name=placed.instance_name)
                for placed in two_object_scene.placed
            ]
        )
        engine = RenderEngine(chunk_rays=193, backend=backend)
        for camera in cameras:
            assert_results_identical(
                reference_engine.render_baked(baked, camera),
                engine.render_baked(baked, camera),
            )

    def test_engine_accepts_backend_names(self):
        assert RenderEngine(backend="serial").backend.name == "serial"
        assert RenderEngine(backend="process").backend.name == "process"
        # Legacy workers knob still selects a thread fan-out by default.
        engine = RenderEngine(workers=3)
        if not repro_env.REPRO_BACKEND.is_set():
            assert engine.backend.name == "thread"
            assert engine.backend.workers == 3


# ---------------------------------------------------------------------------
# Pipeline parity and artifact reuse
# ---------------------------------------------------------------------------

TINY_DEVICE = DeviceProfile(
    name="TinyPhone", memory_budget_mb=60.0, hard_memory_limit_mb=80.0, compute_score=4.0
)


def tiny_pipeline_config(backend_name):
    return PipelineConfig(
        config_space=ConfigurationSpace(granularities=(8, 12, 16), patch_sizes=(1, 2)),
        profile_resolution=48,
        object_eval_resolution=48,
        num_eval_views=1,
        num_fps_frames=64,
        backend=backend_name,
    )


class TestPipelineBackendParity:
    @pytest.fixture(scope="class")
    def serial_run(self, small_dataset):
        pipeline = NeRFlexPipeline(TINY_DEVICE, tiny_pipeline_config("serial"))
        return pipeline.run(small_dataset)

    @pytest.mark.parametrize("backend_name", ["thread", "process"])
    def test_run_matches_serial(self, small_dataset, serial_run, backend_name):
        config = tiny_pipeline_config(backend_name)
        if backend_name == "thread":
            config.render_workers = 3
        pipeline = NeRFlexPipeline(
            TINY_DEVICE,
            config,
            backend=ProcessBackend(workers=2) if backend_name == "process" else None,
        )
        preparation, multi_model, report = pipeline.run(small_dataset)
        ref_preparation, ref_model, ref_report = serial_run
        assert preparation.selection.assignments == ref_preparation.selection.assignments
        assert multi_model.size_mb() == pytest.approx(ref_model.size_mb(), abs=0.0)
        assert report.ssim == ref_report.ssim
        assert report.psnr == ref_report.psnr
        assert report.backend_name == backend_name

    def test_report_records_stage_and_worker_timings(self, small_dataset, serial_run):
        _, _, report = serial_run
        assert {"segmentation", "profiler", "solver"} == set(report.overhead_seconds)
        assert {"bake", "deploy"} <= set(report.stage_seconds)
        # Profiler measurements ran through the backend, so worker-side time
        # was attributed to the owning stage instead of being dropped.
        assert report.worker_seconds.get("profiler", 0.0) > 0.0


class TestPipelineArtifacts:
    def test_profiles_and_bakes_reused_across_devices(self, small_dataset):
        store = ArtifactStore()
        first = NeRFlexPipeline(
            TINY_DEVICE, tiny_pipeline_config("serial"), artifacts=store
        )
        preparation, _, _ = first.run(small_dataset)
        num_sub_scenes = len(preparation.segmentation.sub_scenes)
        hits_before = store.stats.hits

        bigger = DeviceProfile(
            name="BigPhone",
            memory_budget_mb=300.0,
            hard_memory_limit_mb=400.0,
            compute_score=8.0,
        )
        second = NeRFlexPipeline(
            bigger, tiny_pipeline_config("serial"), artifacts=store
        )
        second.prepare(small_dataset)
        assert store.stats.hits - hits_before >= num_sub_scenes
        assert store.reuse_by_kind().get("profile", 0) >= num_sub_scenes

    def test_repeated_run_reuses_baked_models(self, small_dataset):
        store = ArtifactStore()
        config = tiny_pipeline_config("serial")
        NeRFlexPipeline(TINY_DEVICE, config, artifacts=store).run(small_dataset)
        baked_before = store.reuse_by_kind().get("baked", 0)
        NeRFlexPipeline(TINY_DEVICE, config, artifacts=store).run(small_dataset)
        assert store.reuse_by_kind().get("baked", 0) > baked_before

    def test_store_is_optional(self, small_dataset):
        pipeline = NeRFlexPipeline(TINY_DEVICE, tiny_pipeline_config("serial"))
        assert pipeline.artifacts is None
        preparation = pipeline.prepare(small_dataset)
        assert preparation.profiles


class TestArtifactStore:
    def test_get_put_and_stats(self):
        store = ArtifactStore()
        key = ("profile", "scene", "obj")
        assert store.get(key) is None
        store.put(key, 42)
        assert store.get(key) == 42
        assert store.stats.hits == 1 and store.stats.misses == 1
        assert store.stats.puts == 1
        assert store.stats.reuse_count == 1

    def test_get_or_create_builds_once(self):
        store = ArtifactStore()
        calls = []
        for _ in range(3):
            value = store.get_or_create(("baked", "k"), lambda: calls.append(1) or "model")
        assert value == "model"
        assert len(calls) == 1

    def test_lru_eviction(self):
        store = ArtifactStore(max_entries=2)
        store.put(("a",), 1)
        store.put(("b",), 2)
        store.put(("c",), 3)
        assert len(store) == 2
        assert store.stats.evictions == 1
        assert store.get(("a",)) is None

    def test_invalidate_by_kind(self):
        store = ArtifactStore()
        store.put(("profile", 1), "p")
        store.put(("baked", 1), "b")
        assert store.invalidate("profile") == 1
        assert ("baked", 1) in store
        assert store.invalidate() == 1

    def test_invalid_bound_raises(self):
        with pytest.raises(ValueError):
            ArtifactStore(max_entries=0)

    def test_thread_safety_under_concurrent_mutation(self):
        import threading

        store = ArtifactStore(max_entries=32)
        errors = []

        def hammer(worker):
            try:
                for i in range(200):
                    key = ("k", (worker * 200 + i) % 48)
                    if store.get(key) is None:
                        store.put(key, worker)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(w,)) for w in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(store) <= 32
        assert store.stats.requests == store.stats.hits + store.stats.misses


    def test_concurrent_accounting_is_exact(self):
        """Race-widened gets and puts: the overall and per-kind counters
        match what the threads observed, so a lost update shows."""
        from collections import Counter

        workers, rounds, bound = 4, 120, 8
        stats = yielding_counters(ArtifactStats, "hits", "misses", "puts", "evictions")()
        store = ArtifactStore(max_entries=bound, stats=stats)
        kinds = (SlowTag("profile"), SlowTag("baked"))
        hits = [Counter() for _ in range(workers)]
        misses = [Counter() for _ in range(workers)]
        puts = [0] * workers

        def hammer(worker):
            for i in range(rounds):
                kind = kinds[i % 2]
                key = (kind, worker, i)
                # Only this worker puts its own keys, so each put after a
                # miss inserts a new entry.
                for probe in (key, key, (kind, (worker + 1) % workers, i)):
                    if store.get(probe) is None:
                        misses[worker][kind] += 1
                        if probe is key:
                            store.put(key, i)
                            puts[worker] += 1
                    else:
                        hits[worker][kind] += 1

        assert not run_racing(hammer, workers)
        hit_total, miss_total = sum(hits, Counter()), sum(misses, Counter())
        assert sum(hit_total.values()) + sum(miss_total.values()) == workers * rounds * 3
        assert store.stats.hits == sum(hit_total.values())
        assert store.stats.misses == sum(miss_total.values())
        assert store.reuse_by_kind() == dict(hit_total)
        assert store.recompute_by_kind() == dict(miss_total)
        assert store.stats.puts == sum(puts)
        assert len(store) == bound
        assert store.stats.evictions == sum(puts) - bound


# ---------------------------------------------------------------------------
# Process pool: one fork per map
# ---------------------------------------------------------------------------


def _pooled_pid_task(x):
    """Module-level task whose result names the process that ran it."""
    return (os.getpid(), x * 3)


@pytest.mark.skipif(not fork_available(), reason="needs fork")
class TestPersistentPool:
    """The process pool behind ``ProcessBackend``, forked afresh per map."""

    def test_unpicklable_items_take_one_shot_path(self):
        # Items ride the fork image of the map's own executor, so they need
        # not pickle; only their results come back.
        backend = ProcessBackend(workers=2)
        lock = threading.Lock()
        items = [(lock, value) for value in range(4)]
        assert backend.map(lambda item: item[1] * 2, items) == [0, 2, 4, 6]
        pids = {pid for pid, _ in backend.map(_pooled_pid_task, [5, 6])}
        assert os.getpid() not in pids

    def test_task_exception_type_matches_serial(self):
        # Error handling must not depend on REPRO_BACKEND: a failing task
        # re-raises its original exception type, exactly like the serial
        # and thread backends (the old multiprocessing.Pool's semantics).
        def boom(x):
            if x == 2:
                raise KeyError("missing-key")
            return x

        with pytest.raises(KeyError, match="missing-key") as excinfo:
            ProcessBackend(workers=2).map(boom, [0, 1, 2, 3])
        # The worker's traceback rides along as the cause.
        assert "missing-key" in str(excinfo.value.__cause__)
        assert "Traceback" in str(excinfo.value.__cause__)

    def test_items_execute_concurrently(self):
        """Workers genuinely overlap: 6 x 0.3 s sleeps finish well under 1.8 s.

        Sleeps do not compete for a CPU, so this holds even on a one-core
        host — it pins the scheduler's concurrency, not the host's.
        """
        backend = ProcessBackend(workers=3)
        start = time.perf_counter()
        results = backend.map(lambda x: (time.sleep(0.3), x)[1], list(range(6)))
        elapsed = time.perf_counter() - start
        assert results == list(range(6))
        assert elapsed < 1.4  # serial would be ~1.8 s

    def test_chronically_dying_workers_raise(self):
        def die(x):
            os.kill(os.getpid(), signal.SIGKILL)

        outcome = {}

        def run():
            try:
                ProcessBackend(workers=2).map(die, list(range(6)))
            except BrokenProcessPool as error:
                outcome["error"] = error

        thread = threading.Thread(target=run)
        thread.start()
        thread.join(timeout=60.0)
        assert not thread.is_alive(), "process map hung on chronic worker death"
        assert "kept dying" in str(outcome["error"])
        assert f"{MAX_MAP_RESTARTS + 1} executors" in str(outcome["error"])

    def test_worker_time_attributed_through_pool(self):
        timer = StageTimer()
        ProcessBackend(workers=2).map(
            _pooled_pid_task, list(range(6)), timer=timer, stage="pooled"
        )
        assert timer.worker_as_dict()["pooled"] > 0.0

    def test_repeated_engine_renders_stay_bit_identical(self, two_object_scene):
        """Engine maps through one backend instance: parity across repeats.

        Every render forks its own executors; the images must match the
        serial reference exactly every time.
        """
        cameras = orbit_cameras(
            two_object_scene.center,
            radius=1.3 * two_object_scene.extent,
            count=1,
            width=36,
            height=36,
        )
        reference = RenderEngine(chunk_rays=193, backend=SerialBackend()).render_scene(
            two_object_scene, cameras[0]
        )
        engine = RenderEngine(chunk_rays=193, backend=ProcessBackend(workers=2))
        for _ in range(3):
            assert_results_identical(
                reference, engine.render_scene(two_object_scene, cameras[0])
            )


# ---------------------------------------------------------------------------
# Process backend: the sharded-map contract
# ---------------------------------------------------------------------------
#
# These tests pin what a sharded evaluation relies on: results come back
# ordered and inherit the caller's closures, a one-item map stays in the
# caller, worker-side state dies with the worker, worker seconds land on
# the caller's stage, a failing task surfaces its own exception without
# wedging the backend, and a killed worker's item is re-run on a fresh
# executor.


@pytest.mark.skipif(not fork_available(), reason="needs fork")
class TestProcessBackendMap:
    def test_ordered_results_and_closure_inheritance(self):
        backend = ProcessBackend(workers=3)
        weights = np.arange(64, dtype=np.float64)  # closures never pickle
        items = list(range(64))
        assert backend.map(lambda x: float(weights[x] + x), items) == [
            float(2 * x) for x in items
        ]

    def test_single_item_falls_back_to_serial(self):
        backend = ProcessBackend(workers=4)
        state = {"touched": False}

        def task(x):
            state["touched"] = True
            return x

        assert backend.map(task, [7]) == [7]
        assert state["touched"]  # ran in this process

    def test_side_effects_stay_in_workers(self):
        backend = ProcessBackend(workers=2)
        state = {"count": 0}

        def task(x):
            state["count"] += 1  # dies with the worker
            return x + 1

        assert backend.map(task, [1, 2, 3, 4]) == [2, 3, 4, 5]
        assert state["count"] == 0

    def test_worker_seconds_attributed_to_stage(self):
        backend = ProcessBackend(workers=2)
        timer = StageTimer()
        backend.map(
            lambda x: sum(range(4000)), list(range(8)), timer=timer, stage="shards"
        )
        assert timer.worker_as_dict()["shards"] > 0.0
        assert timer.as_dict() == {}  # wall-clock stays the caller's

    def test_task_exception_propagates(self):
        backend = ProcessBackend(workers=2)

        def boom(x):
            if x == 5:
                raise ValueError("shard task failed")
            return x

        with pytest.raises(ValueError, match="shard task failed"):
            backend.map(boom, list(range(8)))
        # The backend stays usable after a failed map.
        assert backend.map(lambda x: x, [1, 2, 3]) == [1, 2, 3]


@pytest.mark.skipif(not fork_available(), reason="needs fork")
class TestProcessBackendWorkerDeath:
    def test_killed_worker_shard_is_retried(self, tmp_path):
        sentinel = tmp_path / "killed-once"

        def task(x):
            if x == "kill" and not sentinel.exists():
                sentinel.touch()
                os.kill(os.getpid(), signal.SIGKILL)
            return ("ok", x)

        backend = ProcessBackend(workers=2)
        items = [0, 1, "kill", 3, 4, 5, 6, 7]
        outcome = {}

        def run():
            outcome["results"] = backend.map(task, items)

        thread = threading.Thread(target=run)
        thread.start()
        thread.join(timeout=60.0)
        assert not thread.is_alive(), "process map hung after a worker kill"
        assert outcome["results"] == [("ok", item) for item in items]
        assert sentinel.exists()  # a worker really was killed


# ---------------------------------------------------------------------------
# Engine-internal worker attribution
# ---------------------------------------------------------------------------


class TestEngineAttribution:
    def test_chunk_maps_report_worker_seconds(self, two_object_scene):
        camera = orbit_cameras(
            two_object_scene.center,
            radius=1.3 * two_object_scene.extent,
            count=1,
            width=36,
            height=36,
        )[0]
        engine = RenderEngine(chunk_rays=97)  # many chunks, no cache
        timer = StageTimer()
        with engine.attribute(timer, "render:test"):
            engine.render_scene(two_object_scene, camera)
        assert timer.worker_as_dict()["render:test"] > 0.0
        # Outside the context the engine stops attributing.
        engine.render_scene(two_object_scene, camera)
        assert set(timer.worker_as_dict()) == {"render:test"}

    def test_pipeline_reports_engine_render_channels(self, small_dataset):
        pipeline = NeRFlexPipeline(
            TINY_DEVICE,
            tiny_pipeline_config("serial"),
            engine=RenderEngine(chunk_rays=512, backend="serial"),
        )
        _, _, report = pipeline.run(small_dataset)
        assert report.loaded
        # Pipeline-level map attribution and engine-internal attribution
        # are separate channels: the profiler's measure tasks land on
        # "profiler", the deploy-time marching on "render:deploy".
        assert report.worker_seconds.get("profiler", 0.0) > 0.0
        assert report.worker_seconds.get("render:profiler", 0.0) > 0.0
        assert report.worker_seconds.get("render:deploy", 0.0) > 0.0


# ---------------------------------------------------------------------------
# Timing satellites
# ---------------------------------------------------------------------------


class TestTimerReentrancy:
    def test_start_while_running_raises(self):
        timer = Timer().start()
        with pytest.raises(RuntimeError):
            timer.start()
        timer.stop()

    def test_running_property(self):
        timer = Timer()
        assert not timer.running
        timer.start()
        assert timer.running
        timer.stop()
        assert not timer.running


class TestStageTimerWorkers:
    def test_worker_time_separate_from_wall(self):
        timer = StageTimer()
        with timer.time("stage"):
            pass
        timer.add_worker("stage", 1.5)
        timer.add_worker("stage", 0.5)
        assert timer.worker_as_dict()["stage"] == pytest.approx(2.0)
        assert timer.as_dict()["stage"] < 1.0  # wall clock of an empty block

    def test_merge_folds_both_accountings(self):
        a = StageTimer()
        a.add("x", 1.0)
        a.add_worker("x", 2.0)
        b = StageTimer()
        b.add("x", 0.5)
        b.merge(a)
        assert b.as_dict()["x"] == pytest.approx(1.5)
        assert b.worker_as_dict()["x"] == pytest.approx(2.0)

    def test_concurrent_add_is_safe(self):
        class YieldingSeconds:
            """An exact number whose conversion sleeps: ``add`` converts
            between its read and its write, so an unlocked add hands the
            interpreter to another thread inside its read-modify-write."""

            def __init__(self, value):
                self.value = value

            def __float__(self):
                time.sleep(1e-6)
                return self.value

        timer = StageTimer()
        workers, adds = 4, 200
        start = threading.Barrier(workers, timeout=60.0)
        one, two = YieldingSeconds(1.0), YieldingSeconds(2.0)

        def add_many():
            start.wait()
            for _ in range(adds):
                timer.add("s", one)
                timer.add_worker("s", two)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=add_many) for _ in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        # Integer-valued seconds sum exactly, so any lost update shows.
        assert timer.as_dict() == {"s": float(workers * adds)}
        assert timer.worker_as_dict() == {"s": 2.0 * workers * adds}
