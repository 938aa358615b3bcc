"""Tests for the lightweight profiler (white-box quality/size models)."""

import dataclasses
import json
import multiprocessing
import os
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import profiler
from repro.core.config_space import Configuration, ConfigurationSpace
from repro.core.profiler import (
    ObjectProfile,
    PaperQualityModel,
    PaperSizeModel,
    ProfileFitter,
    QualityModel,
    SizeModel,
    profile_error_analysis,
)
from repro.exec import fork_available

SPACE = ConfigurationSpace(granularities=(16, 24, 32, 48, 64, 96, 128), patch_sizes=(1, 2, 3, 4, 6, 8))


def synthetic_measure(config: Configuration) -> tuple:
    """A ground-truth-like measurement function with the expected shape:
    saturating quality, polynomial size."""
    g, p = config.granularity, config.patch_size
    quality = 0.96 - 14.0 / ((g + 10.0) * (p + 1.5))
    size = 0.4 + 1.2e-3 * g * g * 1e-1 + 4.0e-6 * g * g * p * p + 6.0e-5 * g**3 / 10.0
    return quality, size


def noisy_measure(config: Configuration, seed: int = 0) -> tuple:
    rng = np.random.default_rng(seed + config.granularity * 100 + config.patch_size)
    quality, size = synthetic_measure(config)
    return quality + rng.normal(0, 0.004), size * (1 + rng.normal(0, 0.01))


class TestSizeModel:
    def test_exact_recovery_of_generating_model(self):
        truth = SizeModel(s0=1.0, s1=2e-3, s2=5e-5, s3=1e-5)
        configs = list(SPACE.profiling_configs())
        sizes = np.array([truth.predict(config) for config in configs])
        fitted = SizeModel.fit(configs, sizes)
        for config in SPACE:
            assert fitted.predict(config) == pytest.approx(truth.predict(config), rel=1e-6)

    def test_prediction_never_negative(self):
        model = SizeModel(s0=-5.0, s1=0.0, s2=0.0, s3=0.0)
        assert model.predict(Configuration(16, 1)) == 0.0

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            SizeModel.fit([Configuration(16, 1)], np.array([1.0]))

    def test_monotone_for_positive_coefficients(self):
        model = SizeModel(s0=0.5, s1=1e-3, s2=1e-5, s3=1e-6)
        assert model.predict(Configuration(64, 4)) > model.predict(Configuration(32, 4))
        assert model.predict(Configuration(64, 4)) > model.predict(Configuration(64, 2))


class TestQualityModel:
    def test_fit_recovers_saturating_behaviour(self):
        configs = list(SPACE.profiling_configs())
        qualities = np.array([synthetic_measure(config)[0] for config in configs])
        model = QualityModel.fit(configs, qualities)
        # Monotone increasing in both knobs and bounded by qmax.
        assert model.predict(Configuration(128, 8)) > model.predict(Configuration(16, 1))
        assert model.predict(Configuration(128, 8)) <= model.qmax + 1e-9
        # Accurate interpolation at unseen configurations.
        for config in [Configuration(48, 2), Configuration(96, 6)]:
            assert model.predict(config) == pytest.approx(synthetic_measure(config)[0], abs=0.02)

    def test_fit_with_noise_is_stable(self):
        configs = list(SPACE.profiling_configs())
        qualities = np.array([noisy_measure(config)[0] for config in configs])
        model = QualityModel.fit(configs, qualities)
        assert 0.5 < model.qmax <= 1.2

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            QualityModel.fit([Configuration(16, 1), Configuration(32, 1)], np.array([0.5, 0.6]))

    def test_degenerate_measurements_fit_without_warnings(self):
        """Four samples for four parameters leave curve_fit no degrees of
        freedom, so its covariance is inestimable; the fit must take the
        deterministic linear fallback instead of emitting an
        OptimizeWarning or keeping scipy's parameters."""
        configs = [Configuration(16, 1), Configuration(32, 2), Configuration(64, 4), Configuration(96, 8)]
        constant = np.full(len(configs), 0.8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = QualityModel.fit(configs, constant)
        assert (model.a, model.b) == (8.0, 1.0)  # the linear fallback
        assert model.predict(Configuration(64, 4)) == pytest.approx(0.8, abs=1e-9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            again = QualityModel.fit(configs, constant)
        assert again == model

    def test_fitter_on_degenerate_measure_emits_no_warnings(self):
        # A 2x2 space profiles exactly four configurations.
        space = ConfigurationSpace(granularities=(16, 64), patch_sizes=(1, 4))
        assert len(space.profiling_configs()) == 4
        fitter = ProfileFitter(space)

        def flat(config):
            return 0.5, 1.0 + config.granularity

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            profile = fitter.fit("flat", flat)
            again = fitter.fit("flat", flat)
        model = profile.quality_model
        assert (model.a, model.b) == (8.0, 1.0)  # the linear fallback
        assert again.quality_model == model
        assert profile.predict_quality(Configuration(64, 4)) == pytest.approx(0.5, abs=1e-9)

    @given(
        qmax=st.floats(0.8, 1.0),
        k=st.floats(1.0, 30.0),
        a=st.floats(1.0, 30.0),
        b=st.floats(0.5, 4.0),
    )
    @settings(max_examples=20, deadline=None)
    def test_model_is_monotone_in_both_knobs(self, qmax, k, a, b):
        model = QualityModel(qmax=qmax, k=k, a=a, b=b)
        assert model.predict(Configuration(64, 3)) >= model.predict(Configuration(32, 3))
        assert model.predict(Configuration(64, 4)) >= model.predict(Configuration(64, 2))


class TestPaperModels:
    def test_paper_size_model_fits_saturating_data(self):
        configs = list(SPACE.profiling_configs())
        truth = PaperSizeModel(m=150.0, k=2e8, a=5.0, b=1.0)
        sizes = np.array([truth.predict(config) for config in configs])
        fitted = PaperSizeModel.fit(configs, sizes)
        for config in [Configuration(48, 2), Configuration(96, 4)]:
            assert fitted.predict(config) == pytest.approx(truth.predict(config), rel=0.05)

    def test_paper_quality_model_is_increasing(self):
        configs = list(SPACE.profiling_configs())
        qualities = np.array([synthetic_measure(config)[0] for config in configs])
        model = PaperQualityModel.fit(configs, qualities)
        assert model.predict(Configuration(128, 8)) > model.predict(Configuration(16, 1))


class TestProfileFitter:
    def test_fit_produces_accurate_profile(self):
        fitter = ProfileFitter(SPACE)
        profile = fitter.fit("synthetic", synthetic_measure)
        assert isinstance(profile, ObjectProfile)
        assert len(profile.measurements) == len(SPACE.profiling_configs())
        analysis = profile_error_analysis(profile, synthetic_measure, list(SPACE))
        assert analysis["quality_mean_error"] < 0.01
        assert analysis["size_mean_error"] < 0.06 * max(
            synthetic_measure(SPACE.max_config)[1], 1.0
        )

    def test_extra_configs_are_measured(self):
        fitter = ProfileFitter(SPACE)
        extra = Configuration(48, 2)
        profile = fitter.fit("synthetic", synthetic_measure, extra_configs=[extra])
        assert extra in profile.measurements

    def test_best_config_within_budget(self):
        profile = ProfileFitter(SPACE).fit("synthetic", synthetic_measure)
        tight = profile.best_config_within(profile.min_predicted_size() + 1.0)
        loose = profile.best_config_within(1e9)
        assert tight is not None and loose is not None
        assert profile.predict_quality(loose) >= profile.predict_quality(tight)
        assert profile.best_config_within(0.0) is None

    def test_min_predicted_size_is_minimum(self):
        profile = ProfileFitter(SPACE).fit("synthetic", synthetic_measure)
        sizes = [profile.predict_size(config) for config in SPACE]
        assert profile.min_predicted_size() == pytest.approx(min(sizes))

    def test_profile_error_analysis_keys(self):
        profile = ProfileFitter(SPACE).fit("synthetic", synthetic_measure)
        analysis = profile_error_analysis(profile, synthetic_measure, list(SPACE)[:10])
        assert set(analysis) == {
            "num_configs",
            "quality_mean_error",
            "quality_std_error",
            "size_mean_error",
            "size_std_error",
        }
        assert analysis["num_configs"] == 10

    def test_profiler_on_real_baked_object(self, tiny_config_space):
        """End-to-end: fit a profile from actual bakes of a small object and
        check the models reproduce the held-out measurements reasonably."""
        from repro.baking import bake_field, render_baked
        from repro.metrics import ssim
        from repro.scenes.cameras import orbit_cameras
        from repro.scenes.library import make_single_object_scene
        from repro.scenes.raytrace import render_scene

        scene = make_single_object_scene("torus")
        camera = orbit_cameras(scene.center, radius=1.25 * scene.extent, count=1, width=72, height=72)[0]
        reference = render_scene(scene, camera)

        def measure(config):
            baked = bake_field(scene, config.granularity, config.patch_size)
            rendered = render_baked(baked, camera)
            return ssim(reference.rgb, rendered.rgb), baked.size_mb()

        profile = ProfileFitter(tiny_config_space).fit("torus", measure)
        held_out = Configuration(12, 2)
        quality, size = measure(held_out)
        assert profile.predict_quality(held_out) == pytest.approx(quality, abs=0.12)
        assert profile.predict_size(held_out) == pytest.approx(size, rel=0.35)


class TestFitLock:
    """Curve fits serialise their ``catch_warnings`` scopes, and a fork never
    hands a worker a held fit lock."""

    def test_concurrent_degenerate_fits_leak_no_warning(self):
        # Four samples for four parameters: no degrees of freedom, so every
        # curve_fit call warns that the covariance cannot be estimated.
        configs = [Configuration(16, 1), Configuration(32, 2), Configuration(64, 4), Configuration(96, 8)]
        qualities = np.array([0.5, 0.7, 0.85, 0.9])
        reference = QualityModel.fit(configs, qualities)  # imports scipy.optimize
        assert (reference.a, reference.b) == (8.0, 1.0)  # the linear fallback
        workers, fits, rounds = 4, 5, 5
        models, errors = [], []

        def fit_many(start):
            try:
                start.wait()
                for _ in range(fits):
                    models.append(QualityModel.fit(configs, qualities))
            except BaseException as error:  # pragma: no cover - reported below
                errors.append(error)

        # A tiny switch interval interleaves the fits' filter save/restore;
        # an unserialised round then leaks a warning or leaves another fit's
        # "ignore" filter behind in most rounds, so five rounds miss rarely.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(rounds):
                start = threading.Barrier(workers, timeout=60.0)
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    filters = list(warnings.filters)
                    threads = [
                        threading.Thread(target=fit_many, args=(start,))
                        for _ in range(workers)
                    ]
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join(timeout=60.0)
                    assert not any(thread.is_alive() for thread in threads)
                    assert [str(w.message) for w in caught] == []
                    assert warnings.filters == filters
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        assert models == [reference] * (workers * fits * rounds)

    def test_fork_while_a_fit_holds_the_lock_gives_the_child_a_free_lock(self):
        held, release = threading.Event(), threading.Event()

        def hold():
            with profiler._FIT_LOCK:
                held.set()
                release.wait(5.0)

        def child():
            QualityModel.fit(list(SPACE.profiling_configs()), np.linspace(0.5, 0.9, 9))

        holder = threading.Thread(target=hold)
        holder.start()
        assert held.wait(5.0)
        # The fork waits in the at-fork hook until the holder lets go.
        threading.Timer(0.2, release.set).start()
        with warnings.catch_warnings():
            # Python >= 3.12 warns about forking a multi-threaded process.
            warnings.simplefilter("ignore", DeprecationWarning)
            process = multiprocessing.get_context("fork").Process(target=child)
            process.start()
        holder.join()
        process.join(60.0)
        if process.exitcode is None:  # pragma: no cover - the failure mode
            process.kill()
            process.join()
        assert process.exitcode == 0


SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: Imports the real-time path and renders one baked frame of a one-object
#: bundle, then prints the loaded ``scipy.optimize`` modules as JSON.
_BAKED_FRAME_PROBE = """
import json, sys
import repro.core.pipeline, repro.render, repro.baking
from repro.baking.baked_model import BakedMultiModel, bake_field
from repro.render.engine import RenderEngine
from repro.scenes.cameras import orbit_cameras
from repro.scenes.library import make_single_object_scene

scene = make_single_object_scene("sphere")
bundle = BakedMultiModel([bake_field(scene, 16, 1, name="sphere", materialize_textures=True)])
camera = orbit_cameras(scene.center, radius=1.3 * scene.extent, count=1, width=16, height=16)[0]
frame = RenderEngine().render_baked_views(bundle, [camera])[0]
assert frame.rgb.shape == (16, 16, 3)

def optimize_modules():
    return sorted(name for name in sys.modules if name.startswith("scipy.optimize"))

print(json.dumps(optimize_modules()))
"""

#: Segments a tiny dataset, bakes its first sub-scene with the skip table
#: built, renders and scores one baked frame, then prints every loaded
#: ``scipy`` module as JSON.
_REAL_TIME_PATH_PROBE = """
import json, sys
from repro import NeRFlexPipeline, PipelineConfig
from repro.baking.baked_model import BakedMultiModel, bake_field
from repro.device.models import IPHONE_13
from repro.metrics import lpips_proxy, ssim
from repro.render.engine import RenderEngine
from repro.scenes.cameras import orbit_cameras
from repro.scenes.dataset import generate_dataset
from repro.scenes.library import make_realworld_scene

scene = make_realworld_scene(seed=0, num_objects=2)
dataset = generate_dataset(scene, num_train=2, num_test=1, resolution=32, trajectory="forward", name="probe")
pipeline = NeRFlexPipeline(IPHONE_13, PipelineConfig())
segmentation = pipeline.stage_segment(dataset)
sub_scene = segmentation.sub_scenes[0]
field = pipeline._build_field(dataset.scene.subset(sub_scene.instance_ids), sub_scene)
model = bake_field(field, 16, 1, name=sub_scene.name, materialize_textures=True)
assert model.grid.skip_distance.max() > 0
camera = orbit_cameras(scene.center, radius=1.3 * scene.extent, count=1, width=16, height=16)[0]
frame = RenderEngine().render_baked_views(BakedMultiModel([model]), [camera])[0]
assert frame.rgb.shape == (16, 16, 3)
assert ssim(frame.rgb, frame.rgb) > 0.99 and lpips_proxy(frame.rgb, frame.rgb) < 1e-9
print(json.dumps(sorted(name for name in sys.modules if name.startswith("scipy"))))
"""

#: Profiles a two-object dataset on two forked workers, then prints
#: whether ``scipy.optimize`` is loaded in this (the parent) process.
_PROCESS_PROFILE_PROBE = """
import json, sys
from repro import NeRFlexPipeline, PipelineConfig
from repro.core.config_space import ConfigurationSpace
from repro.device.models import IPHONE_13
from repro.exec import ProcessBackend
from repro.scenes.dataset import generate_dataset
from repro.scenes.library import make_realworld_scene

scene = make_realworld_scene(seed=0, num_objects=2)
dataset = generate_dataset(scene, num_train=2, num_test=1, resolution=48, trajectory="forward", name="probe")
space = ConfigurationSpace(granularities=(8, 12, 16), patch_sizes=(1, 2))
config = PipelineConfig(config_space=space, profile_resolution=24)
pipeline = NeRFlexPipeline(IPHONE_13, config, backend=ProcessBackend(workers=2))
segmentation = pipeline.stage_segment(dataset)
assert len(segmentation.sub_scenes) >= 2
pipeline.stage_profile(dataset, segmentation)
print(json.dumps("scipy.optimize" in sys.modules))
"""

_FIT_PROBE = """
import dataclasses
from repro.core.config_space import Configuration
from repro.core.profiler import QualityModel

configs = [Configuration(g, p) for g, p in CONFIGS]
model = QualityModel.fit(configs, QUALITIES)
print(json.dumps(optimize_modules()))
print(json.dumps([float(value).hex() for value in dataclasses.astuple(model)]))
"""

_PROBE_CONFIGS = [(16, 1), (24, 2), (32, 4), (48, 1), (64, 2), (96, 4), (128, 8)]


def _probe_qualities() -> list:
    return [synthetic_measure(Configuration(g, p))[0] for g, p in _PROBE_CONFIGS]


def _run_probe(code: str) -> list:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr
    return [json.loads(line) for line in result.stdout.strip().splitlines()]


class TestImportBoundary:
    """``scipy.optimize`` loads on the first fit, never with the pipeline:
    the baked real-time path must not keep the optimiser resident."""

    def test_baked_frame_leaves_scipy_optimize_unloaded(self):
        assert _run_probe(_BAKED_FRAME_PROBE) == [[]]

    def test_segment_bake_and_baked_frame_load_no_scipy(self):
        """The real-time path (segmentation, bake, skip table, frame and
        its quality metrics) runs on numpy alone."""
        assert _run_probe(_REAL_TIME_PATH_PROBE) == [[]]

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_process_profile_map_loads_the_solver_in_the_parent(self):
        """With two pending objects every fit runs in a forked worker; the
        parent loads the solver before the map so that no worker imports
        it again."""
        assert _run_probe(_PROCESS_PROFILE_PROBE) == [True]

    def test_first_fit_loads_scipy_optimize_and_matches_in_process(self):
        probe = _BAKED_FRAME_PROBE + _FIT_PROBE.replace(
            "CONFIGS", repr(_PROBE_CONFIGS)
        ).replace("QUALITIES", repr(_probe_qualities()))
        before, after, params = _run_probe(probe)
        assert before == []
        assert "scipy.optimize" in after
        model = QualityModel.fit(
            [Configuration(g, p) for g, p in _PROBE_CONFIGS], np.array(_probe_qualities())
        )
        assert params == [float(value).hex() for value in dataclasses.astuple(model)]
