"""Tests for the training-coverage degradation model (:mod:`repro.nerf`)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nerf import DegradedField, coverage_detail_scale
from repro.metrics import ssim
from repro.scenes.cameras import orbit_cameras
from repro.scenes.library import make_single_object_scene
from repro.scenes.raytrace import render_scene
from tests import _floater_oracle


class TestDegradation:
    def test_detail_scale_from_coverage(self):
        # 100x100 pixels on a unit-extent object -> 0.01 world units per pixel.
        assert coverage_detail_scale([10000], 1.0) == pytest.approx(0.01)
        # The best view (max count) wins.
        assert coverage_detail_scale([100, 10000], 1.0) == pytest.approx(0.01)
        # Stronger networks (factor < 1) resolve finer detail.
        assert coverage_detail_scale([10000], 1.0, network_factor=0.5) == pytest.approx(0.005)

    def test_unobserved_object_degrades_to_extent(self):
        assert coverage_detail_scale([0, 0], 2.0) == pytest.approx(2.0)

    def test_invalid_detail_scale(self):
        scene = make_single_object_scene("cube")
        with pytest.raises(ValueError):
            DegradedField(scene, detail_scale=0.0)

    def test_mild_degradation_preserves_geometry(self):
        scene = make_single_object_scene("cube")
        degraded = DegradedField(scene, detail_scale=0.005, seed=0)
        rng = np.random.default_rng(0)
        points = rng.uniform(scene.bounds_min, scene.bounds_max, size=(2000, 3))
        difference = np.abs(degraded.sdf(points) - scene.sdf(points))
        assert difference.max() < 0.02

    def test_heavier_degradation_hurts_rendered_quality(self):
        scene = make_single_object_scene("lego")
        camera = orbit_cameras(scene.center, radius=1.3 * scene.extent, count=1, width=64, height=64)[0]
        reference = render_scene(scene, camera)
        from repro.baking import bake_field, render_baked

        mild = render_baked(bake_field(DegradedField(scene, 0.004, seed=0), 32, 2), camera)
        heavy = render_baked(bake_field(DegradedField(scene, 0.08, seed=0), 32, 2), camera)
        assert ssim(reference.rgb, mild.rgb) > ssim(reference.rgb, heavy.rgb)

    def test_floaters_appear_only_for_poor_coverage(self):
        scene = make_single_object_scene("cube")
        well_covered = DegradedField(scene, detail_scale=0.004, seed=0)
        poorly_covered = DegradedField(scene, detail_scale=0.1, seed=0)
        assert well_covered.floater_rate == 0.0
        assert poorly_covered.floater_rate > 0.0

    def test_degradation_is_deterministic(self):
        scene = make_single_object_scene("torus")
        points = np.random.default_rng(5).uniform(-0.4, 0.4, size=(100, 3))
        a = DegradedField(scene, 0.03, seed=7).sdf(points)
        b = DegradedField(scene, 0.03, seed=7).sdf(points)
        assert np.array_equal(a, b)
        c = DegradedField(scene, 0.03, seed=8).sdf(points)
        assert not np.array_equal(a, c)

    def test_albedo_quantisation_removes_fine_detail(self):
        scene = make_single_object_scene("lego")
        degraded = DegradedField(scene, detail_scale=0.2, seed=0)
        # Two nearby points inside the same quantisation cell share a colour.
        points = np.array([[0.01, 0.01, 0.01], [0.03, 0.02, 0.01]])
        colors = degraded.albedo(points)
        assert np.allclose(colors[0], colors[1])

    @given(scale=st.floats(0.002, 0.2))
    @settings(max_examples=15, deadline=None)
    def test_noise_amplitude_scales_with_detail(self, scale):
        scene = make_single_object_scene("sphere")
        degraded = DegradedField(scene, detail_scale=scale, seed=0)
        assert degraded.noise_amplitude == pytest.approx(0.45 * scale)
        assert degraded.noise_wavelength >= 2.0 * scale


def _assert_bit_equal(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestFloaterOracle:
    """``DegradedField._floater_sdf`` (one dot product, per-floater hashes)
    matches the pre-rewrite oracle in :mod:`tests._floater_oracle` bit for
    bit.  Floating rows are forced through ``base_distance`` with
    ``floater_rate=1.0``, where every cell hash qualifies."""

    @given(
        seed=st.integers(0, 50),
        count=st.integers(1, 300),
        mode=st.sampled_from(["none", "one", "all", "rate0"]),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle(self, seed, count, mode, data):
        scene = make_single_object_scene("torus")
        rate = 0.0 if mode == "rate0" else 1.0
        field = DegradedField(scene, detail_scale=0.05, floater_rate=rate, seed=seed)
        points = np.random.default_rng(seed).uniform(-0.6, 0.6, size=(count, 3))
        inside, outside = 0.0, field.floater_shell + 1.0
        base_distance = np.full(count, inside if mode in ("all", "rate0") else outside)
        if mode == "one":
            base_distance[data.draw(st.integers(0, count - 1))] = inside
        got = field._floater_sdf(points, base_distance)
        _assert_bit_equal(got, _floater_oracle.floater_sdf(field, points, base_distance))
        floating = int(np.sum(got < 10.0 * field.extent))
        assert floating == {"none": 0, "one": 1, "all": count, "rate0": 0}[mode]

    @pytest.mark.parametrize("name", ["cube", "lego"])
    def test_matches_oracle_on_a_poorly_covered_object(self, name):
        scene = make_single_object_scene(name)
        field = DegradedField(scene, detail_scale=0.1, seed=3)
        assert field.floater_rate > 0.0
        points = np.random.default_rng(1).uniform(
            scene.bounds_min, scene.bounds_max, size=(5000, 3)
        )
        base_distance = scene.sdf(points)
        got = field._floater_sdf(points, base_distance)
        _assert_bit_equal(got, _floater_oracle.floater_sdf(field, points, base_distance))
        assert 0 < int(np.sum(got < 10.0 * field.extent)) < len(points)
