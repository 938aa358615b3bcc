"""Tests for the radiance-field substrate: encoding, MLP, rendering, training,
and the training-coverage degradation model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nerf import (
    AnalyticField,
    DegradedField,
    MLP,
    AdamOptimizer,
    PositionalEncoding,
    coverage_detail_scale,
    composite_samples,
    stratified_samples,
    train_distilled_field,
    train_nerf_from_images,
    volume_render_field,
)
from repro.nerf.rendering import composite_gradients
from repro.metrics import ssim
from repro.scenes.cameras import orbit_cameras
from repro.scenes.library import make_single_object_scene
from repro.scenes.raytrace import render_scene
from tests import _floater_oracle


class TestPositionalEncoding:
    def test_output_dimension(self):
        encoding = PositionalEncoding(num_frequencies=4, include_input=True)
        assert encoding.output_dim == 3 + 2 * 4 * 3
        assert encoding(np.zeros((5, 3))).shape == (5, encoding.output_dim)

    def test_without_input_passthrough(self):
        encoding = PositionalEncoding(num_frequencies=2, include_input=False)
        assert encoding.output_dim == 12

    def test_zero_maps_to_known_values(self):
        encoding = PositionalEncoding(num_frequencies=1, include_input=False)
        encoded = encoding(np.zeros((1, 3)))
        # sin(0) = 0 for the first three entries, cos(0) = 1 for the rest.
        assert np.allclose(encoded[0, :3], 0.0)
        assert np.allclose(encoded[0, 3:], 1.0)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            PositionalEncoding(num_frequencies=0)
        with pytest.raises(ValueError):
            PositionalEncoding()(np.zeros((5, 2)))

    def test_distinct_points_get_distinct_codes(self):
        encoding = PositionalEncoding(num_frequencies=6)
        points = np.array([[0.1, 0.2, 0.3], [0.1, 0.2, 0.31]])
        codes = encoding(points)
        assert not np.allclose(codes[0], codes[1])


class TestMLP:
    def test_forward_shape(self):
        mlp = MLP([4, 16, 8, 2], seed=0)
        assert mlp(np.zeros((7, 4))).shape == (7, 2)
        assert mlp.num_layers == 3

    def test_parameter_count(self):
        mlp = MLP([3, 5, 2], seed=0)
        assert mlp.num_parameters == (3 * 5 + 5) + (5 * 2 + 2)

    def test_needs_two_layers(self):
        with pytest.raises(ValueError):
            MLP([4])

    def test_gradient_matches_numerical(self):
        """Analytic backprop agrees with central finite differences."""
        rng = np.random.default_rng(0)
        mlp = MLP([3, 8, 2], seed=1)
        inputs = rng.normal(size=(5, 3))
        targets = rng.normal(size=(5, 2))

        def loss_value() -> float:
            return float(np.mean((mlp.forward(inputs) - targets) ** 2))

        outputs, cache = mlp.forward(inputs, return_cache=True)
        grad_out = 2.0 * (outputs - targets) / outputs.size
        grads = mlp.backward(grad_out, cache)
        params = mlp.parameters()

        epsilon = 1e-6
        for param, grad in zip(params, grads):
            flat_index = np.unravel_index(np.argmax(np.abs(grad)), grad.shape)
            original = param[flat_index]
            param[flat_index] = original + epsilon
            plus = loss_value()
            param[flat_index] = original - epsilon
            minus = loss_value()
            param[flat_index] = original
            numerical = (plus - minus) / (2 * epsilon)
            assert numerical == pytest.approx(grad[flat_index], rel=1e-4, abs=1e-7)

    def test_adam_reduces_loss_on_regression(self):
        rng = np.random.default_rng(2)
        mlp = MLP([2, 32, 1], seed=3)
        optimizer = AdamOptimizer(learning_rate=5e-3)
        inputs = rng.uniform(-1, 1, size=(256, 2))
        targets = (inputs[:, :1] * inputs[:, 1:2])  # simple product function
        first_loss = None
        for _ in range(150):
            outputs, cache = mlp.forward(inputs, return_cache=True)
            residual = outputs - targets
            loss = float(np.mean(residual**2))
            if first_loss is None:
                first_loss = loss
            grads = mlp.backward(2.0 * residual / residual.size, cache)
            optimizer.step(mlp.parameters(), grads)
        assert loss < 0.3 * first_loss

    def test_adam_mismatched_lengths(self):
        mlp = MLP([2, 2], seed=0)
        with pytest.raises(ValueError):
            AdamOptimizer().step(mlp.parameters(), [np.zeros((2, 2))])


class TestSampling:
    def test_samples_within_bounds_and_sorted(self):
        samples = stratified_samples(np.array([1.0, 2.0]), np.array([3.0, 4.0]), 16, rng=0)
        assert samples.shape == (2, 16)
        assert np.all(samples >= np.array([[1.0], [2.0]]))
        assert np.all(samples <= np.array([[3.0], [4.0]]))
        assert np.all(np.diff(samples, axis=1) >= 0)

    def test_deterministic_without_jitter(self):
        a = stratified_samples(np.zeros(3), np.ones(3), 8, jitter=False)
        b = stratified_samples(np.zeros(3), np.ones(3), 8, jitter=False)
        assert np.array_equal(a, b)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            stratified_samples(np.zeros(2), np.ones(2), 0)
        with pytest.raises(ValueError):
            stratified_samples(np.ones(2), np.zeros(2), 4)


class TestCompositing:
    def test_opaque_first_sample_wins(self):
        densities = np.array([[1e4, 1e4]])
        colors = np.array([[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]])
        deltas = np.full((1, 2), 0.1)
        out = composite_samples(densities, colors, deltas, background=(0, 0, 1))
        assert np.allclose(out["rgb"][0], [1.0, 0.0, 0.0], atol=1e-3)

    def test_empty_space_shows_background(self):
        densities = np.zeros((1, 4))
        colors = np.zeros((1, 4, 3))
        deltas = np.full((1, 4), 0.1)
        out = composite_samples(densities, colors, deltas, background=(0.3, 0.6, 0.9))
        assert np.allclose(out["rgb"][0], [0.3, 0.6, 0.9], atol=1e-6)

    def test_weights_sum_to_alpha(self):
        rng = np.random.default_rng(1)
        densities = rng.uniform(0, 20, size=(6, 12))
        colors = rng.uniform(size=(6, 12, 3))
        deltas = np.full((6, 12), 0.05)
        out = composite_samples(densities, colors, deltas)
        assert np.allclose(out["weights"].sum(axis=1), out["alpha"], atol=1e-9)
        assert np.all(out["alpha"] <= 1.0 + 1e-9)

    def test_gradients_match_numerical(self):
        rng = np.random.default_rng(3)
        densities = rng.uniform(0.5, 5.0, size=(2, 5))
        colors = rng.uniform(size=(2, 5, 3))
        deltas = rng.uniform(0.05, 0.15, size=(2, 5))
        background = np.array([0.2, 0.3, 0.4])
        grad_rgb = rng.normal(size=(2, 3))

        def scalar_loss(d):
            out = composite_samples(d, colors, deltas, background=background)
            return float(np.sum(out["rgb"] * grad_rgb))

        out = composite_samples(densities, colors, deltas, background=background)
        grad_density, grad_colors = composite_gradients(
            densities, colors, deltas, grad_rgb, out, background=background
        )
        epsilon = 1e-6
        for index in [(0, 0), (0, 4), (1, 2)]:
            perturbed = densities.copy()
            perturbed[index] += epsilon
            plus = scalar_loss(perturbed)
            perturbed[index] -= 2 * epsilon
            minus = scalar_loss(perturbed)
            numerical = (plus - minus) / (2 * epsilon)
            assert numerical == pytest.approx(grad_density[index], rel=1e-4, abs=1e-7)
        # Colour gradient is exact: dC/dc_i = w_i * grad_rgb.
        expected = out["weights"][..., None] * grad_rgb[:, None, :]
        assert np.allclose(grad_colors, expected)


class TestTraining:
    def test_distillation_learns_a_sphere(self):
        scene = make_single_object_scene("sphere")
        field, log = train_distilled_field(scene, num_iterations=200, batch_size=512, seed=0)
        assert log.final_loss < 0.25 * log.initial_loss
        # The learned SDF separates inside from outside at the centre/far point.
        inside = field.sdf(np.array([[0.0, 0.0, 0.0]]))[0]
        outside = field.sdf(np.array([[0.44, 0.44, 0.44]]))[0]
        assert inside < outside

    def test_image_based_training_reduces_loss(self):
        scene = make_single_object_scene("cube")
        cameras = orbit_cameras(scene.center, radius=1.4 * scene.extent, count=3, width=36, height=36)
        views = [render_scene(scene, camera) for camera in cameras]
        field, log = train_nerf_from_images(
            views,
            cameras,
            scene.bounds_min,
            scene.bounds_max,
            num_iterations=60,
            rays_per_batch=128,
            num_samples=24,
            seed=0,
        )
        early = float(np.mean(log.losses[:10]))
        late = float(np.mean(log.losses[-10:]))
        assert late < early
        assert np.all(field.density(np.zeros((1, 3))) >= 0.0)

    def test_training_input_validation(self):
        with pytest.raises(ValueError):
            train_nerf_from_images([], [], np.zeros(3), np.ones(3))
        with pytest.raises(ValueError):
            train_nerf_from_images([np.zeros((4, 4, 3))], [], np.zeros(3), np.ones(3))


class TestVolumeRenderField:
    def test_volume_render_resembles_ground_truth(self):
        scene = make_single_object_scene("sphere")
        camera = orbit_cameras(scene.center, radius=1.3 * scene.extent, count=1, width=48, height=48)[0]
        reference = render_scene(scene, camera)
        rendered = volume_render_field(scene, camera, num_samples=96)
        assert ssim(reference.rgb, rendered.rgb) > 0.6
        assert rendered.hit_mask.any()


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

    def test_analytic_field_passthrough(self):
        scene = make_single_object_scene("sphere")
        adapter = AnalyticField(scene)
        points = np.random.default_rng(0).uniform(-0.4, 0.4, size=(50, 3))
        assert np.array_equal(adapter.sdf(points), scene.sdf(points))
        assert np.array_equal(adapter.albedo(points), scene.albedo(points))
        assert np.array_equal(adapter.bounds_min, scene.bounds_min)

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
