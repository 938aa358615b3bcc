"""Unit tests for repro.utils (image ops, RNG, timers)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.image import (
    bbox_from_mask,
    clamp01,
    crop_to_bbox,
    pad_to_square,
    resize_bilinear,
    to_gray,
)
from repro.utils.rng import derive_rng, make_rng
from repro.utils.lru import LockedLRU
from repro.utils.timing import StageTimer, Timer
from tests._race import SlowKey, run_racing


class TestToGray:
    def test_rgb_weights_sum_to_one(self):
        white = np.ones((4, 4, 3))
        assert np.allclose(to_gray(white), 1.0)

    def test_grayscale_passthrough(self):
        image = np.random.default_rng(0).uniform(size=(5, 7))
        assert np.allclose(to_gray(image), image)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            to_gray(np.zeros((3, 3, 4)))


class TestBBox:
    def test_tight_bbox(self):
        mask = np.zeros((10, 12), dtype=bool)
        mask[2:5, 3:9] = True
        assert bbox_from_mask(mask) == (2, 3, 5, 9)

    def test_margin_is_clamped(self):
        mask = np.zeros((6, 6), dtype=bool)
        mask[0, 0] = True
        assert bbox_from_mask(mask, margin=3) == (0, 0, 4, 4)

    def test_empty_mask_raises(self):
        with pytest.raises(ValueError):
            bbox_from_mask(np.zeros((4, 4), dtype=bool))

    def test_crop_matches_bbox(self):
        image = np.arange(100, dtype=float).reshape(10, 10)
        cropped = crop_to_bbox(image, (2, 3, 5, 9))
        assert cropped.shape == (3, 6)
        assert cropped[0, 0] == image[2, 3]


class TestResizeBilinear:
    def test_identity_resize(self):
        image = np.random.default_rng(1).uniform(size=(9, 7, 3))
        assert np.allclose(resize_bilinear(image, (9, 7)), image)

    def test_constant_image_stays_constant(self):
        image = np.full((5, 5), 0.37)
        resized = resize_bilinear(image, (17, 13))
        assert np.allclose(resized, 0.37)

    def test_upscale_shape(self):
        image = np.zeros((4, 6, 3))
        assert resize_bilinear(image, (8, 12)).shape == (8, 12, 3)

    def test_preserves_value_range(self):
        rng = np.random.default_rng(2)
        image = rng.uniform(size=(6, 6))
        resized = resize_bilinear(image, (23, 11))
        assert resized.min() >= image.min() - 1e-9
        assert resized.max() <= image.max() + 1e-9

    def test_invalid_shape_raises(self):
        with pytest.raises(ValueError):
            resize_bilinear(np.zeros((4, 4)), (0, 5))

    @given(
        height=st.integers(2, 12),
        width=st.integers(2, 12),
        out_h=st.integers(1, 24),
        out_w=st.integers(1, 24),
    )
    @settings(max_examples=30, deadline=None)
    def test_output_within_input_range(self, height, width, out_h, out_w):
        rng = np.random.default_rng(height * 100 + width)
        image = rng.uniform(size=(height, width))
        resized = resize_bilinear(image, (out_h, out_w))
        assert resized.shape == (out_h, out_w)
        assert resized.min() >= image.min() - 1e-9
        assert resized.max() <= image.max() + 1e-9


class TestPadToSquare:
    def test_pads_to_square(self):
        image = np.ones((3, 7))
        padded = pad_to_square(image)
        assert padded.shape == (7, 7)

    def test_rgb_padding_keeps_channels(self):
        image = np.ones((5, 2, 3))
        assert pad_to_square(image).shape == (5, 5, 3)


class TestClamp:
    def test_clamps_out_of_range(self):
        image = np.array([-0.5, 0.3, 1.7])
        assert np.allclose(clamp01(image), [0.0, 0.3, 1.0])


class TestRng:
    def test_same_seed_same_stream(self):
        assert make_rng(7).integers(0, 100, 5).tolist() == make_rng(7).integers(0, 100, 5).tolist()

    def test_generator_passthrough(self):
        rng = np.random.default_rng(3)
        assert make_rng(rng) is rng

    def test_derive_is_deterministic(self):
        a = derive_rng(make_rng(1), "stage", 4).integers(0, 1000, 3).tolist()
        b = derive_rng(make_rng(1), "stage", 4).integers(0, 1000, 3).tolist()
        assert a == b

    def test_derive_differs_by_key(self):
        a = derive_rng(make_rng(1), "stage", 4).integers(0, 1000, 5).tolist()
        b = derive_rng(make_rng(1), "other", 4).integers(0, 1000, 5).tolist()
        assert a != b


class TestTimers:
    def test_timer_accumulates(self):
        timer = Timer()
        with timer:
            pass
        first = timer.elapsed
        with timer:
            pass
        assert timer.elapsed >= first

    def test_timer_stop_without_start_raises(self):
        with pytest.raises(RuntimeError):
            Timer().stop()

    def test_stage_timer_fractions_sum_to_one(self):
        stages = StageTimer()
        stages.add("a", 1.0)
        stages.add("b", 3.0)
        fractions = stages.fractions()
        assert abs(sum(fractions.values()) - 1.0) < 1e-12
        assert fractions["b"] == pytest.approx(0.75)

    def test_stage_timer_context(self):
        stages = StageTimer()
        with stages.time("work"):
            _ = sum(range(100))
        assert stages.as_dict()["work"] >= 0.0
        assert stages.total() == pytest.approx(sum(stages.as_dict().values()))


class TestLockedLRU:
    def test_concurrent_put_evictions_are_exact(self):
        """Race-widened puts of distinct keys into a tiny map: every insert
        beyond the bound reports exactly one eviction."""
        workers, rounds, bound = 4, 200, 2
        lru = LockedLRU(max_entries=bound)
        evicted = [0] * workers

        def hammer(worker):
            for i in range(rounds):
                key = SlowKey((worker, i))
                evicted[worker] += lru.put(key, i)
                lru.get(key)

        assert not run_racing(hammer, workers)
        assert len(lru) == bound
        assert sum(evicted) == workers * rounds - len(lru)
