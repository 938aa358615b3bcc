"""The numpy filters of ``repro.utils.filters`` against ``scipy.ndimage``,
their oracle: every output must match bit for bit (signed zeros included)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from repro.baking.voxelize import voxelize_field
from repro.metrics.lpips import _FILTER_BANK
from repro.scenes.objects import list_objects, make_object
from repro.scenes.scene import PlacedObject
from repro.utils.filters import chessboard_distance, convolve, gaussian_filter, label

EPSILON = np.finfo(np.float64).eps

#: Values that expose a changed order of operations or a lost sign.
SPECIAL_VALUES = (0.0, -0.0, 1e-300, -1e-300, 1e150, -1e150)


def assert_bits_equal(actual, expected):
    actual = np.ascontiguousarray(actual, dtype=np.float64)
    expected = np.ascontiguousarray(expected, dtype=np.float64)
    assert actual.shape == expected.shape
    mismatch = actual.view(np.int64) != expected.view(np.int64)
    assert not mismatch.any(), f"{int(mismatch.sum())} of {mismatch.size} values differ"


def random_image(seed: int, height: int, width: int, specials: float) -> np.ndarray:
    """Normal values over six decades, with a share of special values."""
    rng = np.random.default_rng(seed)
    image = rng.normal(size=(height, width)) * 10.0 ** rng.integers(-3, 4, size=(height, width))
    special = rng.random((height, width)) < specials
    image[special] = rng.choice(SPECIAL_VALUES, size=int(special.sum()))
    return image


class TestGaussianFilter:
    @settings(max_examples=150, deadline=None)
    @given(
        height=st.integers(1, 70),
        width=st.integers(1, 70),
        sigma=st.floats(0.5, 3.0),
        mode=st.sampled_from(["reflect", "wrap"]),
        specials=st.sampled_from([0.0, 0.2, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(height=1, width=1, sigma=3.0, mode="reflect", specials=0.0, seed=0)
    @example(height=2, width=70, sigma=3.0, mode="wrap", specials=0.0, seed=1)
    @example(height=5, width=3, sigma=2.5, mode="reflect", specials=1.0, seed=2)
    def test_matches_scipy(self, height, width, sigma, mode, specials, seed):
        image = random_image(seed, height, width, specials)
        expected = ndimage.gaussian_filter(image, sigma, mode=mode)
        assert_bits_equal(gaussian_filter(image, sigma, mode), expected)

    @pytest.mark.parametrize("mode", ["reflect", "wrap"])
    def test_negative_zero_survives(self, mode):
        image = np.full((30, 24), -0.0)
        image[4, 3] = 0.0
        expected = ndimage.gaussian_filter(image, 1.5, mode=mode)
        assert np.signbit(expected).any() and not np.signbit(expected).all()
        assert_bits_equal(gaussian_filter(image, 1.5, mode), expected)

    def test_stack_filters_each_image(self):
        stack = np.stack([random_image(seed, 33, 40, 0.1) for seed in range(5)])
        filtered = gaussian_filter(stack, 1.5)
        for image, result in zip(stack, filtered):
            assert_bits_equal(result, ndimage.gaussian_filter(image, 1.5, mode="reflect"))

    @pytest.mark.parametrize("mode", ["reflect", "wrap"])
    @pytest.mark.parametrize("shape, sigma", [((128, 128), 1.5), ((64, 64), 3.0)])
    def test_stack_through_reused_pair_buffer(self, mode, shape, sigma):
        """Five-image stacks (the SSIM moments) at the sizes the metrics use:
        every tap pair of an axis pass goes through one buffer."""
        stack = np.stack([random_image(seed, *shape, 0.1) for seed in range(5)])
        filtered = gaussian_filter(stack, sigma, mode)
        for image, result in zip(stack, filtered):
            assert_bits_equal(result, ndimage.gaussian_filter(image, sigma, mode=mode))


class TestConvolve:
    @pytest.mark.parametrize("size", [8, 13, 48, 64])
    def test_filter_bank_matches_scipy(self, size):
        image = np.random.default_rng(size).random((size, size + 3))
        responses = convolve(image, _FILTER_BANK)
        assert responses.shape == (len(_FILTER_BANK), size, size + 3)
        for kernel, response in zip(_FILTER_BANK, responses):
            assert_bits_equal(response, ndimage.convolve(image, kernel, mode="reflect"))

    @settings(max_examples=60, deadline=None)
    @given(
        height=st.integers(1, 40),
        width=st.integers(1, 40),
        kh=st.sampled_from([1, 3, 5, 7]),
        kw=st.sampled_from([1, 3, 5, 7]),
        count=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_kernels_with_skipped_taps_match_scipy(self, height, width, kh, kw, count, seed):
        rng = np.random.default_rng(seed)
        image = random_image(seed, height, width, 0.1)
        kernels = rng.normal(size=(count, kh, kw))
        # Exact zeros and taps at or below DBL_EPSILON, which scipy skips.
        kernels[rng.random(kernels.shape) < 0.3] = 0.0
        tiny = rng.random(kernels.shape) < 0.2
        kernels[tiny] = rng.choice([EPSILON, -EPSILON, 1e-17, -1e-300], size=int(tiny.sum()))
        responses = convolve(image, kernels)
        for kernel, response in zip(kernels, responses):
            assert_bits_equal(response, ndimage.convolve(image, kernel, mode="reflect"))

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError):
            convolve(np.zeros((5, 5)), np.zeros((1, 4, 3)))


def checkerboard(rows: int, cols: int) -> np.ndarray:
    return (np.add.outer(np.arange(rows), np.arange(cols)) % 2) == 0


def spiral(size: int) -> np.ndarray:
    """A one-pixel-wide square spiral: one component whose first pixel is
    the far end of a path of about ``size**2 / 2`` pixels."""
    grid = np.zeros((size, size), dtype=bool)
    steps = ((0, 1), (1, 0), (0, -1), (-1, 0))
    row = col = direction = 0
    grid[0, 0] = True
    turns = 0
    while turns < 2:
        d_row, d_col = steps[direction]
        ahead = (row + d_row, col + d_col)
        beyond = (row + 2 * d_row, col + 2 * d_col)
        free = 0 <= ahead[0] < size and 0 <= ahead[1] < size and not grid[ahead]
        if free and not (0 <= beyond[0] < size and 0 <= beyond[1] < size and grid[beyond]):
            row, col = ahead
            grid[row, col] = True
            turns = 0
        else:
            direction = (direction + 1) % 4
            turns += 1
    return grid


class TestLabel:
    @staticmethod
    def assert_matches_scipy(mask):
        expected, expected_count = ndimage.label(mask)
        labels, count = label(mask)
        assert count == expected_count
        assert labels.dtype == expected.dtype
        np.testing.assert_array_equal(labels, expected)

    @pytest.mark.parametrize(
        "mask",
        [
            np.zeros((6, 9), dtype=bool),
            np.ones((6, 9), dtype=bool),
            np.array([[True, False, True, True, False, True]]),
            np.array([[True], [True], [False], [True]]),
            checkerboard(9, 8),
            spiral(41),
            ~spiral(40),
        ],
        ids=["empty", "full", "one-row", "one-column", "checkerboard", "spiral", "spiral-gaps"],
    )
    def test_shapes_match_scipy(self, mask):
        self.assert_matches_scipy(mask)

    def test_spiral_is_one_component(self):
        assert label(spiral(41))[1] == 1

    @settings(max_examples=100, deadline=None)
    @given(
        rows=st.integers(1, 40),
        cols=st.integers(1, 40),
        density=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_masks_match_scipy(self, rows, cols, density, seed):
        self.assert_matches_scipy(np.random.default_rng(seed).random((rows, cols)) < density)


def scipy_chessboard(occupied: np.ndarray) -> np.ndarray:
    return ndimage.distance_transform_cdt(~occupied, metric="chessboard")


class TestChessboardDistance:
    @staticmethod
    def assert_matches_scipy(occupied):
        distance = chessboard_distance(occupied)
        assert distance.dtype == np.min_scalar_type(max(occupied.shape))
        np.testing.assert_array_equal(distance, scipy_chessboard(occupied))

    @pytest.mark.parametrize("g", [1, 5, 16, 33])
    def test_single_voxel_in_the_middle(self, g):
        occupied = np.zeros((g, g, g), dtype=bool)
        occupied[g // 2, g // 3, g // 4] = True
        self.assert_matches_scipy(occupied)

    @pytest.mark.parametrize("corner", [(0, 0, 0), (-1, -1, -1), (0, -1, 0)])
    def test_corner_voxel(self, corner):
        occupied = np.zeros((40, 40, 40), dtype=bool)
        occupied[corner] = True
        self.assert_matches_scipy(occupied)

    @settings(max_examples=25, deadline=None)
    @given(
        g=st.integers(16, 64),
        density=st.floats(0.0, 0.5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_occupancy_matches_scipy(self, g, density, seed):
        rng = np.random.default_rng(seed)
        occupied = rng.random((g, g, g)) < density**3
        occupied[tuple(rng.integers(0, g, size=3))] = True
        self.assert_matches_scipy(occupied)

    @pytest.mark.parametrize("shape", [(300, 1, 1), (1, 1, 300)])
    def test_long_line_needs_uint16(self, shape):
        occupied = np.zeros(shape, dtype=bool)
        occupied.reshape(-1)[0] = True
        distance = chessboard_distance(occupied)
        assert distance.dtype == np.uint16 and int(distance.max()) == 299
        self.assert_matches_scipy(occupied)

    @pytest.mark.parametrize("seed", range(3))
    def test_lines_spanning_several_words(self, seed):
        rng = np.random.default_rng(seed)
        occupied = rng.random((6, 5, 150)) < 0.002
        occupied[rng.integers(6), rng.integers(5), rng.integers(150)] = True
        self.assert_matches_scipy(occupied)

    def test_non_cubic_grid(self):
        occupied = np.zeros((7, 20, 13), dtype=bool)
        occupied[6, 0, 12] = True
        occupied[2, 15, 3] = True
        self.assert_matches_scipy(occupied)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            chessboard_distance(np.zeros((4, 4, 4), dtype=bool))

    @pytest.mark.parametrize("name", list_objects())
    def test_library_object_skip_tables_match_scipy(self, name):
        grid = voxelize_field(PlacedObject(obj=make_object(name)), 48)
        expected = scipy_chessboard(grid.occupancy).astype(np.uint8)
        np.testing.assert_array_equal(grid.skip_distance, expected)
