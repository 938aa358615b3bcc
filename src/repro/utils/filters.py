"""Numpy stand-ins for the four ``scipy.ndimage`` filters the library uses.

On float64 input each function returns the values its ``scipy.ndimage``
counterpart returns, bit for bit (``tests/test_filters.py`` checks them
against scipy):

* :func:`gaussian_filter` — ``gaussian_filter(x, sigma, mode=mode)`` with
  ``mode`` ``"reflect"`` or ``"wrap"``, on the last two axes;
* :func:`convolve` — ``convolve(image, kernel, mode="reflect")`` for a bank
  of odd-sized kernels;
* :func:`label` — ``label(mask)`` with 4-connectivity on a 2-D mask;
* :func:`chessboard_distance` — ``distance_transform_cdt(~occupied,
  metric="chessboard")``.

The floating-point filters keep scipy's order of operations, because that
order decides the last bit.  ``NI_Correlate1D`` sums a symmetric kernel's
taps in pairs, outermost pair first; ``NI_Correlate`` starts from zero,
adds the taps in C order and skips every tap of magnitude at most
``DBL_EPSILON``.  scipy's ``reflect`` mode repeats the edge sample, which
is ``np.pad``'s ``"symmetric"``.

Keeping the runtime free of ``scipy.ndimage`` keeps ``scipy.special`` and
scipy's array-API layer out of the real-time path's memory: the baked
render path imports no scipy module at all.
"""

from __future__ import annotations

import numpy as np

_PAD_MODES = {"reflect": "symmetric", "wrap": "wrap"}

_EPSILON = np.finfo(np.float64).eps


def _gaussian_weights(sigma: float) -> np.ndarray:
    """scipy's ``_gaussian_kernel1d(sigma, 0, radius)`` at ``truncate=4``."""
    radius = int(4.0 * sigma + 0.5)
    x = np.arange(-radius, radius + 1)
    phi = np.exp(-0.5 / (sigma * sigma) * x**2)
    return phi / phi.sum()


def _shifted(padded: np.ndarray, axis: int, start: int, length: int) -> np.ndarray:
    index = [slice(None)] * padded.ndim
    index[axis] = slice(start, start + length)
    return padded[tuple(index)]


def gaussian_filter(images: np.ndarray, sigma: float, mode: str = "reflect") -> np.ndarray:
    """Gaussian blur over the last two axes of a 2-D image or a stack of them.

    Equal to ``scipy.ndimage.gaussian_filter(image, sigma, mode=mode)`` on
    each ``(H, W)`` image.  ``mode`` is ``"reflect"`` or ``"wrap"``.
    """
    sigma = float(sigma)
    out = np.asarray(images, dtype=np.float64)
    weights = _gaussian_weights(sigma)
    radius = len(weights) // 2
    for axis in (out.ndim - 2, out.ndim - 1):
        length = out.shape[axis]
        pad = [(0, 0)] * out.ndim
        pad[axis] = (radius, radius)
        padded = np.pad(out, pad, mode=_PAD_MODES[mode])
        out = _shifted(padded, axis, radius, length) * weights[radius]
        pair = np.empty_like(out)
        for offset in range(radius, 0, -1):
            np.add(
                _shifted(padded, axis, radius - offset, length),
                _shifted(padded, axis, radius + offset, length),
                out=pair,
            )
            pair *= weights[radius - offset]
            out += pair
    return out


def convolve(image: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    """Responses of a 2-D image to a bank of odd-sized kernels.

    ``kernels`` is ``(K, kh, kw)``; the result is ``(K, H, W)`` with
    ``result[k]`` equal to ``scipy.ndimage.convolve(image, kernels[k],
    mode="reflect")``.
    """
    image = np.asarray(image, dtype=np.float64)
    kernels = np.asarray(kernels, dtype=np.float64)
    count, kh, kw = kernels.shape
    if kh % 2 == 0 or kw % 2 == 0:
        raise ValueError(f"convolve: kernel sides must be odd, got {kh}x{kw}")
    height, width = image.shape
    padded = np.pad(image, ((kh // 2, kh // 2), (kw // 2, kw // 2)), mode="symmetric")
    # Convolution is correlation with the flipped kernel.
    taps = kernels[:, ::-1, ::-1]
    out = np.zeros((count, height, width))
    for row in range(kh):
        for col in range(kw):
            weights = taps[:, row, col]
            used = np.abs(weights) > _EPSILON
            window = padded[row : row + height, col : col + width]
            if used.all():
                out += window * weights[:, None, None]
            elif used.any():
                out[used] += window * weights[used, None, None]
    return out


def label(mask: np.ndarray) -> tuple:
    """Label the 4-connected components of a 2-D boolean mask.

    Returns ``(labels, count)`` like ``scipy.ndimage.label``: background is
    0, and components are numbered from 1 in the raster order of their
    first pixel.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2:
        raise ValueError(f"label: expected a 2-D mask, got shape {mask.shape}")
    background = mask.size
    foreground = np.flatnonzero(mask)
    # Every pixel points at the raster index of the smallest pixel known to
    # share its component; background points past the end.
    parent = np.where(mask, np.arange(mask.size).reshape(mask.shape), background)
    while True:
        merged = parent.copy()
        np.minimum(merged[1:], parent[:-1], out=merged[1:])
        np.minimum(merged[:-1], parent[1:], out=merged[:-1])
        np.minimum(merged[:, 1:], parent[:, :-1], out=merged[:, 1:])
        np.minimum(merged[:, :-1], parent[:, 1:], out=merged[:, :-1])
        merged[~mask] = background
        flat = merged.reshape(-1)
        flat[foreground] = flat[flat[foreground]]  # pointer jumping
        if np.array_equal(merged, parent):
            break
        parent = merged
    roots, labels = np.unique(parent[mask], return_inverse=True)
    out = np.zeros(mask.shape, dtype=np.int32)
    out[mask] = labels + 1
    return out, len(roots)


def _dilate(bits: np.ndarray) -> np.ndarray:
    """One 3x3x3 dilation of a grid whose last axis is packed into 64-bit
    words: cell ``i`` of a line is bit ``i % 64`` of word ``i // 64``."""
    out = bits | (bits << 1) | (bits >> 1)
    out[..., 1:] |= bits[..., :-1] >> 63
    out[..., :-1] |= bits[..., 1:] << 63
    for axis in range(bits.ndim - 1):
        grown = out.copy()
        length = out.shape[axis] - 1
        _shifted(grown, axis, 1, length)[...] |= _shifted(out, axis, 0, length)
        _shifted(grown, axis, 0, length)[...] |= _shifted(out, axis, 1, length)
        out = grown
    return out


def _pack_lines(cells: np.ndarray, words: int) -> np.ndarray:
    """Boolean lines along the last axis as little-endian 64-bit words."""
    lines = np.zeros(cells.shape[:-1] + (64 * words,), dtype=bool)
    lines[..., : cells.shape[-1]] = cells
    return np.packbits(lines, axis=-1, bitorder="little").view("<u8")


def chessboard_distance(occupied: np.ndarray) -> np.ndarray:
    """Chessboard (L-inf) distance, in cells, from every cell of a 3-D
    boolean grid to the nearest occupied cell.

    Equal to ``scipy.ndimage.distance_transform_cdt(~occupied,
    metric="chessboard")``, in the narrowest unsigned dtype that holds the
    longest side.  At least one cell must be occupied.

    The cells within distance ``k`` of the occupancy are its ``k``-fold
    3x3x3 dilation, so the grid is dilated until it is covered and each
    cell takes the round that first covers it.  The grid is dilated with
    bitwise operations on cells packed 64 to a word, and the distances are
    kept as one packed bit plane per binary digit.
    """
    occupied = np.asarray(occupied, dtype=bool)
    if not occupied.any():
        raise ValueError("chessboard_distance: no occupied cell")
    longest = max(occupied.shape)
    length = occupied.shape[-1]
    words = -(-length // 64)
    # Padding bits past the end of a line stay empty.
    inside = _pack_lines(np.ones(length, dtype=bool), words)
    covered = _pack_lines(occupied, words)
    planes = [np.zeros_like(covered) for _ in range(longest.bit_length())]
    distance = 0
    while True:
        grown = _dilate(covered)
        grown &= inside
        reached = grown & ~covered
        if not reached.any():
            break
        distance += 1
        for bit, plane in enumerate(planes):
            if distance >> bit & 1:
                plane |= reached
        covered = grown
    dtype = np.min_scalar_type(longest)
    out = np.zeros(occupied.shape, dtype=dtype)
    for bit, plane in enumerate(planes):
        digits = np.unpackbits(plane.view(np.uint8), axis=-1, count=length, bitorder="little")
        out |= digits.astype(dtype) << bit
    return out
