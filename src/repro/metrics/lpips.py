"""A fixed-filter perceptual distance standing in for LPIPS.

The paper evaluates LPIPS with a pretrained deep network.  Pretrained
weights are not available offline, so this module implements a deterministic
perceptual distance with the same qualitative behaviour: it compares
multi-scale, multi-orientation local structure (Gabor-like responses and
gradients) rather than raw pixels, so blur, missing detail and structural
artefacts are penalised more than small uniform colour shifts.  Lower is
better, and 0 means identical images — matching LPIPS conventions so the
Table I orderings carry over.
"""

from __future__ import annotations

import numpy as np

from repro.utils.filters import convolve, gaussian_filter
from repro.utils.image import to_gray


def _gabor_kernel(size: int, theta: float, wavelength: float, sigma: float) -> np.ndarray:
    """Build a real Gabor kernel with zero DC response."""
    half = size // 2
    ys, xs = np.mgrid[-half : half + 1, -half : half + 1].astype(np.float64)
    x_theta = xs * np.cos(theta) + ys * np.sin(theta)
    y_theta = -xs * np.sin(theta) + ys * np.cos(theta)
    envelope = np.exp(-(x_theta**2 + y_theta**2) / (2.0 * sigma**2))
    carrier = np.cos(2.0 * np.pi * x_theta / wavelength)
    kernel = envelope * carrier
    kernel -= kernel.mean()
    norm = np.sqrt(np.sum(kernel**2))
    if norm > 0:
        kernel /= norm
    return kernel


_ORIENTATIONS = (0.0, np.pi / 4.0, np.pi / 2.0, 3.0 * np.pi / 4.0)
_FILTER_BANK = np.stack(
    [
        _gabor_kernel(size=7, theta=theta, wavelength=wavelength, sigma=2.0)
        for theta in _ORIENTATIONS
        for wavelength in (3.0, 6.0)
    ]
)


def _feature_stack(image: np.ndarray) -> np.ndarray:
    """Stack of normalised filter responses for one grayscale image."""
    grad_y, grad_x = np.gradient(image)
    return np.concatenate([convolve(image, _FILTER_BANK), np.stack([grad_x, grad_y])])


def lpips_proxy(image_a: np.ndarray, image_b: np.ndarray, num_scales: int = 3) -> float:
    """Perceptual distance between two images (lower is better, 0 = identical).

    The distance averages normalised filter-response differences over
    ``num_scales`` dyadic scales, mimicking the multi-layer feature-space
    comparison that LPIPS performs with a pretrained CNN.
    """
    gray_a = to_gray(np.asarray(image_a, dtype=np.float64))
    gray_b = to_gray(np.asarray(image_b, dtype=np.float64))
    if gray_a.shape != gray_b.shape:
        raise ValueError(
            f"lpips_proxy: image shapes differ: {gray_a.shape} vs {gray_b.shape}"
        )

    total = 0.0
    scales = 0
    for scale in range(num_scales):
        if min(gray_a.shape) < 8:
            break
        feats_a = _feature_stack(gray_a)
        feats_b = _feature_stack(gray_b)
        # Channel-wise normalisation, as LPIPS normalises feature activations.
        norm_a = np.sqrt(np.sum(feats_a**2, axis=0, keepdims=True)) + 1e-6
        norm_b = np.sqrt(np.sum(feats_b**2, axis=0, keepdims=True)) + 1e-6
        diff = feats_a / norm_a - feats_b / norm_b
        total += float(np.mean(diff**2))
        scales += 1
        # Downsample by two (blur + stride) for the next scale.
        gray_a, gray_b = gaussian_filter(np.stack([gray_a, gray_b]), 1.0)[:, ::2, ::2]

    if scales == 0:
        raise ValueError("lpips_proxy: images too small for any scale")
    return total / scales
