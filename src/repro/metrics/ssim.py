"""Structural Similarity Index Measure (SSIM).

SSIM is the quality metric ``Q`` that NeRFlex's profiler predicts and its
configuration selector maximises.  The implementation follows Wang et al.
(2004): local means, variances and covariance computed with a Gaussian
window, combined into luminance, contrast and structure terms.
"""

from __future__ import annotations

import numpy as np

from repro.utils.filters import gaussian_filter
from repro.utils.image import to_gray


def ssim(
    image_a: np.ndarray,
    image_b: np.ndarray,
    data_range: float = 1.0,
    sigma: float = 1.5,
    k1: float = 0.01,
    k2: float = 0.03,
    mask: np.ndarray | None = None,
    return_map: bool = False,
) -> "float | tuple[float, np.ndarray]":
    """Compute the mean SSIM between two images.

    Args:
        image_a, image_b: images of identical shape, ``(H, W)`` or
            ``(H, W, 3)``; RGB images are converted to luma first.
        data_range: dynamic range of pixel values (1.0 for images in [0, 1]).
        sigma: Gaussian window standard deviation.
        k1, k2: the standard SSIM stabilisation constants.
        mask: optional boolean mask; when given, the mean is taken only over
            the masked pixels (used for the "high-frequency detail region"
            scores reported in Fig. 4).
        return_map: if true, also return the per-pixel SSIM map.

    Returns:
        The scalar mean SSIM in ``[-1, 1]`` (1 means identical images), and
        optionally the SSIM map.
    """
    image_a = to_gray(np.asarray(image_a, dtype=np.float64))
    image_b = to_gray(np.asarray(image_b, dtype=np.float64))
    if image_a.shape != image_b.shape:
        raise ValueError(
            f"ssim: image shapes differ: {image_a.shape} vs {image_b.shape}"
        )

    c1 = (k1 * data_range) ** 2
    c2 = (k2 * data_range) ** 2

    # Local means of a, b, a^2, b^2 and ab, filtered as one stack.
    moments = np.stack([image_a, image_b, image_a * image_a, image_b * image_b, image_a * image_b])
    mean_a, mean_b, mean_sq_a, mean_sq_b, mean_ab = gaussian_filter(moments, sigma)
    var_a = np.maximum(mean_sq_a - mean_a * mean_a, 0.0)
    var_b = np.maximum(mean_sq_b - mean_b * mean_b, 0.0)
    covar = mean_ab - mean_a * mean_b

    numerator = (2.0 * mean_a * mean_b + c1) * (2.0 * covar + c2)
    denominator = (mean_a**2 + mean_b**2 + c1) * (var_a + var_b + c2)
    ssim_map = numerator / denominator

    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != ssim_map.shape:
            raise ValueError(
                f"ssim: mask shape {mask.shape} does not match image {ssim_map.shape}"
            )
        if not mask.any():
            raise ValueError("ssim: mask selects no pixels")
        value = float(ssim_map[mask].mean())
    else:
        value = float(ssim_map.mean())

    if return_map:
        return value, ssim_map
    return value
