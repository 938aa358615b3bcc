"""Detail-frequency analysis.

The segmentation module scores every detected object by the *frequency of
detail* it exhibits in each training image and keeps, per object, the
maximum over all views (§III-A): single NeRFs learn high-frequency content
poorly, and users focus on the detailed side of an object, so the maximum
observed frequency is the importance signal that decides which objects get
a dedicated network.

The frequency measure here is spectral: the masked object region is Fourier
transformed and the high-frequency tail of its radially averaged energy
spectrum is summarised.  A spectral-residual saliency map (Hou & Zhang,
2007 — reference [28] of the paper) is provided as well.
"""

from __future__ import annotations

import numpy as np

from repro.utils.filters import gaussian_filter
from repro.utils.image import bbox_from_mask, crop_to_bbox, to_gray


def radial_energy_profile(image: np.ndarray, num_bins: int = 32) -> tuple:
    """Radially averaged power spectrum of a grayscale image.

    Returns:
        ``(frequencies, energy)`` — bin centres in cycles/pixel (0 .. 0.5)
        and the mean spectral power in each bin.
    """
    gray = to_gray(np.asarray(image, dtype=np.float64))
    if gray.size == 0:
        raise ValueError("empty image")
    gray = gray - float(gray.mean())
    spectrum = np.abs(np.fft.fftshift(np.fft.fft2(gray))) ** 2

    rows, cols = gray.shape
    freq_y = np.fft.fftshift(np.fft.fftfreq(rows))
    freq_x = np.fft.fftshift(np.fft.fftfreq(cols))
    radius = np.sqrt(freq_y[:, None] ** 2 + freq_x[None, :] ** 2)

    bins = np.linspace(0.0, 0.5, num_bins + 1)
    centers = 0.5 * (bins[:-1] + bins[1:])
    energy = np.zeros(num_bins)
    for index in range(num_bins):
        mask = (radius >= bins[index]) & (radius < bins[index + 1])
        if mask.any():
            energy[index] = spectrum[mask].mean()
    return centers, energy


def detail_frequency(
    image: np.ndarray,
    mask: "np.ndarray | None" = None,
    energy_quantile: float = 0.90,
    min_pixels: int = 16,
) -> float:
    """Detail frequency of an object in one image.

    The measure is the spatial frequency (cycles/pixel, in ``[0, 0.5]``)
    below which ``energy_quantile`` of the object's spectral energy lies —
    objects whose appearance needs high frequencies to represent score
    higher.  The object is isolated by cropping to its mask's bounding box
    and zeroing out background pixels so surrounding content does not leak
    into the spectrum.

    Args:
        image: RGB or grayscale training image.
        mask: boolean object mask (whole image is analysed when omitted).
        energy_quantile: quantile of cumulative radial energy defining the
            reported frequency.
        min_pixels: objects smaller than this return 0.0 (too small to
            measure).
    """
    gray = to_gray(np.asarray(image, dtype=np.float64))
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != gray.shape:
            raise ValueError("mask and image shapes differ")
        if mask.sum() < min_pixels:
            return 0.0
        bbox = bbox_from_mask(mask, margin=1)
        gray = crop_to_bbox(np.where(mask, gray, gray[mask].mean()), bbox)
    if gray.size < min_pixels:
        return 0.0

    frequencies, energy = radial_energy_profile(gray)
    total = energy.sum()
    if total <= 0:
        return 0.0
    cumulative = np.cumsum(energy) / total
    index = int(np.searchsorted(cumulative, energy_quantile))
    index = min(index, len(frequencies) - 1)
    return float(frequencies[index])


def spectral_residual_saliency(image: np.ndarray, sigma: float = 2.5) -> np.ndarray:
    """Spectral-residual saliency map (Hou & Zhang, CVPR 2007).

    Returns a saliency map in ``[0, 1]`` highlighting the regions a viewer's
    attention is drawn to — the domain-knowledge justification the paper
    gives for scoring objects by their *maximum* frequency across views.
    """
    gray = to_gray(np.asarray(image, dtype=np.float64))
    gray = gray - float(gray.mean())
    spectrum = np.fft.fft2(gray)
    amplitude = np.abs(spectrum)
    phase = np.angle(spectrum)
    log_amplitude = np.log(amplitude + 1e-9)
    residual = log_amplitude - gaussian_filter(log_amplitude, 1.0, mode="wrap")
    saliency = np.abs(np.fft.ifft2(np.exp(residual + 1j * phase))) ** 2
    saliency = gaussian_filter(saliency, sigma)
    maximum = saliency.max()
    if maximum > 0:
        saliency = saliency / maximum
    return saliency


def max_frequency_over_views(
    images: list, masks: list, energy_quantile: float = 0.90
) -> float:
    """Maximum detail frequency of one object across several views.

    ``images`` and ``masks`` are parallel lists; views where the object is
    absent (empty/None mask) are skipped.
    """
    if len(images) != len(masks):
        raise ValueError("images and masks must have the same length")
    best = 0.0
    for image, mask in zip(images, masks):
        if mask is None or not np.asarray(mask, dtype=bool).any():
            continue
        best = max(best, detail_frequency(image, mask, energy_quantile=energy_quantile))
    return best
