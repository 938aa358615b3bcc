"""Training-coverage degradation model.

Full-scale GPU training of a NeRF is replaced, for the large parameter
sweeps, by an explicit model of *how well a field can be learned from its
training views*.  The paper's core observation motivates it (§I): when a
complex object occupies only a small number of pixels in each training
frame, the network cannot recover its high-frequency geometry and texture,
and poorly constrained regions grow spurious density ("floaters") that
inflate the baked mesh without improving quality (§IV-B).

:class:`DegradedField` wraps any field and applies three effects whose
magnitude is governed by a single length scale — the *detail scale*, i.e.
the world-space size of one training pixel on the object:

* **geometry noise** — the SDF is perturbed by smooth noise of amplitude
  proportional to the detail scale (surfaces wobble at the scale the
  training could not resolve);
* **appearance low-pass** — albedo queries are quantised to the detail
  scale, removing texture detail finer than a training pixel;
* **floaters** — spurious occupied blobs appear in free space at a rate
  that grows with the detail scale, reproducing the "bigger model, not
  better quality" behaviour of under-constrained single-scene NeRFs.

:func:`coverage_detail_scale` derives the detail scale from actual training
views (object mask areas), so the degradation applied to the single-NeRF
baseline, to Block-NeRF and to NeRFlex's per-object networks follows from
the same measured quantity rather than per-method tuning.
"""

from __future__ import annotations

import numpy as np

#: Geometry noise amplitude as a fraction of the detail scale.
GEOMETRY_NOISE_FACTOR = 0.45
#: Floater probability grows linearly with (detail scale / extent) above the
#: threshold below which training coverage is dense enough to prune floaters.
FLOATER_RATE_FACTOR = 6.0
FLOATER_COVERAGE_THRESHOLD = 0.02
#: Maximum per-cell floater probability.
FLOATER_MAX_PROBABILITY = 0.4
#: Floaters only appear within this many detail scales of real geometry
#: (NeRF floaters cluster around poorly constrained surfaces).
FLOATER_SHELL_FACTOR = 6.0


def coverage_detail_scale(
    mask_pixel_counts: "list | np.ndarray",
    world_extent: float,
    network_factor: float = 1.0,
    floor_fraction: float = 1e-4,
) -> float:
    """World-space size of one training pixel on the object.

    Args:
        mask_pixel_counts: per-training-view pixel counts of the object (or
            scene) of interest.  The *best* view (largest count) bounds the
            finest detail the network can learn.
        world_extent: the object's (or scene's) world extent.
        network_factor: multiplier expressing network capability (1.0 for a
            MobileNeRF-class network, <1 for stronger baselines such as
            Instant-NGP); smaller means less degradation.
        floor_fraction: lower bound on the returned scale as a fraction of
            the extent (a perfectly covered object still has finite
            resolution).
    """
    counts = np.asarray(list(mask_pixel_counts), dtype=np.float64)
    counts = counts[counts > 0]
    if counts.size == 0:
        # Never observed: the field is essentially unconstrained.
        return float(world_extent)
    pixels_across = np.sqrt(counts.max())
    scale = float(world_extent) / pixels_across * float(network_factor)
    return max(scale, float(floor_fraction) * float(world_extent))


def _hash01(dots: np.ndarray, salt: float) -> np.ndarray:
    """Deterministic pseudo-random values in [0, 1) per integer cell, from
    the cells' dot products with ``[127.1, 311.7, 74.7]``."""
    return np.modf(np.abs(np.sin(dots + salt * 53.7) * 43758.5453123))[0]


class DegradedField:
    """A field degraded according to its training coverage.

    Args:
        base_field: the field that would be learned with unlimited training
            resolution (a placed object or a scene).
        detail_scale: world-space size of one training pixel on the content
            (see :func:`coverage_detail_scale`).
        floater_rate: per-cell probability of a spurious blob; derived from
            the detail scale when omitted.
        seed: seed controlling the deterministic noise phases.
    """

    def __init__(
        self,
        base_field,
        detail_scale: float,
        floater_rate: "float | None" = None,
        seed: int = 0,
    ) -> None:
        if detail_scale <= 0:
            raise ValueError("detail_scale must be positive")
        self.base = base_field
        self.detail_scale = float(detail_scale)
        self.seed = int(seed)

        extent = float(np.max(np.asarray(base_field.bounds_max) - np.asarray(base_field.bounds_min)))
        self.extent = extent
        self.noise_amplitude = GEOMETRY_NOISE_FACTOR * self.detail_scale
        # Noise wavelength: a couple of detail scales — reconstruction error
        # has spectral content right up to the resolution the training views
        # could constrain, and is hallucinated noise below it.
        self.noise_wavelength = max(2.5 * self.detail_scale, 1e-6)

        if floater_rate is None:
            relative = self.detail_scale / max(extent, 1e-9)
            floater_rate = min(
                max(FLOATER_RATE_FACTOR * (relative - FLOATER_COVERAGE_THRESHOLD), 0.0),
                FLOATER_MAX_PROBABILITY,
            )
        self.floater_rate = float(floater_rate)
        # Floater lattice: small "dust" blobs on a lattice of a few detail
        # scales; each cell may host one blob.
        self.floater_spacing = max(2.0 * self.detail_scale, extent / 96.0)
        self.floater_radius = 0.55 * self.detail_scale
        self.floater_shell = FLOATER_SHELL_FACTOR * self.detail_scale

        # Deterministic noise phases derived from the seed.
        rng = np.random.default_rng(seed)
        self._noise_dirs = rng.normal(size=(3, 3))
        self._noise_dirs /= np.linalg.norm(self._noise_dirs, axis=1, keepdims=True)
        self._noise_phases = rng.uniform(0.0, 2.0 * np.pi, size=3)

        # Lipschitz bound of the degraded SDF, advertised so the
        # hierarchical voxeliser can prune exactly: the base field's bound
        # plus the geometry noise's maximum slope (amplitude x wavenumber).
        # Floaters appear/disappear discontinuously across their lattice
        # cells, and a base field without an advertised bound has no
        # usable one either — both cases force exhaustive sampling.
        base_lipschitz = getattr(base_field, "sdf_lipschitz", None)
        noise_slope = self.noise_amplitude * (2.0 * np.pi / self.noise_wavelength)
        if self.floater_rate > 0.0 or base_lipschitz is None:
            self.sdf_lipschitz = np.inf
        else:
            self.sdf_lipschitz = max(float(base_lipschitz) + noise_slope, 1.0)

    # -- field protocol ----------------------------------------------------

    @property
    def bounds_min(self) -> np.ndarray:
        return self.base.bounds_min

    @property
    def bounds_max(self) -> np.ndarray:
        return self.base.bounds_max

    def sdf(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=np.float64)
        base_distance = self.base.sdf(points)
        distance = base_distance + self.noise_amplitude * self._geometry_noise(points)
        if self.floater_rate > 0.0:
            distance = np.minimum(distance, self._floater_sdf(points, base_distance))
        return distance

    def albedo(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=np.float64)
        # Appearance low-pass: quantise queries to the detail scale so any
        # texture variation finer than a training pixel is lost.
        cell = max(1.2 * self.detail_scale, 1e-9)
        quantized = (np.floor(points / cell) + 0.5) * cell
        return self.base.albedo(quantized)

    # -- degradation components ---------------------------------------------

    def _geometry_noise(self, points: np.ndarray) -> np.ndarray:
        """Smooth pseudo-random field with values roughly in [-1, 1]."""
        value = np.zeros(points.shape[0])
        wavenumber = 2.0 * np.pi / self.noise_wavelength
        for direction, phase in zip(self._noise_dirs, self._noise_phases):
            value += np.sin(wavenumber * (points @ direction) + phase)
        return value / len(self._noise_phases)

    def _floater_sdf(self, points: np.ndarray, base_distance: np.ndarray) -> np.ndarray:
        """Signed distance to the spurious blobs (positive when none nearby).

        Floaters only materialise within a shell around real geometry — the
        poorly constrained region where an under-trained NeRF accumulates
        spurious density — so empty space far from any surface stays clean.
        """
        spacing = self.floater_spacing
        cells = np.floor(points / spacing)
        # One full-length dot product serves all five hashes; the offset and
        # radius hashes (salts 2-5) are evaluated only on floating rows.
        dots = cells @ np.array([127.1, 311.7, 74.7])
        exists = _hash01(dots, salt=1.0 + self.seed) < self.floater_rate
        exists &= base_distance < self.floater_shell
        rows = np.flatnonzero(exists)
        dots = dots[rows]
        offsets = np.stack(
            [_hash01(dots, salt=salt + self.seed) for salt in (2.0, 3.0, 4.0)], axis=1
        )
        centers = (cells[rows] + 0.2 + 0.6 * offsets) * spacing
        radii = self.floater_radius * (0.5 + _hash01(dots, salt=5.0 + self.seed))
        # Cells without a floater contribute a large positive distance.
        distance = np.full(len(points), 10.0 * self.extent)
        distance[rows] = np.linalg.norm(points[rows] - centers, axis=1) - radii
        return distance

    def describe(self) -> dict:
        return {
            "detail_scale": self.detail_scale,
            "noise_amplitude": self.noise_amplitude,
            "floater_rate": self.floater_rate,
            "floater_spacing": self.floater_spacing,
        }
