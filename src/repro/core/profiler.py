"""Lightweight profiling: white-box models from configuration to quality and size.

Training every candidate configuration to measure its rendering quality and
baked size is prohibitively expensive (hours per configuration in the
paper).  NeRFlex instead fits small white-box models per object from a
handful of sample configurations chosen with a variable-step-size rule, and
the configuration selector then optimises over *predicted* quality and size.

Model families
--------------

* :class:`SizeModel` — ``S(g, p) = s0 + s1 g^2 + s2 g^2 p^2 + s3 g^3``.  The
  baked data is geometry (one quad per boundary voxel face, scaling with the
  surface area resolved at granularity ``g``, i.e. ~``g^2``), textures
  (``p^2`` texels per face) and the dense per-cell volume data (``g^3``), so
  the size is linear in the features ``{1, g^2, g^2 p^2, g^3}`` and is
  fitted by ordinary least squares.
* :class:`QualityModel` — ``Q(g, p) = qmax - k / ((g + a) * (p + b))``, a
  saturating law: quality approaches the representation ceiling ``qmax`` as
  either knob grows, with diminishing returns.
* :class:`PaperSizeModel` / :class:`PaperQualityModel` — the literal
  functional forms printed in the paper's equation (1), provided for
  comparison (see DESIGN.md for why the saturating quality form is used as
  the default).
"""

from __future__ import annotations

import dataclasses
import os
import threading
import warnings
from dataclasses import dataclass, field

import numpy as np

from repro.core.config_space import Configuration, ConfigurationSpace

#: Serialises every curve fit.  ``warnings.catch_warnings()`` saves and
#: restores the process-global filter list, so two overlapping fits could
#: restore each other's state and let an ``OptimizeWarning`` escape the
#: "ignore" scope mid-fit.  Fits take milliseconds, so holding one lock
#: across the scope costs nothing measurable.
_FIT_LOCK = threading.Lock()

# A fork waits for any in-flight fit, so a forked worker never inherits a
# held lock (nor a half-restored filter list).
os.register_at_fork(
    before=_FIT_LOCK.acquire,
    after_in_parent=_FIT_LOCK.release,
    after_in_child=_FIT_LOCK.release,
)


def load_solver() -> tuple:
    """Import the curve fitter: ``(OptimizeWarning, curve_fit)``.

    ``scipy.optimize`` is imported on the first fit rather than with this
    module: the real-time baked path imports the pipeline but never fits,
    and should not keep the optimiser resident.
    """
    from scipy.optimize import OptimizeWarning, curve_fit

    return OptimizeWarning, curve_fit


def _fit_curve(model, xdata, ydata, **kwargs) -> tuple:
    """``scipy.optimize.curve_fit`` with ``OptimizeWarning`` ignored.

    Returns ``(params, pcov)``.
    """
    OptimizeWarning, curve_fit = load_solver()
    with _FIT_LOCK, warnings.catch_warnings():
        warnings.simplefilter("ignore", OptimizeWarning)
        return curve_fit(model, xdata, ydata, **kwargs)


def _configs_to_arrays(configs: list) -> tuple:
    g = np.array([config.granularity for config in configs], dtype=np.float64)
    p = np.array([config.patch_size for config in configs], dtype=np.float64)
    return g, p


@dataclass
class SizeModel:
    """White-box size model ``S = s0 + s1 g^2 + s2 g^2 p^2 + s3 g^3`` (MB)."""

    s0: float = 0.0
    s1: float = 0.0
    s2: float = 0.0
    s3: float = 0.0

    def predict(self, config: Configuration) -> float:
        g = float(config.granularity)
        p = float(config.patch_size)
        return max(
            self.s0 + self.s1 * g * g + self.s2 * g * g * p * p + self.s3 * g**3, 0.0
        )

    @classmethod
    def fit(cls, configs: list, sizes_mb: np.ndarray) -> "SizeModel":
        """Least-squares fit of the four coefficients."""
        if len(configs) < 4:
            raise ValueError("need at least 4 sample configurations to fit SizeModel")
        g, p = _configs_to_arrays(configs)
        sizes = np.asarray(sizes_mb, dtype=np.float64)
        features = np.stack([np.ones_like(g), g * g, g * g * p * p, g**3], axis=1)
        coeffs, *_ = np.linalg.lstsq(features, sizes, rcond=None)
        return cls(
            s0=float(coeffs[0]),
            s1=float(coeffs[1]),
            s2=float(coeffs[2]),
            s3=float(coeffs[3]),
        )


@dataclass
class QualityModel:
    """Saturating quality model ``Q = qmax - k / ((g + a)(p + b))``."""

    qmax: float = 1.0
    k: float = 1.0
    a: float = 1.0
    b: float = 1.0

    def predict(self, config: Configuration) -> float:
        g = float(config.granularity)
        p = float(config.patch_size)
        return float(self.qmax - self.k / ((g + self.a) * (p + self.b)))

    @classmethod
    def fit(cls, configs: list, qualities: np.ndarray) -> "QualityModel":
        """Bounded nonlinear least-squares fit (with a linear fallback)."""
        if len(configs) < 4:
            raise ValueError("need at least 4 sample configurations to fit QualityModel")
        g, p = _configs_to_arrays(configs)
        quality = np.asarray(qualities, dtype=np.float64)

        def model(x, qmax, k, a, b):
            gg, pp = x
            return qmax - k / ((gg + a) * (pp + b))

        initial = (min(float(quality.max()) + 0.03, 1.0), 5.0, 8.0, 1.0)
        bounds = ([0.0, 0.0, 0.01, 0.01], [1.2, 1e4, 1e3, 1e2])
        degenerate = True
        params = None
        try:
            params, pcov = _fit_curve(
                model, (g, p), quality, p0=initial, bounds=bounds, maxfev=20000
            )
            # Degenerate measurement sets (constant quality, collinear
            # samples) make the covariance inestimable; scipy fills pcov
            # with inf and warns.  The condition is read off pcov rather
            # than by escalating the warning to an error: warning filters
            # are process-global state, and a threaded corpus run fits
            # profiles of independent scenes concurrently — an "error"
            # filter installed here could be restored mid-fit by a sibling
            # thread (or leak into its fits), making the fallback decision
            # racy.  Degenerate fits take the deterministic linear fallback
            # instead of keeping dubious parameters.
            degenerate = not bool(np.all(np.isfinite(pcov)))
        except (RuntimeError, ValueError):
            degenerate = True
        if not degenerate:
            return cls(qmax=float(params[0]), k=float(params[1]), a=float(params[2]), b=float(params[3]))
        # Fallback: fix the offsets and solve the linear problem in
        # (qmax, k) exactly.
        a_fixed, b_fixed = 8.0, 1.0
        basis = 1.0 / ((g + a_fixed) * (p + b_fixed))
        features = np.stack([np.ones_like(basis), -basis], axis=1)
        coeffs, *_ = np.linalg.lstsq(features, quality, rcond=None)
        return cls(qmax=float(coeffs[0]), k=float(coeffs[1]), a=a_fixed, b=b_fixed)


@dataclass
class PaperSizeModel:
    """The paper's literal size form ``S = m - k / ((g + a)^3 (p + b)^2)``."""

    m: float = 100.0
    k: float = 1.0
    a: float = 1.0
    b: float = 1.0

    def predict(self, config: Configuration) -> float:
        g = float(config.granularity)
        p = float(config.patch_size)
        return float(self.m - self.k / (((g + self.a) ** 3) * ((p + self.b) ** 2)))

    @classmethod
    def fit(cls, configs: list, sizes_mb: np.ndarray) -> "PaperSizeModel":
        g, p = _configs_to_arrays(configs)
        sizes = np.asarray(sizes_mb, dtype=np.float64)

        def model(x, m, k, a, b):
            gg, pp = x
            return m - k / (((gg + a) ** 3) * ((pp + b) ** 2))

        # Seed the optimiser so the curve passes near the smallest and the
        # largest observed sizes: m is just above the maximum, and k makes
        # the cheapest sample hit the minimum.
        a0, b0 = 5.0, 1.0
        m0 = float(sizes.max()) * 1.05 + 1.0
        cheapest = int(np.argmin(sizes))
        k0 = max(
            (m0 - float(sizes.min()))
            * ((g[cheapest] + a0) ** 3)
            * ((p[cheapest] + b0) ** 2),
            1.0,
        )
        initial = (m0, k0, a0, b0)
        bounds = ([0.0, 0.0, 0.01, 0.01], [1e6, 1e14, 1e3, 1e2])
        # Reference-only model: an inestimable covariance is tolerable.
        params, _ = _fit_curve(model, (g, p), sizes, p0=initial, bounds=bounds, maxfev=40000)
        return cls(m=float(params[0]), k=float(params[1]), a=float(params[2]), b=float(params[3]))


@dataclass
class PaperQualityModel:
    """The paper's literal quality form ``Q = k' (g + a')^3 (p + b')^2``."""

    k: float = 1e-6
    a: float = 1.0
    b: float = 1.0

    def predict(self, config: Configuration) -> float:
        g = float(config.granularity)
        p = float(config.patch_size)
        return float(self.k * ((g + self.a) ** 3) * ((p + self.b) ** 2))

    @classmethod
    def fit(cls, configs: list, qualities: np.ndarray) -> "PaperQualityModel":
        g, p = _configs_to_arrays(configs)
        quality = np.asarray(qualities, dtype=np.float64)

        def model(x, k, a, b):
            gg, pp = x
            return k * ((gg + a) ** 3) * ((pp + b) ** 2)

        initial = (float(quality.mean()) / (64.0**3 * 9.0), 1.0, 1.0)
        bounds = ([0.0, 0.01, 0.01], [1.0, 1e3, 1e2])
        # Reference-only model: an inestimable covariance is tolerable.
        params, _ = _fit_curve(model, (g, p), quality, p0=initial, bounds=bounds, maxfev=20000)
        return cls(k=float(params[0]), a=float(params[1]), b=float(params[2]))


@dataclass
class ObjectProfile:
    """The fitted profile of one object (or joint sub-scene).

    Attributes:
        name: object / sub-scene name.
        config_space: the configurations available to this object's NeRF.
        quality_model / size_model: fitted white-box models.
        measurements: the sampled ground-truth measurements the models were
            fitted from, keyed by :class:`Configuration`.
        detail_weight: relative importance of this object in the selector's
            objective.  The segmentation stage derives it from the object's
            maximum detail frequency (normalised to mean 1 across a scene's
            sub-scenes), so the configuration budget flows toward the
            high-frequency detail region the paper's Fig. 4 scores — a
            low-detail backdrop should not outbid a detailed object for
            texture bytes.  The default of 1.0 reproduces the unweighted
            objective.
    """

    name: str
    config_space: ConfigurationSpace
    quality_model: QualityModel
    size_model: SizeModel
    measurements: dict = field(default_factory=dict)
    detail_weight: float = 1.0

    def state_tuple(self) -> tuple:
        """The profile's complete fitted state as one nested tuple.

        Covers every field that influences predictions and selection — the
        configuration space, both models' parameters, the raw measurements
        (in insertion order) and the detail weight.  Two profiles with equal
        state tuples behave identically everywhere the library reads them,
        which is what the persistence round-trip and cross-invocation golden
        tests assert (floats are compared exactly, no tolerance).
        """
        return (
            self.name,
            tuple(self.config_space.granularities),
            tuple(self.config_space.patch_sizes),
            (type(self.quality_model).__name__,) + dataclasses.astuple(self.quality_model),
            (type(self.size_model).__name__,) + dataclasses.astuple(self.size_model),
            tuple(
                (config.granularity, config.patch_size, quality, size_mb)
                for config, (quality, size_mb) in self.measurements.items()
            ),
            self.detail_weight,
        )

    def predict_quality(self, config: Configuration) -> float:
        return self.quality_model.predict(config)

    def objective_quality(self, config: Configuration) -> float:
        """Detail-weighted quality used by the configuration selectors."""
        return self.detail_weight * self.quality_model.predict(config)

    def predict_size(self, config: Configuration) -> float:
        return self.size_model.predict(config)

    def min_predicted_size(self) -> float:
        """Smallest predicted size over the configuration space."""
        return min(self.predict_size(config) for config in self.config_space)

    def best_config_within(self, size_budget_mb: float) -> "Configuration | None":
        """Highest-predicted-quality configuration within a size budget.

        Returns ``None`` when no configuration fits.
        """
        best = None
        best_quality = -np.inf
        for config in self.config_space:
            if self.predict_size(config) > size_budget_mb:
                continue
            quality = self.predict_quality(config)
            if quality > best_quality:
                best, best_quality = config, quality
        return best


class ProfileFitter:
    """Builds :class:`ObjectProfile` instances from a measurement callback.

    Args:
        config_space: the configuration space shared by the objects (a
            per-object space can be passed to :meth:`fit`).

    The measurement callback has signature
    ``measure(config: Configuration) -> (quality, size_mb)`` — in the full
    pipeline it bakes the object at ``config`` and scores SSIM against the
    ground truth; in unit tests it can be any synthetic function.
    """

    def __init__(self, config_space: "ConfigurationSpace | None" = None) -> None:
        self.config_space = config_space or ConfigurationSpace()

    def fit(
        self,
        name: str,
        measure,
        config_space: "ConfigurationSpace | None" = None,
        extra_configs: "list | None" = None,
        map_fn=None,
    ) -> ObjectProfile:
        """Sample the profiling configurations and fit both models.

        ``map_fn(fn, items)`` — an ordered map, defaulting to a serial loop
        — executes the sample measurements; passing an execution backend's
        map (see :mod:`repro.exec.backends`) runs the samples concurrently.
        Measurements are keyed back to their configuration by position, so
        any order-preserving map produces identical profiles.
        """
        space = config_space or self.config_space
        configs = list(space.profiling_configs())
        for config in extra_configs or []:
            if config not in configs:
                configs.append(config)

        if map_fn is None:
            results = [measure(config) for config in configs]
        else:
            results = map_fn(measure, configs)
        measurements = {
            config: (float(quality), float(size_mb))
            for config, (quality, size_mb) in zip(configs, results)
        }

        sampled = list(measurements)
        qualities = np.array([measurements[c][0] for c in sampled])
        sizes = np.array([measurements[c][1] for c in sampled])
        quality_model = QualityModel.fit(sampled, qualities)
        size_model = SizeModel.fit(sampled, sizes)
        return ObjectProfile(
            name=name,
            config_space=space,
            quality_model=quality_model,
            size_model=size_model,
            measurements=measurements,
        )


def profile_error_analysis(
    profile: ObjectProfile, measure, configs: list, map_fn=None
) -> dict:
    """Prediction-error statistics over held-out configurations.

    Mirrors the paper's profiler validation (four objects, 45 configuration
    pairs): returns the mean and standard deviation of the absolute quality
    and size prediction errors.  ``map_fn`` (an ordered map, e.g. an
    execution backend's) runs the held-out measurements concurrently.
    """
    if map_fn is None:
        results = [measure(config) for config in configs]
    else:
        results = map_fn(measure, configs)
    quality_errors = []
    size_errors = []
    for config, (quality, size_mb) in zip(configs, results):
        quality_errors.append(abs(profile.predict_quality(config) - quality))
        size_errors.append(abs(profile.predict_size(config) - size_mb))
    quality_errors = np.asarray(quality_errors)
    size_errors = np.asarray(size_errors)
    return {
        "num_configs": len(configs),
        "quality_mean_error": float(quality_errors.mean()),
        "quality_std_error": float(quality_errors.std()),
        "size_mean_error": float(size_errors.mean()),
        "size_std_error": float(size_errors.std()),
    }
