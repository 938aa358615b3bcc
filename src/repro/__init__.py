"""NeRFlex reproduction package.

This package reproduces *NeRFlex: Resource-aware Real-time High-quality
Rendering of Complex Scenes on Mobile Devices* (Wang & Zhu, ICDCS 2025) as a
pure-Python / numpy library.  It contains

* the paper's primary contribution — detail-based scene segmentation, a
  lightweight white-box configuration profiler and a dynamic-programming
  configuration selector (:mod:`repro.core`);
* every substrate the paper depends on, rebuilt from scratch: a
  training-coverage model of the per-sub-scene radiance fields
  (:mod:`repro.nerf`), a ray-marching render engine (:mod:`repro.render`),
  a mesh/texture baking pipeline (:mod:`repro.baking`), synthetic and
  "real-world style" scenes (:mod:`repro.scenes`), object detection
  (:mod:`repro.detection`), image-quality metrics (:mod:`repro.metrics`),
  a mobile-device simulator (:mod:`repro.device`) and the baselines the
  paper compares against (:mod:`repro.baselines`).

See ``DESIGN.md`` for the module inventory and ``EXPERIMENTS.md`` for the
paper-versus-measured results of every table and figure.

The most commonly used classes are re-exported lazily at the package top
level (``repro.NeRFlexPipeline``, ``repro.IPHONE_13``, ...), so importing
``repro`` stays cheap for callers that only need one substrate.
"""

from __future__ import annotations

import importlib

__version__ = "1.0.0"

#: Top-level name -> (module, attribute) table for lazy re-exports.
_LAZY_EXPORTS = {
    "NeRFlexPipeline": ("repro.core.pipeline", "NeRFlexPipeline"),
    "PipelineConfig": ("repro.core.pipeline", "PipelineConfig"),
    "DeploymentReport": ("repro.core.pipeline", "DeploymentReport"),
    "ObjectProfile": ("repro.core.profiler", "ObjectProfile"),
    "ProfileFitter": ("repro.core.profiler", "ProfileFitter"),
    "NeRFlexDPSelector": ("repro.core.selector", "NeRFlexDPSelector"),
    "ExactMCKSelector": ("repro.core.selector", "ExactMCKSelector"),
    "SelectionResult": ("repro.core.selector", "SelectionResult"),
    "DetailBasedSegmenter": ("repro.core.segmentation", "DetailBasedSegmenter"),
    "SubScene": ("repro.core.segmentation", "SubScene"),
    "Configuration": ("repro.core.config_space", "Configuration"),
    "ConfigurationSpace": ("repro.core.config_space", "ConfigurationSpace"),
    "DeviceProfile": ("repro.device.models", "DeviceProfile"),
    "IPHONE_13": ("repro.device.models", "IPHONE_13"),
    "PIXEL_4": ("repro.device.models", "PIXEL_4"),
    "RenderEngine": ("repro.render.engine", "RenderEngine"),
    "RenderCache": ("repro.render.cache", "RenderCache"),
    "ArtifactStore": ("repro.exec.artifacts", "ArtifactStore"),
    "Backend": ("repro.exec.backends", "Backend"),
    "SerialBackend": ("repro.exec.backends", "SerialBackend"),
    "ThreadBackend": ("repro.exec.backends", "ThreadBackend"),
    "ProcessBackend": ("repro.exec.backends", "ProcessBackend"),
    "resolve_backend": ("repro.exec.backends", "resolve_backend"),
}

__all__ = sorted(_LAZY_EXPORTS) + ["__version__"]


def __getattr__(name: str):
    """Resolve lazy top-level exports (PEP 562)."""
    try:
        module_name, attribute = _LAZY_EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module 'repro' has no attribute {name!r}") from None
    module = importlib.import_module(module_name)
    value = getattr(module, attribute)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY_EXPORTS))
