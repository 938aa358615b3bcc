"""Radiance-field substrate: the training-coverage degradation model.

The paper trains one NeRF per sub-scene on a GPU cluster.  This package
stands in for that training with :mod:`repro.nerf.degradation`: a field
learned from views in which an object covers only a few pixels loses
detail below the pixel footprint and grows floaters, and
:class:`DegradedField` applies exactly that loss to the analytic scene
(see DESIGN.md).  The degraded fields are baked (:mod:`repro.baking`) or
sphere-traced directly (:mod:`repro.render`).
"""

from repro.nerf.degradation import DegradedField, coverage_detail_scale

__all__ = [
    "DegradedField",
    "coverage_detail_scale",
]
