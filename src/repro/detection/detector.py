"""Per-image object detection producing instance masks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.scenes.raytrace import RenderResult
from repro.utils.filters import label
from repro.utils.image import bbox_from_mask


@dataclass
class Detection:
    """One detected object instance in one image.

    Attributes:
        instance_id: scene instance id for oracle detections, or a negative
            synthetic id for detectors that cannot identify instances.
        mask: boolean pixel mask of the object.
        bbox: ``(row0, col0, row1, col1)`` bounding box (exclusive ends).
        pixel_count: number of mask pixels (the object's footprint, used for
            the training-coverage statistics).
    """

    instance_id: int
    mask: np.ndarray
    bbox: tuple
    pixel_count: int

    @classmethod
    def from_mask(cls, instance_id: int, mask: np.ndarray) -> "Detection":
        mask = np.asarray(mask, dtype=bool)
        return cls(
            instance_id=int(instance_id),
            mask=mask,
            bbox=bbox_from_mask(mask),
            pixel_count=int(mask.sum()),
        )


class OracleDetector:
    """Detector that reads the renderer's instance-ID buffer.

    Stands in for the neural object detector of the paper's segmentation
    module: it returns one mask per object instance visible in the view.
    """

    def detect(self, view: RenderResult, min_pixels: int = 4) -> list:
        """Detect all object instances visible in a rendered view."""
        detections = []
        ids = np.unique(view.object_ids)
        for instance_id in ids:
            if instance_id < 0:
                continue
            mask = view.object_ids == instance_id
            if mask.sum() < min_pixels:
                continue
            detections.append(Detection.from_mask(int(instance_id), mask))
        return detections


class ConnectedComponentsDetector:
    """Image-space detector: foreground extraction + connected components.

    Works from pixels alone: foreground is whatever differs from the
    background colour (or, when available, the renderer's hit mask), and
    connected foreground regions become detections.  Touching objects merge
    into one detection — the same failure mode a real detector would need a
    semantic model to resolve — which downstream modules tolerate (a merged
    region simply becomes one sub-scene).
    """

    def __init__(self, background_color=(1.0, 1.0, 1.0), tolerance: float = 0.04) -> None:
        self.background_color = np.asarray(background_color, dtype=np.float64)
        self.tolerance = float(tolerance)

    def detect(self, view: "RenderResult | np.ndarray", min_pixels: int = 16) -> list:
        """Detect foreground components in an image or rendered view."""
        image = np.asarray(getattr(view, "rgb", view), dtype=np.float64)
        difference = np.abs(image - self.background_color).max(axis=-1)
        foreground = difference > self.tolerance
        labels, num_components = label(foreground)
        detections = []
        next_id = -1
        for component in range(1, num_components + 1):
            mask = labels == component
            if mask.sum() < min_pixels:
                continue
            detections.append(Detection.from_mask(next_id, mask))
            next_id -= 1
        return detections
