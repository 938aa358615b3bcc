"""Figure 8: per-object quality and per-object resource allocation (Scene 4).

(a) Per-object SSIM under each configuration selector on both devices, with
objects ordered by ascending 3D geometric complexity
(hotdog, ficus, chair, ship, lego);
(b) the per-object data-size allocation chosen by each selector on the
iPhone.

Expected shape: the DP selector allocates noticeably more bytes to the
geometrically complex objects (ship, lego) than the Fairness selector does,
and converts that into higher per-object quality on those objects while
staying comparable on the simple ones.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import SELECTORS, print_table

SCENE = "scene4"
OBJECT_ORDER = ("hotdog", "ficus", "chair", "ship", "lego")  # ascending complexity


def test_fig8a_per_object_quality(harness, benchmark):
    rows = []
    reports = {}
    for device_name in ("iPhone 13", "Pixel 4"):
        for selector_name in SELECTORS:
            report = harness.nerflex_report(SCENE, device_name, selector_name)
            reports[(device_name, selector_name)] = report
            rows.append(
                [device_name, selector_name]
                + [round(report.per_object_ssim.get(obj, float("nan")), 4) for obj in OBJECT_ORDER]
            )
    print_table(
        "Fig. 8(a): per-object SSIM by selector (objects in ascending geometric complexity)",
        ["device", "selector", *OBJECT_ORDER],
        rows,
    )

    for device_name in ("iPhone 13", "Pixel 4"):
        ours = reports[(device_name, "Ours (DP)")].per_object_ssim
        fairness = reports[(device_name, "Fairness")].per_object_ssim
        complex_gain = np.mean([ours[o] - fairness[o] for o in ("ship", "lego")])
        simple_drop = np.mean([fairness[o] - ours[o] for o in ("hotdog", "ficus", "chair")])
        # The DP's gains on complex objects outweigh anything it gives up on
        # the simple ones.
        assert complex_gain >= -0.002
        assert complex_gain >= simple_drop - 0.003
        # Overall the DP is at least as good as Fairness.
        assert np.mean(list(ours.values())) >= np.mean(list(fairness.values())) - 0.003

    benchmark.pedantic(
        lambda: harness.mean_object_quality(reports[("iPhone 13", "Ours (DP)")]),
        rounds=5,
        iterations=1,
    )


def test_fig8b_resource_allocation(harness, benchmark):
    device_name = "iPhone 13"
    rows = []
    allocations = {}
    for selector_name in SELECTORS:
        report = harness.nerflex_report(SCENE, device_name, selector_name)
        sizes = report.per_object_size_mb
        allocations[selector_name] = sizes
        rows.append(
            [selector_name]
            + [round(sizes.get(obj, 0.0), 1) for obj in OBJECT_ORDER]
            + [round(report.size_mb, 1)]
        )
    print_table(
        f"Fig. 8(b): per-object data size allocation on {device_name} (MB)",
        ["selector", *OBJECT_ORDER, "total"],
        rows,
    )

    ours = allocations["Ours (DP)"]
    fairness = allocations["Fairness"]
    # The DP gives the most complex object (lego) at least as much as any
    # simple object, and more than the equal-share allocation gives it.
    assert ours["lego"] >= max(ours["hotdog"], ours["ficus"]) - 1e-6
    assert ours["lego"] >= fairness["lego"] - 1e-6
    # Every selector respects the device budget.
    for sizes in allocations.values():
        assert sum(sizes.values()) <= 240.0 + 1e-6

    benchmark.pedantic(lambda: sum(ours.values()), rounds=5, iterations=1)
