"""Figure 5: overall quality and data size across simulated scenes and devices.

(a) Scene-level SSIM of NeRFlex (Pixel and iPhone), Block-NeRF and the
single-NeRF MobileNeRF baseline across the simulated scenes;
(b) the corresponding baked data sizes.

Expected shape: the multi-NeRF methods clearly beat the single NeRF on
quality; Block-NeRF needs several hundred MB (far beyond both devices);
the single NeRF still exceeds the iPhone's loadable limit for most scenes;
NeRFlex adapts its size to each device's budget (240 / 150 MB).
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import SCENE_INDICES, print_table
from repro.core.selector import NeRFlexDPSelector


def test_fig5_quality_and_size(harness, benchmark):
    quality_rows = []
    size_rows = []
    for index in SCENE_INDICES:
        scene_key = f"scene{index}"
        nerflex_iphone = harness.nerflex_report(scene_key, "iPhone 13")
        nerflex_pixel = harness.nerflex_report(scene_key, "Pixel 4")
        # Block-NeRF does not load on either handset; its quality is scored
        # on the workstation profile (as the paper does).
        block = harness.baked_report("block", scene_key, "Workstation")
        single = harness.baked_report("single", scene_key, "Workstation")
        single_iphone = harness.baked_report("single", scene_key, "iPhone 13")

        quality_rows.append(
            [
                scene_key,
                round(nerflex_pixel.ssim, 4),
                round(nerflex_iphone.ssim, 4),
                round(block.ssim, 4),
                round(single.ssim, 4),
            ]
        )
        size_rows.append(
            [
                scene_key,
                round(nerflex_pixel.size_mb, 1),
                round(nerflex_iphone.size_mb, 1),
                round(block.size_mb, 1),
                round(single.size_mb, 1),
                "no" if not single_iphone.loaded else "yes",
            ]
        )

        # Shape assertions per scene.
        assert nerflex_iphone.size_mb <= 240.0 + 1e-6
        assert nerflex_pixel.size_mb <= 150.0 + 1e-6
        assert block.size_mb > 400.0
        assert nerflex_iphone.ssim > single.ssim + 0.02
        assert nerflex_pixel.ssim > single.ssim + 0.02
        assert block.ssim >= nerflex_iphone.ssim - 0.02

    print_table(
        "Fig. 5(a): scene-level SSIM per method (Single evaluated where it can load)",
        ["scene", "NeRFlex (Pixel)", "NeRFlex (iPhone)", "Block-NeRF", "Single (MobileNeRF)"],
        quality_rows,
    )
    print_table(
        "Fig. 5(b): baked data size (MB) per method",
        ["scene", "NeRFlex (Pixel)", "NeRFlex (iPhone)", "Block-NeRF", "Single", "Single loads on iPhone"],
        size_rows,
    )

    # Benchmark the configuration-selection step (the part the paper's
    # framework adds on top of baking) on the last prepared scene.
    preparation, _, _ = harness.nerflex(f"scene{SCENE_INDICES[-1]}", "iPhone 13")
    selector = NeRFlexDPSelector()
    benchmark.pedantic(
        lambda: selector.select(preparation.profiles, 240.0), rounds=5, iterations=1
    )
