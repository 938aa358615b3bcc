"""Figure 4: complex-scene rendering quality and memory per method.

The paper renders a real-world scene on the iPhone 13 (240 MB budget) with
MobileNeRF, Mip-NeRF 360, Instant-NGP, Block-NeRF and NeRFlex, reporting the
SSIM of the *high-frequency detail region* together with the memory
footprint of the deployable methods.  Expected shape: Block-NeRF has the
highest quality but does not fit the device; the single-scene MobileNeRF is
the worst; NeRFlex is close to Block-NeRF while staying inside the memory
constraint.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import print_table

SCENE = "realworld"
DEVICE = "iPhone 13"


def test_fig4_method_comparison(harness, benchmark):
    nerflex = harness.nerflex_report(SCENE, DEVICE)
    single = harness.baked_report("single", SCENE, DEVICE)
    block = harness.baked_report("block", SCENE, DEVICE)

    detail = {
        method: harness.detail_region_metrics(SCENE, method)
        for method in ("single", "mip360", "ngp", "block", "nerflex")
    }

    # Benchmark the deployable artefact's size accounting + memory check
    # (before the shape assertions, so the benchmark fixture always runs).
    from repro.device.memory import MemoryModel
    from repro.device.models import IPHONE_13

    model = harness.nerflex(SCENE, DEVICE)[1]
    benchmark.pedantic(
        lambda: MemoryModel(IPHONE_13).try_load(model.size_mb()), rounds=5, iterations=1
    )

    rows = [
        ["MobileNeRF (single)", round(detail["single"]["ssim"], 4), round(single.size_mb, 1), "yes" if single.loaded else "no"],
        ["Mip-NeRF 360", round(detail["mip360"]["ssim"], 4), "-", "n/a (workstation)"],
        ["Instant-NGP", round(detail["ngp"]["ssim"], 4), "-", "n/a (workstation)"],
        ["Block-NeRF", round(detail["block"]["ssim"], 4), round(block.size_mb, 1), "yes" if block.loaded else "no"],
        ["NeRFlex", round(detail["nerflex"]["ssim"], 4), round(nerflex.size_mb, 1), "yes" if nerflex.loaded else "no"],
    ]
    print_table(
        f"Fig. 4: detail-region SSIM / memory on {DEVICE} (budget 240 MB), real-world style scene",
        ["method", "SSIM (detail region)", "data size (MB)", "fits device"],
        rows,
    )

    # Shape assertions from the paper.
    assert nerflex.loaded, "NeRFlex must fit the iPhone memory constraint"
    assert not block.loaded, "Block-NeRF must exceed the iPhone memory constraint"
    assert nerflex.size_mb <= 240.0 + 1e-6
    assert block.size_mb > 240.0
    # Quality ordering on the detail region: NeRFlex beats every whole-scene
    # method; Block-NeRF (unconstrained per-object NeRFs) is at least as good.
    assert detail["nerflex"]["ssim"] > detail["single"]["ssim"] + 0.005
    assert detail["nerflex"]["ssim"] >= detail["mip360"]["ssim"] - 0.02
    assert detail["nerflex"]["ssim"] >= detail["ngp"]["ssim"] - 0.03
    assert detail["block"]["ssim"] >= detail["nerflex"]["ssim"] - 0.02
