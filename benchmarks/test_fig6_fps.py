"""Figure 6: real-time FPS traces on the two devices (Scene 3).

The paper rotates Scene 3 for 2000 frames.  Expected shape: NeRFlex averages
roughly 35 FPS on the iPhone and 25 FPS on the Pixel after an initial
loading phase with heavy fluctuation; the single-NeRF baseline cannot load
at all on the iPhone (0 FPS) and runs at roughly half NeRFlex's rate on the
Pixel.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import print_table
from repro.device.render_sim import RenderSimulator
from repro.device.models import IPHONE_13

SCENE = "scene3"
NUM_FRAMES = 2000


def test_fig6_fps_traces(harness, benchmark):
    nerflex_iphone = harness.nerflex_report(SCENE, "iPhone 13")
    nerflex_pixel = harness.nerflex_report(SCENE, "Pixel 4")
    single_iphone = harness.baked_report("single", SCENE, "iPhone 13")
    single_pixel = harness.baked_report("single", SCENE, "Pixel 4")

    rows = []
    for label, report in [
        ("NeRFlex / iPhone 13", nerflex_iphone),
        ("Single / iPhone 13", single_iphone),
        ("NeRFlex / Pixel 4", nerflex_pixel),
        ("Single / Pixel 4", single_pixel),
    ]:
        trace = report.fps_trace
        rows.append(
            [
                label,
                round(report.size_mb, 1),
                "failed" if trace.failed else "ok",
                round(trace.average, 1),
                round(trace.steady_state_average(), 1),
                round(trace.stutter_rate(), 3),
            ]
        )
    print_table(
        f"Fig. 6: FPS over {NUM_FRAMES} frames (Scene 3)",
        ["deployment", "size MB", "load", "avg FPS", "steady FPS", "stutter rate"],
        rows,
    )

    # Shape assertions.
    assert single_iphone.fps_trace.failed, "Single NeRF must fail to load on the iPhone"
    assert not nerflex_iphone.fps_trace.failed
    assert nerflex_iphone.average_fps >= 25.0
    assert nerflex_pixel.average_fps >= 18.0
    assert not single_pixel.fps_trace.failed
    assert nerflex_pixel.average_fps > 1.8 * single_pixel.average_fps
    # Loading phase is visibly slower than steady state.
    trace = nerflex_iphone.fps_trace
    assert trace.fps[:50].mean() < 0.8 * trace.steady_state_average()

    # Benchmark the FPS simulation itself.
    simulator = RenderSimulator(device=IPHONE_13, seed=0)
    benchmark.pedantic(
        lambda: simulator.simulate(nerflex_iphone.size_mb, num_submodels=5, num_frames=NUM_FRAMES),
        rounds=5,
        iterations=1,
    )
