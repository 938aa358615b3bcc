"""Figure 7: quality of different configuration selectors inside NeRFlex.

The paper compares its DP selector against the Fairness (equal-share) and
SLSQP selectors on both devices across the simulated scenes.  Expected
shape: the DP selector is never worse than the other two, with the largest
margin on mixed-complexity scenes and on the tighter (Pixel 4) budget.

Quality is summarised as the mean per-object SSIM (object-centred close-up
views), the granularity at which the selectors' choices are actually
distinguishable — see EXPERIMENTS.md.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import SCENE_INDICES, SELECTORS, print_table


def test_fig7_selector_comparison(harness, benchmark):
    rows = []
    for index in SCENE_INDICES:
        scene_key = f"scene{index}"
        for device_name in ("iPhone 13", "Pixel 4"):
            scores = {}
            for selector_name in SELECTORS:
                report = harness.nerflex_report(scene_key, device_name, selector_name)
                scores[selector_name] = harness.mean_object_quality(report)
            rows.append(
                [
                    scene_key,
                    device_name,
                    round(scores["Ours (DP)"], 4),
                    round(scores["Fairness"], 4),
                    round(scores["SLSQP"], 4),
                ]
            )
            # The DP selector is never worse than the baselines (small
            # tolerance for measurement noise in the close-up renders).
            assert scores["Ours (DP)"] >= scores["Fairness"] - 0.004
            assert scores["Ours (DP)"] >= scores["SLSQP"] - 0.004

    print_table(
        "Fig. 7: mean per-object SSIM by configuration selector",
        ["scene", "device", "Ours (DP)", "Fairness", "SLSQP"],
        rows,
    )

    # At least one configuration shows a strict win for the DP selector over
    # the Fairness allocation (largest on the tighter Pixel 4 budget, as in
    # the paper).  With the texture-dominated size calibration the SLSQP
    # relaxation has little discretisation gap left and often ties the DP on
    # the default scene subset — see EXPERIMENTS.md.
    strict_wins = sum(1 for row in rows if row[2] > row[3] + 1e-4)
    assert strict_wins >= 1

    # Benchmark: one full selector solve on already-fitted profiles.
    preparation, _, _ = harness.nerflex(f"scene{SCENE_INDICES[-1]}", "Pixel 4")
    from repro.core.selector_baselines import SLSQPSelector

    benchmark.pedantic(
        lambda: SLSQPSelector().select(preparation.profiles, 150.0), rounds=5, iterations=1
    )
