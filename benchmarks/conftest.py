"""Shared harness for the paper-reproduction benchmarks.

Each ``benchmarks/test_fig*.py`` / ``test_table*.py`` file regenerates one
table or figure of the paper's evaluation section.  The heavy artefacts
(datasets, profiler measurements, baked bundles, deployment reports) are
built lazily by the session-scoped :class:`ReproductionHarness` and shared
across benchmark files, so the whole suite stays tractable on a laptop.

Runtime control:

* by default a representative subset of the simulated scenes is used
  (scenes 1 and 4, plus scene 3 for the FPS figure);
* set ``REPRO_FULL=1`` to sweep all four simulated scenes as in the paper;
* set ``REPRO_BENCH_QUICK=1`` for a fast mode (smaller resolutions and
  shorter FPS traces) when iterating on the benchmarks locally;
* every test in this directory carries the ``figure`` marker, so
  ``pytest -m "not figure"`` runs only the unit tiers.

Every benchmark session also emits a machine-readable trajectory,
``BENCH_<suite>.json`` (suite = ``quick`` / ``figures`` /
``$REPRO_BENCH_SUITE``; directory = ``$REPRO_BENCH_DIR`` or the cwd):
wall-clock per figure/table test, the resolved backend and worker
count, and the session's artifact-store hit rates — so the perf
history in EXPERIMENTS.md is backed by data CI archives on every run
instead of living only as prose.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest

from repro.config import env as repro_env
from repro.baselines import (
    BlockNeRFBaseline,
    MipNeRF360Emulator,
    NGPEmulator,
    SingleNeRFBaseline,
)
from repro.core.pipeline import (
    NeRFlexPipeline,
    PipelineConfig,
    evaluate_baked_deployment,
)
from repro.core.selector import NeRFlexDPSelector
from repro.core.selector_baselines import FairnessSelector, SLSQPSelector
from repro.device.models import DeviceProfile, IPHONE_13, PIXEL_4
from repro.exec import ArtifactStore, create_artifact_store
from repro.metrics import lpips_proxy, ssim
from repro.render import default_engine
from repro.scenes.dataset import generate_dataset
from repro.scenes.library import make_realworld_scene, make_simulated_scene
from repro.utils.image import bbox_from_mask, crop_to_bbox

#: Fast mode: smaller resolutions and shorter simulated traces, for local
#: iteration on the benchmark suite itself (REPRO_BENCH_QUICK=1).  The
#: default remains full fidelity, so the figures reproduced by CI / tier-1
#: match EXPERIMENTS.md.  All knobs are read through the typed registry
#: (:mod:`repro.config.env`), which owns each variable's default + parser.
QUICK_MODE = repro_env.REPRO_BENCH_QUICK.get()

#: Image resolution of the generated datasets (training and scene-level test
#: views).  The paper renders at ~800 px on-device; this reproduction scores
#: at a lower resolution, which rescales the useful patch-size range (see
#: EXPERIMENTS.md).
DATASET_RESOLUTION = 96 if QUICK_MODE else 128
NUM_TRAIN_VIEWS = 6
NUM_TEST_VIEWS = 2

FULL_SWEEP = repro_env.REPRO_FULL.get()

#: Warm-store mode (REPRO_REQUIRE_WARM=1): assert at session end that every
#: profile curve and baked model was served from the (disk-backed) artifact
#: store — i.e. this was a second invocation against a populated
#: REPRO_ARTIFACT_DIR and the store recomputed nothing.  CI's warm-store
#: job runs the quick figure suite twice this way.
REQUIRE_WARM = repro_env.REPRO_REQUIRE_WARM.get()


def make_pipeline_config() -> PipelineConfig:
    """The NeRFlex pipeline configuration used by every benchmark."""
    if QUICK_MODE:
        return PipelineConfig(
            profile_resolution=120,
            object_eval_resolution=128,
            num_fps_frames=600,
        )
    return PipelineConfig()


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "figure: full-fidelity paper-figure reproduction benchmark (deselect "
        'with -m "not figure")',
    )


def pytest_collection_modifyitems(config, items):
    # This hook is session-scoped and receives every collected item, not
    # just this directory's — mark only the benchmarks.
    benchmarks_dir = os.path.dirname(os.path.abspath(__file__))
    for item in items:
        if os.path.abspath(str(item.fspath)).startswith(benchmarks_dir + os.sep):
            item.add_marker(pytest.mark.figure)


# ---------------------------------------------------------------------------
# Machine-readable benchmark trajectories (BENCH_<suite>.json)
# ---------------------------------------------------------------------------

#: Per-test call-phase records of this session's benchmarks, in run order.
_BENCH_RECORDS: list = []

#: Structured measurements benchmarks attach via the ``bench_metrics``
#: fixture (e.g. the kernel micro-benchmarks' rays/sec per backend); merged
#: into the session's ``BENCH_<suite>.json`` under ``"metrics"``.
_BENCH_METRICS: dict = {}

#: The session harness, stashed by the fixture so the session-finish hook
#: can read the artifact-store statistics after the run.
_SESSION_HARNESS: dict = {}

_BENCHMARKS_DIR = os.path.dirname(os.path.abspath(__file__))


def _bench_suite_name() -> str:
    explicit = repro_env.REPRO_BENCH_SUITE.get()
    if explicit:
        return explicit
    return "quick" if QUICK_MODE else "figures"


def pytest_runtest_logreport(report):
    # Only the benchmarks' call phase belongs in the trajectory (setup of
    # the session fixtures is amortised and reported per first user).
    if report.when != "call":
        return
    # Node ids are rootdir-relative with forward slashes regardless of the
    # invocation directory, unlike ``report.fspath``.
    path_part = report.nodeid.split("::")[0]
    if os.path.basename(_BENCHMARKS_DIR) not in path_part.split("/"):
        return
    _BENCH_RECORDS.append(
        {
            "nodeid": report.nodeid,
            "file": os.path.basename(path_part),
            "outcome": report.outcome,
            "seconds": round(float(report.duration), 3),
        }
    )


def pytest_sessionfinish(session, exitstatus):
    if not _BENCH_RECORDS:
        return  # no benchmark ran in this session (e.g. unit-tier only)
    from repro.exec import resolve_backend

    try:
        backend = resolve_backend(None)
        backend_info = {"name": backend.name, "workers": backend.workers}
    except ValueError as error:  # unknown REPRO_BACKEND: record, don't crash
        backend_info = {"error": str(error)}
    harness = _SESSION_HARNESS.get("instance")
    store_info = None
    if harness is not None:
        store = harness.artifacts
        store_info = store.stats_summary()
        store_info["disk"] = (
            None if store.disk is None else store.disk.stats.as_dict()
        )
    payload = {
        "suite": _bench_suite_name(),
        "written_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "exit_status": int(exitstatus),
        "quick_mode": QUICK_MODE,
        "full_sweep": FULL_SWEEP,
        "scene_indices": list(SCENE_INDICES),
        "backend": backend_info,
        "total_seconds": round(
            sum(record["seconds"] for record in _BENCH_RECORDS), 3
        ),
        "artifact_store": store_info,
        "metrics": dict(_BENCH_METRICS),
        "tests": list(_BENCH_RECORDS),
    }
    out_dir = repro_env.REPRO_BENCH_DIR.get() or os.getcwd()
    out_path = os.path.join(out_dir, f"BENCH_{payload['suite']}.json")
    try:
        os.makedirs(out_dir, exist_ok=True)
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=False)
            handle.write("\n")
    except OSError as error:  # pragma: no cover - unwritable bench dir
        print(f"\n[bench trajectory] could not write {out_path}: {error}")
        return
    print(f"\n[bench trajectory] {len(_BENCH_RECORDS)} records -> {out_path}")

#: Simulated scenes used by the overall-performance benchmarks.  The default
#: single-scene subset keeps the suite tractable on one CPU core; set
#: REPRO_FULL=1 to sweep all four scenes as in the paper.
SCENE_INDICES = (1, 2, 3, 4) if FULL_SWEEP else (4,)

#: A "device" with effectively unlimited memory, used to score the quality of
#: representations that cannot load on either handset (the paper likewise
#: reports Block-NeRF's quality even though it never runs on a phone).
WORKSTATION = DeviceProfile(
    name="Workstation",
    memory_budget_mb=1e6,
    hard_memory_limit_mb=1e6,
    compute_score=20.0,
)

DEVICES = {"iPhone 13": IPHONE_13, "Pixel 4": PIXEL_4, "Workstation": WORKSTATION}

SELECTORS = {
    "Ours (DP)": lambda: NeRFlexDPSelector(),
    "Fairness": lambda: FairnessSelector(),
    "SLSQP": lambda: SLSQPSelector(),
}


def print_table(title: str, header: list, rows: list) -> None:
    """Print a reproduction table in a compact, paper-like format."""
    print()
    print(f"=== {title} ===")
    widths = [
        max(len(str(header[i])), max((len(str(row[i])) for row in rows), default=0))
        for i in range(len(header))
    ]
    line = "  ".join(str(h).ljust(w) for h, w in zip(header, widths))
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)))
    print()


class ReproductionHarness:
    """Lazy, memoised builder of every artefact the benchmarks need.

    Besides the per-key memo dicts, the harness owns one session-scoped
    :class:`~repro.exec.ArtifactStore`: every NeRFlex pipeline spawned for a
    (scene, device, selector) combination shares it, so profile curves fit
    for one device are reused by every other device/selector configuration
    on the same scene, and baked sub-models are reused wherever two
    configurations select the same ``(g, p)`` for an object.  When
    ``REPRO_ARTIFACT_DIR`` is set the store is disk-backed, extending that
    reuse across *invocations*: a second benchmark run on the same scenes
    serves every profile and bake from disk and skips the corresponding
    stages entirely (asserted in warm-store mode, see ``REQUIRE_WARM``).
    """

    def __init__(self) -> None:
        self._datasets: dict = {}
        self._measurement_caches: dict = {}
        self._nerflex_runs: dict = {}
        self._single_models: dict = {}
        self._block_models: dict = {}
        self._baked_reports: dict = {}
        self._detail_metrics: dict = {}
        self.artifacts = create_artifact_store()

    # -- datasets -----------------------------------------------------------

    def dataset(self, scene_key: str):
        """Dataset for ``"scene1"``..``"scene4"`` or ``"realworld"``."""
        if scene_key not in self._datasets:
            if scene_key == "realworld":
                scene = make_realworld_scene(seed=0)
                self._datasets[scene_key] = generate_dataset(
                    scene,
                    num_train=NUM_TRAIN_VIEWS,
                    num_test=NUM_TEST_VIEWS,
                    resolution=DATASET_RESOLUTION,
                    trajectory="forward",
                    name=scene_key,
                )
            else:
                index = int(scene_key.replace("scene", ""))
                scene = make_simulated_scene(index, seed=0)
                self._datasets[scene_key] = generate_dataset(
                    scene,
                    num_train=NUM_TRAIN_VIEWS,
                    num_test=NUM_TEST_VIEWS,
                    resolution=DATASET_RESOLUTION,
                    name=scene_key,
                )
        return self._datasets[scene_key]

    def cache(self, scene_key: str) -> dict:
        """Per-scene measurement cache shared across devices and selectors."""
        return self._measurement_caches.setdefault(scene_key, {})

    # -- NeRFlex ------------------------------------------------------------

    def nerflex(self, scene_key: str, device_name: str, selector_name: str = "Ours (DP)"):
        """Run (and memoise) the NeRFlex pipeline for one configuration.

        Returns ``(preparation, multi_model, report)``.
        """
        key = (scene_key, device_name, selector_name)
        if key not in self._nerflex_runs:
            dataset = self.dataset(scene_key)
            pipeline = NeRFlexPipeline(
                DEVICES[device_name],
                make_pipeline_config(),
                selector=SELECTORS[selector_name](),
                measurement_cache=self.cache(scene_key),
                artifacts=self.artifacts,
            )
            self._nerflex_runs[key] = pipeline.run(dataset)
        return self._nerflex_runs[key]

    def nerflex_report(self, scene_key: str, device_name: str, selector_name: str = "Ours (DP)"):
        return self.nerflex(scene_key, device_name, selector_name)[2]

    # -- baselines ----------------------------------------------------------

    def single_model(self, scene_key: str):
        if scene_key not in self._single_models:
            self._single_models[scene_key] = SingleNeRFBaseline().bake(self.dataset(scene_key))
        return self._single_models[scene_key]

    def block_model(self, scene_key: str):
        if scene_key not in self._block_models:
            self._block_models[scene_key] = BlockNeRFBaseline().bake(
                self.dataset(scene_key), geometry_cache=self.cache(scene_key)
            )
        return self._block_models[scene_key]

    def baked_report(self, method: str, scene_key: str, device_name: str):
        """Deployment report of a fixed-configuration baseline on a device."""
        key = (method, scene_key, device_name)
        if key not in self._baked_reports:
            if method == "single":
                model = self.single_model(scene_key)
                label = SingleNeRFBaseline.method_name
            elif method == "block":
                model = self.block_model(scene_key)
                label = BlockNeRFBaseline.method_name
            else:
                raise ValueError(f"unknown baked baseline {method!r}")
            self._baked_reports[key] = evaluate_baked_deployment(
                model,
                self.dataset(scene_key),
                DEVICES[device_name],
                method=label,
                num_eval_views=NUM_TEST_VIEWS,
                gt_cache=self.cache(scene_key),
            )
        return self._baked_reports[key]

    # -- detail-region quality ------------------------------------------------

    def detail_region_metrics(self, scene_key: str, method: str) -> dict:
        """Quality over the high-frequency detail region (foreground objects).

        Fig. 4 reports SSIM "for the high-frequency detail region"; for the
        real-world style scene this is the union of the foreground objects'
        pixels (the procedural backdrop is excluded).  Each method's output
        is re-rendered on the held-out test views and scored against ground
        truth inside that region (LPIPS is computed on the region's bounding
        box crop).
        """
        key = (scene_key, method)
        if key in self._detail_metrics:
            return self._detail_metrics[key]
        dataset = self.dataset(scene_key)
        foreground_ids = [
            placed.instance_id
            for placed in dataset.scene.placed
            if placed.instance_name != "backdrop"
        ]
        background = dataset.scene.background_color
        engine = default_engine()

        def rendered_view(camera):
            # Rendering goes through the shared engine cache, so test views
            # already rendered by a method's deployment report are reused
            # here instead of being marched again.
            if method == "nerflex":
                model = self.nerflex(scene_key, "iPhone 13")[1]
                return engine.render_baked(
                    model, camera, background=background, scene_key=dataset.name
                )
            if method == "single":
                return engine.render_baked(
                    self.single_model(scene_key), camera, background=background,
                    scene_key=dataset.name,
                )
            if method == "block":
                return engine.render_baked(
                    self.block_model(scene_key), camera, background=background,
                    scene_key=dataset.name,
                )
            emulator = NGPEmulator() if method == "ngp" else MipNeRF360Emulator()
            field = emulator.build_field(dataset)
            return engine.render_field(
                field, camera, background=background,
                scene_key=emulator.render_key(dataset),
            )

        ssim_scores, psnr_scores, lpips_scores = [], [], []
        for view, camera in zip(dataset.test_views[:NUM_TEST_VIEWS], dataset.test_cameras):
            rendered = rendered_view(camera)
            mask = np.isin(view.object_ids, foreground_ids)
            if mask.sum() < 64:
                continue
            ssim_scores.append(ssim(view.rgb, rendered.rgb, mask=mask))
            mse = float(np.mean((view.rgb[mask] - rendered.rgb[mask]) ** 2))
            psnr_scores.append(10.0 * np.log10(1.0 / max(mse, 1e-12)))
            bbox = bbox_from_mask(mask, margin=4)
            lpips_scores.append(
                lpips_proxy(crop_to_bbox(view.rgb, bbox), crop_to_bbox(rendered.rgb, bbox))
            )
        result = {
            "ssim": float(np.mean(ssim_scores)),
            "psnr": float(np.mean(psnr_scores)),
            "lpips": float(np.mean(lpips_scores)),
        }
        self._detail_metrics[key] = result
        return result

    # -- aggregates ---------------------------------------------------------

    @staticmethod
    def mean_object_quality(report) -> float:
        """Mean per-object SSIM of a deployment (the Fig. 7 metric)."""
        values = list(report.per_object_ssim.values())
        return float(np.mean(values)) if values else 0.0


@pytest.fixture(scope="session")
def harness():
    instance = ReproductionHarness()
    _SESSION_HARNESS["instance"] = instance
    yield instance
    store = instance.artifacts
    summary = store.stats_summary()
    print(
        f"\n[artifact store] {summary['hits']} hits "
        f"({summary['disk_hits']} from disk), "
        f"recomputed {summary['recompute_by_kind'] or 'nothing'}, "
        f"disk={'off' if store.disk is None else store.disk.root}"
    )
    if REQUIRE_WARM:
        recomputes = {
            kind: count
            for kind, count in store.recompute_by_kind().items()
            if kind in ("profile", "baked") and count
        }
        assert store.disk is not None, (
            "REPRO_REQUIRE_WARM=1 needs a disk-backed store; set "
            "REPRO_ARTIFACT_DIR to the directory a previous run populated"
        )
        assert not recomputes, (
            "warm-store run recomputed artefacts that should have been "
            f"served from {store.disk.root}: {recomputes} "
            f"(disk stats: {store.disk.stats.as_dict()})"
        )


@pytest.fixture(scope="session")
def bench_metrics() -> dict:
    """Session-scoped dict of structured benchmark measurements.

    Whatever benchmarks put here lands verbatim under ``"metrics"`` in the
    session's ``BENCH_<suite>.json`` — the channel the kernel
    micro-benchmarks use to publish per-backend throughput alongside the
    per-test wall clocks.
    """
    return _BENCH_METRICS


@pytest.fixture(scope="session")
def artifact_store(harness) -> ArtifactStore:
    """The artifact store shared by every pipeline the figure suite builds."""
    return harness.artifacts
