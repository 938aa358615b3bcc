"""Tests of the corpus scheduler (:func:`repro.core.pipeline.run_corpus`).

Two tiers.  On stand-in pipelines whose stages do no rendering: identical
results in job order for every worker count against the sequential
reference, genuine overlap of independent jobs, and error propagation
from a job to the caller.  On the real pipeline (the golden corpus-parity
tier): a corpus of independent scenes run on a pool of 1, 2 and 5
workers produces report JSON (profile state included) bit-identical to
the sequential ``run()`` loop; concurrent jobs may share neither a
pipeline nor a render engine; and report stage splits are
mutation-isolated snapshots.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.pipeline import NeRFlexPipeline, PipelineConfig, run_corpus
from repro.device.models import DeviceProfile
from repro.render.engine import RenderEngine
from repro.scenes.dataset import generate_dataset
from repro.scenes.objects import make_cube, make_sphere
from repro.scenes.scene import PlacedObject, Scene

from tests._golden_driver import GOLDEN_DEVICE, golden_config, report_record

# ---------------------------------------------------------------------------
# The pool on stand-in pipelines
# ---------------------------------------------------------------------------

STUB_DEVICE = DeviceProfile(
    name="StubPhone", memory_budget_mb=100.0, hard_memory_limit_mb=100.0
)


class StubPipeline(NeRFlexPipeline):
    """A real ``run()`` over stand-in stages: ``prepare`` sleeps for
    ``nap`` seconds, ``bake`` and ``deploy`` wrap their input, and a
    dataset named ``"bad"`` fails in ``deploy``."""

    def __init__(self, nap: float = 0.0) -> None:
        super().__init__(STUB_DEVICE, PipelineConfig(backend="serial"))
        self.nap = nap

    def prepare(self, dataset):
        time.sleep(self.nap)
        return f"prepared({dataset})"

    def bake(self, preparation):
        return f"baked({preparation})"

    def deploy(self, multi_model, dataset, preparation=None, method="NeRFlex"):
        if dataset == "bad":
            raise RuntimeError("job failed")
        return f"report({multi_model})"


def stub_jobs(datasets, nap: float = 0.0) -> list:
    return [(StubPipeline(nap), dataset) for dataset in datasets]


class TestCorpusPool:
    @pytest.mark.parametrize("workers", [1, 2, 5])
    def test_results_identical_for_any_worker_count(self, workers):
        datasets = ["x", "y", "z", "w"]
        reference = run_corpus(stub_jobs(datasets), workers=0)
        assert reference[0] == (
            "prepared(x)", "baked(prepared(x))", "report(baked(prepared(x)))",
        )
        assert run_corpus(stub_jobs(datasets), workers=workers) == reference

    def test_independent_jobs_overlap(self):
        """Six independent 0.3s sleeping jobs on 3 workers finish well
        under the 1.8s serial time.  Sleeps do not compete for a CPU, so
        this pins the pool's concurrency even on a one-core host."""
        datasets = [f"scene{index}" for index in range(6)]
        start = time.perf_counter()
        runs = run_corpus(stub_jobs(datasets, nap=0.3), workers=3)
        elapsed = time.perf_counter() - start
        assert [preparation for preparation, _, _ in runs] == [
            f"prepared({dataset})" for dataset in datasets
        ]
        assert elapsed < 1.4  # serial would be ~1.8s

    @pytest.mark.parametrize("workers", [1, 3])
    def test_job_error_propagates(self, workers):
        with pytest.raises(RuntimeError, match="job failed"):
            run_corpus(stub_jobs(["ok", "bad", "ok"]), workers=workers)


# ---------------------------------------------------------------------------
# Golden corpus parity on the real pipeline
# ---------------------------------------------------------------------------

#: The corpus: three tiny scenes with differing object counts, so the
#: scenes' run times differ and pool jobs finish out of job order.
CORPUS_SPECS = {
    "corpus-pair": [(make_sphere, 2.0, -0.55), (make_cube, 8.0, 0.55)],
    "corpus-solo": [(make_sphere, 4.0, 0.0)],
    "corpus-trio": [
        (make_cube, 6.0, -0.8),
        (make_sphere, 3.0, 0.0),
        (make_cube, 9.0, 0.8),
    ],
}


def corpus_dataset(name):
    placed = [
        PlacedObject(
            obj=maker(frequency=frequency),
            translation=np.array([x, 0.0, 0.0]),
            instance_id=index,
            instance_name=f"obj{index}",
        )
        for index, (maker, frequency, x) in enumerate(CORPUS_SPECS[name])
    ]
    return generate_dataset(
        Scene(placed), num_train=4, num_test=1, resolution=48, name=name
    )


def corpus_jobs():
    """Fresh ``(pipeline, dataset)`` jobs — one pipeline per scene, serial
    inner backends (thread-level overlap comes from the corpus pool alone)."""
    return [
        (NeRFlexPipeline(GOLDEN_DEVICE, config=golden_config()), corpus_dataset(name))
        for name in sorted(CORPUS_SPECS)
    ]


def corpus_records(runs) -> list:
    return [report_record(run) for run in runs]


class TestCorpusParity:
    @pytest.fixture(scope="class")
    def sequential_records(self):
        return corpus_records(run_corpus(corpus_jobs(), workers=0))

    @pytest.mark.parametrize("workers", [1, 2, 5])
    def test_pool_corpus_matches_sequential_bit_identically(
        self, sequential_records, workers
    ):
        records = corpus_records(run_corpus(corpus_jobs(), workers=workers))
        assert records == sequential_records

    def test_results_arrive_in_job_order(self):
        runs = run_corpus(corpus_jobs(), workers=2)
        names = [preparation.dataset_name for preparation, _, _ in runs]
        assert names == sorted(CORPUS_SPECS)

    def test_every_stage_timed_under_the_pool(self):
        runs = run_corpus(corpus_jobs(), workers=2)
        for _, _, report in runs:
            assert sorted(report.stage_seconds) == [
                "bake",
                "deploy",
                "profiler",
                "segmentation",
                "solver",
            ]
            assert report.worker_seconds.get("render:profiler", 0.0) > 0.0

    def test_shared_pipeline_instance_raises(self):
        pipeline = NeRFlexPipeline(GOLDEN_DEVICE, config=golden_config())
        with pytest.raises(ValueError, match="own"):
            run_corpus(
                [
                    (pipeline, corpus_dataset("corpus-pair")),
                    (pipeline, corpus_dataset("corpus-solo")),
                ],
                workers=2,
            )

    def test_shared_engine_raises(self):
        # Engine attribution is instance state: two concurrent scenes on
        # one engine would credit each other's render:<stage> seconds.
        engine = RenderEngine(backend="serial")
        with pytest.raises(ValueError, match="render engine"):
            run_corpus(
                [
                    (
                        NeRFlexPipeline(GOLDEN_DEVICE, golden_config(), engine=engine),
                        corpus_dataset(name),
                    )
                    for name in ("corpus-pair", "corpus-solo")
                ],
                workers=2,
            )


class TestReportFixes:
    def test_stage_seconds_snapshot_is_mutation_isolated(self):
        # Satellite fix: the report's stage split must be a frozen snapshot
        # — later timer activity on the same preparation (a re-bake, a
        # second deploy) must not rewrite an already-returned report.
        pipeline = NeRFlexPipeline(GOLDEN_DEVICE, config=golden_config())
        preparation, multi_model, report = pipeline.run(corpus_dataset("corpus-solo"))
        stage_before = dict(report.stage_seconds)
        overhead_before = dict(report.overhead_seconds)
        worker_before = dict(report.worker_seconds)

        with preparation.timers.time("segmentation"):
            pass  # accumulates onto the preparation's live timers
        preparation.timers.add_worker("profiler", 123.0)
        second = pipeline.deploy(multi_model, corpus_dataset("corpus-solo"), preparation)

        assert report.stage_seconds == stage_before
        assert report.overhead_seconds == overhead_before
        assert report.worker_seconds == worker_before
        # The fresh deploy sees the accumulated timers; the old report does
        # not share state with it either.
        assert second.stage_seconds is not report.stage_seconds
        assert second.worker_seconds["profiler"] >= 123.0
