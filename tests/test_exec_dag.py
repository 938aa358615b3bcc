"""Tests for the corpus scheduler's pool (:func:`repro.core.pipeline.run_corpus`).

Pins, on stand-in pipelines whose stages do no rendering: identical
results in job order for every worker count against the sequential
reference, genuine overlap of independent jobs, and error propagation
from a job to the caller.  The golden corpus-parity tier
(``tests/test_pipeline_dag.py``) runs the real pipeline.
"""

from __future__ import annotations

import time

import pytest

from repro.core.pipeline import NeRFlexPipeline, PipelineConfig, run_corpus
from repro.device.models import DeviceProfile

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


class TestExecution:
    @pytest.mark.parametrize("workers", [1, 2, 5])
    def test_artifacts_identical_for_any_worker_count(self, workers):
        datasets = ["x", "y", "z", "w"]
        reference = run_corpus(stub_jobs(datasets), workers=0)
        assert reference[0] == (
            "prepared(x)", "baked(prepared(x))", "report(baked(prepared(x)))",
        )
        assert run_corpus(stub_jobs(datasets), workers=workers) == reference

    def test_independent_nodes_overlap(self):
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
    def test_body_error_propagates(self, workers):
        with pytest.raises(RuntimeError, match="job failed"):
            run_corpus(stub_jobs(["ok", "bad", "ok"]), workers=workers)
