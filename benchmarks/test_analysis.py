"""Benchmarks of the static-analysis pass itself.

The lint gate runs on every CI build, so its wall clock is a budget we
track like any other: full-tree lint time (all rules, including the
interprocedural ones), the call-graph build in isolation, and the finding
counts that prove the run was not vacuous.  Published into the session
trajectory — run with ``REPRO_BENCH_SUITE=analysis`` to emit
``BENCH_analysis.json`` with a ``metrics.analysis`` section.
"""

from __future__ import annotations

import os
import time

from repro.analysis import all_rules, analyze_paths, build_call_graph
from repro.analysis.baseline import Baseline
from repro.analysis.callgraph import concurrent_scope, worker_shipped_scope
from repro.analysis.engine import iter_python_files, load_module

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LINT_PATHS = [os.path.join(REPO_ROOT, d) for d in ("src", "tests", "benchmarks")]

#: Repeats per measurement; best-of like the kernel micro-benchmarks.
REPEATS = 3


def best_seconds(fn, repeats: int = REPEATS) -> tuple:
    result = fn()  # warm-up (fills the graph cache exactly as CI's run does)
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


class TestAnalysisBenchmarks:
    def test_full_tree_lint_wall_clock(self, bench_metrics):
        baseline = Baseline.load(os.path.join(REPO_ROOT, ".analysis-baseline.json"))
        rules = all_rules()

        def run():
            return analyze_paths(LINT_PATHS, rules, baseline=baseline)

        seconds, result = best_seconds(run)
        bench_metrics.setdefault("analysis", {})["lint:full-tree"] = {
            "best_seconds": round(seconds, 4),
            "files": result.files_checked,
            "files_per_second": round(result.files_checked / seconds, 1),
            "rules": len(rules),
            "new_findings": len(result.findings),
            "baselined": len(result.baselined),
            "waivers": len(result.waivers),
        }
        # The gate contract the CI lint job relies on.
        assert result.files_checked > 90
        assert result.findings == [], "\n".join(
            finding.format() for finding in result.findings
        )
        # A full lint that can't finish inside a minute would dominate CI.
        assert seconds < 60.0

    def test_call_graph_build_wall_clock(self, bench_metrics):
        modules = [
            module
            for module in (
                load_module(path)
                for path in iter_python_files([os.path.join(REPO_ROOT, "src")])
            )
            if module is not None
        ]

        def build():
            return build_call_graph(modules)

        seconds, graph = best_seconds(build)
        shipped = worker_shipped_scope(graph)
        concurrent = concurrent_scope(graph)
        bench_metrics.setdefault("analysis", {})["callgraph:src"] = {
            "best_seconds": round(seconds, 4),
            "functions": len(graph.index.functions),
            "edges": sum(len(out) for out in graph.edges.values()),
            "shipped_entries": len(graph.shipped_entries),
            "pool_entries": len(graph.pool_entries),
            "worker_shipped_scope": len(shipped),
            "concurrent_scope": len(concurrent),
        }
        # Not vacuous: the scopes the interprocedural rules walk are
        # populated, and the graph builds in a small fraction of lint time.
        assert len(graph.index.functions) > 500
        assert len(shipped) >= 10
        assert len(concurrent) > len(shipped)
        assert seconds < 30.0
