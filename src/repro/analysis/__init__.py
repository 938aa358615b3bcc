"""AST-based static analysis of the project's own invariants.

The guarantees this reproduction sells — bit-identical golden reports
across backends and worker counts, content-addressed store keys stable
across processes, daemons that survive being shipped callables — rest on
invariants the type system cannot see.  This package lints for them at
review time instead of golden-test time:

* :mod:`repro.analysis.engine` — the visitor framework: findings with
  stable rule ids, inline ``# repro-analysis: allow=...`` waivers, JSON
  and human output;
* :mod:`repro.analysis.rules` — the rule catalog (determinism,
  fork/pickle safety, lock discipline, environment hygiene);
* :mod:`repro.analysis.baseline` — the checked-in list of accepted
  pre-existing findings, so new rules don't block CI retroactively;
* ``python -m repro.analysis src tests benchmarks`` — the CI gate
  (non-zero on any non-baselined finding).

See DESIGN.md § "Static analysis" for the catalog and the workflow for
adding a rule.
"""

from repro.analysis.baseline import Baseline, BaselineEntry, DEFAULT_BASELINE_NAME
from repro.analysis.callgraph import (
    CallGraph,
    build_call_graph,
    concurrent_scope,
    worker_shipped_scope,
)
from repro.analysis.engine import (
    AnalysisResult,
    Finding,
    ModuleContext,
    ProjectRule,
    Rule,
    Waiver,
    analyze_module,
    analyze_paths,
    iter_python_files,
    load_module,
)
from repro.analysis.rules import DEFAULT_RULES, all_rules

__all__ = [
    "AnalysisResult",
    "Baseline",
    "BaselineEntry",
    "CallGraph",
    "DEFAULT_BASELINE_NAME",
    "DEFAULT_RULES",
    "Finding",
    "ModuleContext",
    "ProjectRule",
    "Rule",
    "Waiver",
    "all_rules",
    "analyze_module",
    "analyze_paths",
    "build_call_graph",
    "concurrent_scope",
    "iter_python_files",
    "load_module",
    "worker_shipped_scope",
]
