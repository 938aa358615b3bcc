"""AST-based static analysis of the project's own invariants.

The guarantees this reproduction sells — bit-identical golden reports
across backends and worker counts, workers that survive being shipped
callables — rest on invariants the type system cannot see.  This package
lints for the ones no dynamic test covers yet:

* :mod:`repro.analysis.engine` — the visitor framework: findings with
  stable rule ids, file walking, per-module and project-wide rules;
* :mod:`repro.analysis.rules` — the rule catalog (seeding, fork/pickle
  safety, environment hygiene);
* :mod:`repro.analysis.callgraph` — the call graph behind the
  worker-shipped reachability rules;
* ``python -m repro.analysis src tests benchmarks`` — the CI gate
  (non-zero on any finding).

See DESIGN.md § "Static analysis" for the catalog and the workflow for
adding a rule.
"""

from repro.analysis.callgraph import CallGraph, build_call_graph, worker_shipped_scope
from repro.analysis.engine import (
    AnalysisResult,
    Finding,
    ModuleContext,
    ProjectRule,
    Rule,
    analyze_module,
    analyze_paths,
    iter_python_files,
    load_module,
)
from repro.analysis.rules import DEFAULT_RULES, all_rules

__all__ = [
    "AnalysisResult",
    "CallGraph",
    "DEFAULT_RULES",
    "Finding",
    "ModuleContext",
    "ProjectRule",
    "Rule",
    "all_rules",
    "analyze_module",
    "analyze_paths",
    "build_call_graph",
    "iter_python_files",
    "load_module",
    "worker_shipped_scope",
]
