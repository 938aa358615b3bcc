"""The AST lint engine: findings, rule protocol, file walking.

The engine is deliberately small: a :class:`Rule` receives one parsed
module (:class:`ModuleContext`) and yields :class:`Finding` objects; the
engine walks the requested paths, parses each ``*.py`` once and runs
every registered rule over it.  There is no suppression layer: a true
positive is fixed, a false positive is fixed in the rule.

Rules live in :mod:`repro.analysis.rules`; the command line in
:mod:`repro.analysis.__main__`.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field

#: Package directories whose modules produce (or key) golden artefacts;
#: the seeding rule family applies only inside them.  Matched on path
#: segments, so fixtures under ``tmp/src/repro/core/`` scope identically.
GOLDEN_PACKAGES = (
    ("repro", "core"),
    ("repro", "exec"),
    ("repro", "render"),
    ("repro", "baking"),
)


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    rule: str
    severity: str
    message: str

    def format(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule} {self.severity}: {self.message}"
        )


class Rule:
    """One named invariant, checked per module.

    Subclasses set ``rule_id`` (stable, never reused), ``title`` and
    ``severity``, and implement :meth:`check` to yield findings.  Rules
    must not mutate the context.
    """

    rule_id: str = "REP-0000"
    title: str = ""
    severity: str = "error"

    def check(self, module: "ModuleContext"):
        raise NotImplementedError

    def finding(self, module: "ModuleContext", node, message: str) -> Finding:
        """A finding of this rule at an AST node's location."""
        return Finding(
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=self.rule_id,
            severity=self.severity,
            message=message,
        )


class ProjectRule(Rule):
    """One invariant checked over the *whole* module set at once.

    Interprocedural rules (the REP-F2xx reachability family) need every
    parsed module — a hazard one call deep in another file is invisible
    per module.  Subclasses implement :meth:`check_project` over the full
    context list; :meth:`check` is a no-op so a project rule is harmless
    when handed to the per-module pass.
    """

    def check(self, module: "ModuleContext"):
        return ()

    def check_project(self, modules):
        raise NotImplementedError


@dataclass
class ModuleContext:
    """One parsed module plus the location facts rules key on."""

    path: str  # normalised to forward slashes, as given on the CLI
    source: str
    tree: ast.Module

    @property
    def parts(self) -> tuple:
        return tuple(part for part in self.path.split("/") if part)

    def _has_package(self, package: tuple) -> bool:
        parts = self.parts
        span = len(package)
        return any(
            parts[i : i + span] == package
            for i in range(len(parts) - span + 1)
        )

    @property
    def in_golden_scope(self) -> bool:
        """Whether this module belongs to a golden-artefact package."""
        return any(self._has_package(pkg) for pkg in GOLDEN_PACKAGES)

    @property
    def is_env_registry(self) -> bool:
        """Whether this is ``repro/config/env.py`` — the one module allowed
        to read ``os.environ``."""
        return self._has_package(("repro", "config")) and self.parts[-1] == "env.py"


def load_module(path: str, source: "str | None" = None) -> "ModuleContext | None":
    """Parse one file into a :class:`ModuleContext` (``None`` on syntax error).

    Unparseable files are skipped rather than reported: the interpreter and
    the test tier already police syntax, and the linter must stay usable on
    trees with in-progress files.
    """
    if source is None:
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
    try:
        tree = ast.parse(source)
    except SyntaxError:
        return None
    return ModuleContext(path=path.replace(os.sep, "/"), source=source, tree=tree)


def iter_python_files(paths) -> list:
    """Every ``*.py`` file under the given files/directories, sorted,
    skipping hidden directories and ``__pycache__``."""
    found = []
    for path in paths:
        if os.path.isfile(path):
            if path.endswith(".py"):
                found.append(path)
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(
                d for d in dirnames
                if not d.startswith(".") and d != "__pycache__"
            )
            for name in sorted(filenames):
                if name.endswith(".py"):
                    found.append(os.path.join(dirpath, name))
    return sorted(set(found))


@dataclass
class AnalysisResult:
    """Everything one lint run produced."""

    findings: list = field(default_factory=list)
    files_checked: int = 0

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0


def analyze_module(module: ModuleContext, rules) -> list:
    """All findings of the per-module ``rules`` against one module."""
    return sorted(
        finding for rule in rules for finding in rule.check(module)
    )


def analyze_paths(paths, rules) -> AnalysisResult:
    """Lint every Python file under ``paths`` with ``rules``.

    Per-module rules run first over each file; :class:`ProjectRule`
    instances then run once over the whole module set.
    """
    modules = [
        module for module in map(load_module, iter_python_files(paths))
        if module is not None
    ]
    module_rules = [rule for rule in rules if not isinstance(rule, ProjectRule)]
    findings = [
        finding for module in modules
        for finding in analyze_module(module, module_rules)
    ]
    for rule in rules:
        if isinstance(rule, ProjectRule):
            findings.extend(rule.check_project(modules))
    return AnalysisResult(findings=sorted(findings), files_checked=len(modules))
