"""The AST lint engine: findings, rule protocol, file walking, suppression.

The engine is deliberately small: a :class:`Rule` receives one parsed
module (:class:`ModuleContext`) and yields :class:`Finding` objects; the
engine walks the requested paths, parses each ``*.py`` once, runs every
registered rule over it, and applies the two suppression layers —

* **inline allows** — a ``# repro-analysis: allow=REP-X123 <reason>``
  comment on the offending line waives that rule there forever (used for
  deliberate, reviewed exceptions such as the TCP handshake secret);
* **the baseline** (:mod:`repro.analysis.baseline`) — a checked-in list of
  accepted pre-existing findings, so turning a new rule on does not block
  CI until every historical hit is fixed.

Rules live in :mod:`repro.analysis.rules`; the command line in
:mod:`repro.analysis.__main__`.
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from dataclasses import dataclass, field

#: Finding severities, in increasing order of concern.  Both gate CI — the
#: split only signals how directly a finding can corrupt a golden artefact.
SEVERITIES = ("warning", "error")

#: Package directories whose modules produce (or key) golden artefacts;
#: the determinism rule family applies only inside them.  Matched on path
#: segments, so fixtures under ``tmp/src/repro/core/`` scope identically.
GOLDEN_PACKAGES = (
    ("repro", "core"),
    ("repro", "exec"),
    ("repro", "render"),
    # The compiled kernel layer is already covered by ("repro", "render"),
    # but it is listed explicitly: kernels are the tightest golden modules
    # in the tree (their outputs are pinned bit-for-bit across backends)
    # and must stay in scope even if the render package is ever split.
    ("repro", "render", "kernels"),
    ("repro", "baking"),
    # Likewise covered by ("repro", "exec") but pinned explicitly: the
    # frame codec carries every golden map's payload bytes, and
    # worker-daemon parity with the serial loop is itself a pinned tier, so
    # it must stay in scope even if the exec package is ever split.
    ("repro", "exec", "transport.py"),
)

#: Inline suppression: a comment *starting* with the directive — trailing
#: comments waive the same line; a comment-only line waives the line that
#: follows it.  Anchored so prose merely quoting the syntax (like this
#: doc comment) is not parsed as a live waiver.
_ALLOW_RE = re.compile(r"^#\s*repro-analysis:\s*allow=([A-Z0-9,\-]+)\s*(.*)")


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

    def as_dict(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
        }


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

    Interprocedural rules (the REP-F2xx reachability family, REP-G5xx)
    need every parsed module — a hazard one call deep in another file is
    invisible per module.  Subclasses implement :meth:`check_project`
    over the full context list; :meth:`check` is a no-op so a project
    rule is harmless when handed to the per-module driver.
    """

    def check(self, module: "ModuleContext"):
        return ()

    def check_project(self, modules):
        raise NotImplementedError


@dataclass
class Waiver:
    """One inline ``# repro-analysis: allow=...`` comment.

    ``covered_lines`` holds every line the comment waives (its own line,
    plus the following line for comment-only lines); ``suppressed`` counts
    the findings it actually absorbed in the current run — a waiver that
    suppresses nothing is stale (rule ``REP-W001``).
    """

    path: str
    line: int
    rules: frozenset
    covered_lines: tuple
    reason: str = ""
    suppressed: int = 0


@dataclass
class ModuleContext:
    """One parsed module plus the location facts rules key on."""

    path: str  # normalised to forward slashes, as given on the CLI
    source: str
    tree: ast.Module
    #: line number -> set of rule ids waived by an inline allow comment
    allows: dict = field(default_factory=dict)
    #: the :class:`Waiver` records behind ``allows``, in source order
    waivers: list = field(default_factory=list)

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

    def allowed(self, finding: Finding) -> bool:
        """Whether an inline allow waives ``finding`` — and, if so, credit
        the covering waiver(s) so stale-waiver detection sees the use."""
        if finding.rule not in self.allows.get(finding.line, ()):
            return False
        for waiver in self.waivers:
            if finding.line in waiver.covered_lines and finding.rule in waiver.rules:
                waiver.suppressed += 1
        return True


def _parse_allows(path: str, source: str) -> tuple:
    """``(line -> waived rule ids, [Waiver, ...])`` for one module source."""
    allows: dict = {}
    waivers: list = []
    lines = source.splitlines()
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _ALLOW_RE.search(token.string)
            if not match:
                continue
            rules = {r for r in match.group(1).split(",") if r}
            line = token.start[0]
            covered = [line]
            allows.setdefault(line, set()).update(rules)
            # A comment-only line waives the statement below it (multi-line
            # allow blocks chain naturally: each line waives the next).
            prefix = lines[line - 1][: token.start[1]] if line <= len(lines) else ""
            if not prefix.strip():
                allows.setdefault(line + 1, set()).update(rules)
                covered.append(line + 1)
            waivers.append(Waiver(
                path=path,
                line=line,
                rules=frozenset(rules),
                covered_lines=tuple(covered),
                reason=match.group(2).strip(),
            ))
    except tokenize.TokenizeError:  # pragma: no cover - unparseable comments
        pass
    return allows, waivers


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
    normalised = path.replace(os.sep, "/")
    allows, waivers = _parse_allows(normalised, source)
    return ModuleContext(
        path=normalised,
        source=source,
        tree=tree,
        allows=allows,
        waivers=waivers,
    )


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
    """Everything one lint run produced, before and after suppression."""

    findings: list = field(default_factory=list)  # gating (new) findings
    baselined: list = field(default_factory=list)  # matched baseline entries
    files_checked: int = 0
    #: every inline :class:`Waiver` seen, in (path, line) order, with its
    #: post-run suppression count (the ``--waivers`` audit reads this)
    waivers: list = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0

    def as_dict(self, rules) -> dict:
        return {
            "version": 1,
            "rules": [
                {
                    "id": rule.rule_id,
                    "title": rule.title,
                    "severity": rule.severity,
                }
                for rule in rules
            ],
            "summary": {
                "files": self.files_checked,
                "new": len(self.findings),
                "baselined": len(self.baselined),
            },
            "findings": [f.as_dict() for f in self.findings],
            "baselined": [f.as_dict() for f in self.baselined],
        }


def analyze_module(module: ModuleContext, rules) -> list:
    """All non-inline-suppressed findings of ``rules`` against one module."""
    findings = []
    for rule in rules:
        for finding in rule.check(module):
            if not module.allowed(finding):
                findings.append(finding)
    return sorted(findings)


def analyze_paths(paths, rules, baseline=None) -> AnalysisResult:
    """Lint every Python file under ``paths`` with ``rules``.

    Per-module rules run first over each file; :class:`ProjectRule`
    instances then run once over the whole module set (in catalog order,
    so a rule that keys on the suppression stats of the others — the
    stale-waiver audit — lists itself last).

    Args:
        paths: files and/or directories.
        rules: rule instances to run.
        baseline: optional :class:`repro.analysis.baseline.Baseline`;
            matched findings are reported separately and do not gate.
    """
    result = AnalysisResult()
    module_rules = [rule for rule in rules if not isinstance(rule, ProjectRule)]
    project_rules = [rule for rule in rules if isinstance(rule, ProjectRule)]

    modules = []
    for file_path in iter_python_files(paths):
        module = load_module(file_path)
        if module is None:
            continue
        modules.append(module)
    result.files_checked = len(modules)

    def admit(finding):
        if baseline is not None and baseline.matches(finding):
            result.baselined.append(finding)
        else:
            result.findings.append(finding)

    for module in modules:
        for finding in analyze_module(module, module_rules):
            admit(finding)
    by_path = {module.path: module for module in modules}
    for rule in project_rules:
        for finding in sorted(rule.check_project(modules)):
            module = by_path.get(finding.path)
            if module is None or not module.allowed(finding):
                admit(finding)
    for module in modules:
        result.waivers.extend(module.waivers)
    result.findings.sort()
    result.baselined.sort()
    return result
