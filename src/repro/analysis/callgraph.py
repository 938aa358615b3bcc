"""An approximate project-wide call graph over parsed modules.

The per-module rules (:mod:`repro.analysis.rules`) see one file at a
time, so a hazard one call deep — a helper that reads the wall clock,
called by a task shipped to ``Backend.map`` — is invisible to them.
This module builds the interprocedural layer those rules lack:

* :class:`ProjectIndex` — every function and class in the module set,
  keyed by qualified name (``"repro.core.pipeline:_bake_geometry_task"``,
  ``"repro.utils.lru:LockedLRU.get"``), plus per-module import-alias
  maps.
* :class:`CallGraph` — the reference graph.  An edge ``f -> g`` exists
  when ``f``'s body *references* ``g``: calls it directly, calls it
  through a module alias, calls ``self.g()`` inside ``g``'s class, calls
  a method on a local constructed from a known class, defines ``g`` as a
  nested function, or merely loads ``g``'s name (passing a callable
  along counts — that is exactly how tasks reach workers).  The graph is
  deliberately over-approximate: a missing edge hides a real hazard, a
  spurious one costs a restructured call site.
* **The shipped scope** — :func:`worker_shipped_scope` closes over
  every callable passed to ``Backend.map(...)`` (including factory
  calls in task position: the factory and everything it defines are
  shipped).

Reachability is reported with its witness chain (``root -> a -> b``) so
a finding names *how* the hazard is reachable, not just that it is.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field


def dotted_name(node) -> "str | None":
    """``a.b.c`` for a Name/Attribute chain, else ``None`` (local copy:
    :mod:`repro.analysis.rules` imports this module, not the reverse)."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def module_name_for_path(path: str) -> str:
    """The dotted module name a repo path denotes.

    ``src/repro/exec/backends.py`` -> ``repro.exec.backends``; paths outside a
    ``src`` root (``tests/test_x.py``) keep their full dotted form.  The
    *last* ``src`` segment wins so fixture trees under ``tmp/src/...``
    resolve like the real tree.
    """
    parts = [part for part in path.split("/") if part]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if "src" in parts:
        parts = parts[len(parts) - parts[::-1].index("src"):]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


@dataclass
class FunctionInfo:
    """One function (or method, or nested def, or lambda) in the index."""

    qualname: str
    module: "object"  # ModuleContext
    node: "object"    # ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda
    class_name: "str | None" = None


@dataclass
class ProjectIndex:
    """Name-resolution facts for the whole module set."""

    #: dotted module name -> ModuleContext
    modules: dict = field(default_factory=dict)
    #: qualified function name -> FunctionInfo
    functions: dict = field(default_factory=dict)
    #: "module:Class" -> {method name -> qualified name}
    classes: dict = field(default_factory=dict)
    #: dotted module name -> {local alias -> dotted target}
    imports: dict = field(default_factory=dict)


def _record_imports(module_name: str, tree, aliases: dict) -> None:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                aliases[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
                if alias.asname:
                    aliases[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"


def _index_function(index, module, module_name, node, class_name, prefix):
    local = f"{prefix}.{node.name}" if prefix else node.name
    qualname = f"{module_name}:{class_name + '.' if class_name else ''}{local}"
    index.functions[qualname] = FunctionInfo(
        qualname=qualname, module=module, node=node, class_name=class_name,
    )
    for child in node.body:
        _index_statement(index, module, module_name, child, class_name, local)
    return qualname


def _index_statement(index, module, module_name, node, class_name, prefix):
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        _index_function(index, module, module_name, node, class_name, prefix)
    elif isinstance(node, ast.ClassDef) and class_name is None and not prefix:
        class_key = f"{module_name}:{node.name}"
        methods = index.classes.setdefault(class_key, {})
        for child in node.body:
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = _index_function(
                    index, module, module_name, child, node.name, "",
                )
                methods[child.name] = qualname


def build_index(modules) -> ProjectIndex:
    """Index every module, class and function in the context list."""
    index = ProjectIndex()
    for module in modules:
        module_name = module_name_for_path(module.path)
        index.modules[module_name] = module
        aliases = index.imports.setdefault(module_name, {})
        _record_imports(module_name, module.tree, aliases)
        for node in module.tree.body:
            _index_statement(index, module, module_name, node, None, "")
    return index


class _Resolver:
    """Name resolution inside one function body."""

    def __init__(self, index: ProjectIndex, info: FunctionInfo):
        self.index = index
        self.info = info
        self.module_name = module_name_for_path(info.module.path)
        self.aliases = index.imports.get(self.module_name, {})
        #: local variable -> "module:Class" for vars bound to constructors
        #: (enclosing functions' bindings inherited, own bindings win —
        #: closures read the factory's locals)
        self.instances: dict = {}
        base = info.qualname.rpartition(".")[0]
        while ":" in base:
            parent = index.functions.get(base)
            if parent is not None:
                self._collect_instances(parent)
            base = base.rpartition(".")[0]
        self._collect_instances(info)

    def _collect_instances(self, info: FunctionInfo) -> None:
        own_class = (
            f"{self.module_name}:{info.class_name}" if info.class_name else None
        )
        # parameters annotated with a known class bind like constructed
        # locals (``def job(pipeline: NeRFlexPipeline)``)
        arguments = info.node.args
        for arg in arguments.args + arguments.kwonlyargs:
            class_key = self._resolve_class(dotted_name(arg.annotation))
            if class_key is not None:
                self.instances[arg.arg] = class_key
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Assign):
                continue
            class_key = None
            if isinstance(node.value, ast.Call):
                class_key = self._resolve_class(dotted_name(node.value.func))
            elif (
                isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and own_class in self.index.classes
            ):
                class_key = own_class  # `pipeline = self` aliases
            if class_key is None:
                continue
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.instances[target.id] = class_key

    def _resolve_class(self, name) -> "str | None":
        if not name:
            return None
        head, _, tail = name.partition(".")
        target = self.aliases.get(head)
        if target is not None:
            name = f"{target}.{tail}" if tail else target
        if ":" not in name:
            local = f"{self.module_name}:{name}"
            if local in self.index.classes:
                return local
            dotted_module, _, attr = name.rpartition(".")
            candidate = f"{dotted_module}:{attr}"
            if candidate in self.index.classes:
                return candidate
        return None

    def resolve(self, expr) -> "str | None":
        """The qualified function name an expression denotes, or None."""
        name = dotted_name(expr)
        if name is None:
            return None
        parts = name.split(".")
        # self.method() inside a class
        if parts[0] == "self" and len(parts) == 2 and self.info.class_name:
            class_key = f"{self.module_name}:{self.info.class_name}"
            return self.index.classes.get(class_key, {}).get(parts[1])
        # instance.method() for a local bound to a known constructor
        if len(parts) == 2 and parts[0] in self.instances:
            class_key = self.instances[parts[0]]
            return self.index.classes.get(class_key, {}).get(parts[1])
        # a bare name may denote a nested def in an enclosing scope
        if len(parts) == 1 and parts[0] not in self.aliases:
            base = self.info.qualname
            while ":" in base:
                candidate = f"{base}.{parts[0]}"
                if candidate in self.index.functions:
                    return candidate
                prefix = base.rpartition(".")[0]
                base = prefix if ":" in prefix else base.split(":", 1)[0]
        # a plain or dotted name, resolved through the import aliases
        head, tail = parts[0], parts[1:]
        target = self.aliases.get(head)
        if target is not None:
            parts = target.split(".") + tail
        candidates = []
        if len(parts) == 1:
            candidates.append(f"{self.module_name}:{parts[0]}")
        for split in range(len(parts) - 1, 0, -1):
            candidates.append(
                ".".join(parts[:split]) + ":" + ".".join(parts[split:])
            )
        for candidate in candidates:
            if candidate in self.index.functions:
                return candidate
            # ClassName.method / imported-class method references
            class_key, _, method = candidate.rpartition(".")
            hit = self.index.classes.get(class_key, {}).get(method)
            if hit is not None:
                return hit
        # ClassName.method where ClassName is local or import-aliased
        if len(parts) >= 2:
            class_key = self._resolve_class(".".join(name.split(".")[:-1]))
            if class_key is not None:
                hit = self.index.classes.get(class_key, {}).get(parts[-1])
                if hit is not None:
                    return hit
        # constructing a known class reaches its __init__
        class_key = self._resolve_class(name)
        if class_key is not None:
            return self.index.classes.get(class_key, {}).get("__init__")
        return None

    def resolve_call(self, call) -> "str | None":
        """Like :meth:`resolve` on ``call.func``, plus method calls on a
        constructor result (``ProfileFitter(cs).fit(...)``)."""
        target = self.resolve(call.func)
        if target is not None:
            return target
        func = call.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Call):
            class_key = self._resolve_class(dotted_name(func.value.func))
            if class_key is not None:
                return self.index.classes.get(class_key, {}).get(func.attr)
        return None


@dataclass
class CallGraph:
    """The reference graph plus the scope-entry sets found while building."""

    index: ProjectIndex
    #: qualified name -> sorted tuple of referenced qualified names
    edges: dict = field(default_factory=dict)
    #: qualified names of callables passed to Backend.map
    shipped_entries: tuple = ()

    def reachable(self, roots) -> dict:
        """Worklist closure from ``roots``: qualified name -> witness chain
        (the root-to-function reference path, as a tuple)."""
        chains: dict = {}
        frontier = []
        for root in sorted(set(roots)):
            if root in self.index.functions and root not in chains:
                chains[root] = (root,)
                frontier.append(root)
        while frontier:
            name = frontier.pop(0)
            for callee in self.edges.get(name, ()):
                if callee not in chains:
                    chains[callee] = chains[name] + (callee,)
                    frontier.append(callee)
        return chains


def _is_worker_dispatch(call) -> bool:
    """Mirror of the REP-F201 heuristic: ``<...backend>.map(task, ...)``
    ships its first argument."""
    func = call.func
    if not isinstance(func, ast.Attribute) or not call.args:
        return False
    receiver = (dotted_name(func.value) or "").lower()
    return func.attr == "map" and "backend" in receiver


def _entry_targets(resolver, expr) -> list:
    """Qualified names an entry expression (task argument) denotes.

    A factory call in task position (``self._profile_fit_task(ds)``)
    promotes the factory itself: whatever it defines and returns is
    shipped, and the closure already has edges to its nested defs.
    """
    if isinstance(expr, ast.Call):
        expr = expr.func
    target = resolver.resolve(expr)
    return [target] if target is not None else []


def build_call_graph(modules) -> CallGraph:
    """The reference graph over every function in the context list."""
    index = build_index(modules)
    graph = CallGraph(index=index)
    shipped = set()
    for qualname in sorted(index.functions):
        info = index.functions[qualname]
        resolver = _Resolver(index, info)
        callees = set()
        for node in ast.walk(info.node):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node is not info.node:
                # defining a nested function references it
                for candidate, candidate_info in index.functions.items():
                    if candidate_info.node is node:
                        callees.add(candidate)
                        break
                continue
            if isinstance(node, ast.Call):
                target = resolver.resolve_call(node)
                if target is not None:
                    callees.add(target)
                if _is_worker_dispatch(node):
                    shipped.update(_entry_targets(resolver, node.args[0]))
            elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(
                getattr(node, "ctx", None), ast.Load
            ):
                # a bare reference counts: passing a callable along is how
                # tasks travel to dispatch sites in other functions
                target = resolver.resolve(node)
                if target is not None and target != qualname:
                    callees.add(target)
        callees.discard(qualname)
        graph.edges[qualname] = tuple(sorted(callees))
    graph.shipped_entries = tuple(sorted(shipped))
    return graph


def worker_shipped_scope(graph: CallGraph) -> dict:
    """Qualified name -> witness chain, for every function transitively
    reachable from a callable shipped to ``Backend.map``."""
    return graph.reachable(graph.shipped_entries)


def format_chain(chain) -> str:
    """``a -> b -> c`` rendering of a witness chain, short names only."""
    return " -> ".join(name.split(":", 1)[1] for name in chain)
