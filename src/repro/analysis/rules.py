"""The project-invariant rule catalog.

Six rule families encode the invariants this reproduction's guarantees
rest on — the exact classes of bug once fixed after the fact (per-process
store keys, aliased seed streams, racing warning filters):

* ``REP-D1xx`` **determinism** — golden-artefact modules (``repro/core``,
  ``repro/exec``, ``repro/render``, ``repro/baking``) must not read
  wall-clocks, per-process ``hash()``/``id()`` values, unseeded RNG
  streams, ad-hoc OS entropy, or iterate sets into ordered output.
* ``REP-F2xx`` **fork/pickle safety** — callables shipped to worker
  daemons must not close over locks, sockets, open files or threads
  (F201), nor reach impure code (F203) or lock/file/socket state (F204)
  through the call graph.
* ``REP-L3xx`` **lock discipline** — a class that owns a
  ``threading.Lock`` (or a ``LockedLRU``) mutates its shared attributes
  only inside ``with self._lock`` / ``with self._lru.lock`` blocks.
* ``REP-E4xx`` **environment hygiene** — every environment variable is
  read through the typed :mod:`repro.config.env` registry; raw
  ``os.environ`` reads anywhere else are findings.
* ``REP-G5xx`` **concurrent global state** — code reachable from a
  thread-pool entry must not mutate process-global state (warning
  filters, numpy error state, ...), the race once fixed in
  ``QualityModel.fit``.
* ``REP-W0xx`` **waiver hygiene** — an inline allow that suppresses
  nothing is itself a finding.

Rule ids are stable and never reused; retired rules leave a tombstone
comment here.  Adding a rule: subclass :class:`~repro.analysis.engine.
Rule`, append an instance to :data:`DEFAULT_RULES`, add known-bad and
known-good fixtures in ``tests/test_analysis_rules.py``, then triage the
hits on the real tree (fix, inline-allow with a reason, or baseline).
"""

from __future__ import annotations

import ast

from repro.analysis.engine import Finding, ProjectRule, Rule


# ---------------------------------------------------------------------------
# Shared AST helpers
# ---------------------------------------------------------------------------

def dotted_name(node) -> "str | None":
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def attr_tuple(node) -> "tuple | None":
    """``("self", "x", "lock")`` for ``self.x.lock``, else ``None``."""
    name = dotted_name(node)
    return tuple(name.split(".")) if name else None


def build_parent_map(tree) -> dict:
    parents = {}
    for parent in ast.walk(tree):
        for child in ast.iter_child_nodes(parent):
            parents[child] = parent
    return parents


def self_attr_base(node) -> "str | None":
    """The first attribute after ``self`` in a target expression.

    ``self.stats.hits`` -> ``"stats"``; ``self._store[key]`` -> ``"_store"``;
    anything not rooted at ``self`` -> ``None``.
    """
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        inner = node.value
        if (
            isinstance(node, ast.Attribute)
            and isinstance(inner, ast.Name)
            and inner.id == "self"
        ):
            return node.attr
        node = inner
    return None


def literal_arg(call: ast.Call) -> "str | None":
    """The first positional argument when it is a string literal."""
    if call.args and isinstance(call.args[0], ast.Constant):
        value = call.args[0].value
        if isinstance(value, str):
            return value
    return None


# ---------------------------------------------------------------------------
# REP-D1xx — determinism in golden-artefact modules
# ---------------------------------------------------------------------------

class BuiltinHashRule(Rule):
    """``hash()`` is salted per process (PYTHONHASHSEED): a content key or
    filename derived from it differs between two invocations, which is the
    exact PR 3 bug that broke cross-process artifact-store digests."""

    rule_id = "REP-D101"
    title = "builtin hash() in a golden-artefact module"
    severity = "error"

    def check(self, module):
        if not module.in_golden_scope:
            return
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "hash"
            ):
                yield self.finding(
                    module, node,
                    "builtin hash() is process-salted and unstable across "
                    "invocations; derive digests from a canonical encoding "
                    "(e.g. repro.exec.persist.key_filename) instead",
                )


class BuiltinIdRule(Rule):
    """``id()`` is an address — unstable across processes and reused within
    one; it must never feed a key, an ordering, or persisted output."""

    rule_id = "REP-D102"
    title = "builtin id() in a golden-artefact module"
    severity = "error"

    def check(self, module):
        if not module.in_golden_scope:
            return
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "id"
            ):
                yield self.finding(
                    module, node,
                    "builtin id() is a process-local address; use explicit "
                    "content identity for keys and orderings",
                )


#: Wall-clock reads that poison golden output.  ``time.perf_counter`` /
#: ``time.monotonic`` stay legal: timings are reported, never keyed on.
_WALL_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.ctime",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.date.today",
    "date.today",
}


class WallClockRule(Rule):
    rule_id = "REP-D103"
    title = "wall-clock read in a golden-artefact module"
    severity = "warning"

    def check(self, module):
        if not module.in_golden_scope:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name in _WALL_CLOCK_CALLS:
                yield self.finding(
                    module, node,
                    f"{name}() reads the wall clock; golden artefacts must "
                    "be pure functions of their inputs (perf_counter / "
                    "monotonic are fine for reported timings)",
                )


#: ``np.random`` attributes that are *not* the legacy seeded-nowhere global
#: state and therefore remain legal in golden modules.
_NP_RANDOM_ALLOWED = {
    "default_rng",
    "Generator",
    "SeedSequence",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "SFC64",
    "MT19937",
}


class UnseededRngRule(Rule):
    """Unseeded randomness in a golden module: the stdlib ``random``
    module, the legacy ``np.random.*`` global state, and argument-less
    ``np.random.default_rng()``.  Streams must come from
    ``repro.utils.rng.make_rng``/``derive_rng`` or — per shard —
    ``repro.exec.shard_rng`` keyed by the item index (the PR 4 contract)."""

    rule_id = "REP-D104"
    title = "unseeded / global-state RNG in a golden-artefact module"
    severity = "error"

    def check(self, module):
        if not module.in_golden_scope:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            parts = name.split(".")
            if parts[0] == "random" and len(parts) == 2:
                yield self.finding(
                    module, node,
                    f"stdlib {name}() draws from hidden global state; use a "
                    "seeded numpy Generator (repro.utils.rng.make_rng)",
                )
            elif (
                len(parts) == 3
                and parts[0] in ("np", "numpy")
                and parts[1] == "random"
                and parts[2] not in _NP_RANDOM_ALLOWED
            ):
                yield self.finding(
                    module, node,
                    f"{name}() uses numpy's legacy global RNG state; use a "
                    "seeded Generator (make_rng / derive_rng / shard_rng)",
                )
            elif (
                len(parts) >= 2
                and parts[-1] == "default_rng"
                and not node.args
                and not node.keywords
            ):
                yield self.finding(
                    module, node,
                    "default_rng() without a seed draws fresh OS entropy per "
                    "call — the PR 4 seed-aliasing class of bug; thread a "
                    "seed through, or draw repro.exec.fresh_seed_root() "
                    "once per map",
                )


#: Functions blessed to draw OS entropy; everything else must receive a
#: seed (or a root from ``fresh_seed_root``) from its caller.
_ENTROPY_ALLOWED_FUNCTIONS = ("fresh_seed_root",)

_ENTROPY_CALLS = {"os.urandom", "uuid.uuid4", "uuid.uuid1"}


class EntropyRule(Rule):
    """Ad-hoc OS entropy (``os.urandom``, ``secrets.*``, argument-less
    ``SeedSequence()``) outside the blessed ``fresh_seed_root`` helper.
    PR 4's seed-aliasing fix centralised entropy there so nondeterministic
    streams are shard-count-invariant and can never alias seeded runs."""

    rule_id = "REP-D105"
    title = "OS entropy outside fresh_seed_root in a golden-artefact module"
    severity = "error"

    def check(self, module):
        if not module.in_golden_scope:
            return
        yield from self._walk(module, module.tree, inside_blessed=False)

    def _walk(self, module, node, inside_blessed):
        for child in ast.iter_child_nodes(node):
            blessed = inside_blessed
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                blessed = child.name in _ENTROPY_ALLOWED_FUNCTIONS
            if isinstance(child, ast.Call) and not blessed:
                name = dotted_name(child.func)
                parts = (name or "").split(".")
                entropy = (
                    name in _ENTROPY_CALLS
                    or parts[0] == "secrets"
                    or (
                        parts[-1] == "SeedSequence"
                        and not child.args
                        and not child.keywords
                    )
                )
                if entropy:
                    yield self.finding(
                        module, child,
                        f"{name}() draws OS entropy outside fresh_seed_root; "
                        "nondeterministic streams must flow from one "
                        "fresh_seed_root() draw per map so they stay "
                        "shard-count-invariant and never alias seeded runs",
                    )
            yield from self._walk(module, child, blessed)


#: Call consumers that materialise iteration order from their argument.
_ORDER_SENSITIVE_CALLS = {"list", "tuple", "enumerate", "iter", "next"}


class SetIterationRule(Rule):
    """Iterating a set into ordered output: set iteration order depends on
    element hashes, hence (for str/bytes keys) on the per-process hash
    seed.  Anything ordered or persisted must go through ``sorted()``."""

    rule_id = "REP-D106"
    title = "set iteration feeding ordered output in a golden-artefact module"
    severity = "error"

    @staticmethod
    def _is_set_expr(node) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset")
        )

    def check(self, module):
        if not module.in_golden_scope:
            return
        parents = build_parent_map(module.tree)
        for node in ast.walk(module.tree):
            if not self._is_set_expr(node):
                continue
            parent = parents.get(node)
            ordered = False
            if isinstance(parent, ast.For) and parent.iter is node:
                ordered = True
            elif isinstance(parent, ast.comprehension) and parent.iter is node:
                ordered = True
            elif isinstance(parent, ast.Call) and node in parent.args:
                func = parent.func
                if isinstance(func, ast.Name) and func.id in _ORDER_SENSITIVE_CALLS:
                    ordered = True
                elif isinstance(func, ast.Attribute) and func.attr == "join":
                    ordered = True
            if ordered:
                yield self.finding(
                    module, node,
                    "set iteration order is hash-dependent and varies across "
                    "processes; wrap in sorted(...) before it feeds ordered "
                    "or persisted output",
                )


# ---------------------------------------------------------------------------
# REP-F2xx — transport / fork safety
# ---------------------------------------------------------------------------

#: Constructors whose results must never be captured by a callable shipped
#: to a worker: value kind -> dotted call names.
_UNPICKLABLE_CONSTRUCTORS = {
    "lock": {
        "threading.Lock", "threading.RLock", "threading.Condition",
        "threading.Event", "threading.Semaphore", "threading.BoundedSemaphore",
        "Lock", "RLock",
    },
    "open file": {"open", "io.open", "tempfile.NamedTemporaryFile",
                  "tempfile.TemporaryFile", "gzip.open"},
    "socket": {"socket.socket", "socket.socketpair",
               "socket.create_connection", "socket.create_server"},
    "thread": {"threading.Thread"},
}


def _constructor_kind(call_name: "str | None") -> "str | None":
    for kind, names in _UNPICKLABLE_CONSTRUCTORS.items():
        if call_name in names:
            return kind
    return None


class _FunctionScope:
    def __init__(self, node):
        self.node = node
        self.bindings: dict = {}   # name -> unpicklable kind
        self.funcdefs: dict = {}   # name -> nested FunctionDef node


def _record_bindings(scope: _FunctionScope, stmt) -> None:
    """Track names bound to unpicklable resources inside one function."""
    if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Call):
        kind = _constructor_kind(dotted_name(stmt.value.func))
        if kind:
            for target in stmt.targets:
                targets = target.elts if isinstance(target, ast.Tuple) else [target]
                for name in targets:
                    if isinstance(name, ast.Name):
                        scope.bindings[name.id] = kind
    elif isinstance(stmt, ast.With):
        for item in stmt.items:
            if not isinstance(item.context_expr, ast.Call):
                continue
            kind = _constructor_kind(dotted_name(item.context_expr.func))
            if kind and isinstance(item.optional_vars, ast.Name):
                scope.bindings[item.optional_vars.id] = kind
    elif isinstance(stmt, ast.FunctionDef):
        scope.funcdefs[stmt.name] = stmt


def _free_names(func_node) -> set:
    """Names a lambda / nested def loads but does not bind itself."""
    bound = {arg.arg for arg in (
        func_node.args.posonlyargs + func_node.args.args + func_node.args.kwonlyargs
    )}
    for extra in (func_node.args.vararg, func_node.args.kwarg):
        if extra is not None:
            bound.add(extra.arg)
    loaded = set()
    body = func_node.body if isinstance(func_node.body, list) else [func_node.body]
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                if isinstance(node.ctx, ast.Load):
                    loaded.add(node.id)
                else:
                    bound.add(node.id)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bound.add(node.name)
    return loaded - bound


class WorkerClosureRule(Rule):
    """A callable handed to ``<...backend>.map(...)`` or ``<...host>.run(...)``
    that closes over a lock, socket, open file, or thread.  Such state is
    silently duplicated into a forked worker that cannot use it, and fails
    to pickle wherever the callable has to cross the wire."""

    rule_id = "REP-F201"
    title = "worker-shipped callable captures unpicklable state"
    severity = "error"

    @staticmethod
    def _is_worker_dispatch(call) -> bool:
        func = call.func
        if not isinstance(func, ast.Attribute) or not call.args:
            return False
        receiver = (dotted_name(func.value) or "").lower()
        if func.attr == "map" and "backend" in receiver:
            return True
        return func.attr == "run" and "host" in receiver

    def check(self, module):
        yield from self._walk(module, module.tree, [])

    def _walk(self, module, node, scopes):
        for child in ast.iter_child_nodes(node):
            pushed = False
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope = _FunctionScope(child)
                for stmt in ast.walk(child):
                    _record_bindings(scope, stmt)
                scopes = scopes + [scope]
                pushed = True
            if isinstance(child, ast.Call) and self._is_worker_dispatch(child):
                yield from self._check_callable(module, child, child.args[0], scopes)
            yield from self._walk(module, child, scopes)
            if pushed:
                scopes = scopes[:-1]

    def _check_callable(self, module, call, callable_arg, scopes):
        target = None
        if isinstance(callable_arg, ast.Lambda):
            target = callable_arg
        elif isinstance(callable_arg, ast.Name):
            for scope in reversed(scopes):
                if callable_arg.id in scope.funcdefs:
                    target = scope.funcdefs[callable_arg.id]
                    break
        if target is None:
            return
        for name in sorted(_free_names(target)):
            for scope in reversed(scopes):
                kind = scope.bindings.get(name)
                if kind is not None:
                    yield self.finding(
                        module, call,
                        f"callable shipped to workers captures {name!r}, "
                        f"bound to a {kind}; shipped callables must be "
                        "module-level (or registered) and close only over "
                        "picklable data",
                    )
                    break


# REP-F202 (retired): ``threading.Thread`` in a module that calls
# ``os.fork``.  Daemons fork only through ``multiprocessing``'s fork
# context, so no module ever matched its ``os.fork()`` precondition.


# ---------------------------------------------------------------------------
# REP-L3xx — lock discipline
# ---------------------------------------------------------------------------

_LOCK_CONSTRUCTORS = {
    "threading.Lock", "threading.RLock", "Lock", "RLock",
    "threading.Condition",
}

#: Mutating methods of the plain containers a lock-owning class shares.
_CONTAINER_MUTATORS = {
    "append", "extend", "insert", "add", "remove", "discard", "pop",
    "popitem", "clear", "update", "setdefault", "sort", "reverse",
    "move_to_end",
}

_CONSTRUCTOR_EXEMPT_METHODS = {"__init__", "__post_init__", "__new__", "__del__"}


def _is_container_value(value) -> bool:
    if isinstance(value, (ast.Dict, ast.List, ast.Set)):
        return True
    if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
        return value.func.id in ("dict", "list", "set", "OrderedDict",
                                 "defaultdict", "deque")
    return False


def _dataclass_container_fields(class_node) -> set:
    """Class-level ``x: dict = field(default_factory=dict)`` attributes."""
    names = set()
    for stmt in class_node.body:
        if not isinstance(stmt, ast.AnnAssign) or not isinstance(stmt.target, ast.Name):
            continue
        value = stmt.value
        if not isinstance(value, ast.Call):
            continue
        if (dotted_name(value.func) or "").split(".")[-1] != "field":
            continue
        for keyword in value.keywords:
            if keyword.arg == "default_factory":
                factory = dotted_name(keyword.value) or ""
                if factory.split(".")[-1] in ("dict", "list", "set",
                                              "OrderedDict", "defaultdict",
                                              "deque"):
                    names.add(stmt.target.id)
    return names


class LockDisciplineRule(Rule):
    """A class that owns a ``threading.Lock``/``RLock`` or a ``LockedLRU``
    must mutate its shared attributes only inside the corresponding
    ``with self.<lock>:`` / ``with self.<lru>.lock:`` block.  Constructors
    are exempt (no concurrent access before ``__init__`` returns)."""

    rule_id = "REP-L301"
    title = "shared attribute mutated outside the owning lock"
    severity = "error"

    def check(self, module):
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(module, node)

    def _check_class(self, module, class_node):
        lock_attrs, lru_attrs = set(), set()
        container_attrs = _dataclass_container_fields(class_node)
        methods = [
            stmt for stmt in class_node.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for method in methods:
            constructor = method.name in _CONSTRUCTOR_EXEMPT_METHODS
            for stmt in ast.walk(method):
                if not isinstance(stmt, ast.Assign):
                    continue
                for target in stmt.targets:
                    attr = (
                        target.attr
                        if isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                        else None
                    )
                    if attr is None:
                        continue
                    call_name = (
                        dotted_name(stmt.value.func) or ""
                        if isinstance(stmt.value, ast.Call)
                        else ""
                    )
                    if call_name in _LOCK_CONSTRUCTORS:
                        lock_attrs.add(attr)
                    elif call_name.split(".")[-1] == "LockedLRU":
                        lru_attrs.add(attr)
                    elif constructor and _is_container_value(stmt.value):
                        container_attrs.add(attr)
        if not lock_attrs and not lru_attrs:
            return
        guards = {("self", attr) for attr in lock_attrs}
        guards.update(("self", attr, "lock") for attr in lru_attrs)
        exempt_attrs = lock_attrs | lru_attrs
        for method in methods:
            if method.name in _CONSTRUCTOR_EXEMPT_METHODS:
                continue
            yield from self._check_method(
                module, method, guards, exempt_attrs, container_attrs,
                guarded=False,
            )

    def _check_method(self, module, node, guards, exempt, containers, guarded):
        for child in ast.iter_child_nodes(node):
            child_guarded = guarded
            if isinstance(child, ast.With):
                held = any(
                    attr_tuple(item.context_expr) in guards
                    for item in child.items
                )
                child_guarded = guarded or held
            if not child_guarded:
                yield from self._check_statement(module, child, exempt, containers)
            yield from self._check_method(
                module, child, guards, exempt, containers, child_guarded
            )

    def _check_statement(self, module, node, exempt, containers):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            if isinstance(node, ast.AnnAssign) and node.value is None:
                return  # a bare annotation binds nothing
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                base = self_attr_base(target)
                if base is not None and base not in exempt:
                    yield self.finding(
                        module, node,
                        f"mutation of self.{base} outside the owning lock; "
                        "wrap in the class's `with self.<lock>:` block",
                    )
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                base = self_attr_base(target)
                if base is not None and base not in exempt:
                    yield self.finding(
                        module, node,
                        f"deletion on self.{base} outside the owning lock; "
                        "wrap in the class's `with self.<lock>:` block",
                    )
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in _CONTAINER_MUTATORS:
                base = self_attr_base(node.func.value)
                if base is not None and base in containers and base not in exempt:
                    yield self.finding(
                        module, node,
                        f"self.{base}.{node.func.attr}(...) mutates a shared "
                        "container outside the owning lock; wrap in the "
                        "class's `with self.<lock>:` block",
                    )


# ---------------------------------------------------------------------------
# REP-E4xx — environment hygiene
# ---------------------------------------------------------------------------

class RawEnvironRule(Rule):
    """A raw environment read outside the :mod:`repro.config.env` registry.

    Copies for subprocess environments (``dict(os.environ)``,
    ``os.environ.copy()``) and writes (tests legitimately mutate the
    environment) are not findings — only per-variable reads, which are
    where defaults fork and drift.
    """

    rule_id = "REP-E401"
    title = "raw os.environ read outside repro.config.env"
    severity = "error"

    _READ_CALLS = {"os.environ.get", "os.environ.setdefault", "os.getenv"}

    def _message(self, var_name) -> str:
        which = f"of {var_name!r} " if var_name else ""
        return (
            f"raw environment read {which}outside repro.config.env; declare "
            "the variable there once (default + parser) and call "
            "env.<NAME>.get()"
        )

    def check(self, module):
        if module.is_env_registry:
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name in self._READ_CALLS:
                    yield self.finding(module, node, self._message(literal_arg(node)))
            elif isinstance(node, ast.Subscript):
                if (
                    isinstance(node.ctx, ast.Load)
                    and dotted_name(node.value) == "os.environ"
                ):
                    var = None
                    if isinstance(node.slice, ast.Constant):
                        var = node.slice.value
                    yield self.finding(module, node, self._message(var))
            elif isinstance(node, ast.Compare):
                for op, comparator in zip(node.ops, node.comparators):
                    if (
                        isinstance(op, (ast.In, ast.NotIn))
                        and dotted_name(comparator) == "os.environ"
                    ):
                        var = None
                        if isinstance(node.left, ast.Constant):
                            var = node.left.value
                        message = self._message(var).replace(
                            "env.<NAME>.get()", "env.<NAME>.is_set()"
                        )
                        yield self.finding(module, node, message)


# ---------------------------------------------------------------------------
# Interprocedural rules — REP-F2xx reachability and REP-G5xx global state
# ---------------------------------------------------------------------------

#: One call-graph build per module set: every project rule in one
#: ``analyze_paths`` run receives the same context list, so the graph is
#: memoised on the sources (single-entry — runs over different trees
#: replace it).
_GRAPH_CACHE: dict = {}


def _graph_for(modules):
    from repro.analysis import callgraph

    key = tuple((module.path, module.source) for module in modules)
    if key not in _GRAPH_CACHE:
        _GRAPH_CACHE.clear()
        _GRAPH_CACHE[key] = callgraph.build_call_graph(modules)
    return _GRAPH_CACHE[key]


def _own_body_nodes(func_node):
    """The nodes of one function's own body, excluding nested functions
    and lambdas (those are separate functions with their own scope entry,
    so hazards inside them are reported exactly once, there)."""
    stack = list(func_node.body) if isinstance(func_node.body, list) else [func_node.body]
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                stack.append(child)


class _ReachabilityRule(ProjectRule):
    """Shared driver: compute a scope over the call graph, then run
    :meth:`check_function` on every function inside it, attaching the
    witness chain that makes the function reachable."""

    def scope(self, graph) -> dict:
        raise NotImplementedError

    def check_function(self, info, chain):
        raise NotImplementedError

    def check_project(self, modules):
        from repro.analysis.callgraph import format_chain

        graph = _graph_for(modules)
        for qualname, chain in sorted(self.scope(graph).items()):
            info = graph.index.functions[qualname]
            for node, message in self.check_function(info, chain):
                via = (
                    " (shipped entry point)" if len(chain) == 1
                    else f" (reachable via {format_chain(chain)})"
                )
                yield self.finding(info.module, node, message + via)


class ReachableImpurityRule(_ReachabilityRule):
    """Wall-clock reads, unseeded RNG draws and raw environment reads
    anywhere in the transitive closure of a worker-shipped callable.  The
    lexical REP-D1xx/E4xx rules scope to golden modules and single files;
    a shipped task must be a pure function of its item *through every
    helper it calls*, or shards stop being bit-identical across worker
    counts and backends."""

    rule_id = "REP-F203"
    title = "impurity reachable from a worker-shipped callable"
    severity = "error"

    def scope(self, graph):
        from repro.analysis.callgraph import worker_shipped_scope

        return worker_shipped_scope(graph)

    def check_function(self, info, chain):
        for node in _own_body_nodes(info.node):
            if isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name in _WALL_CLOCK_CALLS:
                    yield node, (
                        f"{name}() reads the wall clock inside the "
                        "worker-shipped scope; shipped tasks must be pure "
                        "functions of their item"
                    )
                    continue
                parts = (name or "").split(".")
                if name and parts[0] == "random" and len(parts) == 2:
                    yield node, (
                        f"stdlib {name}() draws global-state randomness "
                        "inside the worker-shipped scope; thread a seeded "
                        "Generator through the task item"
                    )
                elif (
                    len(parts) == 3
                    and parts[0] in ("np", "numpy")
                    and parts[1] == "random"
                    and parts[2] not in _NP_RANDOM_ALLOWED
                ):
                    yield node, (
                        f"{name}() uses numpy's legacy global RNG inside "
                        "the worker-shipped scope; every worker would draw "
                        "an independent, unseeded stream"
                    )
                elif (
                    parts and parts[-1] == "default_rng"
                    and not node.args and not node.keywords
                ):
                    yield node, (
                        "default_rng() without a seed inside the "
                        "worker-shipped scope draws fresh OS entropy per "
                        "shard; derive per-item streams with shard_rng"
                    )
                elif name in RawEnvironRule._READ_CALLS and not info.module.is_env_registry:
                    yield node, (
                        f"{name}() reads the environment inside the "
                        "worker-shipped scope; workers inherit (or miss) "
                        "env mutations invisibly — read the typed registry "
                        "before shipping and pass values through the item"
                    )
            elif (
                isinstance(node, ast.Subscript)
                and isinstance(node.ctx, ast.Load)
                and dotted_name(node.value) == "os.environ"
                and not info.module.is_env_registry
            ):
                yield node, (
                    "os.environ[...] read inside the worker-shipped scope; "
                    "workers inherit (or miss) env mutations invisibly — "
                    "read the typed registry before shipping"
                )


#: File-handle constructors whose acquisition inside a forked worker body
#: is a finding (the handle is created in the child, the descriptor/lock
#: state never propagates back, and two shards may race the same path).
_FILE_HANDLE_CALLS = {
    "open", "io.open", "gzip.open", "tempfile.NamedTemporaryFile",
    "tempfile.TemporaryFile",
}


class ReachableLockRule(_ReachabilityRule):
    """Lock construction, explicit ``.acquire()`` and file-handle opens in
    the transitive closure of a forked worker body.  A lock taken in a
    forked child synchronises nothing (the parent's threads aren't
    there), and a lock *inherited* locked is a deadlock; file handles
    opened per shard race each other on shared paths."""

    rule_id = "REP-F204"
    title = "lock / file-handle acquisition reachable from a forked worker body"
    severity = "error"

    def scope(self, graph):
        from repro.analysis.callgraph import worker_shipped_scope

        return worker_shipped_scope(graph)

    def check_function(self, info, chain):
        for node in _own_body_nodes(info.node):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name in _UNPICKLABLE_CONSTRUCTORS["lock"]:
                yield node, (
                    f"{name}() constructs a lock inside the forked-worker "
                    "scope; it synchronises nothing across shards — hoist "
                    "shared state out of the shipped task"
                )
            elif isinstance(node.func, ast.Attribute) and node.func.attr == "acquire":
                yield node, (
                    f"explicit {dotted_name(node.func)}() inside the "
                    "forked-worker scope; a lock acquired in a forked child "
                    "guards nothing in the parent and can inherit a locked "
                    "state it can never release"
                )
            elif name in _FILE_HANDLE_CALLS:
                yield node, (
                    f"{name}() opens a file handle inside the forked-worker "
                    "scope; per-shard handles race on shared paths — return "
                    "data and let the parent persist it"
                )


class ConcurrentGlobalStateRule(_ReachabilityRule):
    """Mutation of process-global library state reachable from code that
    runs concurrently (thread-backend tasks and thread-pool jobs).
    This is exactly the PR 8 ``QualityModel.fit`` race: a
    ``simplefilter("error", ...)`` probe in one fit flips the warning
    filters under every concurrent fit.  ``"ignore"``-action filter calls
    are exempt — widening an ignore is idempotent and an overlapping
    restore cannot un-suppress an exception path."""

    rule_id = "REP-G501"
    title = "process-global state mutated in concurrently-running code"
    severity = "error"

    _FILTER_CALLS = {"warnings.simplefilter", "warnings.filterwarnings"}
    _ALWAYS_MUTATORS = {
        "np.seterr", "numpy.seterr", "random.seed", "np.random.seed",
        "numpy.random.seed", "os.putenv",
    }

    def scope(self, graph):
        from repro.analysis.callgraph import concurrent_scope

        return concurrent_scope(graph)

    def check_function(self, info, chain):
        for node in _own_body_nodes(info.node):
            if isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name in self._FILTER_CALLS:
                    if literal_arg(node) == "ignore":
                        continue
                    yield node, (
                        f"{name}(...) mutates the process-wide warning "
                        "filters in concurrently-running code — the PR 8 "
                        "QualityModel race; read the outcome from data "
                        "(e.g. pcov finiteness) under an 'ignore' filter "
                        "instead of probing via 'error'"
                    )
                elif name in self._ALWAYS_MUTATORS:
                    yield node, (
                        f"{name}(...) mutates process-global state in "
                        "concurrently-running code; every in-flight task "
                        "sees the flip mid-computation"
                    )
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if (
                        isinstance(target, ast.Subscript)
                        and dotted_name(target.value) == "os.environ"
                    ):
                        yield target, (
                            "os.environ[...] assignment in "
                            "concurrently-running code mutates process-global "
                            "state under every in-flight task"
                        )


# ---------------------------------------------------------------------------
# REP-W0xx — waiver hygiene
# ---------------------------------------------------------------------------

class StaleWaiverRule(ProjectRule):
    """An inline ``# repro-analysis: allow=...`` that suppresses zero
    findings.  Dead waivers are worse than dead code: they pre-authorise a
    future bug at that line.  Runs last in the catalog, after every other
    rule has credited the waivers it used (see
    :func:`repro.analysis.engine.analyze_paths`)."""

    rule_id = "REP-W001"
    title = "stale inline waiver suppresses no finding"
    severity = "warning"

    def check_project(self, modules):
        for module in modules:
            for waiver in module.waivers:
                if waiver.suppressed:
                    continue
                yield Finding(
                    path=module.path,
                    line=waiver.line,
                    col=1,
                    rule=self.rule_id,
                    severity=self.severity,
                    message=(
                        "inline waiver for "
                        f"{', '.join(sorted(waiver.rules))} suppresses no "
                        "finding; the code it excused is gone — delete the "
                        "comment (or fix the rule list)"
                    ),
                )


# ---------------------------------------------------------------------------
# The default catalog
# ---------------------------------------------------------------------------

DEFAULT_RULES = (
    BuiltinHashRule(),
    BuiltinIdRule(),
    WallClockRule(),
    UnseededRngRule(),
    EntropyRule(),
    SetIterationRule(),
    WorkerClosureRule(),
    ReachableImpurityRule(),
    ReachableLockRule(),
    LockDisciplineRule(),
    RawEnvironRule(),
    ConcurrentGlobalStateRule(),
    # Last on purpose: it reads the suppression stats every other rule
    # left on the module contexts.
    StaleWaiverRule(),
)


def all_rules() -> tuple:
    """The default rule catalog, in reporting order."""
    return DEFAULT_RULES
