"""The project-invariant rule catalog.

Three rule families encode the invariants no dynamic test covers yet —
the classes of bug once fixed after the fact (aliased seed streams,
shipped tasks that drag process state into workers):

* ``REP-D1xx`` **seeding** — golden-artefact modules (``repro/core``,
  ``repro/exec``, ``repro/render``, ``repro/baking``) must not draw from
  unseeded RNG streams or ad-hoc OS entropy.
* ``REP-F2xx`` **fork/pickle safety** — callables shipped to worker
  processes must not close over locks, sockets, open files or threads
  (F201), nor reach impure code (F203) or lock/file/socket state (F204)
  through the call graph.
* ``REP-E4xx`` **environment hygiene** — every environment variable is
  read through the typed :mod:`repro.config.env` registry; raw
  ``os.environ`` reads anywhere else are findings.

Rule ids are stable and never reused; retired rules leave a tombstone
comment here.  Adding a rule: subclass :class:`~repro.analysis.engine.
Rule`, append an instance to :data:`DEFAULT_RULES`, add known-bad and
known-good fixtures in ``tests/test_analysis_rules.py``, then fix every
true positive on the real tree in the same change.
"""

from __future__ import annotations

import ast

from repro.analysis.engine import ProjectRule, Rule


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


def literal_arg(call: ast.Call) -> "str | None":
    """The first positional argument when it is a string literal."""
    if call.args and isinstance(call.args[0], ast.Constant):
        value = call.args[0].value
        if isinstance(value, str):
            return value
    return None


# ---------------------------------------------------------------------------
# REP-D1xx — seeding in golden-artefact modules
# ---------------------------------------------------------------------------

# REP-D101 (retired): builtin ``hash()`` in a golden-artefact module.
# ``test_key_digest_stable_across_processes`` recomputes a store digest
# under ``PYTHONHASHSEED=random`` and fails on a ``hash()``-based key.

# REP-D102 (retired): builtin ``id()`` in a golden-artefact module.  An
# address fed into a store key fails the same cross-process digest test.

#: Wall-clock reads that poison golden output (REP-F203 reads them).
#: ``time.perf_counter`` / ``time.monotonic`` stay legal: timings are
#: reported, never keyed on.
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


# REP-D103 (retired): wall-clock read in a golden-artefact module.  A
# ``time.time()`` fed into a store key fails the cross-process digest
# test; REP-F203 still flags wall-clock reads inside shipped tasks.


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
    ``repro.utils.rng.make_rng``/``derive_rng``, keyed by the item for
    per-shard streams."""

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
                    "seeded Generator (repro.utils.rng.make_rng / derive_rng)",
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
                    "seed through repro.utils.rng.make_rng / derive_rng",
                )


_ENTROPY_CALLS = {"os.urandom", "uuid.uuid4", "uuid.uuid1"}


class EntropyRule(Rule):
    """Ad-hoc OS entropy (``os.urandom``, ``secrets.*``, argument-less
    ``SeedSequence()``) in a golden module.  Every stream there derives
    from a caller's seed, so a golden run never depends on entropy and a
    seeded run can never alias a fresh one (the seed-aliasing bug)."""

    rule_id = "REP-D105"
    title = "ad-hoc OS entropy in a golden-artefact module"
    severity = "error"

    def check(self, module):
        if not module.in_golden_scope:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            parts = (name or "").split(".")
            if (
                name in _ENTROPY_CALLS
                or parts[0] == "secrets"
                or (parts[-1] == "SeedSequence" and not node.args and not node.keywords)
            ):
                yield self.finding(
                    module, node,
                    f"{name}() draws OS entropy; golden streams must derive "
                    "from a seed (repro.utils.rng.make_rng / derive_rng)",
                )


# REP-D106 (retired): set iteration feeding ordered output in a
# golden-artefact module.  A set of strings iterated into a store key
# fails the cross-process digest test (it runs under a random hash seed).


# ---------------------------------------------------------------------------
# REP-F2xx — fork / pickle safety
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
    """A callable handed to ``<...backend>.map(...)`` that closes over a
    lock, socket, open file, or thread.  Such state is
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
        return func.attr == "map" and "backend" in receiver

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
# ``os.fork``.  Workers fork only through ``multiprocessing``'s fork
# context, so no module ever matched its ``os.fork()`` precondition.


# REP-L301 (retired): shared attribute mutated outside the owning lock.
# ``TestStageTimerWorkers::test_concurrent_add_is_safe`` loses updates
# when ``StageTimer.add`` runs unlocked; the store locks it also covered
# are recorded in EXPERIMENTS.md.


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
# Interprocedural rules — REP-F2xx reachability
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
                        "shard; derive per-item streams with "
                        "repro.utils.rng.derive_rng"
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


# REP-G501 (retired): process-global state mutated in concurrently-
# running code.  It exempted ``"ignore"`` filters, so it could not see
# the ``QualityModel.fit`` race once it came back under one;
# ``TestFitLock::test_concurrent_degenerate_fits_leak_no_warning`` caught
# it and fails when ``profiler._fit_curve`` drops ``_FIT_LOCK``.

# REP-W001 (retired): stale inline waiver.  The inline waivers are gone.


# ---------------------------------------------------------------------------
# The default catalog
# ---------------------------------------------------------------------------

DEFAULT_RULES = (
    UnseededRngRule(),
    EntropyRule(),
    WorkerClosureRule(),
    ReachableImpurityRule(),
    ReachableLockRule(),
    RawEnvironRule(),
)


def all_rules() -> tuple:
    """The default rule catalog, in reporting order."""
    return DEFAULT_RULES
