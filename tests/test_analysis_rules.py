"""Fixture tests for every lint rule in :mod:`repro.analysis.rules`.

Each rule gets known-bad snippets (must produce exactly its finding) and
known-good snippets (must stay clean), including regression fixtures that
reproduce the shapes of the PR 4 ``shard_rng(None, i)`` seed-aliasing bug
and the PR 3 ``hash()``-in-store-keys bug — the two incidents this
subsystem exists to catch at lint time instead of golden-test time.
"""

from __future__ import annotations

import pytest

from repro.analysis import all_rules, analyze_module, load_module

#: A path inside a golden-artefact package (determinism rules apply).
GOLDEN_PATH = "src/repro/exec/fixture.py"
#: A path outside every golden package (determinism rules do not apply).
PLAIN_PATH = "src/repro/scenes/fixture.py"


def lint(source: str, path: str = GOLDEN_PATH) -> list:
    module = load_module(path, source=source)
    assert module is not None, "fixture must parse"
    return analyze_module(module, all_rules())


def rule_ids(source: str, path: str = GOLDEN_PATH) -> list:
    return [finding.rule for finding in lint(source, path)]


# ---------------------------------------------------------------------------
# REP-D101 / REP-D102 — hash() / id()
# ---------------------------------------------------------------------------

class TestHashAndId:
    def test_pr3_hash_key_regression_is_flagged(self):
        # Regression fixture: the PR 3 bug put builtin hash() into the
        # artifact store's key -> filename digest, which broke warm-store
        # reuse across processes (hash() is salted per invocation).
        source = '''
def key_filename(key):
    return f"{hash(key) & 0xffffffff:08x}.npz"
'''
        findings = lint(source)
        assert [f.rule for f in findings] == ["REP-D101"]
        assert "process-salted" in findings[0].message

    def test_canonical_digest_is_clean(self):
        source = '''
import hashlib

def key_filename(key):
    return hashlib.sha256(repr(key).encode()).hexdigest() + ".npz"
'''
        assert rule_ids(source) == []

    def test_hash_outside_golden_scope_is_clean(self):
        assert rule_ids("x = hash((1, 2))\n", path=PLAIN_PATH) == []
        assert rule_ids("x = hash((1, 2))\n", path="tests/fixture.py") == []

    def test_id_in_golden_scope_is_flagged(self):
        assert rule_ids("key = (id(model), 3)\n") == ["REP-D102"]

    def test_method_named_hash_is_clean(self):
        # Only the builtin is flagged, not attribute calls.
        assert rule_ids("d = obj.hash()\n") == []


# ---------------------------------------------------------------------------
# REP-D103 — wall clock
# ---------------------------------------------------------------------------

class TestWallClock:
    def test_time_time_is_flagged(self):
        assert rule_ids("import time\nstamp = time.time()\n") == ["REP-D103"]

    def test_perf_counter_is_clean(self):
        source = "import time\nt0 = time.perf_counter()\nt1 = time.monotonic()\n"
        assert rule_ids(source) == []

    def test_datetime_now_is_flagged(self):
        source = "import datetime\nwhen = datetime.datetime.now()\n"
        assert rule_ids(source) == ["REP-D103"]


# ---------------------------------------------------------------------------
# REP-D104 / REP-D105 — unseeded RNG and ad-hoc entropy
# ---------------------------------------------------------------------------

class TestRngRules:
    def test_pr4_seed_aliasing_regression_is_flagged(self):
        # Regression fixture: the shape of the PR 4 bug.  shard_rng(None, i)
        # must not derive per-shard streams from ad-hoc entropy (or, as
        # originally shipped, silently alias seed 0); the fixed contract is
        # one fresh_seed_root() draw per map, passed as an int seed.  Both
        # ad-hoc variants below must be flagged.
        source = '''
import numpy as np

def shard_rng(seed, shard_index):
    if seed is None:
        return np.random.default_rng()
    root = int(np.random.SeedSequence().entropy)
    return np.random.default_rng([root, shard_index])
'''
        ids = rule_ids(source)
        assert ids == ["REP-D104", "REP-D105"]

    def test_fresh_seed_root_is_blessed(self):
        # The fixed PR 4 shape: entropy drawn only inside fresh_seed_root.
        source = '''
import numpy as np

def fresh_seed_root():
    return int(np.random.SeedSequence().entropy)

def shard_rng(seed, shard_index):
    root = fresh_seed_root() if seed is None else int(seed)
    return np.random.default_rng(np.random.SeedSequence([root, int(shard_index)]))
'''
        assert rule_ids(source) == []

    def test_legacy_numpy_global_state_is_flagged(self):
        assert rule_ids("import numpy as np\nx = np.random.rand(3)\n") == ["REP-D104"]
        assert rule_ids("import numpy as np\nnp.random.seed(0)\n") == ["REP-D104"]

    def test_stdlib_random_is_flagged(self):
        assert rule_ids("import random\nx = random.random()\n") == ["REP-D104"]

    def test_seeded_generators_are_clean(self):
        source = '''
import numpy as np

def draw(seed):
    rng = np.random.default_rng(seed)
    return rng.random(4)
'''
        assert rule_ids(source) == []

    def test_os_urandom_is_flagged_and_allow_comment_waives(self):
        flagged = "import os\nsecret = os.urandom(16)\n"
        assert rule_ids(flagged) == ["REP-D105"]
        waived = (
            "import os\n"
            "secret = os.urandom(16)  # repro-analysis: allow=REP-D105 reason\n"
        )
        assert rule_ids(waived) == []

    def test_standalone_allow_comment_waives_next_line(self):
        waived = (
            "import os\n"
            "# repro-analysis: allow=REP-D105 handshake secret\n"
            "secret = os.urandom(16)\n"
        )
        assert rule_ids(waived) == []


# ---------------------------------------------------------------------------
# REP-D106 — set iteration into ordered output
# ---------------------------------------------------------------------------

class TestSetIteration:
    def test_list_of_set_is_flagged(self):
        assert rule_ids("names = list({\"a\", \"b\"})\n") == ["REP-D106"]

    def test_for_over_set_call_is_flagged(self):
        source = '''
def emit(items):
    out = []
    for key in set(items):
        out.append(key)
    return out
'''
        assert rule_ids(source) == ["REP-D106"]

    def test_join_of_set_is_flagged(self):
        assert rule_ids("label = ','.join({\"b\", \"a\"})\n") == ["REP-D106"]

    def test_sorted_set_is_clean(self):
        source = '''
def emit(items):
    return sorted(set(items))
'''
        assert rule_ids(source) == []

    def test_order_free_consumers_are_clean(self):
        source = '''
def summarise(items, probe):
    count = len(set(items))
    hit = probe in {1, 2, 3}
    lo = min(set(items))
    return count, hit, lo
'''
        assert rule_ids(source) == []


# ---------------------------------------------------------------------------
# REP-F201 — fork/pickle safety
# ---------------------------------------------------------------------------

class TestWorkerClosure:
    def test_lambda_capturing_lock_is_flagged(self):
        source = '''
import threading

def run(backend, items):
    lock = threading.Lock()
    return backend.map(lambda item: (lock, item), items)
'''
        findings = lint(source, path=PLAIN_PATH)
        assert [f.rule for f in findings] == ["REP-F201"]
        assert "'lock'" in findings[0].message

    def test_nested_def_capturing_open_file_is_flagged(self):
        source = '''
def run(backend, items, path):
    handle = open(path)

    def task(item):
        return handle.read(item)

    return backend.map(task, items)
'''
        assert rule_ids(source, path=PLAIN_PATH) == ["REP-F201"]

    def test_with_bound_socket_capture_is_flagged(self):
        source = '''
import socket

def run(host, items):
    with socket.create_connection(("x", 1)) as conn:
        return host.run(lambda item: conn.send(item), items)
'''
        assert rule_ids(source, path=PLAIN_PATH) == ["REP-F201"]

    def test_closure_over_plain_data_is_clean(self):
        # The fork launcher deliberately supports closures over plain
        # (even unpicklable-by-value) *data*; only resource state is flagged.
        source = '''
def run(backend, items, scene):
    scale = 2.0
    return backend.map(lambda item: scene.eval(item) * scale, items)
'''
        assert rule_ids(source, path=PLAIN_PATH) == []

    def test_module_level_callable_is_clean(self):
        source = '''
def task(item):
    return item * 2

def run(backend, items):
    return backend.map(task, items)
'''
        assert rule_ids(source, path=PLAIN_PATH) == []

    def test_non_backend_receivers_are_ignored(self):
        source = '''
import threading

def run(pool, items):
    lock = threading.Lock()
    return pool.map(lambda item: (lock, item), items)
'''
        assert rule_ids(source, path=PLAIN_PATH) == []


# ---------------------------------------------------------------------------
# REP-L301 — lock discipline
# ---------------------------------------------------------------------------

class TestLockDiscipline:
    def test_unlocked_mutation_is_flagged(self):
        source = '''
import threading

class Counter:
    def __init__(self):
        self._lock = threading.Lock()
        self.count = 0

    def bump(self):
        self.count += 1
'''
        findings = lint(source, path=PLAIN_PATH)
        assert [f.rule for f in findings] == ["REP-L301"]
        assert "self.count" in findings[0].message

    def test_locked_mutation_is_clean(self):
        source = '''
import threading

class Counter:
    def __init__(self):
        self._lock = threading.Lock()
        self.count = 0

    def bump(self):
        with self._lock:
            self.count += 1
'''
        assert rule_ids(source, path=PLAIN_PATH) == []

    def test_locked_lru_guard_is_recognised(self):
        # The ArtifactStore / RenderCache idiom: the lock lives on an owned
        # LockedLRU, and `with self._lru.lock:` is the guard.
        source = '''
from repro.utils.lru import LockedLRU

class Store:
    def __init__(self):
        self._lru = LockedLRU()
        self.hits = 0

    def get(self, key):
        with self._lru.lock:
            self.hits += 1
            return self._lru.get(key)

    def reset(self):
        self.hits = 0
'''
        findings = lint(source, path=PLAIN_PATH)
        assert [(f.rule, f.line) for f in findings] == [("REP-L301", 15)]

    def test_nested_attribute_mutation_is_flagged(self):
        source = '''
import threading

class Store:
    def __init__(self):
        self._lock = threading.Lock()
        self.stats = object()

    def record(self):
        self.stats.hits += 1
'''
        assert rule_ids(source, path=PLAIN_PATH) == ["REP-L301"]

    def test_container_mutator_outside_lock_is_flagged(self):
        source = '''
import threading

class Store:
    def __init__(self):
        self._lock = threading.Lock()
        self.items = {}

    def stash(self, key, value):
        self.items.setdefault(key, value)
'''
        assert rule_ids(source, path=PLAIN_PATH) == ["REP-L301"]

    def test_dataclass_field_container_is_tracked(self):
        source = '''
import threading
from dataclasses import dataclass, field

@dataclass
class Timer:
    stages: dict = field(default_factory=dict)

    def __post_init__(self):
        self._lock = threading.Lock()

    def add(self, name, seconds):
        self.stages.update({name: seconds})
'''
        assert rule_ids(source, path=PLAIN_PATH) == ["REP-L301"]

    def test_lockless_class_is_ignored(self):
        source = '''
class Plain:
    def __init__(self):
        self.count = 0

    def bump(self):
        self.count += 1
'''
        assert rule_ids(source, path=PLAIN_PATH) == []

    def test_constructor_assignments_are_exempt(self):
        source = '''
import threading

class Store:
    def __init__(self):
        self._lock = threading.Lock()
        self.ready = False
        self.ready = True
'''
        assert rule_ids(source, path=PLAIN_PATH) == []


# ---------------------------------------------------------------------------
# REP-E401 — environment hygiene
# ---------------------------------------------------------------------------

class TestRawEnviron:
    def test_environ_get_is_flagged(self):
        source = 'import os\nbackend = os.environ.get("REPRO_BACKEND", "thread")\n'
        findings = lint(source, path=PLAIN_PATH)
        assert [f.rule for f in findings] == ["REP-E401"]
        assert "'REPRO_BACKEND'" in findings[0].message

    def test_environ_subscript_read_is_flagged(self):
        source = 'import os\nvalue = os.environ["REPRO_FULL"]\n'
        assert rule_ids(source, path=PLAIN_PATH) == ["REP-E401"]

    def test_membership_test_is_flagged(self):
        source = 'import os\nconfigured = "REPRO_BACKEND" in os.environ\n'
        findings = lint(source, path=PLAIN_PATH)
        assert [f.rule for f in findings] == ["REP-E401"]
        assert "is_set()" in findings[0].message

    def test_getenv_is_flagged(self):
        source = 'import os\nhome = os.getenv("HOME")\n'
        assert rule_ids(source, path=PLAIN_PATH) == ["REP-E401"]

    def test_writes_and_copies_are_clean(self):
        source = '''
import os

def launch_env():
    env = dict(os.environ)
    os.environ["REPRO_BACKEND"] = "serial"
    del os.environ["REPRO_BACKEND"]
    return env, os.environ.copy()
'''
        assert rule_ids(source, path=PLAIN_PATH) == []

    def test_registry_module_itself_is_exempt(self):
        source = 'import os\nraw = os.environ.get("REPRO_FULL")\n'
        assert rule_ids(source, path="src/repro/config/env.py") == []

    def test_registry_usage_is_clean(self):
        source = '''
from repro.config import env

FULL = env.REPRO_FULL.get()
'''
        assert rule_ids(source, path=PLAIN_PATH) == []


# ---------------------------------------------------------------------------
# Kernel-layer fixtures — the compiled-kernel package is golden scope
# ---------------------------------------------------------------------------

#: A path inside the compiled-kernel package, which is pinned explicitly in
#: GOLDEN_PACKAGES (it renders golden artefacts, and compiled code makes
#: determinism bugs especially easy to hide behind "the JIT did it").
KERNELS_PATH = "src/repro/render/kernels/fixture.py"


class TestKernelModuleFixtures:
    def test_kernel_package_is_golden_scope(self):
        assert load_module(KERNELS_PATH, source="x = 1\n").in_golden_scope

    def test_known_bad_kernel_module_is_flagged(self):
        # Known-bad: a warm-up helper that stamps wall-clock compile time
        # (REP-D103) and probes the kernels with unseeded random inputs
        # (REP-D104).  Both shapes are tempting in JIT warm-up code and
        # both must fire inside the kernel package.
        source = '''
import time

import numpy as np


def warm_up(kernels):
    compiled_at = time.time()
    probe = np.random.default_rng().random((4, 3))
    kernels.march(probe)
    return compiled_at
'''
        assert rule_ids(source, path=KERNELS_PATH) == ["REP-D103", "REP-D104"]

    def test_known_bad_compiled_closure_is_flagged(self):
        # Known-bad: a chunk closure capturing a compile-cache lock.  The
        # kernel layer's fork contract is that workers re-resolve kernels
        # *by name*; shipping resource state into backend.map is the exact
        # bug class REP-F201 exists for.
        source = '''
import threading


def render_chunks(backend, chunks, kernels):
    compile_lock = threading.Lock()

    def process(chunk):
        with compile_lock:
            return kernels.march(chunk)

    return backend.map(process, chunks)
'''
        assert rule_ids(source, path=KERNELS_PATH) == ["REP-F201"]

    def test_known_good_kernel_module_is_clean(self):
        # Known-good: the shape the real registry uses — deterministic
        # warm-up probes, perf_counter for timing, kernels resolved by name
        # inside the worker closure, no resource capture.
        source = '''
import time

import numpy as np


def warm_up(get_kernels, name):
    kernels = get_kernels(name)
    started = time.perf_counter()
    probe = np.random.default_rng(0).random((4, 3))
    kernels.march(probe)
    return time.perf_counter() - started


def render_chunks(backend, chunks, get_kernels, kernel_name):
    def process(chunk):
        kernels = get_kernels(kernel_name)
        return kernels.march(chunk)

    return backend.map(process, chunks)
'''
        assert rule_ids(source, path=KERNELS_PATH) == []


DAG_PATH = "src/repro/exec/dag.py"
TRANSPORT_PATH = "src/repro/exec/transport.py"
#: The pipeline module, home of the corpus scheduler (``run_corpus``).
COSTS_PATH = "src/repro/core/pipeline.py"


class TestDagAndCostModelFixtures:
    """Golden-scope pins for exec-package schedulers, the frame codec and
    the pipeline module.

    Any scheduler module under ``repro/exec`` (``DAG_PATH`` is a synthetic
    path there), the codec, which carries every golden map's payload bytes,
    and the pipeline, whose corpus runs are pinned bit-identical to the
    sequential loop, all sit in the project-invariant golden scope.  The
    fixtures are synthetic sources: known-bad scheduler and cost shapes
    (wall-clock deadlines, set-ordered dispatch, salted hashes, unseeded
    noise) are flagged and the known-good shapes are clean."""

    @pytest.mark.parametrize("path", [DAG_PATH, TRANSPORT_PATH, COSTS_PATH])
    def test_modules_are_golden_scope(self, path):
        assert load_module(path, source="x = 1\n").in_golden_scope

    def test_known_bad_dag_scheduler_is_flagged(self):
        # Known-bad: a scheduler that times out on wall-clock (REP-D103)
        # and dispatches by iterating a *set* of ready nodes (REP-D106) —
        # exactly the shape that would break the DAG's deterministic
        # heaviest-first order.
        source = '''
import time


def run_ready(dag, artifacts):
    deadline = time.time() + 30.0
    for node in set(dag.nodes):
        artifacts[node.name] = node.body(artifacts)
    return deadline
'''
        assert rule_ids(source, path=DAG_PATH) == ["REP-D103", "REP-D106"]

    def test_known_bad_cost_model_is_flagged(self):
        # Known-bad: cost hints memoised on salted hash() (REP-D101) and
        # jittered with unseeded noise (REP-D104) — either one makes "same
        # inputs -> same dispatch order" unreproducible.
        source = '''
import numpy as np


def jittered_costs(keys):
    cache_key = hash(tuple(keys))
    noise = np.random.default_rng().normal(size=len(keys))
    return cache_key, noise
'''
        assert rule_ids(source, path=COSTS_PATH) == [
            "REP-D101",
            "REP-D104",
        ]

    def test_known_good_scheduler_and_fit_are_clean(self):
        # Known-good: the shapes golden modules use — perf_counter for
        # node timing, sorted iteration, closed-form least squares with no
        # entropy at all.
        source = '''
import time

import numpy as np


def execute(node, artifacts):
    started = time.perf_counter()
    outputs = node.body(artifacts)
    return outputs, time.perf_counter() - started


def fit(features, seconds):
    gram = features.T @ features + 1e-6 * np.eye(features.shape[1])
    return np.linalg.solve(gram, features.T @ seconds)


def ready_names(nodes):
    return sorted(node.name for node in nodes)
'''
        assert rule_ids(source, path=DAG_PATH) == []
        assert rule_ids(source, path=COSTS_PATH) == []


# ---------------------------------------------------------------------------
# Engine-level behaviour shared by all rules
# ---------------------------------------------------------------------------

class TestEngineBehaviour:
    def test_syntax_error_files_are_skipped(self):
        assert load_module("src/x.py", source="def broken(:\n") is None

    def test_findings_are_sorted_and_located(self):
        source = (
            "import os\n"
            "b = os.environ.get(\"B\")\n"
            "a = os.environ.get(\"A\")\n"
        )
        findings = lint(source, path=PLAIN_PATH)
        assert [f.line for f in findings] == [2, 3]
        assert all(f.path == PLAIN_PATH for f in findings)
        assert all(f.col > 0 for f in findings)

    @pytest.mark.parametrize(
        "package", ["core", "exec", "render", "render/kernels", "baking"]
    )
    def test_golden_scope_detection(self, package):
        module = load_module(f"src/repro/{package}/m.py", source="x = 1\n")
        assert module.in_golden_scope

    @pytest.mark.parametrize(
        "path", ["src/repro/scenes/m.py", "tests/test_x.py", "benchmarks/c.py"]
    )
    def test_non_golden_scope_detection(self, path):
        assert not load_module(path, source="x = 1\n").in_golden_scope


# ---------------------------------------------------------------------------
# Interprocedural rules — REP-F203 / REP-F204 / REP-G501 / REP-W001
# ---------------------------------------------------------------------------

def lint_project(sources: dict) -> list:
    """Project-rule findings over ``{path: source}`` fixture modules,
    routed through the inline-allow machinery exactly as
    ``analyze_paths`` routes them (per-module rules excluded, so each
    fixture pins exactly one interprocedural rule)."""
    from repro.analysis.engine import ProjectRule

    modules = []
    for path, source in sources.items():
        module = load_module(path, source=source)
        assert module is not None, f"fixture {path} must parse"
        modules.append(module)
    findings = []
    by_path = {module.path: module for module in modules}
    for rule in all_rules():
        if not isinstance(rule, ProjectRule):
            continue
        for finding in rule.check_project(modules):
            module = by_path.get(finding.path)
            if module is None or not module.allowed(finding):
                findings.append(finding)
    return sorted(findings)


#: A shipped task calling one helper — the minimal interprocedural shape.
def shipped_fixture(helper_body: str) -> dict:
    return {
        "src/repro/exec/fixture.py": (
            "import os\n"
            "import time\n"
            "import threading\n"
            "import random\n"
            "import warnings\n"
            "import numpy as np\n"
            "def helper():\n"
            f"    {helper_body}\n"
            "def task(item):\n"
            "    return helper()\n"
            "def run(backend, items):\n"
            "    return backend.map(task, items)\n"
        ),
    }


class TestReachableImpurity:
    def test_wall_clock_two_calls_deep_is_flagged(self):
        findings = lint_project(shipped_fixture("return time.time()"))
        assert [f.rule for f in findings] == ["REP-F203"]
        assert "reachable via task -> helper" in findings[0].message

    def test_stdlib_random_in_helper_is_flagged(self):
        findings = lint_project(shipped_fixture("return random.random()"))
        assert [f.rule for f in findings] == ["REP-F203"]

    def test_environ_read_in_helper_is_flagged(self):
        findings = lint_project(
            shipped_fixture("return os.environ.get('REPRO_X')")
        )
        assert [f.rule for f in findings] == ["REP-F203"]

    def test_impurity_on_the_entry_itself_names_the_entry(self):
        sources = {
            "src/repro/exec/fixture.py": (
                "import time\n"
                "def task(item):\n"
                "    return time.time()\n"
                "def run(backend, items):\n"
                "    return backend.map(task, items)\n"
            ),
        }
        findings = lint_project(sources)
        assert [f.rule for f in findings] == ["REP-F203"]
        assert "shipped entry point" in findings[0].message

    def test_unreachable_impurity_is_clean(self):
        sources = {
            "src/repro/exec/fixture.py": (
                "import time\n"
                "def orchestrate():\n"
                "    return time.time()\n"
                "def task(item):\n"
                "    return item\n"
                "def run(backend, items):\n"
                "    orchestrate()\n"
                "    return backend.map(task, items)\n"
            ),
        }
        assert lint_project(sources) == []

    def test_cross_module_reach_is_flagged(self):
        sources = {
            "src/repro/exec/helpers.py": (
                "import time\n"
                "def stamp():\n"
                "    return time.time()\n"
            ),
            "src/repro/exec/fixture.py": (
                "from repro.exec.helpers import stamp\n"
                "def task(item):\n"
                "    return stamp()\n"
                "def run(backend, items):\n"
                "    return backend.map(task, items)\n"
            ),
        }
        findings = lint_project(sources)
        assert [f.rule for f in findings] == ["REP-F203"]
        assert findings[0].path == "src/repro/exec/helpers.py"


class TestReachableLock:
    def test_lock_construction_in_helper_is_flagged(self):
        findings = lint_project(
            shipped_fixture("return threading.Lock()")
        )
        assert [f.rule for f in findings] == ["REP-F204"]

    def test_explicit_acquire_in_helper_is_flagged(self):
        findings = lint_project(shipped_fixture("item_lock.acquire()"))
        assert [f.rule for f in findings] == ["REP-F204"]

    def test_file_open_in_helper_is_flagged(self):
        findings = lint_project(
            shipped_fixture("return open('/tmp/shard.bin', 'wb')")
        )
        assert [f.rule for f in findings] == ["REP-F204"]

    def test_lock_outside_shipped_scope_is_clean(self):
        sources = {
            "src/repro/exec/fixture.py": (
                "import threading\n"
                "def run(backend, items):\n"
                "    gate = threading.Lock()\n"
                "    def task(item):\n"
                "        return item\n"
                "    return backend.map(task, items)\n"
            ),
        }
        # run() holds the lock but is the dispatcher, not the cargo; the
        # nested task is shipped via reference and stays clean.
        assert lint_project(sources) == []


class TestConcurrentGlobalState:
    #: The pre-fix PR 8 profiler, reconstructed: a thread-pool job reaching a
    #: fit that probes convergence by flipping the warning filters to
    #: "error" inside catch_warnings — two concurrent fits corrupt each
    #: other's filter stacks.
    PRE_FIX_PROFILER = {
        "src/repro/core/fixture.py": (
            "import warnings\n"
            "from scipy.optimize import OptimizeWarning\n"
            "def fit(configs, qualities):\n"
            "    with warnings.catch_warnings():\n"
            "        warnings.simplefilter('error', OptimizeWarning)\n"
            "        return _solve(configs, qualities)\n"
            "def _solve(configs, qualities):\n"
            "    return configs\n"
            "def _fit_body(inputs):\n"
            "    return fit(inputs['configs'], inputs['qualities'])\n"
            "def run(pool, jobs):\n"
            "    return list(pool.map(_fit_body, jobs))\n"
        ),
    }

    def test_pr8_profiler_race_shape_is_flagged(self):
        findings = lint_project(self.PRE_FIX_PROFILER)
        assert [f.rule for f in findings] == ["REP-G501"]
        assert "QualityModel race" in findings[0].message
        assert "reachable via _fit_body -> fit" in findings[0].message

    def test_fixed_profiler_shape_is_clean(self):
        # The post-fix shape: idempotent "ignore" filter, outcome read
        # from data (pcov finiteness) instead of an exception probe.
        fixed = {
            "src/repro/core/fixture.py": (
                self.PRE_FIX_PROFILER["src/repro/core/fixture.py"].replace(
                    "simplefilter('error', OptimizeWarning)",
                    "simplefilter('ignore', OptimizeWarning)",
                )
            ),
        }
        assert lint_project(fixed) == []

    def test_seterr_in_dag_body_is_flagged(self):
        # A callable submitted to a thread pool runs concurrently (the
        # shape of run_corpus's whole-scene jobs).
        sources = {
            "src/repro/core/fixture.py": (
                "import numpy as np\n"
                "def body(inputs):\n"
                "    np.seterr(all='raise')\n"
                "    return inputs\n"
                "def run(executor, inputs):\n"
                "    return executor.submit(body, inputs)\n"
            ),
        }
        findings = lint_project(sources)
        assert [f.rule for f in findings] == ["REP-G501"]

    def test_environ_assignment_in_shipped_task_is_flagged(self):
        sources = {
            "src/repro/exec/fixture.py": (
                "import os\n"
                "def task(item):\n"
                "    os.environ['REPRO_X'] = str(item)\n"
                "    return item\n"
                "def run(backend, items):\n"
                "    return backend.map(task, items)\n"
            ),
        }
        rules = [f.rule for f in lint_project(sources)]
        # Both the concurrency rule and the reachable-impurity rule have a
        # say here (env mutation + env dependence); G501 must be among them.
        assert "REP-G501" in rules

    def test_global_state_outside_concurrent_scope_is_clean(self):
        sources = {
            "src/repro/core/fixture.py": (
                "import warnings\n"
                "def configure():\n"
                "    warnings.simplefilter('error')\n"
            ),
        }
        assert lint_project(sources) == []

    def test_inline_allow_waives_a_reachability_finding(self):
        sources = {
            "src/repro/core/fixture.py": (
                "import numpy as np\n"
                "def body(inputs):\n"
                "    # repro-analysis: allow=REP-G501 single-threaded test harness\n"
                "    np.seterr(all='raise')\n"
                "    return inputs\n"
                "def run(executor, inputs):\n"
                "    return executor.submit(body, inputs)\n"
            ),
        }
        assert lint_project(sources) == []


class TestStaleWaiver:
    def test_waiver_suppressing_nothing_is_flagged(self):
        sources = {
            "src/repro/exec/fixture.py": (
                "# repro-analysis: allow=REP-D101 long-gone hash usage\n"
                "x = 1\n"
            ),
        }
        findings = lint_project(sources)
        assert [f.rule for f in findings] == ["REP-W001"]
        assert findings[0].line == 1
        assert "REP-D101" in findings[0].message

    def test_waiver_that_suppresses_is_clean(self):
        sources = {
            "src/repro/core/fixture.py": (
                "import numpy as np\n"
                "def body(inputs):\n"
                "    # repro-analysis: allow=REP-G501 deliberate, tested\n"
                "    np.seterr(all='raise')\n"
                "    return inputs\n"
                "def run(executor, inputs):\n"
                "    return executor.submit(body, inputs)\n"
            ),
        }
        assert lint_project(sources) == []

    def test_quoting_the_syntax_in_prose_is_not_a_waiver(self):
        # Anchoring regression: a doc comment *mentioning* the directive
        # must neither waive anything nor count as a stale waiver.
        sources = {
            "src/repro/exec/fixture.py": (
                "#: e.g. ``# repro-analysis: allow=REP-D101 reason``\n"
                "x = 1\n"
            ),
        }
        assert lint_project(sources) == []
