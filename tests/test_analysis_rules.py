"""Fixture tests for every lint rule in :mod:`repro.analysis.rules`.

Each rule gets known-bad snippets (must produce exactly its finding) and
known-good snippets (must stay clean), including a regression fixture
that reproduces the shape of the historical seed-aliasing bug.
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
# REP-D104 / REP-D105 — unseeded RNG and ad-hoc entropy
# ---------------------------------------------------------------------------

class TestRngRules:
    def test_pr4_seed_aliasing_regression_is_flagged(self):
        # Regression fixture: the shape of the seed-aliasing bug.  A per-shard
        # stream must not come from ad-hoc entropy (or, as originally
        # shipped, silently alias seed 0); streams derive from a seed.
        # Both ad-hoc variants below must be flagged.
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

    def test_no_function_is_blessed_to_draw_entropy(self):
        # The one former entropy intake is gone: entropy inside any
        # function of a golden module is a finding, whatever its name.
        source = '''
import numpy as np

def fresh_seed_root():
    return int(np.random.SeedSequence().entropy)
'''
        assert rule_ids(source) == ["REP-D105"]

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

    def test_os_urandom_is_flagged(self):
        assert rule_ids("import os\nsecret = os.urandom(16)\n") == ["REP-D105"]


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

def run(backend, items):
    with socket.create_connection(("x", 1)) as conn:
        return backend.map(lambda item: conn.send(item), items)
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

#: A path inside the compiled-kernel package, golden scope through
#: ("repro", "render") (compiled code makes seeding bugs especially easy
#: to hide behind "the JIT did it").
KERNELS_PATH = "src/repro/render/kernels/fixture.py"


class TestKernelModuleFixtures:
    def test_kernel_package_is_golden_scope(self):
        assert load_module(KERNELS_PATH, source="x = 1\n").in_golden_scope

    def test_known_bad_kernel_module_is_flagged(self):
        # Known-bad: a warm-up helper that probes the kernels with unseeded
        # random inputs (REP-D104), a shape tempting in JIT warm-up code.
        source = '''
import numpy as np


def warm_up(kernels):
    probe = np.random.default_rng().random((4, 3))
    kernels.march(probe)
'''
        assert rule_ids(source, path=KERNELS_PATH) == ["REP-D104"]

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
#: The pipeline module, home of the corpus scheduler (``run_corpus``).
COSTS_PATH = "src/repro/core/pipeline.py"


class TestDagAndCostModelFixtures:
    """Golden-scope pins for exec-package schedulers and the pipeline module.

    Any scheduler module under ``repro/exec`` (``DAG_PATH`` is a synthetic
    path there) and the pipeline, whose corpus runs are pinned
    bit-identical to the sequential loop, sit in the project-invariant
    golden scope.  The fixtures are synthetic sources: a known-bad cost
    shape (unseeded noise) is flagged and the known-good shapes are
    clean."""

    @pytest.mark.parametrize("path", [DAG_PATH, COSTS_PATH])
    def test_modules_are_golden_scope(self, path):
        assert load_module(path, source="x = 1\n").in_golden_scope

    def test_known_bad_cost_model_is_flagged(self):
        # Known-bad: cost hints jittered with unseeded noise (REP-D104)
        # make "same inputs -> same dispatch order" unreproducible.
        source = '''
import numpy as np


def jittered_costs(keys):
    return np.random.default_rng().normal(size=len(keys))
'''
        assert rule_ids(source, path=COSTS_PATH) == ["REP-D104"]

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
        "package",
        ["core", "exec", "render", "render/kernels", "baking", "exec/transport.py"],
    )
    def test_golden_scope_detection(self, package):
        path = f"src/repro/{package}"
        if not package.endswith(".py"):
            path += "/m.py"
        assert load_module(path, source="x = 1\n").in_golden_scope

    @pytest.mark.parametrize(
        "path", ["src/repro/scenes/m.py", "tests/test_x.py", "benchmarks/c.py"]
    )
    def test_non_golden_scope_detection(self, path):
        assert not load_module(path, source="x = 1\n").in_golden_scope


# ---------------------------------------------------------------------------
# Interprocedural rules — REP-F203 / REP-F204
# ---------------------------------------------------------------------------

def lint_project(sources: dict) -> list:
    """Project-rule findings over ``{path: source}`` fixture modules
    (per-module rules excluded, so each fixture pins exactly one
    interprocedural rule)."""
    from repro.analysis.engine import ProjectRule

    modules = []
    for path, source in sources.items():
        module = load_module(path, source=source)
        assert module is not None, f"fixture {path} must parse"
        modules.append(module)
    return sorted(
        finding
        for rule in all_rules() if isinstance(rule, ProjectRule)
        for finding in rule.check_project(modules)
    )


#: A shipped task calling one helper — the minimal interprocedural shape.
def shipped_fixture(helper_body: str) -> dict:
    return {
        "src/repro/exec/fixture.py": (
            "import os\n"
            "import time\n"
            "import threading\n"
            "import random\n"
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
