"""End-to-end tests of ``python -m repro.analysis``: exit codes, the rule
catalog, and the CI-gate contract (a clean tree exits 0; a known-bad
fixture for any rule exits 1)."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.analysis import all_rules, analyze_paths
from repro.analysis.__main__ import main

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_DIR = os.path.join(REPO_ROOT, "src")


def run_cli(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def write_module(tmp_path, rel_path, source):
    path = tmp_path / rel_path
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return path


#: One known-bad module per per-module rule.
REGRESSION_FIXTURES = {
    "unseeded-rng": (
        "src/repro/render/bad_rng.py",
        "import numpy as np\n"
        "def jitter(rays):\n"
        "    return rays + np.random.default_rng().normal(size=rays.shape)\n",
        "REP-D104",
    ),
    "seed-aliasing": (
        "src/repro/exec/bad_rng.py",
        "import numpy as np\n"
        "def shard_rng(seed, shard_index):\n"
        "    root = int(np.random.SeedSequence().entropy) if seed is None else seed\n"
        "    return np.random.default_rng([root, shard_index])\n",
        "REP-D105",
    ),
    "raw-env-read": (
        "src/repro/core/bad_env.py",
        "import os\n"
        "FULL = os.environ.get('REPRO_FULL', '0') != '0'\n",
        "REP-E401",
    ),
    "worker-closure": (
        "src/repro/scenes/bad_closure.py",
        "import threading\n"
        "def run(backend, items):\n"
        "    lock = threading.Lock()\n"
        "    return backend.map(lambda item: (lock, item), items)\n",
        "REP-F201",
    ),
}


class TestCliGate:
    def test_clean_tree_exits_zero(self, tmp_path):
        write_module(tmp_path, "src/repro/core/good.py", "VALUE = 1\n")
        result = run_cli(["src"], cwd=tmp_path)
        assert result.returncode == 0, result.stdout + result.stderr
        assert "0 finding(s)" in result.stdout

    @pytest.mark.parametrize("name", sorted(REGRESSION_FIXTURES))
    def test_regression_fixture_fails_the_gate(self, tmp_path, name):
        rel_path, source, expected_rule = REGRESSION_FIXTURES[name]
        write_module(tmp_path, rel_path, source)
        result = run_cli(["src"], cwd=tmp_path)
        assert result.returncode == 1, result.stdout + result.stderr
        assert expected_rule in result.stdout
        assert rel_path.replace(os.sep, "/") in result.stdout

    def test_default_paths_and_missing_dirs_are_tolerated(self, tmp_path):
        # The default invocation lints src tests benchmarks; a tree that
        # only has src must still work (the others contribute no files).
        write_module(tmp_path, "src/repro/core/good.py", "VALUE = 1\n")
        result = run_cli([], cwd=tmp_path)
        assert result.returncode == 0, result.stdout + result.stderr

    def test_list_rules_names_every_family(self, tmp_path):
        result = run_cli(["--list-rules"], cwd=tmp_path)
        assert result.returncode == 0
        listed = [line.split()[0] for line in result.stdout.splitlines()]
        assert listed == [
            "REP-D104", "REP-D105", "REP-F201", "REP-F203", "REP-F204", "REP-E401",
        ]


class TestRepositoryGate:
    def test_whole_repo_is_clean(self):
        """The exact CI invocation: src + tests + benchmarks from the repo
        root must produce zero findings."""
        result = analyze_paths(
            [os.path.join(REPO_ROOT, d) for d in ("src", "tests", "benchmarks")],
            all_rules(),
        )
        assert result.files_checked > 90
        assert result.findings == [], "\n".join(f.format() for f in result.findings)

    def test_runtime_does_not_import_the_linter(self):
        """The linter is a review-time tool: importing the pipeline, the
        execution layer and the renderer must not load any of it."""
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        probe = (
            "import sys\n"
            "import repro.core.pipeline, repro.exec, repro.render\n"
            "print(sorted(m for m in sys.modules if m.startswith('repro.analysis')))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    def test_in_process_main_matches_subprocess(self, tmp_path, capsys, monkeypatch):
        write_module(tmp_path, "src/repro/core/good.py", "VALUE = 1\n")
        monkeypatch.chdir(tmp_path)
        assert main(["src"]) == 0
        assert "0 finding(s)" in capsys.readouterr().out


#: Known-bad interprocedural fixtures: each must fail the CLI gate with
#: its rule.
INTERPROCEDURAL_FIXTURES = {
    "shipped-wall-clock": (
        "src/repro/exec/bad_reach.py",
        "import time\n"
        "def helper():\n"
        "    return time.time()\n"
        "def task(item):\n"
        "    return helper()\n"
        "def run(backend, items):\n"
        "    return backend.map(task, items)\n",
        "REP-F203",
    ),
    "shipped-lock": (
        "src/repro/exec/bad_lock_reach.py",
        "import threading\n"
        "def helper():\n"
        "    return threading.Lock()\n"
        "def task(item):\n"
        "    return helper()\n"
        "def run(backend, items):\n"
        "    return backend.map(task, items)\n",
        "REP-F204",
    ),
}


class TestInterproceduralGate:
    @pytest.mark.parametrize("name", sorted(INTERPROCEDURAL_FIXTURES))
    def test_known_bad_fixture_fails_the_gate(self, tmp_path, name):
        rel_path, source, expected_rule = INTERPROCEDURAL_FIXTURES[name]
        write_module(tmp_path, rel_path, source)
        result = run_cli(["src"], cwd=tmp_path)
        assert result.returncode == 1, result.stdout + result.stderr
        assert expected_rule in result.stdout
        assert rel_path.replace(os.sep, "/") in result.stdout

    def test_reachability_finding_prints_the_witness_chain(self, tmp_path):
        rel_path, source, _ = INTERPROCEDURAL_FIXTURES["shipped-wall-clock"]
        write_module(tmp_path, rel_path, source)
        result = run_cli(["src"], cwd=tmp_path)
        assert "reachable via task -> helper" in result.stdout
