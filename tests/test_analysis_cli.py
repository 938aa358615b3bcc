"""End-to-end tests of ``python -m repro.analysis``: exit codes, JSON
output schema, baseline round-trips, and the CI-gate contract (a clean
tree exits 0; reintroducing any regression-fixture bug exits 1)."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.analysis import Baseline, BaselineEntry, all_rules, analyze_paths
from repro.analysis.__main__ import main

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_DIR = os.path.join(REPO_ROOT, "src")


@pytest.fixture(scope="module")
def repo_analysis():
    """One lint of the real tree (src + tests + benchmarks, the CI gate's
    invocation) under the checked-in baseline, shared by the tests that
    inspect it."""
    baseline = Baseline.load(os.path.join(REPO_ROOT, ".analysis-baseline.json"))
    return analyze_paths(
        [os.path.join(REPO_ROOT, d) for d in ("src", "tests", "benchmarks")],
        all_rules(),
        baseline=baseline,
    )


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


#: One known-bad module per regression class the acceptance criteria name.
REGRESSION_FIXTURES = {
    "seed-aliasing": (
        "src/repro/exec/bad_rng.py",
        "import numpy as np\n"
        "def shard_rng(seed, shard_index):\n"
        "    root = int(np.random.SeedSequence().entropy) if seed is None else seed\n"
        "    return np.random.default_rng([root, shard_index])\n",
        "REP-D105",
    ),
    "hash-key": (
        "src/repro/exec/bad_key.py",
        "def key_filename(key):\n"
        "    return f'{hash(key):x}.npz'\n",
        "REP-D101",
    ),
    "unlocked-mutation": (
        "src/repro/render/bad_lock.py",
        "import threading\n"
        "class Cache:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self.hits = 0\n"
        "    def record(self):\n"
        "        self.hits += 1\n",
        "REP-L301",
    ),
    "raw-env-read": (
        "src/repro/core/bad_env.py",
        "import os\n"
        "FULL = os.environ.get('REPRO_FULL', '0') != '0'\n",
        "REP-E401",
    ),
}


class TestCliGate:
    def test_clean_tree_exits_zero(self, tmp_path):
        write_module(tmp_path, "src/repro/core/good.py", "VALUE = 1\n")
        result = run_cli(["src"], cwd=tmp_path)
        assert result.returncode == 0, result.stdout + result.stderr
        assert "0 new finding(s)" in result.stdout

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
        listed = result.stdout
        for family_rule in ("REP-D101", "REP-F201", "REP-L301", "REP-E401"):
            assert family_rule in listed

    def test_rule_catalog_has_at_least_four_families(self):
        families = {rule.rule_id[:5] for rule in all_rules()}
        assert {"REP-D", "REP-F", "REP-L", "REP-E"} <= families


class TestJsonOutput:
    def test_schema(self, tmp_path):
        rel_path, source, expected_rule = REGRESSION_FIXTURES["hash-key"]
        write_module(tmp_path, rel_path, source)
        result = run_cli(["--json", "src"], cwd=tmp_path)
        assert result.returncode == 1
        payload = json.loads(result.stdout)
        assert payload["version"] == 1
        assert {"id", "title", "severity"} <= set(payload["rules"][0])
        assert payload["summary"]["files"] == 1
        assert payload["summary"]["new"] == 1
        assert payload["summary"]["baselined"] == 0
        (finding,) = payload["findings"]
        assert finding["rule"] == expected_rule
        assert finding["path"].endswith("bad_key.py")
        assert finding["line"] == 2
        assert finding["col"] > 0
        assert finding["severity"] in ("error", "warning")
        assert finding["message"]

    def test_clean_json_run(self, tmp_path):
        write_module(tmp_path, "src/repro/core/good.py", "VALUE = 1\n")
        result = run_cli(["--json", "src"], cwd=tmp_path)
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["findings"] == []


class TestBaseline:
    def test_round_trip_suppresses_exactly_the_written_findings(self, tmp_path):
        rel_path, source, _ = REGRESSION_FIXTURES["hash-key"]
        write_module(tmp_path, rel_path, source)

        # Without a baseline the finding gates.
        assert run_cli(["src"], cwd=tmp_path).returncode == 1

        # --write-baseline accepts it ...
        result = run_cli(["--write-baseline", "src"], cwd=tmp_path)
        assert result.returncode == 0, result.stdout + result.stderr
        baseline_path = tmp_path / ".analysis-baseline.json"
        assert baseline_path.exists()

        # ... and the next run is green, reporting it as baselined.
        result = run_cli(["src"], cwd=tmp_path)
        assert result.returncode == 0, result.stdout + result.stderr
        assert "1 baselined" in result.stdout

        # A *different* new finding still gates.
        write_module(
            tmp_path, "src/repro/core/bad_env.py",
            REGRESSION_FIXTURES["raw-env-read"][1],
        )
        assert run_cli(["src"], cwd=tmp_path).returncode == 1

    def test_baseline_match_ignores_line_drift(self, tmp_path):
        rel_path, source, _ = REGRESSION_FIXTURES["hash-key"]
        write_module(tmp_path, rel_path, source)
        run_cli(["--write-baseline", "src"], cwd=tmp_path)
        # Prepend a comment block: every line number shifts, the entry
        # must still match (identity is rule+path+message, not line).
        write_module(tmp_path, rel_path, "# shifted\n# shifted\n" + source)
        result = run_cli(["src"], cwd=tmp_path)
        assert result.returncode == 0, result.stdout + result.stderr

    def test_write_baseline_preserves_human_reasons(self, tmp_path):
        rel_path, source, _ = REGRESSION_FIXTURES["hash-key"]
        write_module(tmp_path, rel_path, source)
        run_cli(["--write-baseline", "src"], cwd=tmp_path)
        baseline_path = str(tmp_path / ".analysis-baseline.json")

        payload = json.load(open(baseline_path))
        payload["entries"][0]["reason"] = "legacy digest, migrating in PR 7"
        with open(baseline_path, "w") as handle:
            json.dump(payload, handle)

        run_cli(["--write-baseline", "src"], cwd=tmp_path)
        payload = json.load(open(baseline_path))
        assert payload["entries"][0]["reason"] == "legacy digest, migrating in PR 7"

    def test_write_baseline_prunes_fixed_findings(self, tmp_path):
        rel_path, source, _ = REGRESSION_FIXTURES["hash-key"]
        path = write_module(tmp_path, rel_path, source)
        run_cli(["--write-baseline", "src"], cwd=tmp_path)
        path.write_text("import hashlib\n")  # fixed
        run_cli(["--write-baseline", "src"], cwd=tmp_path)
        payload = json.load(open(tmp_path / ".analysis-baseline.json"))
        assert payload["entries"] == []

    def test_api_round_trip(self, tmp_path):
        entries = [
            BaselineEntry(rule="REP-D101", path="src/a.py", message="m1", reason="r"),
            BaselineEntry(rule="REP-E401", path="src/b.py", message="m2"),
        ]
        baseline = Baseline(entries=entries)
        path = str(tmp_path / "base.json")
        baseline.save(path)
        loaded = Baseline.load(path)
        assert {entry.key() for entry in loaded.entries} == {
            entry.key() for entry in entries
        }
        assert loaded.entries[0].reason in ("r", "")

    def test_missing_baseline_is_empty(self, tmp_path):
        assert len(Baseline.load(str(tmp_path / "nope.json"))) == 0

    def test_version_mismatch_is_an_error(self, tmp_path):
        path = tmp_path / "base.json"
        path.write_text('{"version": 99, "entries": []}')
        with pytest.raises(ValueError, match="version"):
            Baseline.load(str(path))
        # And the CLI reports it as a usage error, not a crash.
        write_module(tmp_path, "src/repro/core/good.py", "VALUE = 1\n")
        result = run_cli(["--baseline", str(path), "src"], cwd=tmp_path)
        assert result.returncode == 2
        assert "baseline" in result.stderr


class TestRepositoryGate:
    def test_whole_repo_is_clean_under_the_checked_in_baseline(self, repo_analysis):
        """The exact CI invocation: src + tests + benchmarks from the repo
        root must produce zero non-baselined findings."""
        result = repo_analysis
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
        assert "0 new finding(s)" in capsys.readouterr().out


#: Known-bad interprocedural fixtures: each must fail the CLI gate with
#: its rule, including the pre-fix PR 8 profiler shape.
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
    "pre-fix-profiler-race": (
        # The pre-PR-8 profiler: a thread-pool job reaching a fit that probes
        # convergence via simplefilter("error", ...) — the QualityModel race.
        "src/repro/core/bad_profiler.py",
        "import warnings\n"
        "def fit(configs, qualities):\n"
        "    with warnings.catch_warnings():\n"
        "        warnings.simplefilter('error')\n"
        "        return configs\n"
        "def _fit_body(inputs):\n"
        "    return fit(inputs['configs'], inputs['qualities'])\n"
        "def run(pool, jobs):\n"
        "    return list(pool.map(_fit_body, jobs))\n",
        "REP-G501",
    ),
    "stale-waiver": (
        "src/repro/core/bad_waiver.py",
        "# repro-analysis: allow=REP-D101 nothing here hashes any more\n"
        "VALUE = 1\n",
        "REP-W001",
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


class TestWaiversAudit:
    WAIVED = (
        "import os\n"
        "def intake():\n"
        "    # repro-analysis: allow=REP-E401 boot probe, registry not importable yet\n"
        "    return os.environ.get('REPRO_BOOT')\n"
    )

    def test_waivers_lists_location_rules_count_and_reason(self, tmp_path):
        write_module(tmp_path, "src/repro/core/waived.py", self.WAIVED)
        result = run_cli(["--waivers", "src"], cwd=tmp_path)
        assert result.returncode == 0, result.stdout + result.stderr
        assert "src/repro/core/waived.py:3" in result.stdout
        assert "allow=REP-E401" in result.stdout
        assert "suppresses 1 finding(s)" in result.stdout
        assert "boot probe, registry not importable yet" in result.stdout
        assert "1 active waiver(s)" in result.stdout

    def test_stale_waiver_audits_with_zero_count(self, tmp_path):
        write_module(
            tmp_path, "src/repro/core/stale.py",
            "# repro-analysis: allow=REP-D101 long gone\nVALUE = 1\n",
        )
        result = run_cli(["--waivers", "src"], cwd=tmp_path)
        assert result.returncode == 0
        assert "suppresses 0 finding(s)" in result.stdout
        assert "long gone" in result.stdout

    def test_missing_reason_is_called_out(self, tmp_path):
        write_module(
            tmp_path, "src/repro/core/bare.py",
            "x = 1  # repro-analysis: allow=REP-D102\n",
        )
        result = run_cli(["--waivers", "src"], cwd=tmp_path)
        assert "(no reason given)" in result.stdout

    def test_repo_waivers_all_carry_reasons_and_suppress(self, repo_analysis):
        # The repository's own waivers must stay justified and live.
        for waiver in repo_analysis.waivers:
            assert waiver.reason, f"{waiver.path}:{waiver.line} has no reason"
            assert waiver.suppressed > 0, (
                f"{waiver.path}:{waiver.line} suppresses nothing"
            )


class TestJsonStability:
    def test_repeated_runs_are_byte_identical(self, tmp_path):
        # The CI artifact contract: two runs over the same tree produce
        # byte-identical --json output (sorted traversal, deterministic
        # finding order, no timestamps or absolute paths).
        for name in ("shipped-wall-clock", "pre-fix-profiler-race", "stale-waiver"):
            rel_path, source, _ = INTERPROCEDURAL_FIXTURES[name]
            write_module(tmp_path, rel_path, source)
        write_module(tmp_path, "src/repro/core/good.py", "VALUE = 1\n")

        def run_bytes():
            env = dict(os.environ)
            env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
            return subprocess.run(
                [sys.executable, "-m", "repro.analysis", "--json", "src"],
                cwd=tmp_path, env=env, capture_output=True, timeout=120,
            ).stdout

        first, second = run_bytes(), run_bytes()
        assert first
        assert first == second
