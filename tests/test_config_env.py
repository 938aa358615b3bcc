"""The typed env registry: parser semantics, legacy equivalence, the
accuracy of the declared consumer lists, and staleness of the DESIGN.md
reference table."""

from __future__ import annotations

import os
import re
from pathlib import Path

import pytest

from repro.config import env as repro_env
from repro.config.env import (
    EnvVar,
    all_vars,
    env_table_markdown,
    parse_bool,
    parse_mb_bytes,
    parse_optional_str,
    register,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REGISTRY_PATH = os.path.join(REPO_ROOT, "src", "repro", "config", "env.py")


class TestParsers:
    @pytest.mark.parametrize("raw", ["0", "", "false", "False"])
    def test_bool_false_spellings(self, raw):
        assert parse_bool(raw) is False

    @pytest.mark.parametrize("raw", ["1", "yes", "TRUE", "on", "2"])
    def test_bool_anything_else_is_true(self, raw):
        assert parse_bool(raw) is True

    def test_optional_str_strips_and_empties_to_none(self):
        assert parse_optional_str("  /tmp/x ") == "/tmp/x"
        assert parse_optional_str("   ") is None

    def test_mb_bytes_fractional_and_floor(self):
        assert parse_mb_bytes("2") == 2 << 20
        assert parse_mb_bytes("0.5") == 1 << 20  # floored at 1 MiB
        assert parse_mb_bytes("1.5") == 3 << 19
        with pytest.raises(ValueError):
            parse_mb_bytes("not-a-number")


class TestGetSemantics:
    def test_unset_yields_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert repro_env.REPRO_BACKEND.get() == "thread"
        assert not repro_env.REPRO_BACKEND.is_set()
        assert repro_env.REPRO_BACKEND.raw() is None

    def test_empty_means_not_configured(self, monkeypatch):
        """``REPRO_BACKEND= pytest ...`` has always meant the default —
        the legacy call sites spelled it ``os.environ.get(X) or DEFAULT``."""
        monkeypatch.setenv("REPRO_BACKEND", "")
        assert repro_env.REPRO_BACKEND.get() == "thread"
        assert repro_env.REPRO_BACKEND.is_set()  # present, just empty

    def test_set_value_is_parsed(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "process")
        assert repro_env.REPRO_BACKEND.get() == "process"
        monkeypatch.setenv("REPRO_FULL", "1")
        assert repro_env.REPRO_FULL.get() is True
        monkeypatch.setenv("REPRO_FULL", "0")
        assert repro_env.REPRO_FULL.get() is False

    def test_unparseable_falls_back_to_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_ARTIFACT_MAX_MB", "lots")
        assert repro_env.REPRO_ARTIFACT_MAX_MB.get() == 4 << 30

    def test_reparsed_on_every_get(self, monkeypatch):
        monkeypatch.setenv("REPRO_ARTIFACT_MAX_MB", "8")
        assert repro_env.REPRO_ARTIFACT_MAX_MB.get() == 8 << 20
        monkeypatch.setenv("REPRO_ARTIFACT_MAX_MB", "16")
        assert repro_env.REPRO_ARTIFACT_MAX_MB.get() == 16 << 20


class TestLegacyEquivalence:
    """The migrated call sites must behave exactly as before the registry."""

    def test_persist_max_bytes(self, monkeypatch):
        from repro.exec import persist

        monkeypatch.setenv("REPRO_ARTIFACT_MAX_MB", "2.5")
        assert persist.max_bytes_from_env() == int(2.5 * (1 << 20))
        monkeypatch.setenv("REPRO_ARTIFACT_MAX_MB", "garbage")
        assert persist.max_bytes_from_env() == persist.DEFAULT_MAX_BYTES

    def test_persist_artifact_dir(self, monkeypatch, tmp_path):
        from repro.exec import persist

        monkeypatch.delenv("REPRO_ARTIFACT_DIR", raising=False)
        assert persist.artifact_dir_from_env() is None
        monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path))
        assert persist.artifact_dir_from_env() == str(tmp_path)

    def test_backend_resolution_default(self, monkeypatch):
        from repro.exec import backends

        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert backends.resolve_backend().name == backends.DEFAULT_BACKEND_NAME
        monkeypatch.setenv("REPRO_BACKEND", "")
        assert backends.resolve_backend().name == backends.DEFAULT_BACKEND_NAME

    def test_module_constants_still_exported(self):
        from repro.exec import backends, persist

        assert backends.BACKEND_ENV_VAR == "REPRO_BACKEND"
        assert persist.ARTIFACT_DIR_ENV_VAR == "REPRO_ARTIFACT_DIR"
        assert persist.ARTIFACT_MAX_MB_ENV_VAR == "REPRO_ARTIFACT_MAX_MB"


class TestRegistry:
    def test_every_repro_var_is_declared(self):
        names = {var.name for var in all_vars()}
        assert {
            "REPRO_BACKEND",
            "REPRO_ARTIFACT_DIR",
            "REPRO_ARTIFACT_MAX_MB",
            "REPRO_FULL",
            "REPRO_BENCH_QUICK",
            "REPRO_BENCH_SUITE",
            "REPRO_BENCH_DIR",
            "REPRO_REQUIRE_WARM",
        } <= names

    def test_double_registration_is_an_error(self):
        with pytest.raises(ValueError, match="declared twice"):
            register(EnvVar(
                name="REPRO_BACKEND", default="x",
                parser=str, description="dup",
            ))

    def test_lookup_by_name(self):
        assert repro_env.get("REPRO_FULL") is repro_env.REPRO_FULL
        with pytest.raises(KeyError):
            repro_env.get("REPRO_NO_SUCH_KNOB")

    @pytest.mark.parametrize("var", all_vars(), ids=lambda v: v.name)
    def test_consumer_lists_are_accurate(self, var):
        """Each declared consumer module really reads the variable, and no
        undeclared module in the tree reads it behind the registry's back."""
        for module in var.consumers:
            path = os.path.join(REPO_ROOT, module.replace(".", os.sep) + ".py")
            if module.startswith("repro."):
                path = os.path.join(REPO_ROOT, "src", module.replace(".", os.sep) + ".py")
            assert os.path.exists(path), f"{var.name}: consumer {module} not found"
            source = Path(path).read_text(encoding="utf-8")
            assert re.search(rf"\b{var.name}\b", source), (
                f"{var.name}: declared consumer {module} never mentions it"
            )
        read = re.compile(rf"\b{var.name}\.(?:get|is_set|raw)\(")
        readers = set()
        for top in ("src", "benchmarks"):
            for dirpath, _, filenames in os.walk(os.path.join(REPO_ROOT, top)):
                for name in filenames:
                    path = os.path.join(dirpath, name)
                    if not name.endswith(".py") or path == REGISTRY_PATH:
                        continue
                    if read.search(Path(path).read_text(encoding="utf-8")):
                        rel = os.path.relpath(path, REPO_ROOT)[: -len(".py")]
                        readers.add(rel.removeprefix("src" + os.sep).replace(os.sep, "."))
        undeclared = readers - set(var.consumers)
        assert not undeclared, f"{var.name}: read by undeclared {sorted(undeclared)}"


class TestEnvTable:
    def test_table_covers_every_variable(self):
        table = env_table_markdown()
        for var in all_vars():
            assert f"`{var.name}`" in table

    def test_design_doc_table_is_current(self):
        """DESIGN.md embeds the output of ``--env-table`` between markers;
        regenerate with ``python -m repro.analysis --env-table`` on drift."""
        design = Path(REPO_ROOT, "DESIGN.md").read_text(encoding="utf-8")
        match = re.search(
            r"<!-- env-table:begin -->\n(.*?)\n<!-- env-table:end -->",
            design,
            re.DOTALL,
        )
        assert match, "DESIGN.md is missing the env-table markers"
        assert match.group(1).strip() == env_table_markdown().strip(), (
            "DESIGN.md env table is stale — regenerate it with "
            "`PYTHONPATH=src python -m repro.analysis --env-table`"
        )
