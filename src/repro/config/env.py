"""The typed environment-variable registry.

Every environment variable the library, the test tier and the benchmark
harness consult is declared here exactly once, as an :class:`EnvVar` with
its default, its parser and the modules that consume it.  This is the
*only* module allowed to touch ``os.environ`` for reads: the static
analyzer (:mod:`repro.analysis`, rule ``REP-E401``) flags raw
``os.environ`` reads anywhere else, so a variable can never again grow a
second, slightly different default in a far-away call site.

Reading a knob::

    from repro.config import env

    if env.REPRO_BENCH_QUICK.get():
        ...

Semantics shared by every variable:

* unset **or empty** → the declared default (an empty string has always
  meant "not configured" throughout this code base);
* a value the parser rejects (:class:`ValueError`) → the declared default,
  never an exception — a typo in ``REPRO_ARTIFACT_MAX_MB`` must not take
  down a run that was told to cache artefacts opportunistically;
* parsing happens on every :meth:`EnvVar.get`, so tests may monkeypatch
  ``os.environ`` freely.

The registry also renders itself as the environment-variable reference
table in DESIGN.md (:func:`env_table_markdown`, emitted by
``python -m repro.analysis --env-table`` and staleness-checked in
``tests/test_config_env.py``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field


# ---------------------------------------------------------------------------
# Parsers
# ---------------------------------------------------------------------------

#: Spellings that have always meant "off" for the suite's boolean knobs
#: (``REPRO_FULL`` etc.); anything else — ``1``, ``yes``, ``TRUE`` — is on.
_FALSE_SPELLINGS = ("0", "", "false", "False")


def parse_bool(raw: str) -> bool:
    """``"0"`` / ``""`` / ``"false"`` / ``"False"`` → ``False``, else ``True``."""
    return raw not in _FALSE_SPELLINGS


def parse_str(raw: str) -> str:
    """The raw value, unchanged."""
    return raw


def parse_optional_str(raw: str) -> "str | None":
    """The stripped value, or ``None`` when only whitespace remains."""
    return raw.strip() or None


def parse_mb_bytes(raw: str) -> int:
    """A size in (possibly fractional) MiB → bytes, floored at 1 MiB."""
    return max(int(float(raw) * (1 << 20)), 1 << 20)


# ---------------------------------------------------------------------------
# The variable type and registry
# ---------------------------------------------------------------------------

#: Registration order is presentation order in the reference table.
REGISTRY: "dict[str, EnvVar]" = {}


@dataclass(frozen=True)
class EnvVar:
    """One declared environment variable: name, default, parser, consumers.

    Args:
        name: the environment variable name (``REPRO_*`` for the library's
            own knobs).
        default: the already-parsed value used when the variable is unset,
            empty, or unparseable.
        parser: ``str -> value``; called only on non-empty raw values.
        description: one line for the reference table.
        consumers: dotted module paths that call :meth:`get` — kept
            accurate by ``tests/test_config_env.py``.
        default_text: optional human rendering of ``default`` for the
            table (e.g. ``"4 GiB"`` instead of ``4294967296``).
    """

    name: str
    default: object
    parser: "callable"
    description: str
    consumers: "tuple[str, ...]" = ()
    default_text: "str | None" = None

    def raw(self) -> "str | None":
        """The unparsed environment value, or ``None`` when unset."""
        return os.environ.get(self.name)

    def is_set(self) -> bool:
        """Whether the variable is present in the environment at all."""
        return self.name in os.environ

    def get(self):
        """The parsed value, falling back to the default (see module docs)."""
        raw = os.environ.get(self.name)
        if raw is None or raw == "":
            return self.default
        try:
            return self.parser(raw)
        except ValueError:
            return self.default

    @property
    def default_display(self) -> str:
        if self.default_text is not None:
            return self.default_text
        return repr(self.default)


def register(var: EnvVar) -> EnvVar:
    if var.name in REGISTRY:
        raise ValueError(f"environment variable {var.name!r} declared twice")
    REGISTRY[var.name] = var
    return var


def get(name: str) -> EnvVar:
    """The declared :class:`EnvVar` for ``name`` (:class:`KeyError` if none)."""
    return REGISTRY[name]


def all_vars() -> "list[EnvVar]":
    """Every declared variable, in registration (= documentation) order."""
    return list(REGISTRY.values())


# ---------------------------------------------------------------------------
# The declarations — one per variable, nowhere else
# ---------------------------------------------------------------------------

REPRO_BACKEND = register(EnvVar(
    name="REPRO_BACKEND",
    default="thread",
    parser=parse_str,
    description="Execution backend (serial / thread / process) "
    "when the caller does not pick one.",
    consumers=("repro.exec.backends",),
    default_text='"thread"',
))

REPRO_KERNEL = register(EnvVar(
    name="REPRO_KERNEL",
    default="auto",
    parser=parse_str,
    description="Render kernel backend (auto / numpy / loops / numba) when "
    "the caller does not pick one; auto prefers the compiled path and "
    "falls back to numpy when numba is absent.",
    consumers=("repro.render.kernels.registry",),
    default_text='"auto"',
))

REPRO_ARTIFACT_DIR = register(EnvVar(
    name="REPRO_ARTIFACT_DIR",
    default=None,
    parser=parse_optional_str,
    description="Directory of the persistent on-disk artifact store; unset "
    "keeps runs hermetic (memory tier only).",
    consumers=("repro.exec.persist",),
    default_text="unset (no disk tier)",
))

REPRO_ARTIFACT_MAX_MB = register(EnvVar(
    name="REPRO_ARTIFACT_MAX_MB",
    default=4 << 30,
    parser=parse_mb_bytes,
    description="Byte bound of the on-disk artifact store, in (fractional) "
    "MiB; LRU-evicted by access time beyond it.",
    consumers=("repro.exec.persist",),
    default_text="4 GiB (floor 1 MiB)",
))

REPRO_FULL = register(EnvVar(
    name="REPRO_FULL",
    default=False,
    parser=parse_bool,
    description="Sweep all four simulated scenes (and the full-sweep unit "
    "tests) as in the paper, instead of the tractable subset.",
    consumers=("benchmarks.conftest", "tests.test_selector_mixed_complexity"),
))

REPRO_BENCH_QUICK = register(EnvVar(
    name="REPRO_BENCH_QUICK",
    default=False,
    parser=parse_bool,
    description="Benchmark fast mode: smaller resolutions and shorter "
    "simulated traces for local iteration.",
    consumers=("benchmarks.conftest", "benchmarks.test_table1_realworld"),
))

REPRO_BENCH_SUITE = register(EnvVar(
    name="REPRO_BENCH_SUITE",
    default=None,
    parser=parse_optional_str,
    description="Suite label of the BENCH_<suite>.json trajectory; unset "
    "derives quick/figures from the run mode.",
    consumers=("benchmarks.conftest",),
    default_text="unset (derived)",
))

REPRO_BENCH_DIR = register(EnvVar(
    name="REPRO_BENCH_DIR",
    default=None,
    parser=parse_optional_str,
    description="Directory the BENCH_<suite>.json trajectory is written "
    "to; unset writes to the invocation cwd.",
    consumers=("benchmarks.conftest",),
    default_text="unset (cwd)",
))

REPRO_REQUIRE_WARM = register(EnvVar(
    name="REPRO_REQUIRE_WARM",
    default=False,
    parser=parse_bool,
    description="Assert at benchmark session end that zero profiles/bakes "
    "were recomputed (second run against a populated store).",
    consumers=("benchmarks.conftest",),
))

XDG_CACHE_HOME = register(EnvVar(
    name="XDG_CACHE_HOME",
    default=None,
    parser=parse_optional_str,
    description="Standard cache-directory override consulted for the "
    "default artifact-store location (~/.cache/repro).",
    consumers=("repro.exec.persist",),
    default_text="unset (~/.cache)",
))


# ---------------------------------------------------------------------------
# The reference table
# ---------------------------------------------------------------------------

def env_table_markdown() -> str:
    """The environment-variable reference table, as GitHub markdown.

    This exact text lives between the ``env-table`` markers in DESIGN.md;
    ``python -m repro.analysis --env-table`` prints it and
    ``tests/test_config_env.py`` fails when the checked-in copy is stale.
    """
    header = ["Variable", "Default", "Parser", "Description", "Consumers"]
    rows = [
        [
            f"`{var.name}`",
            var.default_display,
            f"`{var.parser.__name__}`",
            var.description,
            ", ".join(f"`{mod}`" for mod in var.consumers),
        ]
        for var in all_vars()
    ]
    lines = [
        "| " + " | ".join(header) + " |",
        "| " + " | ".join("---" for _ in header) + " |",
    ]
    lines.extend("| " + " | ".join(row) + " |" for row in rows)
    return "\n".join(lines)
