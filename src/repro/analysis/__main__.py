"""Command line of the project linter.

Usage::

    python -m repro.analysis [paths...]        # lint (default: src tests benchmarks)
    python -m repro.analysis --env-table       # print the env-var reference table
    python -m repro.analysis --list-rules      # print the rule catalog

Exit status: 0 when there is no finding, 1 when any finding exists, 2 on
usage errors.  CI's ``lint`` job runs the default invocation from the
repository root.
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.engine import analyze_paths
from repro.analysis.rules import all_rules
from repro.config.env import env_table_markdown

DEFAULT_PATHS = ("src", "tests", "benchmarks")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="AST lint of the project's seeding, fork-safety and "
        "env-hygiene invariants.",
    )
    parser.add_argument(
        "paths", nargs="*", default=list(DEFAULT_PATHS),
        help=f"files/directories to lint (default: {' '.join(DEFAULT_PATHS)})",
    )
    parser.add_argument(
        "--env-table", action="store_true",
        help="print the environment-variable reference table and exit",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    rules = all_rules()

    if args.env_table:
        print(env_table_markdown())
        return 0
    if args.list_rules:
        for rule in rules:
            print(f"{rule.rule_id}  {rule.severity:<7}  {rule.title}")
        return 0

    result = analyze_paths(args.paths, rules)
    for finding in result.findings:
        print(finding.format())
    print(
        f"{result.files_checked} files checked: "
        f"{len(result.findings)} finding(s)"
    )
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
