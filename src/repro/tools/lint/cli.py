"""The ``repro-lint`` command-line interface.

Usage::

    repro-lint [paths...]            # defaults to src/
    repro-lint --json src/repro      # machine-readable repro.lint-report/1
    repro-lint --list-rules          # the rule catalogue
    python -m repro.tools.lint ...   # same entry point

Exit status: 0 when no error-severity findings, 1 when there are, 2 on
usage errors.  Configuration is read from the nearest ``pyproject.toml``
(``[tool.repro-lint]``) unless ``--pyproject`` points elsewhere or
``--no-config`` skips loading entirely.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from repro.tools.lint.config import LintConfig, find_pyproject
from repro.tools.lint.engine import (
    findings_document,
    iter_rules,
    render_findings,
    run_lint,
)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "AST-based invariant checker for the repro codebase: optional-"
            "numpy hygiene, seeded randomness, "
            "Optional-container truthiness, schema-literal registry, "
            "columnar hot-path purity, backend parity, and general "
            "except/default hygiene."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable repro.lint-report/1 document",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--disable",
        metavar="RULES",
        help="comma-separated rule ids to skip (adds to config)",
    )
    parser.add_argument(
        "--pyproject",
        metavar="PATH",
        help="pyproject.toml to read [tool.repro-lint] from "
        "(default: nearest one above the first path)",
    )
    parser.add_argument(
        "--no-config",
        action="store_true",
        help="ignore pyproject.toml and run with built-in defaults",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def _load_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> LintConfig:
    if args.no_config:
        config = LintConfig()
    else:
        pyproject = (
            Path(args.pyproject)
            if args.pyproject is not None
            else find_pyproject(args.paths[0] if args.paths else ".")
        )
        if args.pyproject is not None and not pyproject.is_file():
            parser.error(f"--pyproject: no such file: {pyproject}")
        if pyproject is None:
            config = LintConfig()
        else:
            try:
                config = LintConfig.from_pyproject(pyproject)
            except RuntimeError as exc:  # tomllib missing (Python 3.10)
                parser.error(str(exc))
            except ValueError as exc:
                parser.error(f"invalid [tool.repro-lint] config: {exc}")
    if args.disable:
        extra = {rule.strip() for rule in args.disable.split(",") if rule.strip()}
        config = LintConfig(
            disable=tuple(config.disabled | extra),
            exclude=config.exclude,
            severity=config.severity,
            rules={rule_id: config.rule_options(rule_id) for rule_id in _rule_ids()},
        )
    return config


def _rule_ids() -> list[str]:
    return [rule.id for rule in iter_rules()]


def _list_rules() -> str:
    lines = []
    for rule in iter_rules():
        scope = "repro-only" if rule.repro_only else "all files"
        lines.append(f"{rule.id}  {rule.name}  [{scope}]")
        lines.append(f"    {rule.description}")
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        print(_list_rules())
        return 0
    select = None
    if args.select:
        select = {rule.strip() for rule in args.select.split(",") if rule.strip()}
        unknown = select - set(_rule_ids())
        if unknown:
            parser.error(f"unknown rule id(s): {', '.join(sorted(unknown))}")
    missing = [path for path in args.paths if not Path(path).exists()]
    if missing:
        parser.error(f"no such path(s): {', '.join(missing)}")
    config = _load_config(args, parser)
    findings, files_checked = run_lint(args.paths, config=config, select=select)
    if args.json:
        document = findings_document(findings, files_checked)
        print(json.dumps(document, indent=2, sort_keys=False))
    else:
        print(render_findings(findings, files_checked))
    errors = sum(1 for finding in findings if finding.severity == "error")
    return 1 if errors else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
