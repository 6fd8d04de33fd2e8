"""``repro-lint``: AST-based invariant checking for this repository.

The linter machine-checks invariants that the library's correctness and
reproducibility story depends on but ordinary linters cannot see —
numpy optionality, seeded randomness, the Optional-container truthiness
bug class, the schema-tag registry, columnar hot-path purity, and
numpy/python backend parity.

Entry points: the ``repro-lint`` console script,
``python -m repro.tools.lint``, or programmatically::

    from repro.tools.lint import lint_source, run_lint

Importing this package imports :mod:`repro.tools.lint.rules` for its
side effect of populating the rule registry.
"""

from repro.tools.lint.config import LintConfig, find_pyproject
from repro.tools.lint.engine import (
    PARSE_ERROR,
    RULES,
    Finding,
    LintContext,
    Rule,
    findings_document,
    iter_rules,
    lint_file,
    lint_source,
    register_rule,
    render_findings,
    run_lint,
)
from repro.tools.lint.pragmas import Pragmas, parse_pragmas

from repro.tools.lint import rules as _rules  # noqa: F401  (registry side effect)

__all__ = [
    "Finding",
    "LintConfig",
    "LintContext",
    "PARSE_ERROR",
    "Pragmas",
    "RULES",
    "Rule",
    "find_pyproject",
    "findings_document",
    "iter_rules",
    "lint_file",
    "lint_source",
    "parse_pragmas",
    "register_rule",
    "render_findings",
    "run_lint",
]
