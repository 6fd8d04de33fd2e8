"""The repo-specific rule set of ``repro-lint``.

Each rule machine-checks one invariant that previous revisions stated
only in prose or tests — and that was violated at least once before being
caught late.  Rules R1/R3/R5/R6/R7 are ``repro_only``: they encode facts
about the ``repro`` package layout and are skipped for modules outside
it.  R2/R4/R8 are generic enough to run on any Python source handed to
the linter (including test helpers).

See the README "Static analysis & invariants" section for the catalogue
with rationale; per-rule options live under
``[tool.repro-lint.rules.<ID>]`` in ``pyproject.toml``.
"""

from __future__ import annotations

import ast
import re
from typing import Any, Iterable, Iterator

from repro.tools.lint.engine import Finding, LintContext, Rule, register_rule

__all__ = [
    "NumpyImportRule",
    "SharedMemoryLifecycleRule",
    "SeededRandomnessRule",
    "OptionalTruthinessRule",
    "SchemaLiteralRule",
    "ColumnarHotPathRule",
    "BackendParityRule",
    "BareExceptMutableDefaultRule",
    "AtomicStateWriteRule",
]


def _qualname(node: ast.AST) -> str | None:
    """Dotted name of a Name/Attribute chain (``os.urandom``), else None."""
    parts: list[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None


def _call_name(node: ast.Call) -> str | None:
    """The called name: last path component of the function expression."""
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def _iter_functions(
    tree: ast.AST,
) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _handler_catches_import_error(handler: ast.ExceptHandler) -> bool:
    names: list[str] = []
    node = handler.type
    if node is None:
        return True
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.append(sub.attr)
    return any(
        name in ("ImportError", "ModuleNotFoundError", "Exception", "BaseException")
        for name in names
    )


# --------------------------------------------------------------------- #
# R1 — numpy stays optional
# --------------------------------------------------------------------- #


@register_rule
class NumpyImportRule(Rule):
    """R1: ``numpy`` may only be imported lazily or import-guarded.

    ``dependencies = []`` is a published contract: ``pip install .``
    followed by ``import repro`` must work with numpy absent.  A bare
    module-level ``import numpy`` anywhere in the package silently breaks
    that the moment the module lands on an import path.  Kernel modules
    named in ``kernel_modules`` are allowed an *eager* module-level
    import (none currently need one); everywhere else the import must sit
    inside a function or under ``try: ... except ImportError``.
    """

    id = "R1"
    name = "numpy-optional"
    description = (
        "numpy must be imported lazily (inside a function) or guarded by "
        "try/except ImportError outside designated kernel modules"
    )
    repro_only = True
    defaults: dict[str, Any] = {"kernel_modules": []}

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        options = self.options(ctx)
        designated = ctx.module in options["kernel_modules"]
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                targets = [node.module] if node.module is not None else []
            else:
                continue
            if not any(
                name == "numpy" or name.startswith("numpy.") for name in targets
            ):
                continue
            if designated:
                continue
            lazy = ctx.enclosing_function(node) is not None
            guarded = False
            child: ast.AST = node
            for ancestor in ctx.ancestors(node):
                if (
                    isinstance(ancestor, ast.Try)
                    and child in ancestor.body
                    and any(
                        _handler_catches_import_error(handler)
                        for handler in ancestor.handlers
                    )
                ):
                    guarded = True
                    break
                child = ancestor
            if lazy or guarded:
                continue
            yield self.finding(
                ctx,
                node,
                "module-level numpy import breaks the no-deps install "
                "(dependencies = []); import it inside a function, guard it "
                "with try/except ImportError, or designate this module in "
                "[tool.repro-lint.rules.R1] kernel-modules",
            )


# --------------------------------------------------------------------- #
# R2 — shared-memory segment lifecycle
# --------------------------------------------------------------------- #


class _SegmentCleanup:
    """One close()/unlink()/helper call on a created segment name."""

    __slots__ = ("target", "kind", "node", "guard")

    def __init__(self, target: str, kind: str, node: ast.AST, guard: ast.Try | None):
        self.target = target
        self.kind = kind  # "close" | "unlink" | "helper"
        self.node = node
        self.guard = guard


@register_rule
class SharedMemoryLifecycleRule(Rule):
    """R2: every ``SharedMemory(create=True)`` is released on all paths.

    A leaked ``/dev/shm`` segment outlives the process; at sweep scale
    that is an unbounded resource leak.  The rule requires, per created
    segment:

    1. an ``unlink()`` (or a call to a self-guarding cleanup helper from
       ``cleanup_helpers``) somewhere in the creating function;
    2. the creation to be *covered*: either inside the ``try`` body of a
       ``try/finally`` whose ``finally`` releases the segment, or
       immediately before such a ``try`` with no statement in between
       that can raise (any intervening call — e.g. creating a *second*
       segment — can leak the first);
    3. independent release: inside the ``finally``, a raw ``close``/
       ``unlink`` of one segment must not precede another segment's
       release in the same unguarded suite, because the first raising
       (``BufferError``) would skip the second.  Helper calls are exempt
       — helpers are expected to swallow their own errors.
    """

    id = "R2"
    name = "shm-lifecycle"
    description = (
        "SharedMemory(create=True) segments need close()/unlink() reachable "
        "on all exit paths of the creating function"
    )
    defaults: dict[str, Any] = {
        "factory_names": ["SharedMemory"],
        "cleanup_helpers": ["_release_segment"],
    }

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        options = self.options(ctx)
        factories = set(options["factory_names"])
        helpers = set(options["cleanup_helpers"])
        for function in _iter_functions(ctx.tree):
            creations = self._creations(function, factories)
            if not creations:
                continue
            cleanups = self._cleanups(ctx, function, helpers)
            for name, assign in creations:
                yield from self._check_segment(
                    ctx, function, name, assign, cleanups, helpers
                )

    @staticmethod
    def _creations(
        function: ast.AST, factories: set[str]
    ) -> list[tuple[str, ast.Assign]]:
        found = []
        for node in ast.walk(function):
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target = node.targets[0]
            value = node.value
            if not isinstance(target, ast.Name) or not isinstance(value, ast.Call):
                continue
            if _call_name(value) not in factories:
                continue
            creates = any(
                kw.arg == "create"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is True
                for kw in value.keywords
            )
            if creates:
                found.append((target.id, node))
        return found

    @staticmethod
    def _cleanups(
        ctx: LintContext, function: ast.AST, helpers: set[str]
    ) -> list[_SegmentCleanup]:
        cleanups = []
        for node in ast.walk(function):
            if not isinstance(node, ast.Call):
                continue
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in ("close", "unlink")
                and isinstance(node.func.value, ast.Name)
            ):
                cleanups.append(
                    _SegmentCleanup(
                        node.func.value.id, node.func.attr, node, None
                    )
                )
            elif isinstance(node.func, ast.Name) and node.func.id in helpers:
                for arg in node.args:
                    if isinstance(arg, ast.Name):
                        cleanups.append(
                            _SegmentCleanup(arg.id, "helper", node, None)
                        )
        return cleanups

    def _check_segment(
        self,
        ctx: LintContext,
        function: ast.AST,
        name: str,
        assign: ast.Assign,
        cleanups: list[_SegmentCleanup],
        helpers: set[str],
    ) -> Iterator[Finding]:
        releases = [
            c for c in cleanups if c.target == name and c.kind in ("unlink", "helper")
        ]
        if not releases:
            yield self.finding(
                ctx,
                assign,
                f"shared-memory segment {name!r} is created but never "
                f"unlink()ed in this function; release it in a finally block",
            )
            return
        protector = self._protecting_try(ctx, name, assign, helpers)
        if protector is None:
            yield self.finding(
                ctx,
                assign,
                f"shared-memory segment {name!r} has no try/finally covering "
                f"its creation; an exception before cleanup leaks the segment",
            )
            return
        trybody, risky = protector
        for statement in risky:
            yield self.finding(
                ctx,
                statement,
                f"statement between the creation of segment {name!r} and its "
                f"protecting try can raise and leak the segment; move the "
                f"creation into its own try/finally",
            )
        yield from self._check_finally_order(ctx, trybody, name, helpers)

    def _protecting_try(
        self,
        ctx: LintContext,
        name: str,
        assign: ast.Assign,
        helpers: set[str],
    ) -> tuple[ast.Try, list[ast.stmt]] | None:
        """The try/finally releasing ``name``, plus risky gap statements."""
        # Case 1: the creation sits inside the try body of a protecting try.
        for ancestor in ctx.ancestors(assign):
            if isinstance(ancestor, ast.Try) and self._releases(
                ancestor.finalbody, name, helpers
            ):
                statement = ctx.enclosing_statement(assign)
                if statement in ancestor.body or any(
                    a in ancestor.body for a in ctx.ancestors(assign)
                ):
                    return ancestor, []
        # Case 2: the creation immediately precedes a protecting sibling try.
        suite = ctx.enclosing_suite(assign)
        if suite is None:
            return None
        statement = ctx.enclosing_statement(assign)
        if statement not in suite:
            return None
        index = suite.index(statement)
        for follower_index in range(index + 1, len(suite)):
            follower = suite[follower_index]
            if isinstance(follower, ast.Try) and self._releases(
                follower.finalbody, name, helpers
            ):
                risky = [
                    stmt
                    for stmt in suite[index + 1 : follower_index]
                    if any(isinstance(sub, ast.Call) for sub in ast.walk(stmt))
                ]
                return follower, risky
        return None

    @staticmethod
    def _releases(finalbody: list[ast.stmt], name: str, helpers: set[str]) -> bool:
        for stmt in finalbody:
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Call):
                    continue
                if (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "unlink"
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == name
                ):
                    return True
                if (
                    isinstance(node.func, ast.Name)
                    and node.func.id in helpers
                    and any(
                        isinstance(arg, ast.Name) and arg.id == name
                        for arg in node.args
                    )
                ):
                    return True
        return False

    def _check_finally_order(
        self, ctx: LintContext, protector: ast.Try, name: str, helpers: set[str]
    ) -> Iterator[Finding]:
        """Flag raw cleanup of another segment sequenced before ours."""
        ordered: list[_SegmentCleanup] = []
        for stmt in protector.finalbody:
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Call):
                    continue
                cleanup: _SegmentCleanup | None = None
                if (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("close", "unlink")
                    and isinstance(node.func.value, ast.Name)
                ):
                    cleanup = _SegmentCleanup(
                        node.func.value.id, node.func.attr, node, None
                    )
                elif isinstance(node.func, ast.Name) and node.func.id in helpers:
                    for arg in node.args:
                        if isinstance(arg, ast.Name):
                            ordered.append(
                                _SegmentCleanup(arg.id, "helper", node, None)
                            )
                    continue
                if cleanup is not None:
                    cleanup.guard = self._guard_within(ctx, node, protector)
                    ordered.append(cleanup)
        ordered.sort(
            key=lambda c: (getattr(c.node, "lineno", 0), getattr(c.node, "col_offset", 0))
        )
        for position, cleanup in enumerate(ordered):
            if cleanup.target != name or cleanup.kind != "unlink":
                continue
            for earlier in ordered[:position]:
                if earlier.target == name or earlier.kind == "helper":
                    continue
                if earlier.guard is cleanup.guard:
                    yield self.finding(
                        ctx,
                        cleanup.node,
                        f"cleanup of segment {name!r} is skipped if the "
                        f"preceding {earlier.kind}() of {earlier.target!r} "
                        f"raises; release each segment under its own "
                        f"try (or via a self-guarding helper)",
                    )
                    break

    @staticmethod
    def _guard_within(
        ctx: LintContext, node: ast.AST, boundary: ast.Try
    ) -> ast.Try | None:
        """The innermost handler-carrying Try between node and boundary."""
        for ancestor in ctx.ancestors(node):
            if ancestor is boundary:
                return None
            if isinstance(ancestor, ast.Try) and ancestor.handlers:
                return ancestor
        return None


# --------------------------------------------------------------------- #
# R3 — deterministic randomness
# --------------------------------------------------------------------- #


@register_rule
class SeededRandomnessRule(Rule):
    """R3: kernels draw randomness only through explicit ``random.Random``.

    Checker results must be pure functions of (spec, seed) — that is what
    makes sweep records reproducible across backends and machines.  The
    module-level ``random.*`` functions share hidden global state,
    ``os.urandom``/``secrets``/``uuid4`` are entropy by definition, and
    wall-clock reads (``time.time``) smuggle nondeterminism in through
    the back door.  Timing *measurement* (``perf_counter`` and friends)
    stays allowed.

    Modules listed in ``clock_modules`` are exempt from the wall-clock
    ban only (randomness stays banned): infrastructure like lease
    deadlines genuinely needs wall time, and funneling every such read
    through one designated module keeps the exemption auditable.
    """

    id = "R3"
    name = "seeded-randomness"
    description = (
        "no unseeded random.* / os.urandom / secrets / wall-clock entropy; "
        "thread an explicit random.Random(seed) instead"
    )
    repro_only = True
    defaults: dict[str, Any] = {
        "allowed_random_attrs": ["Random"],
        "banned_time_attrs": ["time", "time_ns"],
        "clock_modules": [],
    }

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        options = self.options(ctx)
        allowed_random = set(options["allowed_random_attrs"])
        banned_time = set(options["banned_time_attrs"])
        if ctx.module in set(options["clock_modules"]):
            # The designated clock funnel: wall-clock reads are its whole
            # purpose, so drop the time bans but keep every entropy ban.
            banned_time = set()
        advice = "; thread an explicit random.Random(seed) instead"
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    bad = [
                        alias.name
                        for alias in node.names
                        if alias.name not in allowed_random
                    ]
                    if bad:
                        yield self.finding(
                            ctx,
                            node,
                            f"importing unseeded randomness "
                            f"({', '.join(bad)}) from random{advice}",
                        )
                elif node.module == "os" and any(
                    alias.name == "urandom" for alias in node.names
                ):
                    yield self.finding(
                        ctx, node, f"os.urandom is raw entropy{advice}"
                    )
                elif node.module == "time" and any(
                    alias.name in banned_time for alias in node.names
                ):
                    yield self.finding(
                        ctx,
                        node,
                        f"wall-clock time in kernel code is hidden "
                        f"nondeterminism{advice}",
                    )
                elif node.module == "secrets":
                    yield self.finding(
                        ctx, node, f"secrets is entropy by definition{advice}"
                    )
                continue
            if not isinstance(node, ast.Call):
                continue
            qualname = _qualname(node.func)
            if qualname is None:
                continue
            if qualname.startswith("random."):
                attr = qualname.split(".", 1)[1]
                if attr not in allowed_random:
                    yield self.finding(
                        ctx,
                        node,
                        f"{qualname} uses the shared global RNG{advice}",
                    )
            elif qualname == "os.urandom":
                yield self.finding(ctx, node, f"os.urandom is raw entropy{advice}")
            elif qualname.startswith("secrets."):
                yield self.finding(
                    ctx, node, f"{qualname} is entropy by definition{advice}"
                )
            elif qualname in ("uuid.uuid1", "uuid.uuid4"):
                yield self.finding(
                    ctx, node, f"{qualname} is unseeded entropy{advice}"
                )
            elif qualname.startswith("time."):
                attr = qualname.split(".", 1)[1]
                if attr in banned_time:
                    yield self.finding(
                        ctx,
                        node,
                        f"{qualname} reads the wall clock — hidden "
                        f"nondeterminism in kernel code{advice}",
                    )


# --------------------------------------------------------------------- #
# R4 — no truthiness on possibly-empty parameters
# --------------------------------------------------------------------- #

_CONTAINER_NAMES = {
    "dict",
    "Dict",
    "defaultdict",
    "OrderedDict",
    "Counter",
    "list",
    "List",
    "set",
    "Set",
    "frozenset",
    "FrozenSet",
    "tuple",
    "Tuple",
    "Mapping",
    "MutableMapping",
    "MutableSequence",
    "Sequence",
    "Iterable",
    "Collection",
    "AbstractSet",
}


def _annotation_expr(annotation: ast.expr) -> ast.expr | None:
    """Resolve string annotations to expression nodes (best effort)."""
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        try:
            parsed = ast.parse(annotation.value, mode="eval")
        except SyntaxError:
            return None
        return parsed.body
    return annotation


def _union_members(annotation: ast.expr) -> list[ast.expr]:
    """Flatten ``A | B | None`` / ``Optional[A]`` / ``Union[A, B]``."""
    if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
        return _union_members(annotation.left) + _union_members(annotation.right)
    if isinstance(annotation, ast.Subscript):
        base = _qualname(annotation.value)
        tail = base.rsplit(".", 1)[-1] if base is not None else None
        if tail == "Optional":
            return _union_members(annotation.slice) + [ast.Constant(value=None)]
        if tail == "Union":
            inner = annotation.slice
            if isinstance(inner, ast.Tuple):
                members: list[ast.expr] = []
                for element in inner.elts:
                    members.extend(_union_members(element))
                return members
            return _union_members(inner)
    return [annotation]


def _base_type_name(annotation: ast.expr) -> str | None:
    """The unparameterized head name: ``dict[str, int]`` -> ``dict``."""
    if isinstance(annotation, ast.Subscript):
        annotation = annotation.value
    qualname = _qualname(annotation)
    if qualname is None:
        return None
    return qualname.rsplit(".", 1)[-1]


@register_rule
class OptionalTruthinessRule(Rule):
    """R4: no truthiness on parameters typed ``<container> | None``.

    ``interner or ViewInterner(...)`` silently replaced a shared-but-
    empty interner in an earlier revision, because an empty container is
    falsy exactly like ``None``.  For parameters whose annotation unions
    ``None`` with a container-ish type (anything with an "empty" state:
    builtins, ``typing`` ABCs, and the ``extra_container_types`` from
    config, e.g. ``ViewInterner``), ``x or default`` / ``if x:`` /
    ``if not x:`` must become ``is None`` checks.  Uses after the
    parameter's first rebinding are not flagged — by then the ``None``
    case has typically been normalized away.
    """

    id = "R4"
    name = "optional-truthiness"
    description = (
        "use 'is None', not truthiness, on parameters typed as "
        "Optional containers/interners (the historical 'interner or ...' bug)"
    )
    defaults: dict[str, Any] = {"extra_container_types": ["ViewInterner", "LayerTable"]}

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        options = self.options(ctx)
        containers = _CONTAINER_NAMES | set(options["extra_container_types"])
        for function in _iter_functions(ctx.tree):
            flagged = self._optional_container_params(function, containers)
            if not flagged:
                continue
            rebind_line = self._first_rebind_lines(function, flagged)
            for name, use in self._truthiness_uses(function, flagged):
                if use.lineno > rebind_line.get(name, float("inf")):
                    continue
                yield self.finding(
                    ctx,
                    use,
                    f"truthiness of parameter {name!r} (typed as an optional "
                    f"container) conflates None with empty — test "
                    f"'{name} is None' instead",
                )

    @staticmethod
    def _optional_container_params(
        function: ast.FunctionDef | ast.AsyncFunctionDef, containers: set[str]
    ) -> set[str]:
        flagged = set()
        arguments = function.args
        for arg in (
            *arguments.posonlyargs,
            *arguments.args,
            *arguments.kwonlyargs,
        ):
            if arg.annotation is None:
                continue
            annotation = _annotation_expr(arg.annotation)
            if annotation is None:
                continue
            members = _union_members(annotation)
            has_none = any(
                isinstance(m, ast.Constant) and m.value is None for m in members
            )
            has_container = any(
                _base_type_name(m) in containers
                for m in members
                if not isinstance(m, ast.Constant)
            )
            if has_none and has_container:
                flagged.add(arg.arg)
        return flagged

    @staticmethod
    def _first_rebind_lines(
        function: ast.FunctionDef | ast.AsyncFunctionDef, names: set[str]
    ) -> dict[str, int]:
        lines: dict[str, int] = {}
        for node in ast.walk(function):
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign, ast.NamedExpr)):
                targets = [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name) and sub.id in names:
                        line = lines.get(sub.id)
                        if line is None or node.lineno < line:
                            lines[sub.id] = node.lineno
        return lines

    @staticmethod
    def _truthiness_uses(
        function: ast.FunctionDef | ast.AsyncFunctionDef, names: set[str]
    ) -> Iterator[tuple[str, ast.Name]]:
        def bare(expr: ast.expr | None) -> ast.Name | None:
            if isinstance(expr, ast.Name) and expr.id in names:
                return expr
            return None

        for node in ast.walk(function):
            candidates: list[ast.expr | None] = []
            if isinstance(node, (ast.If, ast.While, ast.IfExp)):
                candidates.append(node.test)
            elif isinstance(node, ast.BoolOp):
                # `x and ...` narrows to non-empty on purpose sometimes,
                # but for Optional params both `or` and `and` hide the
                # None/empty distinction, so both count.
                candidates.extend(node.values[:-1] if isinstance(node.op, ast.Or)
                                  else node.values)
            elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
                candidates.append(node.operand)
            elif isinstance(node, ast.Assert):
                candidates.append(node.test)
            elif isinstance(node, ast.comprehension):
                candidates.extend(node.ifs)
            for candidate in candidates:
                use = bare(candidate)
                if use is not None:
                    yield use.id, use


# --------------------------------------------------------------------- #
# R5 — schema strings live in repro/schemas.py only
# --------------------------------------------------------------------- #

_SCHEMA_LITERAL_RE = re.compile(r"^repro\.[a-z0-9-]+/[0-9]+$")


@register_rule
class SchemaLiteralRule(Rule):
    """R5: ``repro.*/N`` schema tags may only be spelled in the registry.

    Versioned schema tags are dispatch keys for every serialized artifact
    the library reads or writes.  Spelling one inline means a version
    bump must find every copy; the registry module makes the bump a
    one-line change.  Docstrings are exempt (prose, not dispatch).
    """

    id = "R5"
    name = "schema-registry"
    description = (
        "literal 'repro.<doc>/<N>' schema strings may only appear in the "
        "schema registry module (repro/schemas.py)"
    )
    repro_only = True
    defaults: dict[str, Any] = {"registry_modules": ["repro.schemas"]}

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        options = self.options(ctx)
        if ctx.module in options["registry_modules"]:
            return
        docstrings = self._docstring_nodes(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Constant) or not isinstance(node.value, str):
                continue
            if node in docstrings:
                continue
            if _SCHEMA_LITERAL_RE.match(node.value):
                yield self.finding(
                    ctx,
                    node,
                    f"schema literal {node.value!r} outside the registry; "
                    f"import the constant from repro.schemas instead",
                )

    @staticmethod
    def _docstring_nodes(tree: ast.Module) -> set[ast.Constant]:
        nodes: set[ast.Constant] = set()
        for scope in ast.walk(tree):
            if not isinstance(
                scope,
                (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
            ):
                continue
            body = scope.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                nodes.add(body[0].value)
        return nodes


# --------------------------------------------------------------------- #
# R6 — columnar hot paths stay columnar
# --------------------------------------------------------------------- #


@register_rule
class ColumnarHotPathRule(Rule):
    """R6: no per-element object materialization in columnar kernels.

    The columnar pipeline's performance contract is that a layer is
    arrays end to end; one ``space.node(...)`` or ``PrefixNode(...)``
    inside a hot loop quietly reintroduces the per-prefix object churn
    the rewrite removed.  Materialization stays legal in error branches —
    a failing check may pay anything to format a good message — which the
    rule recognizes as: the call sits under a ``raise``, inside an
    ``except`` handler, or in a suite that raises.
    """

    id = "R6"
    name = "columnar-hot-path"
    description = (
        "no PrefixNode/PTGPrefix/.node() materialization inside designated "
        "columnar hot-path functions, except on error-raise branches"
    )
    repro_only = True
    defaults: dict[str, Any] = {
        # "module::function" designations; "module::*" covers every
        # function of the module.
        "hot_functions": [
            "repro.core.views::extend_layer_table",
            "repro.core.views::_extend_layer_python",
            "repro.core.views::_extend_layer_numpy",
            "repro.core.views::_extend_layer_numpy_mp",
            "repro.core.views::_finish_layer_numpy",
            "repro.core.views::_intern_rows_numpy",
            "repro.core.parallel::map_layer_shards",
            "repro.core.parallel::_map_shard",
            "repro.topology.components::_analyze_python",
            "repro.topology.components::_analyze_numpy",
            "repro.topology.components::_sv_labels",
            "repro.consensus.decision::_validate_python",
            "repro.consensus.decision::_validate_numpy",
            "repro.consensus.decision::_decision_maps_python",
            "repro.consensus.decision::_decision_maps_numpy",
            "repro.consensus.decision::_assign_values_numpy",
        ],
        "banned_constructors": ["PrefixNode", "PTGPrefix"],
        "banned_methods": ["node"],
    }

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        options = self.options(ctx)
        hot: set[str] = set()
        wildcard = False
        for designation in options["hot_functions"]:
            module, _, function = designation.partition("::")
            if module != ctx.module:
                continue
            if function == "*":
                wildcard = True
            elif function:
                hot.add(function)
        if not hot and not wildcard:
            return
        constructors = set(options["banned_constructors"])
        methods = set(options["banned_methods"])
        for function in _iter_functions(ctx.tree):
            if not wildcard and function.name not in hot:
                continue
            for node in ast.walk(function):
                if not isinstance(node, ast.Call):
                    continue
                banned = (
                    isinstance(node.func, ast.Name) and node.func.id in constructors
                ) or (
                    isinstance(node.func, ast.Attribute) and node.func.attr in methods
                )
                if not banned or self._in_error_branch(ctx, node):
                    continue
                what = (
                    node.func.id
                    if isinstance(node.func, ast.Name)
                    else f".{node.func.attr}()"
                )
                yield self.finding(
                    ctx,
                    node,
                    f"{what} materializes per-element objects inside columnar "
                    f"hot path {function.name!r}; keep the layer in arrays "
                    f"(object materialization is allowed only on error-raise "
                    f"branches)",
                )

    @staticmethod
    def _in_error_branch(ctx: LintContext, node: ast.Call) -> bool:
        for ancestor in ctx.ancestors(node):
            if isinstance(ancestor, (ast.Raise, ast.ExceptHandler)):
                return True
        suite = ctx.enclosing_suite(node)
        if suite is not None and any(isinstance(s, ast.Raise) for s in suite):
            return True
        return False


# --------------------------------------------------------------------- #
# R7 — numpy kernels keep python-backend parity
# --------------------------------------------------------------------- #

_NUMPY_KERNEL_RE = re.compile(r"^(?P<stem>_?[A-Za-z0-9_]*?)_numpy(?:_mp)?$")


@register_rule
class BackendParityRule(Rule):
    """R7: every ``_*_numpy`` kernel has a python-backend counterpart.

    The ``layer_backend`` switch promises that numpy is an accelerator,
    never a semantic fork: whatever the vectorized kernel computes, a
    pure-python twin computes identically (the hypothesis suites pin the
    equivalence).  A ``_foo_numpy`` without ``_foo_python`` (or plain
    ``_foo``) in the same module is a parity hole the without-numpy leg
    cannot test.  Genuinely numpy-only internals (sub-steps of the
    vectorized path with no scalar analogue) must be exempted explicitly
    in config, where the reviewer can see the list grow.
    """

    id = "R7"
    name = "backend-parity"
    description = (
        "_*_numpy kernel functions need a registered python-backend "
        "counterpart (_*_python or the bare stem) in the same module"
    )
    repro_only = True
    defaults: dict[str, Any] = {
        "exempt": [
            # numpy-only sub-steps of the vectorized extension kernel: the
            # python backend interns rows through a different (scalar)
            # code path that the layer-kernel equivalence suite pins.
            "repro.core.views::_intern_rows_numpy",
            "repro.core.views::_finish_layer_numpy",
        ]
    }

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        options = self.options(ctx)
        exempt = {
            designation.partition("::")[2]
            for designation in options["exempt"]
            if designation.partition("::")[0] in (ctx.module, "*")
        }
        names = {
            function.name for function in _iter_functions(ctx.tree)
        }
        for function in _iter_functions(ctx.tree):
            match = _NUMPY_KERNEL_RE.match(function.name)
            if match is None or function.name in exempt:
                continue
            stem = match.group("stem")
            if not stem or stem in ("_", "_use"):
                continue
            counterparts = (f"{stem}_python", f"{stem}_py", stem)
            if any(candidate in names for candidate in counterparts):
                continue
            yield self.finding(
                ctx,
                function,
                f"numpy kernel {function.name!r} has no python-backend "
                f"counterpart ({stem}_python); add one or exempt it in "
                f"[tool.repro-lint.rules.R7]",
            )


# --------------------------------------------------------------------- #
# R8 — bare except / mutable default arguments
# --------------------------------------------------------------------- #

_MUTABLE_FACTORIES = {"list", "dict", "set", "bytearray", "defaultdict", "Counter"}


@register_rule
class BareExceptMutableDefaultRule(Rule):
    """R8: no bare ``except:`` and no mutable default arguments.

    A bare ``except:`` swallows ``KeyboardInterrupt``/``SystemExit`` and
    turns worker shutdown into a hang; a mutable default is shared
    process-wide state masquerading as a per-call fresh value — in a
    library built around deterministic, side-effect-free checks, both
    are always bugs.
    """

    id = "R8"
    name = "bare-except-mutable-default"
    description = "no bare except clauses; no mutable default argument values"

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield self.finding(
                    ctx,
                    node,
                    "bare 'except:' catches KeyboardInterrupt/SystemExit; "
                    "catch Exception (or something narrower) instead",
                )
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defaults = [
                    *node.args.defaults,
                    *(d for d in node.args.kw_defaults if d is not None),
                ]
                for default in defaults:
                    if self._mutable(default):
                        yield self.finding(
                            ctx,
                            default,
                            f"mutable default argument in {node.name!r} is "
                            f"shared across calls; default to None and "
                            f"construct inside the function",
                        )

    @staticmethod
    def _mutable(node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            name = _call_name(node)
            return name in _MUTABLE_FACTORIES and not node.args and not node.keywords
        return False


# --------------------------------------------------------------------- #
# R9 — crash-safe state writes in the fleet runner
# --------------------------------------------------------------------- #


@register_rule
class AtomicStateWriteRule(Rule):
    """R9: persistent state is written only through the atomic funnel.

    The correctness story of both state-writing subsystems — the fleet
    runner and the content-addressed result store — is that any process
    can be SIGKILLed between any two instructions and the on-disk state
    stays readable.  That holds because every write goes through the
    crash-safe shapes in :mod:`repro.io.atomic` (write-temp-then-rename,
    exclusive hard-link create, fsynced append).  A bare
    ``open(path, "w")`` anywhere else in those packages reintroduces
    torn files — silently, and only under the exact crash timing the
    chaos harness exists to produce.  So: modules under
    ``state_modules`` may not open files for writing at all, except the
    designated ``io_modules`` that implement the funnel.
    """

    id = "R9"
    name = "atomic-state-write"
    description = (
        "state modules (repro.fleet, repro.store) must write via the "
        "repro.io.atomic funnel (write-temp-then-rename / exclusive "
        "create / fsynced append), never a bare open(path, 'w')"
    )
    repro_only = True
    defaults: dict[str, Any] = {
        "state_modules": ["repro.fleet", "repro.store"],
        "io_modules": ["repro.io.atomic"],
    }

    #: Mode characters that make an ``open`` call a write.
    _WRITE_MODES = frozenset("wax+")

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        options = self.options(ctx)
        if ctx.module in set(options["io_modules"]):
            return
        if not any(
            ctx.module == prefix or ctx.module.startswith(prefix + ".")
            for prefix in options["state_modules"]
        ):
            return
        advice = (
            "; route the write through repro.io.atomic so a kill at any "
            "instruction leaves readable state"
        )
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            qualname = _qualname(node.func)
            name = _call_name(node)
            if name in ("write_text", "write_bytes"):
                yield self.finding(
                    ctx,
                    node,
                    f".{name}() truncates in place — a kill mid-call "
                    f"leaves a torn file{advice}",
                )
                continue
            if name != "open":
                continue
            # Builtin open(path, mode) has the mode second; the
            # pathlib/file-object .open(mode) method has it first.
            position = 1 if qualname == "open" else 0
            mode = next(
                (kw.value for kw in node.keywords if kw.arg == "mode"),
                node.args[position] if len(node.args) > position else None,
            )
            if mode is None:
                continue  # default "r"
            if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
                if not self._WRITE_MODES.intersection(mode.value):
                    continue
                yield self.finding(
                    ctx,
                    node,
                    f"open(..., {mode.value!r}) writes state directly — "
                    f"not crash-safe{advice}",
                )
            else:
                yield self.finding(
                    ctx,
                    node,
                    f"open() with a dynamic mode cannot be verified "
                    f"read-only{advice}",
                )
