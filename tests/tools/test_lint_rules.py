"""Per-rule good/bad fixtures for ``repro-lint``, plus CLI behavior.

Every rule gets at least one known-bad fixture it must flag and one
known-good fixture it must pass — including a faithful reproduction of
the historical ``interner or ...`` bug (R4) that motivated the linter.
The ``--json`` document's key set is pinned: it is a versioned schema
(``repro.lint-report/1``) that downstream tooling reads.
"""

import json

import pytest

from repro.schemas import LINT_REPORT
from repro.tools.lint import (
    LintConfig,
    Pragmas,
    iter_rules,
    lint_source,
    parse_pragmas,
)
from repro.tools.lint.cli import main as lint_main
from repro.tools.lint.engine import findings_document, module_name_for

REPRO_MODULE = "repro.fake.module"


def findings(source, module=REPRO_MODULE, select=None, config=None):
    return lint_source(
        source, path="fixture.py", module=module, select=select, config=config
    )


def rules_of(found):
    return [f.rule for f in found]


# --------------------------------------------------------------------- #
# Registry sanity
# --------------------------------------------------------------------- #


def test_rules_keep_their_ids_with_r2_retired():
    # R2 guarded shared-memory segments, which no code allocates any more;
    # the other ids are never renumbered, so configs and --select values
    # written against them keep working.
    ids = [rule.id for rule in iter_rules()]
    assert ids == ["R1", "R3", "R4", "R5", "R6", "R7", "R8", "R9"]
    for rule in iter_rules():
        assert rule.name and rule.description


# --------------------------------------------------------------------- #
# R1 — numpy optionality
# --------------------------------------------------------------------- #

R1_BAD = "import numpy\n"

R1_GOOD = """\
try:
    import numpy as _np
except ImportError:
    _np = None


def kernel():
    import numpy as np
    return np.zeros(1)
"""

R1_GUARDED_NESTED = """\
import os

try:
    if os.environ.get("PURE"):
        _np = None
    else:
        import numpy as _np
except ImportError:
    _np = None
"""


def test_r1_flags_module_level_numpy_import():
    assert rules_of(findings(R1_BAD, select={"R1"})) == ["R1"]


def test_r1_passes_guarded_and_lazy_imports():
    assert findings(R1_GOOD, select={"R1"}) == []
    assert findings(R1_GUARDED_NESTED, select={"R1"}) == []


def test_r1_is_repro_only():
    assert findings(R1_BAD, module="scripts.helper", select={"R1"}) == []


def test_r1_kernel_module_allowlist():
    config = LintConfig(rules={"R1": {"kernel_modules": [REPRO_MODULE]}})
    assert findings(R1_BAD, select={"R1"}, config=config) == []


# --------------------------------------------------------------------- #
# R3 — seeded randomness
# --------------------------------------------------------------------- #

R3_BAD = """\
import os
import random
import time


def sample():
    a = random.random()
    b = os.urandom(8)
    c = time.time()
    return a, b, c
"""

R3_BAD_IMPORT_FORMS = """\
from random import randint
from time import time
"""

R3_GOOD = """\
import random
import time


def sample(seed):
    rng = random.Random(seed)
    started = time.perf_counter()
    return rng.random(), time.perf_counter() - started
"""


def test_r3_flags_unseeded_randomness_and_wall_clock():
    assert rules_of(findings(R3_BAD, select={"R3"})) == ["R3", "R3", "R3"]
    assert rules_of(findings(R3_BAD_IMPORT_FORMS, select={"R3"})) == ["R3", "R3"]


def test_r3_passes_explicit_rng_and_timers():
    assert findings(R3_GOOD, select={"R3"}) == []


R3_CLOCK_FUNNEL = """\
import time


def wall_now():
    return time.time()
"""


def test_r3_clock_modules_exempt_wall_clock_only():
    # Undesignated module: the wall-clock read is flagged.
    assert rules_of(findings(R3_CLOCK_FUNNEL, select={"R3"})) == ["R3"]
    config = LintConfig(rules={"R3": {"clock_modules": [REPRO_MODULE]}})
    assert findings(R3_CLOCK_FUNNEL, select={"R3"}, config=config) == []
    # The exemption never extends to entropy: randomness in the clock
    # funnel is still a finding.
    assert rules_of(findings(R3_BAD, select={"R3"}, config=config)) == [
        "R3",
        "R3",
    ]


# --------------------------------------------------------------------- #
# R4 — Optional-container truthiness (the PR-2 interner bug class)
# --------------------------------------------------------------------- #

# Faithful reproduction of the historical bug: an *empty* shared interner
# is falsy, so `interner or ...` silently replaced it with a private one.
R4_BAD_INTERNER = """\
def check(adversary, interner: ViewInterner | None = None):
    interner = interner or ViewInterner(adversary.n)
    return interner
"""

R4_BAD_FORMS = """\
from typing import Mapping


def f(tags: dict | None = None, params: Mapping[str, int] | None = None):
    if tags:
        use(tags)
    if not params:
        params = {}
    return tags, params
"""

R4_GOOD = """\
def check(adversary, interner: ViewInterner | None = None):
    if interner is None:
        interner = ViewInterner(adversary.n)
    return interner


def f(tags: dict | None = None):
    tags = {} if tags is None else tags
    if tags:  # fine after the rebind: None is gone, truthiness means empty
        use(tags)
    return tags
"""

R4_NOT_A_CONTAINER = """\
def check(options: CheckOptions | None = None):
    options = options or CheckOptions()
    return options
"""


def test_r4_flags_the_pr2_interner_bug():
    found = findings(R4_BAD_INTERNER, select={"R4"})
    assert rules_of(found) == ["R4"]
    assert "is None" in found[0].message


def test_r4_flags_if_and_not_forms():
    assert rules_of(findings(R4_BAD_FORMS, select={"R4"})) == ["R4", "R4"]


def test_r4_passes_explicit_none_checks_and_post_rebind_truthiness():
    assert findings(R4_GOOD, select={"R4"}) == []


def test_r4_ignores_non_container_optionals():
    assert findings(R4_NOT_A_CONTAINER, select={"R4"}) == []


# --------------------------------------------------------------------- #
# R5 — schema literals only in the registry
# --------------------------------------------------------------------- #

R5_BAD = 'SCHEMA = "repro.run-record/2"\n'

R5_GOOD_DOCSTRING = '''\
def write(path):
    """Writes a header line tagged repro.run-record/2 then records."""
'''


def test_r5_flags_schema_literal_outside_registry():
    assert rules_of(findings(R5_BAD, select={"R5"})) == ["R5"]


def test_r5_allows_the_registry_module_and_docstrings():
    assert findings(R5_BAD, module="repro.schemas", select={"R5"}) == []
    assert findings(R5_GOOD_DOCSTRING, select={"R5"}) == []


def test_r5_repro_source_defines_literals_only_in_schemas():
    # The live tree must satisfy the invariant the rule encodes.
    from repro import analysis, backends, records, schemas

    assert records.SCHEMA == schemas.RUN_RECORD
    assert backends.MANIFEST_SCHEMA == schemas.SWEEP_MANIFEST
    assert analysis.SweepReport is not None


# --------------------------------------------------------------------- #
# R6 — columnar hot paths
# --------------------------------------------------------------------- #

R6_CONFIG = LintConfig(
    rules={"R6": {"hot_functions": ["repro.fake.module::_extend_numpy"]}}
)

R6_BAD = """\
def _extend_numpy(space, ids):
    return [space.node(i) for i in ids]
"""

R6_GOOD_ERROR_BRANCH = """\
def _extend_numpy(space, ids):
    for i in ids:
        if i < 0:
            raise AnalysisError(f"bad id {space.node(i)}")
    return ids
"""

R6_GOOD_OTHER_FUNCTION = """\
def render(space, ids):
    return [space.node(i) for i in ids]
"""


def test_r6_flags_materialization_in_hot_path():
    found = findings(R6_BAD, select={"R6"}, config=R6_CONFIG)
    assert rules_of(found) == ["R6"]
    assert "_extend_numpy" in found[0].message


def test_r6_allows_error_branches_and_cold_functions():
    assert findings(R6_GOOD_ERROR_BRANCH, select={"R6"}, config=R6_CONFIG) == []
    assert findings(R6_GOOD_OTHER_FUNCTION, select={"R6"}, config=R6_CONFIG) == []


# --------------------------------------------------------------------- #
# R7 — backend parity
# --------------------------------------------------------------------- #

R7_BAD = """\
def _frob_numpy(np, rows):
    return np.sort(rows)
"""

R7_GOOD = """\
def _frob_numpy(np, rows):
    return np.sort(rows)


def _frob_python(rows):
    return sorted(rows)
"""

R7_GOOD_BARE_STEM = """\
def _assign_values_numpy(np, rows):
    return np.sort(rows)


def _assign_values(rows):
    return sorted(rows)
"""


def test_r7_flags_numpy_kernel_without_counterpart():
    found = findings(R7_BAD, select={"R7"})
    assert rules_of(found) == ["R7"]
    assert "_frob_python" in found[0].message


def test_r7_accepts_python_and_bare_stem_counterparts():
    assert findings(R7_GOOD, select={"R7"}) == []
    assert findings(R7_GOOD_BARE_STEM, select={"R7"}) == []


def _defined_functions(module):
    """Names of every function and method defined in a ``repro`` module,
    or ``None`` when the module has no source file under ``src``."""
    import ast
    from pathlib import Path

    base = Path(__file__).resolve().parents[2] / "src" / Path(*module.split("."))
    for path in (base.with_suffix(".py"), base / "__init__.py"):
        if path.is_file():
            tree = ast.parse(path.read_text(encoding="utf-8"))
            return {
                node.name
                for node in ast.walk(tree)
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
    return None


def test_r6_and_r7_designations_name_real_functions():
    # R6 and R7 silently skip a designation whose module or function does
    # not exist, so a renamed or deleted kernel would leave a dead entry
    # that nothing reports.
    from pathlib import Path

    pyproject = Path(__file__).resolve().parents[2] / "pyproject.toml"
    if not pyproject.is_file():
        pytest.skip("source tree not available")
    pytest.importorskip("tomllib")
    config = LintConfig.from_pyproject(pyproject)
    rules = {rule.id: rule for rule in iter_rules()}
    designations = []
    for rule_id, option in (("R6", "hot_functions"), ("R7", "exempt")):
        designations += rules[rule_id].defaults[option]
        designations += config.rule_options(rule_id).get(option, [])
    assert designations
    dead = []
    for designation in designations:
        module, _, function = designation.partition("::")
        defined = _defined_functions(module)
        if defined is None or (function != "*" and function not in defined):
            dead.append(designation)
    assert dead == []


def test_r7_exempt_list():
    config = LintConfig(
        rules={"R7": {"exempt": ["repro.fake.module::_frob_numpy"]}}
    )
    assert findings(R7_BAD, select={"R7"}, config=config) == []


# --------------------------------------------------------------------- #
# R8 — bare except / mutable defaults
# --------------------------------------------------------------------- #

R8_BAD = """\
def f(acc=[]):
    try:
        acc.append(1)
    except:
        pass
    return acc
"""

R8_GOOD = """\
def f(acc=None):
    acc = [] if acc is None else acc
    try:
        acc.append(1)
    except ValueError:
        pass
    return acc
"""


def test_r8_flags_bare_except_and_mutable_default():
    assert sorted(rules_of(findings(R8_BAD, select={"R8"}))) == ["R8", "R8"]


def test_r8_passes_narrow_except_and_none_default():
    assert findings(R8_GOOD, select={"R8"}) == []


# --------------------------------------------------------------------- #
# R9 — crash-safe state writes (fleet and result store)
# --------------------------------------------------------------------- #

R9_BAD = """\
import json
from pathlib import Path


def save(path, doc):
    with open(path, "w") as handle:
        json.dump(doc, handle)


def publish(path, text):
    Path(path).write_text(text)


def log(path, line):
    with Path(path).open("a") as handle:
        handle.write(line)
"""

R9_GOOD = """\
import json
from repro.io import atomic


def save(path, doc):
    atomic.atomic_write_json(path, doc)


def load(path):
    with open(path) as handle:
        return json.load(handle)


def peek(path):
    with open(path, "rb") as handle:
        return handle.read(16)
"""

R9_DYNAMIC = """\
def touch(path, mode):
    return open(path, mode)
"""


def test_r9_flags_raw_writes_in_fleet_modules():
    found = findings(R9_BAD, module="repro.fleet.worker", select={"R9"})
    assert rules_of(found) == ["R9", "R9", "R9"]
    assert any("write_text" in f.message for f in found)


def test_r9_allows_reads_and_the_funnel_helpers():
    assert findings(R9_GOOD, module="repro.fleet.state", select={"R9"}) == []


def test_r9_dynamic_mode_is_flagged():
    found = findings(R9_DYNAMIC, module="repro.fleet.state", select={"R9"})
    assert rules_of(found) == ["R9"]
    assert "dynamic mode" in found[0].message


def test_r9_exempts_the_io_module_and_other_packages():
    # The funnel itself may open files for writing...
    assert findings(R9_BAD, module="repro.io.atomic", select={"R9"}) == []
    # ...and modules outside the fleet are out of scope entirely.
    assert findings(R9_BAD, module="repro.backends", select={"R9"}) == []


def test_r9_state_modules_configurable():
    config = LintConfig(
        rules={"R9": {"state_modules": ["repro.fake"], "io_modules": []}}
    )
    found = findings(R9_BAD, select={"R9"}, config=config)
    assert rules_of(found) == ["R9", "R9", "R9"]


R9_STORE_GOOD = """\
from repro.io.atomic import append_line, atomic_write_json


def put(path, doc):
    atomic_write_json(path, doc)


def journal(path, line):
    append_line(path, line)


def load(path):
    with open(path) as handle:
        return handle.read()
"""


def test_r9_covers_the_result_store_package():
    # The store is a state module by default: raw writes are flagged...
    found = findings(R9_BAD, module="repro.store.cache", select={"R9"})
    assert rules_of(found) == ["R9", "R9", "R9"]
    assert all("repro.io.atomic" in f.message for f in found)
    # ...while funnel-routed writes and reads pass.
    assert findings(R9_STORE_GOOD, module="repro.store.cache", select={"R9"}) == []


def test_r9_exempts_the_hoisted_funnel_module():
    # repro.io.atomic implements the funnel, so it may open for writing;
    # it is the only module exempt by default, so every fleet and store
    # module is checked.
    from repro.tools.lint.rules import AtomicStateWriteRule

    assert AtomicStateWriteRule.defaults["io_modules"] == ["repro.io.atomic"]
    assert findings(R9_BAD, module="repro.io.atomic", select={"R9"}) == []


# --------------------------------------------------------------------- #
# Pragmas
# --------------------------------------------------------------------- #


def test_line_pragma_suppresses_only_that_line():
    source = (
        "def f(a=[], b=[]):  # repro-lint: disable=R8\n"
        "    return a, b\n"
        "\n"
        "def g(c=[]):\n"
        "    return c\n"
    )
    found = findings(source, select={"R8"})
    assert rules_of(found) == ["R8"]
    assert found[0].line == 4


def test_file_pragma_and_all_keyword():
    source = "# repro-lint: disable-file=R8\ndef f(a=[]):\n    return a\n"
    assert findings(source, select={"R8"}) == []
    source_all = "# justified  # repro-lint: disable-file=all\nimport numpy\n"
    assert findings(source_all) == []


def test_pragma_inside_string_literal_is_not_a_pragma():
    source = 'PRAGMA = "# repro-lint: disable=R8"\ndef f(a=[]):\n    return a\n'
    assert rules_of(findings(source, select={"R8"})) == ["R8"]


def test_parse_pragmas_counts():
    pragmas = parse_pragmas(
        "# repro-lint: disable-file=R1\nx = 1  # repro-lint: disable=R4, R8\n"
    )
    assert isinstance(pragmas, Pragmas)
    assert pragmas.file_rules == {"R1"}
    assert pragmas.line_rules == {2: {"R4", "R8"}}
    assert pragmas.suppressed("R4", 2) and not pragmas.suppressed("R4", 1)


# --------------------------------------------------------------------- #
# Engine / CLI / report schema
# --------------------------------------------------------------------- #


def test_syntax_error_becomes_e0_finding():
    found = lint_source("def broken(:\n", path="broken.py")
    assert rules_of(found) == ["E0"]
    assert found[0].severity == "error"


def test_module_name_for_walks_init_chains(tmp_path):
    package = tmp_path / "repro" / "core"
    package.mkdir(parents=True)
    (tmp_path / "repro" / "__init__.py").write_text("")
    (package / "__init__.py").write_text("")
    (package / "views.py").write_text("")
    assert module_name_for(package / "views.py") == "repro.core.views"
    assert module_name_for(package / "__init__.py") == "repro.core"


def test_json_document_schema_is_stable():
    found = findings(R8_BAD, select={"R8"})
    document = findings_document(found, files_checked=1)
    assert set(document) == {
        "schema",
        "files_checked",
        "errors",
        "warnings",
        "counts_by_rule",
        "findings",
    }
    assert document["schema"] == LINT_REPORT
    assert document["errors"] == 2
    assert document["counts_by_rule"] == {"R8": 2}
    (finding,) = document["findings"][:1]
    assert set(finding) == {
        "rule",
        "name",
        "severity",
        "path",
        "line",
        "col",
        "message",
    }
    json.dumps(document)  # must be JSON-able as-is


def test_severity_override_downgrades_to_warning():
    config = LintConfig(severity={"R8": "warning"})
    found = findings(R8_BAD, select={"R8"}, config=config)
    assert {f.severity for f in found} == {"warning"}


def test_invalid_severity_rejected():
    with pytest.raises(ValueError):
        LintConfig(severity={"R8": "fatal"})


def test_cli_on_clean_and_dirty_trees(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("def f(a=None):\n    return a\n")
    assert lint_main([str(clean), "--no-config"]) == 0
    capsys.readouterr()

    dirty = tmp_path / "dirty.py"
    dirty.write_text("def f(a=[]):\n    return a\n")
    assert lint_main([str(dirty), "--no-config"]) == 1
    out = capsys.readouterr().out
    assert "R8" in out and "dirty.py" in out


def test_cli_json_output(tmp_path, capsys):
    dirty = tmp_path / "dirty.py"
    dirty.write_text("def f(a=[]):\n    return a\n")
    assert lint_main([str(dirty), "--json", "--no-config"]) == 1
    document = json.loads(capsys.readouterr().out)
    assert document["schema"] == LINT_REPORT
    assert document["counts_by_rule"] == {"R8": 1}


def test_cli_disable_and_select(tmp_path, capsys):
    dirty = tmp_path / "dirty.py"
    dirty.write_text("def f(a=[]):\n    return a\n")
    assert lint_main([str(dirty), "--disable", "R8", "--no-config"]) == 0
    capsys.readouterr()
    assert lint_main([str(dirty), "--select", "R1", "--no-config"]) == 0


def test_cli_list_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("R1", "R4", "R8"):
        assert rule_id in out


def test_cli_rejects_the_retired_r2_id(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        lint_main(["--select", "R2", str(tmp_path)])
    assert excinfo.value.code == 2


def test_cli_rejects_unknown_rule_and_missing_path(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        lint_main(["--select", "R99", str(tmp_path)])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        lint_main([str(tmp_path / "nope")])
    assert excinfo.value.code == 2


def test_pyproject_config_roundtrip(tmp_path):
    tomllib = pytest.importorskip("tomllib")
    assert tomllib is not None
    pyproject = tmp_path / "pyproject.toml"
    pyproject.write_text(
        "[tool.repro-lint]\n"
        'disable = ["R3"]\n'
        'exclude = ["*_generated.py"]\n'
        "[tool.repro-lint.severity]\n"
        'R8 = "warning"\n'
        "[tool.repro-lint.rules.R1]\n"
        'kernel-modules = ["repro.fast"]\n'
    )
    config = LintConfig.from_pyproject(pyproject)
    assert config.disabled == frozenset({"R3"})
    assert config.severity == {"R8": "warning"}
    # hyphenated keys are normalized to the underscore option names
    assert config.rule_options("R1") == {"kernel_modules": ["repro.fast"]}
    from pathlib import Path

    assert config.excluded(Path("pkg/foo_generated.py"))
    assert not config.excluded(Path("pkg/foo.py"))


def test_the_repo_source_tree_is_lint_clean():
    # The acceptance bar of this PR: repro-lint src/repro exits 0.
    from pathlib import Path

    from repro.tools.lint.engine import run_lint

    src = Path(__file__).resolve().parents[2] / "src" / "repro"
    if not src.is_dir():  # installed-package runs have no source tree
        pytest.skip("source tree not available")
    pyproject = src.parents[1] / "pyproject.toml"
    config = (
        LintConfig.from_pyproject(pyproject) if pyproject.is_file() else None
    )
    found, files_checked = run_lint([src], config=config)
    assert files_checked > 50
    assert found == [], "\n".join(f.render() for f in found)
