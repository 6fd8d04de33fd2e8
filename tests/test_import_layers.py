"""Each entry point loads its own layers, and no checker module it does not run.

The checker (Theorem 5.5's deepening and the Theorem 5.11 provers, with
the prefix spaces and view tables under them) loads only where a check
runs.  Each test starts a fresh process on one entry point and reads
``sys.modules`` afterwards: opening a store or a session, decoding a
spec, and the ``cache`` and ``report`` commands load no checker module
and no numpy.  A sweep coordinator with misses imports the checker, but
not numpy, before it forks its pool, so the workers inherit it.

The facades ``repro``, ``repro.core``, ``repro.store`` and ``repro.api``
re-export lazily (PEP 562); the last tests pin that each of their names
resolves, is listed by ``dir()``, and is read afresh on every access.
"""

import importlib
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import repro.consensus.solvability as solvability
import repro.options
from repro.api import CheckOptions, Session
from repro.specs import AdversarySpec

SRC = Path(__file__).resolve().parents[1] / "src"

#: Module prefixes a process that runs no check must not load.
CHECKER = ("repro.consensus", "repro.topology", "repro.core.views", "repro.fleet", "numpy")

#: What the set-up path (open a store, then a session on it) must not load
#: either: the sweep, spec and report layers, and the adversaries.
SETUP_EXCLUDED = CHECKER + (
    "repro.backends",
    "repro.analysis",
    "repro.specs",
    "repro.adversaries",
)

#: Prints, as JSON, every loaded module under one of the prefixes in argv[1].
LOADED = """
import json, sys
prefixes = tuple(json.loads(sys.argv[1]))
print(json.dumps(sorted(
    m for m in sys.modules if any(m == p or m.startswith(p + ".") for p in prefixes)
)))
"""


def _run(script: str, *argv: str) -> str:
    """stdout of a fresh process running ``script`` with ``argv``."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    env.pop("REPRO_PURE_PYTHON", None)
    return subprocess.run(
        [sys.executable, "-c", script, *argv],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
    ).stdout


def _loaded(script: str, excluded: tuple[str, ...], *argv: str) -> list[str]:
    """The modules under ``excluded`` that a fresh process running ``script`` loads."""
    out = _run(script + LOADED, json.dumps(excluded), *argv)
    return json.loads(out.splitlines()[-1])


#: The set-up of a fresh benchmark or service process; argv[2] is the store.
SETUP_SCRIPT = """
import sys
from repro.api import ResultStore, Session
Session(store=ResultStore(sys.argv[2]))
"""


def test_opening_a_store_and_a_session_loads_no_checker_module(tmp_path):
    assert _loaded(SETUP_SCRIPT, SETUP_EXCLUDED, str(tmp_path / "store")) == []


@pytest.mark.parametrize("statement", ["import repro", "import repro.specs"])
def test_importing_the_package_or_the_specs_loads_no_checker_module(statement):
    assert _loaded(statement + "\n", CHECKER) == []


#: Runs ``repro.cli.main`` on argv[2:], its output discarded.
CLI_SCRIPT = """
import contextlib, io, sys
from repro.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(sys.argv[2:]) == 0
"""


@pytest.fixture(scope="module")
def swept(tmp_path_factory):
    """A store and a records file from a small cached sweep."""
    root = tmp_path_factory.mktemp("swept")
    specs = [AdversarySpec("two-process", {"index": i}) for i in range(4)]
    Session(CheckOptions(max_depth=3), store=root / "store").sweep(
        specs, jsonl_path=root / "records.jsonl"
    )
    return root


@pytest.mark.parametrize(
    "command",
    [
        ["cache", "stats", "--store", "{store}"],
        ["cache", "verify", "--store", "{store}"],
        ["cache", "gc", "--store", "{store}"],
        ["report", "{records}"],
        ["report", "{records}", "--json"],
    ],
    ids=["cache-stats", "cache-verify", "cache-gc", "report", "report-json"],
)
def test_cache_and_report_commands_load_no_checker_module(swept, command):
    argv = [
        arg.format(store=swept / "store", records=swept / "records.jsonl")
        for arg in command
    ]
    assert _loaded(CLI_SCRIPT, CHECKER, *argv) == []


#: A cold sweep through the store at argv[1] on two fork workers.
#: ``_pool_context`` is wrapped to note, as the pool starts, whether the
#: checker and numpy are loaded; prints that note and the checker's state
#: before the sweep.
POOL_SCRIPT = """
import json, sys
import repro.backends as backends
from repro.api import CheckOptions, ProcessBackend, Session
from repro.specs import AdversarySpec
notes = {"before": "repro.consensus.solvability" in sys.modules}
real = backends._pool_context
def noting():
    notes["checker"] = "repro.consensus.solvability" in sys.modules
    notes["numpy"] = "numpy" in sys.modules
    return real()
backends._pool_context = noting
specs = [AdversarySpec("two-process", {"index": i}) for i in range(6)]
Session(CheckOptions(max_depth=3), store=sys.argv[1]).sweep(
    specs, backend=ProcessBackend(2, record_timing=False)
)
print(json.dumps(notes))
"""


def test_a_pool_coordinator_imports_the_checker_but_not_numpy_before_it_forks(tmp_path):
    out = _run(POOL_SCRIPT, str(tmp_path / "store"))
    assert json.loads(out) == {"before": False, "checker": True, "numpy": False}


FACADES = ("repro", "repro.core", "repro.store", "repro.api")


@pytest.mark.parametrize("name", FACADES)
def test_every_facade_name_resolves_and_is_listed(name):
    facade = importlib.import_module(name)
    listed = dir(facade)
    for export in facade.__all__:
        assert getattr(facade, export) is not None, export
        assert export in listed, export


def test_a_facade_reads_its_names_afresh(monkeypatch):
    """A lazily resolved name is not cached in the facade's globals, so a
    rebinding of the defining module's global shows through the facade
    and undoing it leaves no stale copy behind."""
    import repro.api
    import repro.backends

    assert repro.api.SweepJob is repro.backends.SweepJob
    assert "SweepJob" not in vars(repro.api)
    marker = object()
    monkeypatch.setattr(repro.backends, "SweepJob", marker)
    assert repro.api.SweepJob is marker
    monkeypatch.undo()
    assert repro.api.SweepJob is repro.backends.SweepJob


def test_check_options_live_in_a_module_of_their_own():
    assert solvability.CheckOptions is repro.options.CheckOptions is CheckOptions
    assert CheckOptions.__module__ == "repro.options"
    options = CheckOptions(max_depth=3, use_impossibility_provers=False)
    assert pickle.loads(pickle.dumps(options)) == options


def test_a_pickle_naming_the_old_path_still_loads(monkeypatch):
    options = CheckOptions(max_depth=3)
    monkeypatch.setattr(CheckOptions, "__module__", "repro.consensus.solvability")
    old = pickle.dumps(options)
    monkeypatch.undo()
    assert b"repro.consensus.solvability" in old
    assert pickle.loads(old) == options
