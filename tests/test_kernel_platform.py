"""The kernels follow the platform, and the suite's emulation of it holds.

The test suite runs the pure-Python pipeline on a host with numpy by
patching ``repro.core.views._np`` to ``None`` (``kernels.without_numpy``).
The first test pins that emulation to a real ``REPRO_PURE_PYTHON=1``
process: every interner column, every layer column and every check result
must come out the same.  The second pins what replaced the removed
``layer_backend`` option: an options document that still names numpy
checks on a platform without it exactly like one that does not.

The rest pin the import gate, :func:`repro.core.views.numpy_module`:
numpy loads on its first call, not on import, so a process that imports
the whole stack, or a sweep coordinator whose fork workers run every
check, never loads it; ``REPRO_PURE_PYTHON`` is still read at import;
and the emulation and layer tables work before the gate resolves.

Run as a script, this module prints :func:`platform_digest`.
"""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from kernels import without_numpy

import repro.core.views as views
from repro.api import CheckOptions, SerialBackend, Session
from repro.consensus.solvability import check_consensus
from repro.core.views import LayerTable, numpy_available
from repro.specs import NAMED_ADVERSARIES, random_rooted_specs
from repro.topology.prefixspace import PrefixSpace

SRC = Path(__file__).resolve().parents[1] / "src"

#: Whether numpy is installed, vetoed or not.
HAS_NUMPY = importlib.util.find_spec("numpy") is not None

#: An oblivious adversary (one alphabet per layer) and a stateful one
#: (state groups with alphabets of their own), built to ``DEPTH``.
SPACES = ("lossy-full", "eventually-to-full-base")
#: Checked to ``DEPTH`` without the provers: one ends undecided, one on the
#: broadcaster certificate, and ``no-hub`` on a decision table.
CHECKS = SPACES + ("no-hub",)
DEPTH = 6

INTERNER_COLUMNS = (
    "_row_owners",
    "_row_masks",
    "_row_depth",
    "_row_data",
    "_row_starts",
    "_row_hashes",
)


def platform_digest() -> str:
    """SHA-256 over the columns and check results of this platform's kernel."""
    digest = hashlib.sha256()

    def feed(*values):
        digest.update(repr(values).encode())

    for name in SPACES:
        space = PrefixSpace(NAMED_ADVERSARIES[name]())
        space.ensure_depth(DEPTH)
        for column in INTERNER_COLUMNS:
            feed(name, column, [int(v) for v in getattr(space.interner, column)])
        for t in range(DEPTH + 1):
            store = space.layer_store(t)
            feed(
                name,
                t,
                [int(v) for v in store.levels.ids],
                [int(v) for v in store.parents],
                [int(v) for v in store.input_idx],
                [repr(graph) for graph in store.graphs],
                [sorted(map(repr, states)) for states in store.states],
            )
    for name in CHECKS:
        result = check_consensus(
            NAMED_ADVERSARIES[name](), max_depth=DEPTH, use_impossibility_provers=False
        )
        feed(name, result.status.value, result.certified_depth, list(map(repr, result.history)))
        table = result.decision_table
        if table is not None:
            for decisions in (table.final, table.early):
                feed(name, list(decisions.ids), list(decisions.codes), decisions.palette)
    return digest.hexdigest()


def _python(*argv: str, pure: bool = False) -> str:
    """stdout of ``python argv...`` in a fresh process, vetoing numpy if ``pure``."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    env.pop("REPRO_PURE_PYTHON", None)
    if pure:
        env["REPRO_PURE_PYTHON"] = "1"
    return subprocess.run(
        [sys.executable, *argv],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=600,
    ).stdout


def test_emulated_platform_matches_a_pure_python_process():
    with without_numpy():
        expected = platform_digest()
    assert _python(__file__, pure=True).strip() == expected


#: Checks one spec under each options document given as JSON in argv[1].
RECORD_SCRIPT = """\
import json, sys
from repro.api import CheckOptions, Session
from repro.specs import AdversarySpec
spec = AdversarySpec("named", {"name": "sw-n3-1"})
for document in json.loads(sys.argv[1]):
    record = Session().check_record(spec, CheckOptions.from_dict(document))
    print(json.dumps(record.to_dict(), sort_keys=True))
"""


def test_options_naming_numpy_check_on_a_platform_without_it():
    documents = [{"max_depth": 4}, {"max_depth": 4, "layer_backend": "numpy"}]
    plain, named = _python(
        "-c", RECORD_SCRIPT, json.dumps(documents), pure=True
    ).splitlines()
    assert named == plain
    assert json.loads(plain)["status"] == "solvable"


#: The package modules a process that runs no check imports.
STACK = (
    "repro",
    "repro.api",
    "repro.cli",
    "repro.store",
    "repro.fleet",
    "repro.service",
    "repro.analysis",
    "repro.records",
)


def test_importing_the_stack_loads_no_numpy():
    loaded = "sorted(m for m in sys.modules if m.split('.')[0] == 'numpy')"
    script = "\n".join(
        [f"import {module}" for module in STACK]
        + ["import json, sys", f"print(json.dumps({loaded}))"]
    )
    assert json.loads(_python("-c", script)) == []


#: A coordinator sweeping 30 rooted n=4 specs at depth 6 on two fork
#: workers, twice on one store (cold, then all hits); prints its records,
#: its store hits and whether it loaded numpy.
COORDINATOR_SCRIPT = """\
import json, sys
from repro.api import CheckOptions, ProcessBackend, ResultStore, Session
from repro.specs import random_rooted_specs
specs = random_rooted_specs(3, 4, 30)
store = ResultStore(sys.argv[1])
session = Session(CheckOptions(max_depth=6), store=store)
passes = [
    [r.to_dict() for r in session.sweep(specs, backend=ProcessBackend(2, record_timing=False))]
    for _ in range(2)
]
print(json.dumps({"numpy": "numpy" in sys.modules, "hits": store.hits, "passes": passes}))
"""


def _unsharded(record: dict) -> dict:
    return dict(record, shard=0)


def test_a_process_backend_coordinator_never_loads_numpy(tmp_path):
    out = json.loads(_python("-c", COORDINATOR_SCRIPT, str(tmp_path / "store")))
    assert out["numpy"] is False
    assert out["hits"] == 30
    serial = Session(CheckOptions(max_depth=6)).sweep(
        random_rooted_specs(3, 4, 30), backend=SerialBackend(record_timing=False)
    )
    expected = [_unsharded(record.to_dict()) for record in serial]
    cold, hot = out["passes"]
    assert [_unsharded(record) for record in cold] == expected
    assert [_unsharded(record) for record in hot] == expected


#: Imports the gate, then sets ``REPRO_PURE_PYTHON`` if it was unset and
#: unsets it otherwise, and only then asks the gate.
VETO_SCRIPT = """\
import json, os, sys
from repro.core.views import numpy_module
loaded = "numpy" in sys.modules
if os.environ.pop("REPRO_PURE_PYTHON", None) is None:
    os.environ["REPRO_PURE_PYTHON"] = "1"
print(json.dumps([loaded, numpy_module() is not None]))
"""


def test_the_pure_python_veto_is_read_at_import():
    for pure in (False, True):
        loaded, gate = json.loads(_python("-c", VETO_SCRIPT, pure=pure))
        assert not loaded
        assert gate == (HAS_NUMPY and not pure)


@pytest.mark.skipif(not HAS_NUMPY, reason="needs an ndarray")
@pytest.mark.parametrize("gate", ["unresolved", "vetoed"])
def test_a_layer_table_over_an_ndarray_reads_plain_ints(monkeypatch, gate):
    monkeypatch.setattr(views, "_np", views._UNRESOLVED if gate == "unresolved" else None)
    import numpy

    table = LayerTable(3, numpy.arange(6, dtype=numpy.int32))
    rows = [table[0], table[-1], *table]
    assert rows == [(0, 1, 2), (3, 4, 5), (0, 1, 2), (3, 4, 5)]
    assert {type(v) for row in rows for v in row} == {int}


@pytest.mark.skipif(not numpy_available(), reason="the gate resolves to numpy")
def test_the_emulation_holds_before_the_gate_resolves(monkeypatch):
    monkeypatch.setattr(views, "_np", views._UNRESOLVED)
    with without_numpy():
        digest = platform_digest()
        assert views._np is None
    assert views._np is views._UNRESOLVED
    assert views.numpy_module() is sys.modules["numpy"]
    assert digest == _python(__file__, pure=True).strip()


if __name__ == "__main__":
    print(platform_digest())
