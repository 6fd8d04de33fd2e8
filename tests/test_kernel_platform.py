"""The kernels follow the platform, and the suite's emulation of it holds.

The test suite runs the pure-Python pipeline on a host with numpy by
patching ``repro.core.views._np`` to ``None`` (``kernels.without_numpy``).
The first test pins that emulation to a real ``REPRO_PURE_PYTHON=1``
process: every interner column, every layer column and every check result
must come out the same.  The second pins what replaced the removed
``layer_backend`` option: an options document that still names numpy
checks on a platform without it exactly like one that does not.

Run as a script, this module prints :func:`platform_digest`.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from kernels import without_numpy

from repro.consensus.solvability import check_consensus
from repro.specs import NAMED_ADVERSARIES
from repro.topology.prefixspace import PrefixSpace

SRC = Path(__file__).resolve().parents[1] / "src"

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


def _pure_python(*argv: str) -> str:
    """stdout of ``python argv...`` in a process that vetoes numpy."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, REPRO_PURE_PYTHON="1", PYTHONPATH=path)
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
    assert _pure_python(__file__).strip() == expected


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
    plain, named = _pure_python("-c", RECORD_SCRIPT, json.dumps(documents)).splitlines()
    assert named == plain
    assert json.loads(plain)["status"] == "solvable"


if __name__ == "__main__":
    print(platform_digest())
