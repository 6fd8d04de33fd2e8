"""The committed verdict ledger against a fresh run of every ledger check.

``scripts/verdict_ledger.py`` regenerates ``tests/verdict_ledger.json``;
this test recomputes it and fails when a SOLVABLE verdict turns IMPOSSIBLE
or the other way round.  Other changes (an UNDECIDED row getting a verdict,
a new certificate kind) are not failures: regenerate the ledger and let the
diff show them.
"""

import importlib.util
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "verdict_ledger.py"
_spec = importlib.util.spec_from_file_location("verdict_ledger", _SCRIPT)
ledger = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ledger)


def test_no_solvable_impossible_flip():
    committed = ledger.load()
    fresh = ledger.compute()
    # The ledger covers exactly the checks the script runs, in its order.
    assert list(committed) == list(fresh)
    for name in fresh:
        assert [r["spec"] for r in committed[name]] == [r["spec"] for r in fresh[name]], name
    assert ledger.flips(committed, fresh) == []


def test_flips_are_told_from_other_changes():
    spec = {"family": "named", "params": {"name": "x"}, "seed": None}
    old = {"s": [
        {"spec": spec, "max_depth": 6, "status": "solvable", "certificate_kind": "decision-table"},
    ]}
    undecided = {"s": [
        {"spec": spec, "max_depth": 6, "status": "undecided", "certificate_kind": "undecided"},
    ]}
    flipped = {"s": [
        {"spec": spec, "max_depth": 6, "status": "impossible",
         "certificate_kind": "nonbroadcastable-lasso"},
    ]}
    assert len(ledger.changes(old, undecided)) == 1
    assert ledger.flips(old, undecided) == []
    assert ledger.flips(old, flipped) == [("s", old["s"][0], flipped["s"][0])]
    assert ledger.flips(flipped, old) == [("s", flipped["s"][0], old["s"][0])]
