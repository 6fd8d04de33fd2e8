"""Regenerate, or check, the verdict ledger of the built-in adversary families.

The ledger (``tests/verdict_ledger.json``) holds one row per check: the
adversary spec, the depth budget, and the checker's status and certificate
kind (:func:`repro.analysis.certificate_kind`), or the error type when
building or checking the spec raises a library error.  Oblivious rows also
carry the CGP reconstruction's verdict (``cgp``) and, on two processes, the
exact literature verdict (``oracle``).  A decided status that disagrees
with either is reported, never failed.

Sections, in ledger order:

* ``named`` — the 11 named adversaries at depth 10;
* ``two-process-families`` — over the four two-process graphs (keys 0, 2,
  4, 6) at depth 10: the 50 eventually-forever specs (every nonempty base,
  every proper nonempty eventual subset of it) and the 120 stabilizing
  specs (every nonempty graph set, windows 1-4, both ``require_rooted``);
* ``two-process-oblivious`` — the 15 two-process oblivious adversaries at
  depth 6;
* ``census`` — 1,000 seeded random rooted n=4 specs (seed 1) plus the named
  adversaries at depth 6, the job list of the census-sweep benchmark;
* ``rooted-n3`` — 300 seeded random rooted n=3 specs (seed 0) at depth 4.

Usage::

    PYTHONPATH=src python scripts/verdict_ledger.py           # rewrite it
    PYTHONPATH=src python scripts/verdict_ledger.py --check   # compare only

``--check`` prints every row whose verdict changed and exits 1 when a
SOLVABLE row became IMPOSSIBLE or the other way round.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from collections import Counter
from pathlib import Path
from typing import Any, Iterator

from repro.adversaries.oblivious import ObliviousAdversary
from repro.analysis import certificate_kind
from repro.consensus.baselines import cgp_predicts_solvable
from repro.consensus.provers import two_process_oblivious_verdict
from repro.consensus.solvability import CheckOptions, check_consensus_with_options
from repro.errors import ReproError
from repro.records import certificate_summary
from repro.specs import NAMED_ADVERSARIES, AdversarySpec, random_rooted_specs

LEDGER = Path(__file__).resolve().parents[1] / "tests" / "verdict_ledger.json"

#: The two-process graph keys: none, ->, <-, <->.
TWO_PROCESS_KEYS = (0, 2, 4, 6)

#: Section name -> rows.
Ledger = dict[str, list[dict[str, Any]]]


def _subsets(keys: tuple[int, ...]) -> Iterator[list[int]]:
    """Every nonempty subset of ``keys``, by size, then lexicographically."""
    for size in range(1, len(keys) + 1):
        for subset in itertools.combinations(keys, size):
            yield list(subset)


def _named() -> list[AdversarySpec]:
    return [AdversarySpec("named", {"name": name}) for name in sorted(NAMED_ADVERSARIES)]


def two_process_families() -> list[AdversarySpec]:
    """The 50 eventually-forever and 120 stabilizing two-process specs."""
    specs = []
    for base in _subsets(TWO_PROCESS_KEYS):
        for eventual in _subsets(tuple(base)):
            if eventual != base:
                specs.append(AdversarySpec(
                    "eventually-forever", {"n": 2, "base": base, "eventual": eventual}
                ))
    for graphs in _subsets(TWO_PROCESS_KEYS):
        for window in (1, 2, 3, 4):
            for rooted in (True, False):
                specs.append(AdversarySpec("stabilizing", {
                    "n": 2, "graphs": graphs, "window": window, "require_rooted": rooted,
                }))
    return specs


def sections() -> list[tuple[str, int, list[AdversarySpec]]]:
    """``(name, max_depth, specs)`` of every ledger section, in order."""
    return [
        ("named", 10, _named()),
        ("two-process-families", 10, two_process_families()),
        ("two-process-oblivious", 6,
         [AdversarySpec("two-process", {"index": index}) for index in range(15)]),
        ("census", 6, random_rooted_specs(1, 4, 1000) + _named()),
        ("rooted-n3", 4, random_rooted_specs(0, 3, 300)),
    ]


def ledger_row(spec: AdversarySpec, max_depth: int) -> dict[str, Any]:
    """One checked spec as a ledger row."""
    row: dict[str, Any] = {"spec": spec.to_dict(), "max_depth": max_depth}
    try:
        adversary = spec.build()
        result = check_consensus_with_options(adversary, CheckOptions(max_depth=max_depth))
    except ReproError as exc:
        row["error"] = type(exc).__name__
        return row
    row["status"] = result.status.value
    row["certificate_kind"] = certificate_kind(certificate_summary(result))
    if isinstance(adversary, ObliviousAdversary):
        if adversary.n == 2:
            row["oracle"] = two_process_oblivious_verdict(adversary)
        row["cgp"] = cgp_predicts_solvable(adversary)
    return row


def compute() -> Ledger:
    """The whole ledger, section name -> rows."""
    return {
        name: [ledger_row(spec, max_depth) for spec in specs]
        for name, max_depth, specs in sections()
    }


def disagreements(ledger: Ledger) -> Counter:
    """``(section, baseline) -> rows`` whose decided status the baseline contradicts."""
    found: Counter = Counter()
    for name, rows in ledger.items():
        for row in rows:
            if row.get("status") not in ("solvable", "impossible"):
                continue
            for baseline in ("oracle", "cgp"):
                if baseline in row and row[baseline] != (row["status"] == "solvable"):
                    found[name, baseline] += 1
    return found


def _verdict(row: dict[str, Any]) -> tuple:
    return row.get("error"), row.get("status"), row.get("certificate_kind")


def changes(old: Ledger, new: Ledger) -> list[tuple[str, dict, dict]]:
    """``(section, old row, new row)`` for every row whose verdict differs.

    Rows are matched by section and spec; a spec present on one side only
    shows up with ``{}`` on the other.
    """
    changed = []
    for name in sorted(set(old) | set(new)):
        before = {json.dumps(r["spec"], sort_keys=True): r for r in old.get(name, [])}
        after = {json.dumps(r["spec"], sort_keys=True): r for r in new.get(name, [])}
        for key in sorted(set(before) | set(after)):
            a, b = before.get(key, {}), after.get(key, {})
            if _verdict(a) != _verdict(b) or a.get("max_depth") != b.get("max_depth"):
                changed.append((name, a, b))
    return changed


def flips(old: Ledger, new: Ledger) -> list[tuple[str, dict, dict]]:
    """The changes that turn SOLVABLE into IMPOSSIBLE or the other way round."""
    decided = {"solvable", "impossible"}
    return [
        (name, a, b)
        for name, a, b in changes(old, new)
        if {a.get("status"), b.get("status")} == decided
    ]


def dumps(ledger: Ledger) -> str:
    """The ledger as JSON text with one row per line, so diffs are per row."""
    parts = []
    for name, rows in ledger.items():
        body = ",\n".join("  " + json.dumps(row) for row in rows)
        parts.append(f"{json.dumps(name)}: [\n{body}\n]")
    return "{\n" + ",\n".join(parts) + "\n}\n"


def load(path: Path = LEDGER) -> Ledger:
    return json.loads(path.read_text(encoding="utf-8"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the committed ledger instead of rewriting it")
    parser.add_argument("--out", type=Path, default=LEDGER, help="ledger path")
    args = parser.parse_args(argv)

    fresh = compute()
    for (name, baseline), count in sorted(disagreements(fresh).items()):
        print(f"{name}: {baseline} disagrees with the checker on {count} row(s)")
    if args.check:
        committed = load(args.out)
        for name, a, b in changes(committed, fresh):
            spec = a.get("spec") or b.get("spec")
            print(f"changed: {name}: {spec}: {_verdict(a)} -> {_verdict(b)}")
        flipped = flips(committed, fresh)
        print(f"{len(flipped)} SOLVABLE<->IMPOSSIBLE flip(s)")
        return 1 if flipped else 0
    args.out.write_text(dumps(fresh), encoding="utf-8")
    total = sum(len(rows) for rows in fresh.values())
    print(f"wrote {total} rows to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
