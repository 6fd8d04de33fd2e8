"""Correctness gate: verdict digests and independent re-checks.

A workload's verdicts are projected onto the fields that state what the
checker concluded (spec, adversary, process count, alphabet, depth budget,
status, certified depth, certificate) and hashed.  For the default seed
the hash must equal the one committed in ``digests.json``; for any seed a
seeded sample is re-checked through ``check_consensus_with_options`` on a
fresh interner and must agree field by field.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from typing import Any, Iterable, Sequence

DEFAULT_SEED = 1
DIGESTS = Path(__file__).resolve().parent / "digests.json"

#: Record fields that carry the verdict (everything else is run metadata).
VERDICT_FIELDS = (
    "spec", "adversary", "n", "alphabet", "max_depth",
    "status", "certified_depth", "certificate",
)


def verdict(record: dict[str, Any]) -> dict[str, Any]:
    return {field: record.get(field) for field in VERDICT_FIELDS}


def verdict_digest(records: Iterable[dict[str, Any]]) -> str:
    """Order-independent SHA-256 over the records' verdict projections."""
    lines = sorted(json.dumps(verdict(r), sort_keys=True) for r in records)
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def load_digests(path: Path = DIGESTS) -> dict[str, str]:
    if not path.exists():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))


def check_digest(workload: str, digest: str, path: Path = DIGESTS) -> str | None:
    """None when ``digest`` matches the committed one, else the reason."""
    expected = load_digests(path).get(workload)
    if expected is None:
        return f"{workload}: no committed verdict digest"
    if expected != digest:
        return f"{workload}: verdict digest {digest[:12]} != committed {expected[:12]}"
    return None


def record_digest(workload: str, digest: str, path: Path = DIGESTS) -> None:
    digests = load_digests(path)
    digests[workload] = digest
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def recheck(cases: Sequence[tuple[dict[str, Any], dict[str, Any]]], sample: int,
            rng: random.Random) -> list[str]:
    """Re-run a sample of (options dict, record dict) cases independently.

    Each sampled spec is rebuilt and checked with a fresh interner; the
    verdict fields must equal the record's.  Returns one message per
    disagreement.
    """
    from repro.consensus.solvability import CheckOptions, check_consensus_with_options
    from repro.records import certificate_summary
    from repro.specs import AdversarySpec

    chosen = rng.sample(list(cases), min(sample, len(cases)))
    problems = []
    for options, record in chosen:
        adversary = AdversarySpec.from_dict(record["spec"]).build()
        result = check_consensus_with_options(adversary, CheckOptions.from_dict(options))
        fresh = {
            "spec": record["spec"],
            "adversary": adversary.name,
            "n": adversary.n,
            "alphabet": len(adversary.alphabet()),
            "max_depth": options["max_depth"],
            "status": result.status.value,
            "certified_depth": result.certified_depth,
            "certificate": certificate_summary(result),
        }
        if fresh != verdict(record):
            problems.append(f"re-check of {record['spec']} disagrees: {fresh} != {verdict(record)}")
    return problems
