"""Canonical cache-key derivation for the content-addressed result store.

A cached verdict may only be served when *nothing that could change the
verdict* differs from the run that produced it.  The cache key is
therefore a SHA-256 over a canonical JSON document of exactly four
ingredients:

1. the serialized :class:`~repro.specs.AdversarySpec` (family + params +
   seed — the complete description of the adversary);
2. the *semantic* subset of :class:`~repro.options.CheckOptions`
   (:data:`SEMANTIC_OPTION_FIELDS`): the fields that can
   change a verdict or certificate.  The platform's kernel is not an
   ingredient — kernel parity is a tested invariant of the library, so
   a record computed where numpy imports is byte-identical (timing
   zeroed) to one computed without it and may be served to either, and
   the keys of removed knobs an old options document may carry are
   dropped when it decodes;
3. the run-record schema version (:data:`repro.schemas.RUN_RECORD`) —
   a schema bump must never serve old-shape records;
4. the checker :data:`KERNEL_EPOCH` — bumped whenever checker semantics
   change in a way the schema version does not capture (a prover fix, a
   certificate change).  Bumping it orphans every existing entry: old
   objects simply stop being addressable and are swept by ``cache gc``.

Canonicalization: ``json.dumps(..., sort_keys=True)`` with compact
separators over JSON-normalized values, so dict insertion order, int vs
float spelling, and pickle/json round-trips of the spec cannot perturb
the key.  The key is a pure function of its four ingredients — identical
across processes and machines, which the cache-key stability tests pin.
"""

from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING, Any

from repro.schemas import RUN_RECORD

if TYPE_CHECKING:
    from repro.options import CheckOptions
    from repro.specs import AdversarySpec

__all__ = [
    "KERNEL_EPOCH",
    "SEMANTIC_OPTION_FIELDS",
    "cache_key",
    "key_payload",
    "semantic_options",
]

#: Monotone counter over checker *semantics*.  Bump on any change that can
#: alter a verdict, a certificate, or a recorded depth without changing
#: the record schema itself; every bump invalidates the whole store (old
#: entries become unaddressable garbage, collected by ``cache gc``).
#: Epoch 2: an UNDECIDED check whose limit closure is certified impossible
#: skips the deepening and records ``undecided:no-finite-table``.
KERNEL_EPOCH = 2

#: The :class:`CheckOptions` fields that participate in the cache key —
#: exactly those that can change what the checker concludes, as opposed
#: to how fast or how observably it concludes it.
SEMANTIC_OPTION_FIELDS: tuple[str, ...] = (
    "max_depth",
    "max_nodes",
    "use_impossibility_provers",
    "use_broadcaster_certificate",
)


def semantic_options(options: CheckOptions) -> dict[str, Any]:
    """The key-relevant slice of a :class:`CheckOptions`, as a dict."""
    full = options.to_dict()
    return {field: full[field] for field in SEMANTIC_OPTION_FIELDS}


def key_payload(spec: AdversarySpec, options: CheckOptions) -> dict[str, Any]:
    """The canonical pre-hash document behind :func:`cache_key`.

    Exposed separately so tests (and ``cache verify`` diagnostics) can
    inspect exactly what a key commits to.
    """
    return {
        "kernel_epoch": KERNEL_EPOCH,
        "record_schema": RUN_RECORD,
        "spec": spec.to_dict(),
        "options": semantic_options(options),
    }


def cache_key(spec: AdversarySpec, options: CheckOptions) -> str:
    """Hex SHA-256 cache key of one (adversary spec, checker options) pair.

    Stable across processes, param-dict orderings, and serialization
    round-trips: the payload is JSON-normalized (``json.loads`` of a
    ``json.dumps``) before hashing, so any two specs that serialize to
    the same JSON produce the same key.
    """
    payload = key_payload(spec, options)
    # Normalize through a JSON round-trip first: tuples become lists,
    # ints stay ints, and anything non-JSON fails loudly here rather
    # than hashing an unstable repr.
    canonical = json.loads(json.dumps(payload, sort_keys=True))
    encoded = json.dumps(
        canonical, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()
