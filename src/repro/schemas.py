"""The single registry of versioned ``repro.*/N`` document schemas.

Every serialized artifact the library writes — run-record JSONL streams,
sweep-shard manifests, structured reports — carries a versioned schema
tag of the form ``repro.<document>/<version>``.  Those tags are load-
bearing: readers dispatch on them, CI asserts them, and remote fleet
runners rely on them to refuse artifacts they do not understand.  This
module is the *only* place the literal strings may appear (rule R5 of
``repro-lint`` enforces this): producers and consumers import the
constants, so bumping a version is a one-line change that the whole tree
picks up, and two modules can never disagree about a tag's spelling.

>>> parse_schema(RUN_RECORD)
('repro.run-record', 2)
>>> schema_version(SWEEP_MANIFEST)
1
"""

from __future__ import annotations

import re

__all__ = [
    "RUN_RECORD",
    "SWEEP_MANIFEST",
    "SWEEP_REPORT",
    "LINT_REPORT",
    "FLEET_STATE",
    "RESULT_STORE",
    "SERVICE_PROTOCOL",
    "SCHEMAS",
    "parse_schema",
    "schema_name",
    "schema_version",
]

#: Versioned JSONL stream of :class:`~repro.records.RunRecord` objects
#: (header line ``{"schema": RUN_RECORD}``, one record object per line).
RUN_RECORD = "repro.run-record/2"

#: Self-contained sweep shard manifests executed by independent
#: ``repro-consensus fleet work`` subprocesses.
SWEEP_MANIFEST = "repro.sweep-manifest/1"

#: The machine-readable ``repro-consensus report --json`` document.
SWEEP_REPORT = "repro.sweep-report/1"

#: The machine-readable ``repro-lint --json`` findings document.
LINT_REPORT = "repro.lint-report/1"

#: Every state document of the fault-tolerant fleet runner
#: (:mod:`repro.fleet`): the run config, shard leases, done markers, the
#: merge journal, the poison list, and status snapshots all carry this
#: tag plus a ``kind`` discriminator, so a fleet directory is
#: self-describing and workers refuse state they do not understand.
FLEET_STATE = "repro.fleet-state/1"

#: Object documents of the content-addressed result store
#: (:mod:`repro.store`): one cached, timing-normalized
#: :class:`~repro.records.RunRecord` per canonical (spec, options,
#: record-schema, kernel-epoch) cache key.  ``cache verify`` and the
#: store's stale counters dispatch on this tag.
RESULT_STORE = "repro.result-store/1"

#: The newline-delimited JSON protocol of the asyncio consensus-query
#: service (``repro-consensus serve``): the server's hello line carries
#: this tag and clients refuse servers they do not understand.
SERVICE_PROTOCOL = "repro.service-protocol/1"

#: Every schema the library currently reads or writes, by document name.
SCHEMAS: dict[str, str] = {
    "repro.run-record": RUN_RECORD,
    "repro.sweep-manifest": SWEEP_MANIFEST,
    "repro.sweep-report": SWEEP_REPORT,
    "repro.lint-report": LINT_REPORT,
    "repro.fleet-state": FLEET_STATE,
    "repro.result-store": RESULT_STORE,
    "repro.service-protocol": SERVICE_PROTOCOL,
}

_SCHEMA_RE = re.compile(r"^(repro\.[a-z0-9-]+)/([0-9]+)$")


def parse_schema(tag: str) -> tuple[str, int]:
    """Split a ``repro.<document>/<version>`` tag into its two parts.

    Raises :class:`ValueError` for anything that is not a well-formed
    schema tag — malformed tags in artifacts should fail loudly at the
    parse site, not propagate as unversioned strings.
    """
    match = _SCHEMA_RE.match(tag)
    if match is None:
        raise ValueError(f"not a repro schema tag: {tag!r}")
    return match.group(1), int(match.group(2))


def schema_name(tag: str) -> str:
    """The document name of a schema tag (``repro.run-record``)."""
    return parse_schema(tag)[0]


def schema_version(tag: str) -> int:
    """The integer version of a schema tag."""
    return parse_schema(tag)[1]
