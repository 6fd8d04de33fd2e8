"""The unified experiment record schema and its versioned JSONL format.

Every classification the library performs — a sweep job, a census row, a
benchmark run — produces one :class:`RunRecord`: a compact, JSON-able
summary of a single :func:`~repro.consensus.solvability.check_consensus`
call.  Earlier revisions carried two divergent shapes (``SweepRecord`` for
the sweep engine, ``CensusRow`` for the census); this module is the single
schema both now share, so any JSONL stream — local sweep, manifest shard,
census artifact — feeds the same :mod:`repro.analysis` report layer.

JSONL format
------------
Version 2 files start with a header line ``{"schema": "repro.run-record/2"}``
followed by one record object per line.  :func:`read_jsonl` also accepts the
headerless version-1 files written before the header existed (PR-2-era
sweeps), defaulting the fields that did not exist then, so archived
artifacts keep loading.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable, Iterator, Literal, overload

from repro.schemas import RUN_RECORD

__all__ = [
    "SCHEMA",
    "NO_FINITE_TABLE",
    "RunRecord",
    "JsonlCorruption",
    "certificate_summary",
    "write_jsonl",
    "read_jsonl",
]

#: Schema tag written on the header line of version-2 JSONL files (the
#: canonical definition lives in :mod:`repro.schemas`).
SCHEMA = RUN_RECORD

#: Certificate of an UNDECIDED result whose limit closure is certified
#: impossible: no depth has a decision table, so more depth cannot help.
NO_FINITE_TABLE = "undecided:no-finite-table"


def certificate_summary(result) -> str:
    """Short description of a solvability result's certificate.

    SOLVABLE results name their decision table or broadcaster, IMPOSSIBLE
    results their witness kind.  UNDECIDED results come in two kinds.
    ``undecided:no-finite-table`` means the provers certified the
    adversary's limit closure impossible, so no depth has a decision table
    and the deepening was skipped: a bigger budget cannot help.  Otherwise
    the summary reports the deepest depth the iterative deepening actually
    explored (``undecided@6``), or ``undecided@-`` when not even depth 0
    was analyzable (e.g. the node budget was exhausted building the first
    layer), so sweep records show how far the search got.
    """
    if result.decision_table is not None:
        return f"decision-table@{result.certified_depth}"
    if result.broadcaster is not None:
        return f"broadcaster p{result.broadcaster.process}"
    if result.impossibility is not None:
        return result.impossibility.kind
    if result.closure_impossibility is not None:
        return NO_FINITE_TABLE
    if result.history:
        return f"undecided@{result.history[-1].depth}"
    return "undecided@-"


class RunRecord:
    """Compact, JSON-able outcome of one solvability check.

    The first twelve fields are the version-1 ``SweepRecord`` layout; the
    remaining ones were added by the schema unification:

    ``family`` / ``seed``
        The adversary-spec family and sampling seed (None for records of
        live adversaries without a spec).
    ``oracle`` / ``cgp``
        Cross-validation verdicts attached by the census (None elsewhere).
    ``spec``
        The full serialized :class:`~repro.specs.AdversarySpec` dict, when
        the job carried one — enough to rebuild and re-run the adversary
        from the record alone.
    """

    __slots__ = (
        "index",
        "adversary",
        "n",
        "alphabet",
        "max_depth",
        "status",
        "certified_depth",
        "certificate",
        "elapsed_s",
        "views_interned",
        "shard",
        "tags",
        "family",
        "seed",
        "oracle",
        "cgp",
        "spec",
    )

    #: Fields present in version-1 (headerless) files, with the JSON
    #: types a record line must give them (a ``bool`` is never a number
    #: here); everything after them defaults to None when reading old
    #: artifacts.
    _V1_FIELDS: dict[str, tuple[type, ...]] = {
        "index": (int,),
        "adversary": (str,),
        "n": (int,),
        "alphabet": (int,),
        "max_depth": (int,),
        "status": (str,),
        "certified_depth": (int, type(None)),
        "certificate": (str,),
        "elapsed_s": (int, float),
        "views_interned": (int,),
        "shard": (int,),
    }

    def __init__(
        self,
        index: int,
        adversary: str,
        n: int,
        alphabet: int,
        max_depth: int,
        status: str,
        certified_depth: int | None,
        certificate: str,
        elapsed_s: float,
        views_interned: int,
        shard: int,
        tags: dict[str, Any] | None = None,
        family: str | None = None,
        seed: int | None = None,
        oracle: bool | None = None,
        cgp: bool | None = None,
        spec: dict[str, Any] | None = None,
    ) -> None:
        self.index = index
        self.adversary = adversary
        self.n = n
        self.alphabet = alphabet
        self.max_depth = max_depth
        self.status = status
        self.certified_depth = certified_depth
        self.certificate = certificate
        self.elapsed_s = elapsed_s
        self.views_interned = views_interned
        self.shard = shard
        self.tags = {} if tags is None else tags
        self.family = family
        self.seed = seed
        self.oracle = oracle
        self.cgp = cgp
        self.spec = spec

    @property
    def solvable(self) -> bool | None:
        """Checker verdict (None when undecided)."""
        if self.status == "undecided":
            return None
        return self.status == "solvable"

    @property
    def family_label(self) -> str:
        """Best-effort family name: the spec family, a family tag, or '-'."""
        if self.family:
            return self.family
        tag = self.tags.get("family")
        return tag if isinstance(tag, str) and tag else "-"

    def to_dict(self) -> dict[str, Any]:
        return {key: getattr(self, key) for key in self.__slots__}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RunRecord":
        # Version-1 fields stay required — a KeyError points at the bad
        # line rather than yielding half-None records that misread
        # downstream.  Everything newer defaults.
        kwargs = {key: data[key] for key in cls._V1_FIELDS}
        for key in cls.__slots__:
            if key not in cls._V1_FIELDS:
                kwargs[key] = data.get(key)
        return cls(**kwargs)

    def __repr__(self) -> str:
        return (
            f"RunRecord(#{self.index}, {self.adversary}, "
            f"{self.status.upper()}, certificate={self.certificate!r})"
        )


def write_jsonl(records: Iterable[RunRecord], path: str | Path) -> None:
    """Write a version-2 JSONL file: header line, then one record per line.

    Parent directories are created.  Keys are sorted and floats are emitted
    by ``json.dumps`` defaults, so two runs producing equal record dicts
    produce byte-identical files.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        handle.write(json.dumps({"schema": SCHEMA}, sort_keys=True) + "\n")
        for record in records:
            handle.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")


class JsonlCorruption:
    """Report of a recoverable defect found while reading a JSONL file.

    Produced by ``read_jsonl(..., recover=True)`` when the *final* line of
    the file does not parse — the signature a process killed mid-append
    leaves behind.  The fleet merge path treats any non-``None`` report as
    "this shard output is incomplete": the readable prefix is still
    returned, but the attempt is retried rather than merged.
    """

    __slots__ = ("path", "line_number", "reason", "fragment")

    def __init__(
        self, path: str, line_number: int, reason: str, fragment: str
    ) -> None:
        self.path = path
        #: 1-based number of the offending (dropped) line.
        self.line_number = line_number
        self.reason = reason
        #: Leading bytes of the dropped line, for the report (bounded).
        self.fragment = fragment

    def to_dict(self) -> dict[str, Any]:
        return {
            "path": self.path,
            "line_number": self.line_number,
            "reason": self.reason,
            "fragment": self.fragment,
        }

    def __repr__(self) -> str:
        return (
            f"JsonlCorruption({self.path}:{self.line_number}: {self.reason})"
        )


class _MissingField(ValueError):
    """A record line lacks a version-1 field (tolerated on a torn tail)."""

    def __init__(self, path: Path, number: int, field: str) -> None:
        super().__init__(f"{path}:{number}: record missing field {field!r}")
        self.field = field


def _parse_line(path: Path, number: int, line: str, first: bool) -> RunRecord | None:
    """One non-empty JSONL line: its record, or ``None`` for the v2 header.

    Every error names the file and line.  An undecodable line raises
    :class:`json.JSONDecodeError`.  A line that is not a JSON object, a
    header naming another schema, or a record lacking a version-1 field
    or giving one a value of another type raises :class:`ValueError`.
    """
    try:
        data = json.loads(line)
    except json.JSONDecodeError as exc:
        raise json.JSONDecodeError(f"{path}:{number}: {exc.msg}", line, exc.pos) from None
    if not isinstance(data, dict):
        raise ValueError(f"{path}:{number}: not a record object: {line[:60]}")
    if first and data.get("schema") is not None:
        if data["schema"] != SCHEMA:
            raise ValueError(
                f"{path}:{number}: unsupported record schema "
                f"{data['schema']!r} (this reader understands {SCHEMA!r} "
                "and headerless v1 files)"
            )
        return None
    try:
        record = RunRecord.from_dict(data)
    except KeyError as exc:
        raise _MissingField(path, number, exc.args[0]) from None
    for field, kinds in RunRecord._V1_FIELDS.items():
        value = data[field]
        if isinstance(value, bool) or not isinstance(value, kinds):
            expected = " or ".join(
                "null" if kind is type(None) else kind.__name__ for kind in kinds
            )
            raise ValueError(
                f"{path}:{number}: record field {field!r} is "
                f"{json.dumps(value)[:40]}, not {expected}"
            )
    return record


def _recover_records(
    path: Path, lines: list[str]
) -> tuple[list[RunRecord], JsonlCorruption | None]:
    """Parse materialized lines, reporting a bad *last* line.

    An undecodable last non-empty line, or one lacking a record field, is
    reported instead of raised (mid-write kill signature); any other
    failure raises — the rest of the file cannot be trusted after
    unexplained corruption in the middle.
    """
    numbered = [
        (number, line.strip())
        for number, line in enumerate(lines, start=1)
        if line.strip()
    ]
    records: list[RunRecord] = []
    for position, (number, line) in enumerate(numbered):
        try:
            record = _parse_line(path, number, line, position == 0)
        except (json.JSONDecodeError, _MissingField) as exc:
            if position < len(numbered) - 1:
                raise
            reason = (
                f"trailing record missing field {exc.field!r}"
                if isinstance(exc, _MissingField)
                else "truncated trailing line (mid-write kill?)"
            )
            return records, JsonlCorruption(
                path=str(path),
                line_number=number,
                reason=reason,
                fragment=line[:120],
            )
        if record is not None:
            records.append(record)
    return records, None


@overload
def read_jsonl(path: str | Path) -> Iterator[RunRecord]: ...


@overload
def read_jsonl(
    path: str | Path, recover: Literal[True]
) -> tuple[list[RunRecord], JsonlCorruption | None]: ...


def read_jsonl(
    path: str | Path, recover: bool = False
) -> Iterator[RunRecord] | tuple[list[RunRecord], JsonlCorruption | None]:
    """Read the records of a sweep JSONL file, any schema version.

    Accepts both version-2 files (leading ``{"schema": ...}`` header) and
    the headerless version-1 files of earlier revisions; unknown newer
    schema tags raise rather than misparse.

    By default returns a lazy iterator and raises
    :class:`json.JSONDecodeError` on any undecodable line, and
    :class:`ValueError` naming the file and line on a line that is not a
    record object, lacks a record field or gives a version-1 field a value
    of another type.  With ``recover=True`` it instead returns an eager
    ``(records, corruption)`` pair: a torn or field-less *final* line —
    what a process killed mid-append leaves behind — is skipped and
    described by a :class:`JsonlCorruption` report (``corruption is None``
    for a clean file).  Corruption anywhere but the tail still raises: a
    damaged middle means the file cannot be trusted at all.  A field of
    the wrong type raises anywhere, the tail included: a torn write leaves
    an undecodable line, never a well-formed one of the wrong type.  The
    fleet merge path reads every shard output this way, so worker death
    during a write downgrades to a retriable validation failure instead
    of an exception.
    """
    path = Path(path)
    if recover:
        with path.open("r", encoding="utf-8") as handle:
            lines = handle.readlines()
        return _recover_records(path, lines)
    return _iter_jsonl(path)


def _iter_jsonl(path: Path) -> Iterator[RunRecord]:
    with path.open("r", encoding="utf-8") as handle:
        first = True
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            record = _parse_line(path, number, line, first)
            first = False
            if record is not None:
                yield record
