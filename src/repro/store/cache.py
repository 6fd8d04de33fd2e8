"""The persistent, content-addressed :class:`~repro.records.RunRecord` store.

Layout (under one store root)::

    objects/<key[:2]>/<key>.json   -- one cached record per cache key
    journal.jsonl                  -- append-only put journal (recency order)

Each object file is a self-describing :data:`~repro.schemas.RESULT_STORE`
document embedding the key, the canonical pre-hash payload it was derived
from, and the *normalized* record: the run-dependent fields (``index``,
``shard``, ``elapsed_s``, ``views_interned``, ``tags`` and the census's
cross-validation verdicts) are zeroed on the way in, so a cached record is
a pure function of the cache key — two processes that cache the same
(spec, options) pair write byte-identical objects, and a served hit is
byte-identical to a fresh ``record_timing=False`` run.

The object *path* is the index: a hit probe is one ``os.stat`` (memoized
per store instance after the first sighting), never a directory scan.
All writes go through the crash-safe funnel (:mod:`repro.io.atomic`,
enforced by repro-lint rule R9): objects land by temp-then-rename, the
journal grows by fsynced whole lines, and journal compaction after GC is
an atomic text replace — a SIGKILL at any instruction leaves a store that
reads cleanly.

Staleness is structural, not temporal (the store keeps no clocks, per
lint rule R3): an object whose embedded schema tag, kernel epoch, or key
disagrees with this library — or that does not parse — is *stale*,
counted and treated as a miss, and swept by :meth:`ResultStore.gc`.
Recency for eviction is journal order: later put = more recently
computed.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator

from repro.errors import AnalysisError
from repro.io.atomic import append_line, atomic_write_json, atomic_write_text, read_lines
from repro.records import RunRecord
from repro.schemas import RESULT_STORE, RUN_RECORD
from repro.store.keys import KERNEL_EPOCH, cache_key, key_payload

if TYPE_CHECKING:
    from repro.options import CheckOptions
    from repro.specs import AdversarySpec

__all__ = [
    "ResultStore",
    "normalize_record",
]

#: Record fields zeroed before storage (and therefore absent from what a
#: cache hit can tell you): everything that depends on *how* the run
#: happened rather than on what the checker concluded.
_NORMALIZED_FIELDS: dict[str, Any] = {
    "index": 0,
    "shard": 0,
    "elapsed_s": 0.0,
    "views_interned": 0,
    "tags": {},
    "oracle": None,
    "cgp": None,
}


def normalize_record(record: RunRecord) -> RunRecord:
    """A copy of ``record`` with every run-dependent field zeroed.

    This is the storage form: equal verdicts from different sweeps,
    shards, or backends normalize to equal records, which is what makes
    the store content-addressed rather than merely memoizing.
    """
    data = record.to_dict()
    data.update(_NORMALIZED_FIELDS)
    return RunRecord.from_dict(data)


class ResultStore:
    """Disk-backed cache of solvability verdicts, keyed by content.

    One instance owns one store root.  Hit/miss/stale/put counters are
    per-instance (session observability); the objects and journal are
    shared state that any number of concurrent processes may extend —
    every write shape is crash-safe and last-writer-wins is harmless
    because equal keys imply equal normalized objects.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.objects_dir = self.root / "objects"
        self.journal_path = self.root / "journal.jsonl"
        self.hits = 0
        self.misses = 0
        self.stale = 0
        self.puts = 0
        #: Keys this instance has confirmed on disk — the O(1) probe memo.
        #: Absence is never memoized: another process may put at any time.
        self._present: set[str] = set()

    # ------------------------------------------------------------- #
    # Addressing
    # ------------------------------------------------------------- #

    def key_for(self, spec: AdversarySpec, options: CheckOptions) -> str:
        """The cache key of one (spec, options) pair (see :mod:`.keys`)."""
        return cache_key(spec, options)

    def object_path(self, key: str) -> Path:
        """Where the object for ``key`` lives (whether or not it exists)."""
        return self.objects_dir / key[:2] / f"{key}.json"

    def probe(self, key: str) -> bool:
        """O(1) existence check; mutates no hit/miss counters."""
        if key in self._present:
            return True
        if self.object_path(key).exists():
            self._present.add(key)
            return True
        return False

    # ------------------------------------------------------------- #
    # Get / put
    # ------------------------------------------------------------- #

    def get(
        self, spec: AdversarySpec, options: CheckOptions
    ) -> RunRecord | None:
        """The cached normalized record, or ``None`` (miss or stale).

        A present-but-unusable object — unparsable, or carrying a schema
        tag, kernel epoch, or key other than this library's — counts as
        *stale* (and as a miss to the caller); ``gc`` sweeps those.
        """
        key = cache_key(spec, options)
        record = self._load(key)
        if record is None:
            self.misses += 1
            return None
        self.hits += 1
        return record

    def get_by_key(self, key: str) -> RunRecord | None:
        """Keyed variant of :meth:`get` for callers that pre-hash
        (the query service coalesces in-flight work by key)."""
        record = self._load(key)
        if record is None:
            self.misses += 1
            return None
        self.hits += 1
        return record

    def _load(self, key: str) -> RunRecord | None:
        path = self.object_path(key)
        try:
            text = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return None
        try:
            document = json.loads(text)
            if not isinstance(document, dict):
                raise ValueError("object document is not a JSON object")
            if (
                document.get("schema") != RESULT_STORE
                or document.get("kernel_epoch") != KERNEL_EPOCH
                or document.get("record_schema") != RUN_RECORD
                or document.get("key") != key
            ):
                raise ValueError("object belongs to another store version")
            record = RunRecord.from_dict(document["record"])
        except (ValueError, KeyError, TypeError):
            self.stale += 1
            return None
        self._present.add(key)
        return record

    def put(
        self,
        spec: AdversarySpec,
        options: CheckOptions,
        record: RunRecord,
    ) -> str:
        """Cache one verdict; returns the key it was stored under.

        The record is normalized first (see :func:`normalize_record`), so
        callers may hand over their sweep records as-is.  Concurrent puts
        of the same key are benign: both writers produce the identical
        object and the rename is atomic.
        """
        key = cache_key(spec, options)
        path = self.object_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_json(
            path,
            {
                "schema": RESULT_STORE,
                "kernel_epoch": KERNEL_EPOCH,
                "record_schema": RUN_RECORD,
                "key": key,
                "payload": key_payload(spec, options),
                "record": normalize_record(record).to_dict(),
            },
        )
        self.root.mkdir(parents=True, exist_ok=True)
        append_line(
            self.journal_path,
            json.dumps({"op": "put", "key": key}, sort_keys=True),
        )
        self._present.add(key)
        self.puts += 1
        return key

    # ------------------------------------------------------------- #
    # Maintenance: stats / gc / verify
    # ------------------------------------------------------------- #

    def _iter_objects(self) -> Iterator[Path]:
        if not self.objects_dir.is_dir():
            return
        for bucket in sorted(self.objects_dir.iterdir()):
            if not bucket.is_dir():
                continue
            for path in sorted(bucket.glob("*.json")):
                yield path

    def _journal_keys(self) -> list[str]:
        """Put order from the journal, deduplicated to last occurrence.

        Tolerates one torn trailing line (mid-append kill) and skips
        unparsable lines — the journal is a recency hint, not ground
        truth; the objects directory is.
        """
        lines = read_lines(self.journal_path) or []
        order: dict[str, int] = {}
        for position, line in enumerate(lines):
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
                key = entry["key"]
            except (ValueError, KeyError, TypeError):
                continue
            if isinstance(key, str):
                order[key] = position  # later put wins: most recent
        return sorted(order, key=order.__getitem__)

    def stats(self) -> dict[str, Any]:
        """Session counters plus on-disk object count and byte size."""
        objects = 0
        size = 0
        for path in self._iter_objects():
            objects += 1
            size += path.stat().st_size
        return {
            "root": str(self.root),
            "kernel_epoch": KERNEL_EPOCH,
            "record_schema": RUN_RECORD,
            "objects": objects,
            "bytes": size,
            "hits": self.hits,
            "misses": self.misses,
            "stale": self.stale,
            "puts": self.puts,
        }

    def verify(self) -> dict[str, Any]:
        """Full integrity scan: every object re-keyed from its payload.

        For each object the canonical hash of the embedded payload is
        recomputed and compared against the filename — a content-
        addressing check no mere schema validation provides.  Returns a
        report dict; mutates nothing.
        """
        checked = 0
        problems: list[dict[str, str]] = []
        for path in self._iter_objects():
            checked += 1
            problem = self._verify_object(path)
            if problem is not None:
                problems.append({"path": str(path), "problem": problem})
        return {"checked": checked, "ok": not problems, "problems": problems}

    def _verify_object(self, path: Path) -> str | None:
        import hashlib

        try:
            document = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return "unparsable object document"
        if not isinstance(document, dict):
            return "object document is not a JSON object"
        if document.get("schema") != RESULT_STORE:
            return f"wrong schema tag {document.get('schema')!r}"
        if document.get("kernel_epoch") != KERNEL_EPOCH:
            return f"kernel epoch {document.get('kernel_epoch')!r} != {KERNEL_EPOCH}"
        if document.get("record_schema") != RUN_RECORD:
            return f"record schema {document.get('record_schema')!r} != {RUN_RECORD!r}"
        key = document.get("key")
        if key != path.stem:
            return f"embedded key {key!r} != filename {path.stem!r}"
        payload = document.get("payload")
        if not isinstance(payload, dict):
            return "missing canonical payload"
        canonical = json.loads(json.dumps(payload, sort_keys=True))
        encoded = json.dumps(
            canonical, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        digest = hashlib.sha256(encoded).hexdigest()
        if digest != key:
            return f"payload hashes to {digest[:12]}..., not the stored key"
        try:
            record = RunRecord.from_dict(document["record"])
        except (KeyError, TypeError):
            return "embedded record does not parse"
        if normalize_record(record).to_dict() != record.to_dict():
            return "embedded record is not normalized"
        return None

    def gc(
        self,
        max_objects: int | None = None,
        max_bytes: int | None = None,
    ) -> dict[str, Any]:
        """Evict stale objects, then (optionally) trim to a budget.

        Pass one eviction budget at most.  Stale objects — wrong epoch,
        wrong schema, unparsable — always go, regardless of budget.
        Budget eviction drops the *least recently put* keys (journal
        order; keys the journal never saw count as oldest).  The journal
        is compacted afterwards to exactly the surviving keys, in
        recency order, via one atomic replace.
        """
        if max_objects is not None and max_bytes is not None:
            raise AnalysisError("gc takes at most one of max_objects/max_bytes")
        if max_objects is not None and max_objects < 0:
            raise AnalysisError("gc max_objects must be >= 0")
        if max_bytes is not None and max_bytes < 0:
            raise AnalysisError("gc max_bytes must be >= 0")

        removed_stale = 0
        survivors: dict[str, Path] = {}
        for path in self._iter_objects():
            if self._verify_object(path) is not None:
                path.unlink(missing_ok=True)
                self._present.discard(path.stem)
                removed_stale += 1
            else:
                survivors[path.stem] = path

        # Oldest-first eviction order: journal recency, with never-
        # journaled keys (foreign writers, lost journals) evicted first
        # in sorted-key order for determinism.
        recency = self._journal_keys()
        journaled = [key for key in recency if key in survivors]
        unjournaled = sorted(key for key in survivors if key not in set(recency))
        oldest_first = unjournaled + journaled

        removed_evicted = 0
        if max_objects is not None:
            evict = oldest_first[: max(0, len(oldest_first) - max_objects)]
            removed_evicted = self._evict(evict, survivors)
        elif max_bytes is not None:
            total = sum(path.stat().st_size for path in survivors.values())
            evict = []
            for key in oldest_first:
                if total <= max_bytes:
                    break
                total -= survivors[key].stat().st_size
                evict.append(key)
            removed_evicted = self._evict(evict, survivors)

        compacted = [key for key in oldest_first if key in survivors]
        text = "".join(
            json.dumps({"op": "put", "key": key}, sort_keys=True) + "\n"
            for key in compacted
        )
        self.root.mkdir(parents=True, exist_ok=True)
        atomic_write_text(self.journal_path, text)
        self._prune_empty_buckets()
        return {
            "removed_stale": removed_stale,
            "removed_evicted": removed_evicted,
            "remaining": len(survivors),
        }

    def _evict(self, keys: list[str], survivors: dict[str, Path]) -> int:
        removed = 0
        for key in keys:
            survivors.pop(key).unlink(missing_ok=True)
            self._present.discard(key)
            removed += 1
        return removed

    def _prune_empty_buckets(self) -> None:
        if not self.objects_dir.is_dir():
            return
        for bucket in self.objects_dir.iterdir():
            if bucket.is_dir() and not any(bucket.iterdir()):
                bucket.rmdir()
