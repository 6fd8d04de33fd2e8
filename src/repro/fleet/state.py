"""The fleet directory: every ``repro.fleet-state/1`` document and its rules.

A fleet run is a directory.  Nothing else — no sockets, no locks, no
coordinator process state that matters — so any participant (worker *or*
coordinator) can be SIGKILLed at any instant and a later ``fleet resume``
continues from the files:

.. code-block:: text

    <fleet-dir>/
      fleet.json                    run config (kind "config")
      shards/shard_<k>.json         per-shard job manifests (sweep schema)
      leases/shard_<k>.lease        live claims (kind "lease")
      attempts.json                 coordinator's attempt ledger (kind "attempts")
      attempts/shard_<k>_a<i>.jsonl one output stream per attempt
      attempts/shard_<k>_a<i>.done.json   worker's digest marker (kind "done")
      journal.jsonl                 append-only merge journal (kind "journal")
      poison.json                   quarantined shards (kind "poison")
      merged.jsonl                  merged records (rebuilt atomically)

Ownership is the invariant that makes concurrent crash-safety tractable:
*workers* write only their own lease (atomic create to claim, atomic
replace to heartbeat) and their own attempt files; the *coordinator* is
the single writer of the attempt ledger, the journal, the poison list,
and the merge.  Attempt outputs are never overwritten — each retry gets
a fresh attempt number, so a reaped-but-alive zombie worker can finish
writing its old attempt without corrupting the replacement's, and its
late done marker is rejected simply because the ledger moved on.

Every document carries the :data:`repro.schemas.FLEET_STATE` tag plus a
``kind`` discriminator; readers refuse state they do not understand.
"""

from __future__ import annotations

import json
import os
import random
import sys
from pathlib import Path
from typing import Any, Sequence

from repro.backends import SweepJob, load_manifest, write_manifest
from repro.errors import AnalysisError
from repro.fleet.chaos import ChaosSpec
from repro.fleet.clock import wall_now
from repro.io import atomic
from repro.options import CheckOptions
from repro.records import RunRecord, read_jsonl, write_jsonl
from repro.schemas import FLEET_STATE

__all__ = [
    "FleetConfig",
    "FleetPaths",
    "init_fleet",
    "load_config",
    "load_shard_jobs",
    "read_lease",
    "claim_shard",
    "renew_lease",
    "release_lease",
    "lease_expired",
    "pid_alive",
    "read_attempts",
    "write_attempts",
    "read_poison",
    "write_poison",
    "backoff_delay",
    "append_merge",
    "read_journal",
    "repair_journal",
    "validate_attempt",
    "rebuild_merged",
    "snapshot",
]


class FleetConfig:
    """The immutable parameters of one fleet run (kind ``config``).

    ``shards`` is the number of shard manifests (striding matches
    :class:`~repro.backends.ProcessBackend`, so the merged record set is
    independent of the shard count); ``lease_ttl_s`` how long a claim
    stays valid without a heartbeat; ``heartbeat_s`` the renewal cadence
    (keep it a small fraction of the ttl); ``max_attempts`` the per-shard
    budget before quarantine; backoff between attempts grows as
    ``base * 2^(failures-1)`` capped at ``backoff_cap_s``, jittered by a
    :class:`random.Random` seeded from ``(seed, shard, failures)`` so two
    coordinators compute identical schedules.
    """

    __slots__ = (
        "shards",
        "jobs",
        "record_timing",
        "lease_ttl_s",
        "heartbeat_s",
        "max_attempts",
        "backoff_base_s",
        "backoff_cap_s",
        "poll_s",
        "seed",
        "chaos",
    )

    def __init__(
        self,
        shards: int = 2,
        jobs: int = 0,
        record_timing: bool = True,
        lease_ttl_s: float = 15.0,
        heartbeat_s: float = 3.0,
        max_attempts: int = 4,
        backoff_base_s: float = 0.25,
        backoff_cap_s: float = 5.0,
        poll_s: float = 0.2,
        seed: int = 0,
        chaos: ChaosSpec | None = None,
    ) -> None:
        if shards < 1:
            raise AnalysisError("a fleet needs shards >= 1")
        if max_attempts < 1:
            raise AnalysisError("a fleet needs max_attempts >= 1")
        if lease_ttl_s <= 0 or heartbeat_s <= 0:
            raise AnalysisError("lease_ttl_s and heartbeat_s must be positive")
        self.shards = shards
        self.jobs = jobs
        self.record_timing = record_timing
        self.lease_ttl_s = lease_ttl_s
        self.heartbeat_s = heartbeat_s
        self.max_attempts = max_attempts
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self.poll_s = poll_s
        self.seed = seed
        self.chaos = chaos

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": FLEET_STATE,
            "kind": "config",
            "shards": self.shards,
            "jobs": self.jobs,
            "record_timing": self.record_timing,
            "lease_ttl_s": self.lease_ttl_s,
            "heartbeat_s": self.heartbeat_s,
            "max_attempts": self.max_attempts,
            "backoff_base_s": self.backoff_base_s,
            "backoff_cap_s": self.backoff_cap_s,
            "poll_s": self.poll_s,
            "seed": self.seed,
            "chaos": None if self.chaos is None else self.chaos.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FleetConfig":
        chaos = data.get("chaos")
        return cls(
            shards=data["shards"],
            jobs=data.get("jobs", 0),
            record_timing=data.get("record_timing", True),
            lease_ttl_s=data["lease_ttl_s"],
            heartbeat_s=data["heartbeat_s"],
            max_attempts=data["max_attempts"],
            backoff_base_s=data["backoff_base_s"],
            backoff_cap_s=data["backoff_cap_s"],
            poll_s=data.get("poll_s", 0.2),
            seed=data.get("seed", 0),
            chaos=None if chaos is None else ChaosSpec.from_dict(chaos),
        )

    def __repr__(self) -> str:
        return (
            f"FleetConfig(shards={self.shards}, jobs={self.jobs}, "
            f"ttl={self.lease_ttl_s}s, max_attempts={self.max_attempts})"
        )


class FleetPaths:
    """Path arithmetic for one fleet directory."""

    __slots__ = ("root",)

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    @property
    def config(self) -> Path:
        return self.root / "fleet.json"

    @property
    def journal(self) -> Path:
        return self.root / "journal.jsonl"

    @property
    def attempts_ledger(self) -> Path:
        return self.root / "attempts.json"

    @property
    def poison(self) -> Path:
        return self.root / "poison.json"

    @property
    def merged(self) -> Path:
        return self.root / "merged.jsonl"

    def manifest(self, shard: int) -> Path:
        return self.root / "shards" / f"shard_{shard}.json"

    def lease(self, shard: int) -> Path:
        return self.root / "leases" / f"shard_{shard}.lease"

    def attempt_out(self, shard: int, attempt: int) -> Path:
        return self.root / "attempts" / f"shard_{shard}_a{attempt}.jsonl"

    def attempt_done(self, shard: int, attempt: int) -> Path:
        return self.root / "attempts" / f"shard_{shard}_a{attempt}.done.json"


def _require(doc: dict[str, Any] | None, kind: str, path: Path) -> dict[str, Any]:
    """Schema/kind gate on every state read: refuse what we don't understand."""
    if doc is None:
        raise AnalysisError(f"{path}: missing fleet state document")
    if doc.get("schema") != FLEET_STATE or doc.get("kind") != kind:
        raise AnalysisError(
            f"{path}: expected a {FLEET_STATE!r} {kind!r} document, got "
            f"schema={doc.get('schema')!r} kind={doc.get('kind')!r}"
        )
    return doc


# --------------------------------------------------------------------- #
# Initialization
# --------------------------------------------------------------------- #


def init_fleet(
    root: str | Path,
    jobs: Sequence[SweepJob],
    options: CheckOptions | None,
    config: FleetConfig,
) -> FleetConfig:
    """Lay out a fresh fleet directory for these jobs.

    Shard manifests are written with ``shard=0`` on purpose: the shard id
    stamped into records is a provenance field, and the serial reference
    run stamps 0 everywhere — the fleet's actual shard/attempt provenance
    lives in the journal, keeping the merged bytes identical to
    :class:`~repro.backends.SerialBackend` output.  Refuses a directory
    that already holds a fleet (resume instead of clobbering).
    """
    paths = FleetPaths(root)
    if paths.config.exists():
        raise AnalysisError(
            f"{paths.root} already holds a fleet run; use resume, or point "
            f"the run at a fresh directory"
        )
    jobs = list(jobs)
    if not jobs:
        raise AnalysisError("a fleet run needs at least one job")
    shards = min(config.shards, len(jobs))
    config = FleetConfig(
        shards=shards,
        jobs=len(jobs),
        record_timing=config.record_timing,
        lease_ttl_s=config.lease_ttl_s,
        heartbeat_s=config.heartbeat_s,
        max_attempts=config.max_attempts,
        backoff_base_s=config.backoff_base_s,
        backoff_cap_s=config.backoff_cap_s,
        poll_s=config.poll_s,
        seed=config.seed,
        chaos=config.chaos,
    )
    for sub in ("shards", "leases", "attempts"):
        (paths.root / sub).mkdir(parents=True, exist_ok=True)
    for k in range(shards):
        write_manifest(
            jobs[k::shards],
            paths.manifest(k),
            shard=0,
            options=options,
            record_timing=config.record_timing,
        )
    write_attempts(
        root,
        {
            str(k): {"attempt": 0, "failures": 0, "next_eligible": 0.0}
            for k in range(shards)
        },
    )
    write_poison(root, {})
    # The header goes through the temp-then-replace funnel, not a bare
    # append: a crash between here and the config write leaves a rerun
    # free to re-init, and an appended second header would wedge every
    # later journal parse.  (No merge entries can predate the config, so
    # create-or-truncate is safe.)
    temp = paths.journal.with_name(f".{paths.journal.name}.{os.getpid()}.tmp")
    atomic.append_line(
        temp,
        json.dumps({"schema": FLEET_STATE, "kind": "journal"}, sort_keys=True),
    )
    atomic.atomic_replace_file(temp, paths.journal)
    atomic.atomic_write_json(paths.config, config.to_dict())
    return config


def load_config(root: str | Path) -> FleetConfig:
    paths = FleetPaths(root)
    doc = _require(atomic.read_json(paths.config), "config", paths.config)
    return FleetConfig.from_dict(doc)


def load_shard_jobs(
    root: str | Path, shard: int
) -> tuple[list[SweepJob], CheckOptions, bool]:
    """One shard's (jobs, options, record_timing) from its manifest."""
    manifest = load_manifest(FleetPaths(root).manifest(shard))
    return manifest["jobs"], manifest["options"], manifest["record_timing"]


# --------------------------------------------------------------------- #
# Leases: claim / heartbeat / expiry
# --------------------------------------------------------------------- #


def pid_alive(pid: int) -> bool:
    """Whether a process with this pid exists (signal-0 probe).

    POSIX only: on Windows ``os.kill`` cannot probe — any signal other
    than the CTRL events *terminates* the target — so the answer there is
    "assume alive" and lease expiry rests on the deadline alone.
    """
    if sys.platform == "win32":
        return True
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def read_lease(root: str | Path, shard: int) -> dict[str, Any] | None:
    paths = FleetPaths(root)
    doc = atomic.read_json(paths.lease(shard))
    if doc is None:
        return None
    return _require(doc, "lease", paths.lease(shard))


def claim_shard(
    root: str | Path,
    shard: int,
    worker: str,
    attempt: int,
    ttl_s: float,
    now: float | None = None,
    pid: int | None = None,
) -> bool:
    """Try to claim a shard; True iff this caller won the exclusive create.

    Any number of workers (or whole racing coordinators) may call this
    concurrently for the same shard: the hard-link create in
    :func:`repro.io.atomic.atomic_create_json` guarantees exactly one
    winner, and losers see False without having disturbed the winner's
    lease.
    """
    now = wall_now() if now is None else now
    return atomic.atomic_create_json(
        FleetPaths(root).lease(shard),
        {
            "schema": FLEET_STATE,
            "kind": "lease",
            "shard": shard,
            "worker": worker,
            "pid": os.getpid() if pid is None else pid,
            "attempt": attempt,
            "deadline": now + ttl_s,
        },
    )


def renew_lease(
    root: str | Path,
    shard: int,
    worker: str,
    attempt: int,
    ttl_s: float,
    now: float | None = None,
) -> bool:
    """Heartbeat: extend our own lease; False when we no longer hold it.

    A False return is the zombie signal — the coordinator reaped this
    claim (or the ledger moved past our attempt) while we were running.
    The worker must then stop renewing; its eventual done marker will be
    rejected by attempt number, and the replacement attempt's files are
    distinct by construction.
    """
    now = wall_now() if now is None else now
    lease = read_lease(root, shard)
    if lease is None or lease["worker"] != worker or lease["attempt"] != attempt:
        return False
    try:
        ledger = read_attempts(root)
    except AnalysisError:
        return False
    entry = ledger.get(str(shard))
    if entry is None or entry["attempt"] != attempt:
        return False
    lease = dict(lease)
    lease["deadline"] = now + ttl_s
    atomic.atomic_write_json(FleetPaths(root).lease(shard), lease)
    return True


def release_lease(root: str | Path, shard: int) -> None:
    """Remove a lease file (coordinator after merge/reap, or a worker
    abandoning a claim its post-claim journal re-check disowned)."""
    FleetPaths(root).lease(shard).unlink(missing_ok=True)


def lease_expired(lease: dict[str, Any], now: float | None = None) -> bool:
    """A lease is dead when its deadline passed *or* its holder's pid is gone.

    The pid probe makes crash recovery prompt (no need to wait out the
    ttl after a SIGKILL); the deadline catches live-but-stalled holders.
    """
    now = wall_now() if now is None else now
    if now >= lease["deadline"]:
        return True
    return not pid_alive(lease["pid"])


# --------------------------------------------------------------------- #
# The attempt ledger, backoff, and the poison list (coordinator-owned)
# --------------------------------------------------------------------- #


def read_attempts(root: str | Path) -> dict[str, Any]:
    paths = FleetPaths(root)
    doc = _require(
        atomic.read_json(paths.attempts_ledger), "attempts", paths.attempts_ledger
    )
    shards = doc["shards"]
    if not isinstance(shards, dict):
        raise AnalysisError(f"{paths.attempts_ledger}: malformed ledger")
    return shards


def write_attempts(root: str | Path, shards: dict[str, Any]) -> None:
    atomic.atomic_write_json(
        FleetPaths(root).attempts_ledger,
        {"schema": FLEET_STATE, "kind": "attempts", "shards": shards},
    )


def read_poison(root: str | Path) -> dict[str, Any]:
    paths = FleetPaths(root)
    doc = _require(atomic.read_json(paths.poison), "poison", paths.poison)
    return doc["shards"]


def write_poison(root: str | Path, shards: dict[str, Any]) -> None:
    atomic.atomic_write_json(
        FleetPaths(root).poison,
        {"schema": FLEET_STATE, "kind": "poison", "shards": shards},
    )


def backoff_delay(config: FleetConfig, shard: int, failures: int) -> float:
    """Exponential backoff with deterministic jitter for retry ``failures``.

    ``base * 2^(failures-1)`` capped at ``backoff_cap_s``, scaled by a
    jitter factor in ``[0.5, 1.5)`` drawn from a :class:`random.Random`
    seeded by ``(config.seed, shard, failures)`` — so the schedule is a
    pure function of the run state (repro-lint R3), and two coordinators
    racing over the same ledger agree on every eligibility time.
    """
    exponential = config.backoff_base_s * (2 ** max(0, failures - 1))
    bounded = min(config.backoff_cap_s, exponential)
    rng = random.Random(config.seed * 1000003 + shard * 8191 + failures)
    return bounded * (0.5 + rng.random())


# --------------------------------------------------------------------- #
# The merge journal
# --------------------------------------------------------------------- #


def append_merge(root: str | Path, entry: dict[str, Any]) -> None:
    """Append one completed-merge line (coordinator only)."""
    atomic.append_line(
        FleetPaths(root).journal,
        json.dumps({"kind": "merge", **entry}, sort_keys=True),
    )


def read_journal(root: str | Path) -> list[dict[str, Any]]:
    """The journal's merge entries, tolerating (and ignoring) a torn tail.

    Read-side tolerance means workers and ``fleet status`` never trip
    over a coordinator killed mid-append; actually *truncating* the torn
    line is :func:`repair_journal`, which only the coordinator calls.
    Entries are deduplicated by shard (first wins) — two coordinators
    racing the same validation can journal the same merge twice, and
    idempotence, not exclusion, is what keeps that harmless.
    """
    entries, _ = _parse_journal(root)
    seen: set[int] = set()
    unique = []
    for entry in entries:
        if entry["shard"] in seen:
            continue
        seen.add(entry["shard"])
        unique.append(entry)
    return unique


def _parse_journal(
    root: str | Path,
) -> tuple[list[dict[str, Any]], int | None]:
    """Parse the journal; returns (entries, torn_line_number_or_None)."""
    paths = FleetPaths(root)
    lines = atomic.read_lines(paths.journal)
    if lines is None:
        raise AnalysisError(f"{paths.journal}: fleet journal missing")
    stripped = [
        (number, line.strip())
        for number, line in enumerate(lines, start=1)
        if line.strip()
    ]
    if not stripped:
        raise AnalysisError(f"{paths.journal}: fleet journal has no header")
    entries: list[dict[str, Any]] = []
    for position, (number, line) in enumerate(stripped):
        try:
            data = json.loads(line)
        except json.JSONDecodeError:
            if position == len(stripped) - 1:
                # Torn tail: the coordinator died mid-append.  The entry
                # was never acted on (merged rebuild follows journaling),
                # so dropping it is safe and retrying the shard is
                # idempotent.
                return entries, number
            raise AnalysisError(
                f"{paths.journal}:{number}: corrupt journal line (not a "
                f"torn tail — the journal cannot be trusted)"
            )
        if position == 0:
            _require(data, "journal", paths.journal)
            continue
        if data.get("kind") != "merge":
            raise AnalysisError(
                f"{paths.journal}:{number}: unexpected journal entry kind "
                f"{data.get('kind')!r}"
            )
        entries.append(data)
    return entries, None


def repair_journal(root: str | Path) -> bool:
    """Truncate a torn trailing journal line, atomically; True if repaired."""
    paths = FleetPaths(root)
    entries, torn = _parse_journal(root)
    if torn is None:
        return False
    temp = paths.journal.with_name(f".{paths.journal.name}.{os.getpid()}.tmp")
    header = json.dumps({"schema": FLEET_STATE, "kind": "journal"}, sort_keys=True)
    atomic.append_line(temp, header)
    for entry in entries:
        atomic.append_line(temp, json.dumps(entry, sort_keys=True))
    atomic.atomic_replace_file(temp, paths.journal)
    return True


# --------------------------------------------------------------------- #
# Attempt validation and the merge itself
# --------------------------------------------------------------------- #


def validate_attempt(
    root: str | Path,
    shard: int,
    attempt: int,
    expected_indices: set[int],
) -> tuple[list[RunRecord] | None, str]:
    """Judge one attempt's output; ``(records, "ok")`` or ``(None, why)``.

    The gauntlet: the done marker must exist, the output bytes must match
    the digest the worker published (a torn write after the marker, or a
    chaos corruption, breaks it), the recovery reader must find no torn
    tail, and the record indices must be exactly the shard's job indices.
    Everything else — including unparseable files — is a *retriable*
    verdict, never an exception: damaged output is a normal fleet event.
    """
    paths = FleetPaths(root)
    done = atomic.read_json(paths.attempt_done(shard, attempt))
    if done is None:
        return None, "no done marker"
    done = _require(done, "done", paths.attempt_done(shard, attempt))
    if done.get("shard") != shard or done.get("attempt") != attempt:
        return None, "done marker names a different shard/attempt"
    out = paths.attempt_out(shard, attempt)
    if not out.exists():
        return None, "done marker without output file"
    if atomic.sha256_file(out) != done.get("digest"):
        return None, "output digest mismatch (damaged after completion?)"
    try:
        records, corruption = read_jsonl(out, recover=True)
    except Exception as exc:  # noqa: BLE001 - any damage is a retriable verdict
        return None, f"unreadable output ({type(exc).__name__}: {exc})"
    if corruption is not None:
        return None, f"torn output: {corruption.reason}"
    if len(records) != done.get("records"):
        return None, (
            f"record count {len(records)} != done marker "
            f"{done.get('records')}"
        )
    indices = {record.index for record in records}
    if indices != expected_indices:
        missing = sorted(expected_indices - indices)[:5]
        extra = sorted(indices - expected_indices)[:5]
        return None, f"index mismatch (missing {missing}, extra {extra})"
    return records, "ok"


def rebuild_merged(root: str | Path) -> list[RunRecord]:
    """Rebuild ``merged.jsonl`` from the journal, atomically; idempotent.

    The journal is the source of truth: exactly one attempt per journaled
    shard contributes, each re-verified against its journaled digest, so
    replaying a merge after a coordinator crash can neither lose nor
    duplicate a record.  Records are sorted by job index and written via
    :func:`~repro.records.write_jsonl` to a temp file that is atomically
    swapped in — a reader of ``merged.jsonl`` (live ``fleet status``)
    always sees a complete, valid document.
    """
    paths = FleetPaths(root)
    records: list[RunRecord] = []
    for entry in read_journal(root):
        out = paths.attempt_out(entry["shard"], entry["attempt"])
        if atomic.sha256_file(out) != entry["digest"]:
            raise AnalysisError(
                f"{out}: journaled attempt no longer matches its digest; "
                f"the fleet directory has been tampered with"
            )
        records.extend(read_jsonl(out))
    records.sort(key=lambda record: record.index)
    temp = paths.merged.with_name(f".{paths.merged.name}.{os.getpid()}.tmp")
    write_jsonl(records, temp)
    atomic.atomic_replace_file(temp, paths.merged)
    return records


# --------------------------------------------------------------------- #
# Status snapshot
# --------------------------------------------------------------------- #


def snapshot(root: str | Path, now: float | None = None) -> dict[str, Any]:
    """One consistent-enough picture of a run (kind ``status``).

    Safe to call concurrently with a live run: every file it reads is
    atomically written or append-only.  ``counts`` partitions the shards;
    ``leases`` lists live claims with their remaining ttl.
    """
    now = wall_now() if now is None else now
    config = load_config(root)
    journaled = {entry["shard"] for entry in read_journal(root)}
    poisoned = read_poison(root)
    ledger = read_attempts(root)
    leases = []
    for shard in range(config.shards):
        if shard in journaled:
            continue
        lease = read_lease(root, shard)
        if lease is not None:
            leases.append(
                {
                    "shard": shard,
                    "worker": lease["worker"],
                    "attempt": lease["attempt"],
                    "expires_in_s": round(lease["deadline"] - now, 3),
                    "holder_alive": pid_alive(lease["pid"]),
                }
            )
    pending = [
        shard
        for shard in range(config.shards)
        if shard not in journaled and str(shard) not in poisoned
    ]
    journal = read_journal(root)
    merged_records = sum(entry["records"] for entry in journal)
    return {
        "schema": FLEET_STATE,
        "kind": "status",
        "jobs": config.jobs,
        "counts": {
            "shards": config.shards,
            "merged": len(journaled),
            "poisoned": len(poisoned),
            "pending": len(pending),
            "leased": len(leases),
        },
        "records_merged": merged_records,
        "leases": leases,
        "attempts": {
            shard: dict(entry)
            for shard, entry in sorted(ledger.items(), key=lambda kv: int(kv[0]))
        },
        "poisoned": poisoned,
        "done": len(journaled) + len(poisoned) == config.shards,
    }
