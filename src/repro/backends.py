"""Pluggable sweep backends: serial and process pool, plus shard manifests.

The sweep engine classifies a family of adversaries by fanning independent
:func:`~repro.consensus.solvability.check_consensus` calls somewhere.  The
*where* is a :class:`SweepBackend`:

* :class:`SerialBackend` — everything inline in this process; the fully
  deterministic reference path the other backends are pinned against.
* :class:`ProcessBackend` — the strided ``multiprocessing`` fan-out (shard
  ``k`` runs jobs ``k, k + w, k + 2w, ...``), as introduced by the sharded
  engine revision.
* :class:`~repro.fleet.FleetBackend` (in :mod:`repro.fleet`) — the
  distributed, crash-tolerant backend.  Its shards travel as *manifest*
  files (:func:`write_manifest` / :func:`load_manifest`: JSON lists of
  serializable :class:`~repro.specs.AdversarySpec` descriptions — never
  pickled live objects), so nothing in a shard run refers back to the
  process that wrote it.

All backends return the same :class:`~repro.records.RunRecord` list,
sorted by job index, and accept ``record_timing=False`` to zero the
run-dependent observability fields (``elapsed_s`` wall-clock and
``views_interned`` interner-reuse counts) — this makes equal-spec runs
byte-identical across backends *and shard counts*, which the tests (and
the fault-tolerance guarantees of :mod:`repro.fleet`) assert.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
import time
from pathlib import Path
from typing import Any, Iterable, Iterator, Protocol, Sequence, runtime_checkable

from repro.adversaries.base import MessageAdversary
from repro.consensus.solvability import CheckOptions
from repro.core.views import ViewInterner, _WORKER_CAP_ENV
from repro.errors import AnalysisError
from repro.io.atomic import atomic_write_text
from repro.records import RunRecord, certificate_summary
from repro.schemas import SWEEP_MANIFEST
from repro.specs import AdversarySpec

__all__ = [
    "MANIFEST_SCHEMA",
    "SweepJob",
    "SweepBackend",
    "SerialBackend",
    "ProcessBackend",
    "iter_job_records",
    "jobs_for",
    "retry_jobs",
    "write_manifest",
    "load_manifest",
]

#: Schema tag of shard manifest files (defined in :mod:`repro.schemas`).
MANIFEST_SCHEMA = SWEEP_MANIFEST


class SweepJob:
    """One unit of sweep work: classify an adversary up to ``max_depth``.

    A job carries a live ``adversary``, a serializable ``spec``
    (:class:`~repro.specs.AdversarySpec`), or both.  Spec-carrying jobs
    build their adversary lazily — on whichever worker runs them — which
    is what lets shard manifests ship jobs as JSON.
    """

    __slots__ = ("index", "max_depth", "tags", "spec", "_adversary")

    def __init__(
        self,
        index: int,
        adversary: MessageAdversary | None = None,
        max_depth: int = 6,
        tags: dict[str, Any] | None = None,
        spec: AdversarySpec | None = None,
    ) -> None:
        if adversary is None and spec is None:
            raise AnalysisError("a sweep job needs an adversary or a spec")
        self.index = index
        self.max_depth = max_depth
        #: JSON-able metadata carried through to the record (e.g. family
        #: name, sample seed).
        self.tags = {} if tags is None else tags
        self.spec = spec
        self._adversary = adversary

    @property
    def adversary(self) -> MessageAdversary:
        """The live adversary (built from the spec on first access)."""
        if self._adversary is None:
            assert self.spec is not None  # constructor invariant
            self._adversary = self.spec.build()
        return self._adversary

    def resolved_spec(self) -> AdversarySpec:
        """The job's spec, deriving one from the live adversary if needed.

        Raises :class:`~repro.errors.AdversaryError` for adversary types
        with no canonical serialization — those jobs cannot cross a
        manifest boundary.
        """
        if self.spec is None:
            assert self._adversary is not None  # constructor invariant
            self.spec = AdversarySpec.from_adversary(self._adversary)
        return self.spec

    def to_dict(self) -> dict[str, Any]:
        """Manifest form of the job (requires a resolvable spec)."""
        return {
            "index": self.index,
            "max_depth": self.max_depth,
            "tags": self.tags,
            "spec": self.resolved_spec().to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "SweepJob":
        return cls(
            data["index"],
            max_depth=data["max_depth"],
            tags=data.get("tags"),
            spec=AdversarySpec.from_dict(data["spec"]),
        )

    def __repr__(self) -> str:
        described = (
            self._adversary.name if self._adversary is not None else repr(self.spec)
        )
        return f"SweepJob(#{self.index}, {described}, max_depth={self.max_depth})"


def jobs_for(
    adversaries: Iterable[MessageAdversary | AdversarySpec],
    max_depth: int = 6,
    tags: dict[str, Any] | None = None,
) -> list[SweepJob]:
    """Wrap a family of adversaries (or specs) as indexed sweep jobs."""
    jobs = []
    for index, item in enumerate(adversaries):
        shared = None if tags is None else dict(tags)
        if isinstance(item, AdversarySpec):
            jobs.append(
                SweepJob(
                    index, max_depth=max_depth, tags=shared, spec=item,
                )
            )
        else:
            jobs.append(SweepJob(index, item, max_depth, shared))
    return jobs


def retry_jobs(
    records: Iterable[RunRecord],
    extra_depth: int | None = None,
    max_depth: int | None = None,
    statuses: tuple[str, ...] = ("undecided",),
) -> tuple[list[SweepJob], list[RunRecord]]:
    """Re-queue the undecided frontier of a sweep at a deeper budget.

    ``undecided@d`` records are exactly the scenarios where more depth (or
    a new prover) could earn a verdict; this turns them back into jobs.
    Pass exactly one of ``extra_depth`` (new budget = record's
    ``max_depth`` + ``extra_depth``, the ``--max-depth +2`` CLI form) or
    ``max_depth`` (absolute new budget).  Only records whose status is in
    ``statuses`` are re-queued, and only when the retry can tell the
    checker something new: records without a serialized spec cannot be
    rebuilt, and records whose new budget would not exceed their original
    one would just reproduce the same undecided verdict — both land in
    ``skipped`` instead of a job.  Returns ``(jobs, skipped)``: the retry
    jobs (original indices and tags preserved, retry provenance added to
    the tags) and the matching records that were not re-queued, so
    callers can report rather than silently drop them.
    """
    if (extra_depth is None) == (max_depth is None):
        raise AnalysisError(
            "retry_jobs needs exactly one of extra_depth or max_depth"
        )
    if extra_depth is not None and extra_depth <= 0:
        raise AnalysisError("retry_jobs extra_depth must deepen the budget")
    jobs: list[SweepJob] = []
    skipped: list[RunRecord] = []
    for record in records:
        if record.status not in statuses:
            continue
        if extra_depth is not None:
            depth = record.max_depth + extra_depth
        else:
            assert max_depth is not None  # exactly-one check above
            depth = max_depth
        if record.spec is None or depth <= record.max_depth:
            skipped.append(record)
            continue
        tags = dict(record.tags)
        tags["retry_of_max_depth"] = record.max_depth
        jobs.append(
            SweepJob(
                record.index,
                max_depth=depth,
                tags=tags,
                spec=AdversarySpec.from_dict(record.spec),
            )
        )
    return jobs, skipped


def _validate_jobs(jobs: Sequence[SweepJob]) -> list[SweepJob]:
    jobs = list(jobs)
    if len({job.index for job in jobs}) != len(jobs):
        raise AnalysisError("sweep jobs must carry distinct indices")
    return jobs


def iter_job_records(
    shard: int,
    jobs: Sequence[SweepJob],
    options: CheckOptions | None = None,
    record_timing: bool = True,
) -> Iterator[RunRecord]:
    """Run one shard's jobs inline, yielding each record as it finishes.

    Interners are shared per process count across the shard's jobs, as
    always.  The streaming shape is what the fleet worker consumes — it
    appends each record to its shard output (and checks its lease)
    between checks, so a killed worker leaves a readable record prefix
    rather than nothing.  With ``record_timing=False`` the two
    run-dependent observability fields (``elapsed_s`` and
    ``views_interned`` — the latter depends on how jobs were sharded
    across interners) are zeroed, so equal-spec runs are byte-identical
    across backends and shard counts.
    """
    from repro.consensus.solvability import check_consensus_with_options

    base = options or CheckOptions()
    interners: dict[int, ViewInterner] = {}
    for job in jobs:
        adversary = job.adversary
        interner = interners.get(adversary.n)
        if interner is None:
            interner = interners[adversary.n] = ViewInterner(
                adversary.n,
                layer_backend=base.layer_backend,
                plan_cache_size=base.plan_cache_size,
                extension_workers=base.extension_workers,
            )
        before = len(interner)
        start = time.perf_counter()
        result = check_consensus_with_options(
            adversary, base.replace(max_depth=job.max_depth), interner=interner
        )
        elapsed = time.perf_counter() - start
        spec = job.spec
        yield RunRecord(
            index=job.index,
            adversary=adversary.name,
            n=adversary.n,
            alphabet=len(adversary.alphabet()),
            max_depth=job.max_depth,
            status=result.status.value,
            certified_depth=result.certified_depth,
            certificate=certificate_summary(result),
            elapsed_s=elapsed if record_timing else 0.0,
            views_interned=(len(interner) - before) if record_timing else 0,
            shard=shard,
            tags=job.tags,
            family=spec.family if spec is not None else None,
            seed=spec.seed if spec is not None else None,
            spec=spec.to_dict() if spec is not None else None,
        )


def _run_jobs(
    shard: int,
    jobs: Sequence[SweepJob],
    options: CheckOptions | None = None,
    record_timing: bool = True,
) -> list[RunRecord]:
    """Run one shard's jobs inline (the eager form of the iterator)."""
    return list(iter_job_records(shard, jobs, options, record_timing))


@runtime_checkable
class SweepBackend(Protocol):
    """Anything that can execute a list of sweep jobs.

    Implementations return one :class:`~repro.records.RunRecord` per job,
    sorted by job index.  ``options`` carries the checker configuration
    shared by all jobs (each job's ``max_depth`` still wins for its own
    depth bound, preserving per-job deepening limits).
    """

    def run(
        self,
        jobs: Sequence[SweepJob],
        options: CheckOptions | None = None,
    ) -> list[RunRecord]:
        ...


class SerialBackend:
    """Run every job inline in this process (the reference backend)."""

    def __init__(self, record_timing: bool = True) -> None:
        self.record_timing = record_timing

    def run(
        self,
        jobs: Sequence[SweepJob],
        options: CheckOptions | None = None,
    ) -> list[RunRecord]:
        jobs = _validate_jobs(jobs)
        records = _run_jobs(0, jobs, options, self.record_timing)
        records.sort(key=lambda record: record.index)
        return records


def _pool_context() -> multiprocessing.context.BaseContext:
    """Prefer fork on Linux (cheap, shares the graph intern table).

    Elsewhere use the platform default: fork is unsafe with threads on
    macOS (CPython itself switched that default to spawn), and spawn
    requires only that jobs and records pickle, which they do.
    """
    if sys.platform == "linux":
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _run_shard(
    payload: tuple[int, Sequence[SweepJob], CheckOptions, bool],
) -> list[RunRecord]:
    """Top-level worker entry point (must be picklable for spawn contexts).

    Clamps per-check extension workers to 1 before running: the sweep
    already owns the machine's parallelism at job granularity, so a check
    forking its own layer-extension workers inside a pool worker would
    silently oversubscribe to ``workers x extension_workers`` processes.
    The env guard reaches every interner the shard creates (the cap is
    read at dispatch time) without mutating the options it records.
    """
    shard, jobs, options, record_timing = payload
    os.environ[_WORKER_CAP_ENV] = "1"
    return _run_jobs(shard, jobs, options, record_timing)


class ProcessBackend:
    """Fan shards across a local ``multiprocessing`` pool.

    Shard ``k`` runs jobs ``k, k + workers, k + 2*workers, ...`` — strided,
    deterministic: a sweep's record set is a pure function of
    ``(jobs, workers)``.  Jobs cross the process boundary by pickling; jobs
    that carry only a spec ship the spec and build on the worker.
    """

    def __init__(self, workers: int, record_timing: bool = True) -> None:
        if workers < 1:
            raise AnalysisError("ProcessBackend needs workers >= 1")
        self.workers = workers
        self.record_timing = record_timing

    def run(
        self,
        jobs: Sequence[SweepJob],
        options: CheckOptions | None = None,
    ) -> list[RunRecord]:
        jobs = _validate_jobs(jobs)
        workers = min(self.workers, len(jobs))
        if workers <= 1:
            records = _run_jobs(0, jobs, options, self.record_timing)
        else:
            shards = [
                (k, jobs[k::workers], options, self.record_timing)
                for k in range(workers)
            ]
            with _pool_context().Pool(workers) as pool:
                shard_records = pool.map(_run_shard, shards)
            records = [record for shard in shard_records for record in shard]
        records.sort(key=lambda record: record.index)
        return records


# --------------------------------------------------------------------- #
# Shard manifests: the file interface of distributed runners
# --------------------------------------------------------------------- #


def write_manifest(
    jobs: Sequence[SweepJob],
    path: str | Path,
    shard: int = 0,
    options: CheckOptions | None = None,
    record_timing: bool = True,
) -> Path:
    """Write one shard's jobs as a self-contained JSON manifest.

    The manifest embeds everything an independent runner needs: the shard
    id (stamped into the records), the full checker options, and one
    serializable spec per job.  Jobs holding only live adversaries are
    converted via :meth:`SweepJob.resolved_spec`, which fails loudly for
    adversary types without a canonical serialization.  The write is
    atomic and fsynced: a crash leaves the old manifest or the new one.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "schema": MANIFEST_SCHEMA,
        "shard": shard,
        "options": (options or CheckOptions()).to_dict(),
        "record_timing": record_timing,
        "jobs": [job.to_dict() for job in _validate_jobs(jobs)],
    }
    atomic_write_text(path, json.dumps(payload, sort_keys=True, indent=1) + "\n")
    return path


def load_manifest(path: str | Path) -> dict[str, Any]:
    """Parse and validate a shard manifest; jobs come back as ``SweepJob``."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if data.get("schema") != MANIFEST_SCHEMA:
        raise AnalysisError(
            f"{path}: not a sweep manifest (schema {data.get('schema')!r}, "
            f"expected {MANIFEST_SCHEMA!r})"
        )
    return {
        "shard": data.get("shard", 0),
        "options": CheckOptions.from_dict(data.get("options", {})),
        "record_timing": data.get("record_timing", True),
        "jobs": [SweepJob.from_dict(job) for job in data["jobs"]],
    }
