"""The stable public experiment API: sessions, specs, backends, records.

This module is the one import an experiment script needs.  It groups the
library's workflow around four ideas:

* :class:`~repro.specs.AdversarySpec` — a *serializable* description of a
  message adversary (family name + JSON params + optional seed) that any
  worker can rebuild; the unit sweep manifests are made of.
* :class:`~repro.options.CheckOptions` — the checker's tuning knobs as
  one value object, instead of a pile of kwargs.
* :class:`Session` — default options plus an optional result store;
  ``session.check(...)`` accepts specs or live adversaries,
  ``session.sweep(...)`` fans a family out through any
  :class:`~repro.backends.SweepBackend` — including the crash-tolerant
  :class:`~repro.fleet.FleetBackend` — via :func:`run_sweep`.
* :class:`~repro.records.RunRecord` — the single versioned result schema
  every sweep, census, and benchmark writes, with :mod:`repro.analysis`
  reports on top.

Quickstart
----------
>>> from repro.api import AdversarySpec, CheckOptions, Session
>>> session = Session(CheckOptions(max_depth=6))
>>> spec = AdversarySpec("oblivious", {"n": 2, "graphs": [2, 4]})
>>> session.check(spec).status.name
'SOLVABLE'
>>> [r.status for r in session.sweep([spec])]
['solvable']

Importing this module loads the session, the options and the result
store, and nothing else: every other name resolves on first use (PEP 562),
and a session loads the checker when it first runs a check.  So
``Session(store=ResultStore(path))`` loads no module of
:mod:`repro.consensus`, :mod:`repro.topology`, :mod:`repro.backends` or
:mod:`repro.specs`, and a ``check_record`` answered from the store loads
no checker module.

The compatibility wrappers (:func:`repro.consensus.check_consensus` with
keywords, headerless JSONL reading) remain in place; see README "Public
API" for the old → new migration table.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from repro._lazy import lazy_exports
from repro.errors import AdversaryError
from repro.options import CheckOptions
from repro.records import RunRecord, certificate_summary, read_jsonl, write_jsonl
from repro.store.cache import ResultStore

if TYPE_CHECKING:
    from repro.adversaries.base import MessageAdversary
    from repro.analysis import (
        SweepReport,
        json_report_jsonl,
        render_report,
        report_jsonl,
        summarize,
    )
    from repro.backends import (
        ProcessBackend,
        SerialBackend,
        SweepBackend,
        SweepJob,
        jobs_for,
        load_manifest,
        retry_jobs,
        write_manifest,
    )
    from repro.consensus.solvability import (
        SolvabilityResult,
        check_consensus,
        check_consensus_with_options,
    )
    from repro.consensus.spec import ConsensusSpec
    from repro.fleet import FleetBackend
    from repro.specs import (
        AdversarySpec,
        build_adversary,
        families,
        random_rooted_specs,
        register_family,
    )
    from repro.store.backend import CachedBackend

__all__ = [
    "AdversarySpec",
    "CheckOptions",
    "Session",
    "RunRecord",
    "SweepJob",
    "SweepBackend",
    "SerialBackend",
    "ProcessBackend",
    "FleetBackend",
    "CachedBackend",
    "ResultStore",
    "SweepReport",
    "build_adversary",
    "certificate_summary",
    "check_consensus",
    "check_consensus_with_options",
    "families",
    "jobs_for",
    "json_report_jsonl",
    "load_manifest",
    "random_rooted_specs",
    "read_jsonl",
    "register_family",
    "render_report",
    "report_jsonl",
    "retry_jobs",
    "run_sweep",
    "summarize",
    "write_jsonl",
    "write_manifest",
]

# The rest of __all__, and the names the annotations below use: this
# module imported them all eagerly before, so their imports keep working.
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "MessageAdversary": "repro.adversaries.base",
        "SweepReport": "repro.analysis",
        "json_report_jsonl": "repro.analysis",
        "render_report": "repro.analysis",
        "report_jsonl": "repro.analysis",
        "summarize": "repro.analysis",
        "ProcessBackend": "repro.backends",
        "SerialBackend": "repro.backends",
        "SweepBackend": "repro.backends",
        "SweepJob": "repro.backends",
        "jobs_for": "repro.backends",
        "load_manifest": "repro.backends",
        "retry_jobs": "repro.backends",
        "write_manifest": "repro.backends",
        "check_consensus": "repro.consensus.solvability",
        "check_consensus_with_options": "repro.consensus.solvability",
        "SolvabilityResult": "repro.consensus.solvability",
        "ConsensusSpec": "repro.consensus.spec",
        "FleetBackend": "repro.fleet",
        "AdversarySpec": "repro.specs",
        "build_adversary": "repro.specs",
        "families": "repro.specs",
        "random_rooted_specs": "repro.specs",
        "register_family": "repro.specs",
        "CachedBackend": "repro.store.backend",
    },
)


def run_sweep(
    jobs: Sequence[SweepJob],
    workers: int = 1,
    jsonl_path: str | Path | None = None,
    backend: SweepBackend | None = None,
    options: CheckOptions | None = None,
    store: ResultStore | str | Path | None = None,
) -> list[RunRecord]:
    """Classify every job on a sweep backend.

    With an explicit ``backend`` the ``workers`` count is ignored;
    otherwise ``workers <= 1`` runs the inline
    :class:`~repro.backends.SerialBackend` (the fully deterministic
    reference path) and ``workers > 1`` the strided
    :class:`~repro.backends.ProcessBackend`.  A ``store`` (a
    :class:`~repro.store.cache.ResultStore` or a path to one) wraps
    whichever backend was chosen in a
    :class:`~repro.store.backend.CachedBackend`: jobs whose verdicts are
    already cached never reach the backend, and every computed cacheable
    verdict is written back.  The returned records are sorted by job
    index regardless of completion order, and — when ``jsonl_path`` is
    given — are then written to disk in that order via
    :func:`~repro.records.write_jsonl` (one JSON object per line after the
    schema header; the write happens after the backend completes, so an
    interrupted sweep leaves no partial file).
    """
    from repro.backends import ProcessBackend, SerialBackend
    from repro.store.backend import CachedBackend

    jobs = list(jobs)
    if backend is None:
        if workers <= 1 or len(jobs) <= 1:
            backend = SerialBackend()
        else:
            backend = ProcessBackend(min(workers, len(jobs)))
    if store is not None:
        backend = CachedBackend(store, backend)
    records = backend.run(jobs, options)
    if jsonl_path is not None:
        write_jsonl(records, jsonl_path)
    return records


class Session:
    """A reusable checking context: default options + an optional store.

    Each check builds its own :class:`~repro.core.views.ViewInterner`, so
    a finished check's view tables are freed with its result.  Callers
    that want to share view tables across checks on purpose pass one
    interner to :func:`~repro.consensus.solvability.check_consensus`.

    Parameters
    ----------
    options:
        Default :class:`CheckOptions` for every check (individual calls
        may override).
    store:
        Optional content-addressed result store
        (:class:`~repro.store.cache.ResultStore`, or a path that opens
        one).  With a store, :meth:`check_record` and :meth:`sweep`
        serve previously-computed verdicts as O(1) lookups — no checker
        work — and write every newly computed cacheable verdict back.
        :meth:`check` always computes: its
        :class:`SolvabilityResult` carries live certificate objects a
        stored record cannot rebuild.
    """

    def __init__(
        self,
        options: CheckOptions | None = None,
        store: ResultStore | str | Path | None = None,
    ) -> None:
        self.options = options or CheckOptions()
        self.store: ResultStore | None
        if store is None or isinstance(store, ResultStore):
            self.store = store
        else:
            self.store = ResultStore(store)

    @staticmethod
    def _resolve(target: AdversarySpec | MessageAdversary) -> MessageAdversary:
        from repro.specs import AdversarySpec

        if isinstance(target, AdversarySpec):
            return target.build()
        return target

    def check(
        self,
        target: AdversarySpec | MessageAdversary,
        options: CheckOptions | None = None,
        spec: ConsensusSpec | None = None,
    ) -> SolvabilityResult:
        """Check one adversary (or spec) on a fresh view interner.

        ``options`` default to the session's.
        """
        from repro.consensus.solvability import check_consensus_with_options

        return check_consensus_with_options(
            self._resolve(target), options or self.options, spec=spec
        )

    def check_record(
        self,
        target: AdversarySpec | MessageAdversary,
        options: CheckOptions | None = None,
        tags: dict[str, Any] | None = None,
    ) -> RunRecord:
        """Check one adversary to a :class:`RunRecord`, via the store.

        The record-granular sibling of :meth:`check`: one sweep job on a
        ``record_timing=False`` :class:`~repro.backends.SerialBackend`,
        wrapped in a :class:`~repro.store.backend.CachedBackend` when the
        session has a ``store``, so an already-cached (spec, options) pair
        is answered without any checker work and a miss is written back.
        Timing fields are always zero: a record that may be served from
        cache must not depend on when it was computed.  A live adversary's
        spec is resolved first, so its record carries it; adversaries
        without a canonical spec are checked but never cached.
        """
        from repro.backends import SerialBackend, SweepJob
        from repro.specs import AdversarySpec
        from repro.store.backend import CachedBackend

        effective = options or self.options
        adversary: MessageAdversary | None = None
        spec: AdversarySpec | None = None
        if isinstance(target, AdversarySpec):
            spec = target
        else:
            adversary = target
            try:
                spec = AdversarySpec.from_adversary(target)
            except AdversaryError:
                pass
        job = SweepJob(
            0,
            adversary,
            effective.max_depth,
            tags=None if tags is None else dict(tags),
            spec=spec,
        )
        backend: SweepBackend = SerialBackend(record_timing=False)
        if self.store is not None:
            backend = CachedBackend(self.store, backend)
        [record] = backend.run([job], effective)
        return record

    def sweep(
        self,
        targets: Iterable[AdversarySpec | MessageAdversary] | Sequence[SweepJob],
        backend: SweepBackend | None = None,
        workers: int = 1,
        jsonl_path: str | Path | None = None,
        tags: dict[str, Any] | None = None,
        options: CheckOptions | None = None,
        store: ResultStore | str | Path | None = None,
    ) -> list[RunRecord]:
        """Classify a family of specs/adversaries on a sweep backend.

        ``targets`` may be ready-made :class:`SweepJob` lists or plain
        iterables of specs/adversaries (indexed in order, with the
        effective options' ``max_depth`` as each job's depth budget).
        Backend selection matches :func:`run_sweep`; shards build their
        own interners.
        The session's ``store`` (or the per-call ``store`` override) turns
        repeat sweeps of equal specs into pure cache reads — see
        :func:`run_sweep`.
        """
        from repro.backends import SweepJob, jobs_for

        effective = options or self.options
        targets = list(targets)
        if targets and all(isinstance(item, SweepJob) for item in targets):
            jobs = targets
        else:
            jobs = jobs_for(targets, max_depth=effective.max_depth, tags=tags)
        return run_sweep(
            jobs,
            workers=workers,
            jsonl_path=jsonl_path,
            backend=backend,
            options=effective,
            store=store if store is not None else self.store,
        )

    def __repr__(self) -> str:
        return f"Session({self.options!r})"
