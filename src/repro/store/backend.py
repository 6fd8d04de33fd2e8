"""A caching decorator over any :class:`~repro.backends.SweepBackend`.

:class:`CachedBackend` splits a job list into cache hits and misses:
hits are served straight from the :class:`~repro.store.cache.ResultStore`
(no checker work at all — the interner never sees them), misses fan out
to the wrapped backend exactly as they would have without the cache, and
every cacheable miss result is written back, so the next equal-spec sweep
is all hits.

Key derivation mirrors :func:`~repro.backends.iter_job_records` exactly:
each job's effective options are ``base.replace(max_depth=job.max_depth)``
— the per-job depth wins, everything else comes from the sweep-wide
options.  Jobs whose adversary has no canonical serialization
(``resolved_spec`` raises) cannot be content-addressed; they pass through
to the wrapped backend uncached, counted in ``uncacheable``.

Served hits carry the *requesting* job's ``index`` and ``tags`` over the
stored normalized record, with timing fields zeroed — byte-identical to
what a ``record_timing=False`` serial run of the same jobs produces.
(Wrap a ``record_timing=False`` inner backend when a sweep must be
byte-stable across its own hot/cold boundary; with timing on, misses
carry real timings while hits are zero, which is visible and deliberate.)
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

from repro.backends import SerialBackend, SweepBackend, SweepJob, _validate_jobs
from repro.errors import AdversaryError
from repro.options import CheckOptions
from repro.records import RunRecord
from repro.specs import AdversarySpec
from repro.store.cache import ResultStore

__all__ = ["CachedBackend"]


class CachedBackend:
    """Serve sweep jobs from a result store; fan misses to ``inner``.

    Parameters
    ----------
    store:
        The :class:`ResultStore` (or a path, which opens one).
    inner:
        The backend that computes misses; defaults to a
        ``record_timing=False`` :class:`~repro.backends.SerialBackend`,
        the configuration under which hot and cold records are
        byte-identical.
    """

    def __init__(
        self,
        store: ResultStore | str | Path,
        inner: SweepBackend | None = None,
    ) -> None:
        self.store = store if isinstance(store, ResultStore) else ResultStore(store)
        self.inner = inner if inner is not None else SerialBackend(record_timing=False)
        #: Jobs passed through uncached because their adversary has no
        #: canonical spec (session observability, like the store counters).
        self.uncacheable = 0

    def run(
        self,
        jobs: Sequence[SweepJob],
        options: CheckOptions | None = None,
    ) -> list[RunRecord]:
        jobs = _validate_jobs(jobs)
        base = options or CheckOptions()
        records: list[RunRecord] = []
        pending: list[SweepJob] = []
        cacheable: dict[int, tuple[AdversarySpec, CheckOptions]] = {}
        for job in jobs:
            try:
                spec = job.resolved_spec()
            except AdversaryError:
                self.uncacheable += 1
                pending.append(job)
                continue
            effective = base.replace(max_depth=job.max_depth)
            cached = self.store.get(spec, effective)
            if cached is not None:
                records.append(_serve(cached, job))
            else:
                cacheable[job.index] = (spec, effective)
                pending.append(job)
        if pending:
            computed = self.inner.run(pending, base)
            for record in computed:
                addressed = cacheable.get(record.index)
                if addressed is not None:
                    spec, effective = addressed
                    self.store.put(spec, effective, record)
            records.extend(computed)
        records.sort(key=lambda record: record.index)
        return records


def _serve(cached: RunRecord, job: SweepJob) -> RunRecord:
    """Rehydrate a normalized stored record for one requesting job.

    Only the two request-scoped fields differ between equal-key jobs:
    the caller's job ``index`` and its ``tags``.  Everything else —
    including the zeroed timing fields — comes from the store, which is
    exactly the ``record_timing=False`` serial shape.
    """
    data = cached.to_dict()
    data["index"] = job.index
    data["tags"] = dict(job.tags)
    return RunRecord.from_dict(data)
