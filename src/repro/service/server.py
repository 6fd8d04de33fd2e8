"""The asyncio consensus-query server behind ``repro-consensus serve``.

Protocol (:data:`~repro.schemas.SERVICE_PROTOCOL`): newline-delimited
JSON over TCP.  On connect the server sends one hello line::

    {"schema": "repro.service-protocol/1", "ok": true, ...}

and then answers one response (or, for waiting queries, a short event
stream ending in one terminal response) per request line.  Every request
carries a client-chosen ``id`` which every line sent for it echoes back
— the property the load harness uses to prove no response is lost or
duplicated.  Requests:

``{"op": "query", "id": ..., "spec": {...}, "options": {...}?, "wait": bool?}``
    Classify one adversary.  Hot path: the (spec, options) pair hashes
    to a key already in the store — answered immediately from the event
    loop, no checker work, ``"hot": true``.  Cold path: the query
    coalesces by cache key with any identical in-flight query and joins
    the bounded worker queue.  With ``"wait": true`` the connection
    streams ``queued`` / ``started`` events and then the terminal record
    response; otherwise it gets ``{"accepted": true, "job": <key>}``
    back at once and polls ``status``.  A full queue rejects the query
    (``"error": "queue full"``) rather than buffering unboundedly.
``{"op": "status", "id": ..., "job": <key>}``
    One of ``queued`` / ``running`` / ``done`` (with the record) /
    ``unknown``.  Jobs finish into the store, so ``done`` survives
    server restarts — any key whose object exists reports done.
``{"op": "stats", "id": ...}``
    Store counters plus live queue/inflight depths and the count of
    cold jobs that failed.
``{"op": "ping", "id": ...}``
    Liveness probe.

Checker work runs on a thread pool (``workers`` threads) via
``run_in_executor``; the store is touched only from the event loop, so
its counters and journal never race.  Worker threads are CPU-bound and
GIL-serialized — the pool bounds memory and keeps the event loop (and
therefore every hot query) responsive, which is the point: hot queries
are O(1) *regardless* of how much cold work is queued behind them.

Importing this module loads the checker with the store, the specs and
the sweep backends: a server exists to run checks, so no query waits on
that import.  (Imported later, at :meth:`QueryService.start`, after a
host process had imported scipy, the checker's modules held about 3 MB
more of the server's memory.)  A process that only reads the store
imports :mod:`repro.store`, which loads none of it.
"""

from __future__ import annotations

import asyncio
import json
import logging
import re
from concurrent.futures import ThreadPoolExecutor
from typing import Any

import repro.consensus.solvability  # noqa: F401  (loaded with the server; see above)
from repro.backends import SerialBackend, SweepJob
from repro.errors import AnalysisError, ReproError
from repro.options import CheckOptions
from repro.records import RunRecord
from repro.schemas import SERVICE_PROTOCOL
from repro.specs import AdversarySpec
from repro.store.cache import ResultStore
from repro.store.keys import cache_key

__all__ = ["QueryService", "execute_query"]

_log = logging.getLogger(__name__)

#: Longest request line the server will read before dropping the client
#: (a spec dict is a few hundred bytes; a megabyte is already hostile).
_LINE_LIMIT = 1 << 20

#: A job key is a :func:`~repro.store.keys.cache_key` digest: 64 lowercase
#: hex characters.  ``status`` refuses anything else before touching the
#: store, which joins the key into a file path.
_JOB_KEY = re.compile(r"[0-9a-f]{64}")


def execute_query(
    spec_dict: dict[str, Any], options_dict: dict[str, Any]
) -> dict[str, Any]:
    """Run one cold query to a normalized record dict (worker entry point).

    Top-level and argument/return-picklable on purpose, so the service
    can move it onto any executor.  Uses the ``record_timing=False``
    serial backend — the exact configuration whose records the store
    caches byte-identically.
    """
    spec = AdversarySpec.from_dict(spec_dict)
    options = CheckOptions.from_dict(options_dict)
    job = SweepJob(0, max_depth=options.max_depth, spec=spec)
    [record] = SerialBackend(record_timing=False).run([job], options)
    return record.to_dict()


class _Job:
    """One coalesced cold computation, identified by its cache key."""

    __slots__ = ("key", "spec_dict", "options_dict", "state", "started", "done")

    def __init__(
        self,
        key: str,
        spec_dict: dict[str, Any],
        options_dict: dict[str, Any],
    ) -> None:
        self.key = key
        self.spec_dict = spec_dict
        self.options_dict = options_dict
        #: ``queued`` -> ``running`` -> (job leaves the table: the store
        #: answers ``done`` from then on).
        self.state = "queued"
        #: Fires when a worker dequeues the job (progress streaming).
        self.started: asyncio.Event = asyncio.Event()
        #: Fires when the job reaches the store (or fails); waiters and
        #: the status endpoint read the store afterwards.
        self.done: asyncio.Event = asyncio.Event()


class QueryService:
    """The query server: one store, one bounded cold-work queue.

    Use as an async context manager or call :meth:`start` /
    :meth:`stop`; :meth:`serve_forever` is the CLI entry.
    """

    def __init__(
        self,
        store: ResultStore,
        workers: int = 2,
        queue_limit: int = 64,
    ) -> None:
        if workers < 1:
            raise AnalysisError("QueryService needs workers >= 1")
        if queue_limit < 1:
            raise AnalysisError("QueryService needs queue_limit >= 1")
        self.store = store
        self.workers = workers
        self.queue_limit = queue_limit
        #: Cold queries answered without checker work because an equal
        #: key was already in flight when they arrived.
        self.coalesced = 0
        self.rejected = 0
        self.queries = 0
        #: Cold jobs that raised instead of producing a record.
        self.failed = 0
        self._jobs: dict[str, _Job] = {}
        self._queue: asyncio.Queue[_Job] = asyncio.Queue()
        self._executor: ThreadPoolExecutor | None = None
        self._worker_tasks: list[asyncio.Task[None]] = []
        self._server: asyncio.AbstractServer | None = None

    # ------------------------------------------------------------- #
    # Lifecycle
    # ------------------------------------------------------------- #

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        """Bind and start serving; returns the bound (host, port)."""
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-query"
        )
        self._worker_tasks = [
            asyncio.get_running_loop().create_task(self._worker())
            for _ in range(self.workers)
        ]
        self._server = await asyncio.start_server(
            self._handle_connection, host, port, limit=_LINE_LIMIT
        )
        sockname = self._server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in self._worker_tasks:
            task.cancel()
        for task in self._worker_tasks:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._worker_tasks = []
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    async def serve_forever(self) -> None:
        assert self._server is not None, "start() first"
        async with self._server:
            await self._server.serve_forever()

    async def __aenter__(self) -> "QueryService":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop()

    # ------------------------------------------------------------- #
    # Connection handling
    # ------------------------------------------------------------- #

    @staticmethod
    async def _send(writer: asyncio.StreamWriter, payload: dict[str, Any]) -> None:
        writer.write(json.dumps(payload, sort_keys=True).encode("utf-8") + b"\n")
        await writer.drain()

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            await self._send(
                writer,
                {"schema": SERVICE_PROTOCOL, "ok": True, "server": "repro-consensus"},
            )
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    break  # oversized request: drop the client
                if not line:
                    break
                line = line.strip()
                if not line:
                    continue
                await self._handle_request_line(writer, line)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-exchange; nothing to clean up
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _handle_request_line(
        self, writer: asyncio.StreamWriter, line: bytes
    ) -> None:
        try:
            request = json.loads(line.decode("utf-8"))
            if not isinstance(request, dict):
                raise ValueError("requests are JSON objects")
        except (ValueError, UnicodeDecodeError):
            await self._send(
                writer, {"ok": False, "id": None, "error": "unparsable request"}
            )
            return
        request_id = request.get("id")
        op = request.get("op")
        try:
            if op == "ping":
                await self._send(writer, {"ok": True, "id": request_id, "pong": True})
            elif op == "stats":
                await self._send(
                    writer, {"ok": True, "id": request_id, "stats": self.stats()}
                )
            elif op == "status":
                await self._send(writer, self._status(request_id, request))
            elif op == "query":
                await self._handle_query(writer, request_id, request)
            else:
                await self._send(
                    writer,
                    {"ok": False, "id": request_id, "error": f"unknown op {op!r}"},
                )
        except ReproError as exc:
            await self._send(writer, {"ok": False, "id": request_id, "error": str(exc)})

    def stats(self) -> dict[str, Any]:
        stats = self.store.stats()
        stats.update(
            {
                "queries": self.queries,
                "coalesced": self.coalesced,
                "rejected": self.rejected,
                "failed": self.failed,
                "queued": self._queue.qsize(),
                "inflight": len(self._jobs),
                "workers": self.workers,
                "queue_limit": self.queue_limit,
            }
        )
        return stats

    def _status(self, request_id: Any, request: dict[str, Any]) -> dict[str, Any]:
        key = request.get("job")
        if not isinstance(key, str) or _JOB_KEY.fullmatch(key) is None:
            return {"ok": False, "id": request_id, "error": "status needs a job key"}
        job = self._jobs.get(key)
        if job is not None:
            return {"ok": True, "id": request_id, "job": key, "state": job.state}
        record = self.store.get_by_key(key)
        if record is not None:
            return {
                "ok": True,
                "id": request_id,
                "job": key,
                "state": "done",
                "record": record.to_dict(),
            }
        return {"ok": True, "id": request_id, "job": key, "state": "unknown"}

    # ------------------------------------------------------------- #
    # Queries
    # ------------------------------------------------------------- #

    async def _handle_query(
        self, writer: asyncio.StreamWriter, request_id: Any, request: dict[str, Any]
    ) -> None:
        self.queries += 1
        spec_dict = request.get("spec")
        if not isinstance(spec_dict, dict):
            await self._send(
                writer, {"ok": False, "id": request_id, "error": "query needs a spec"}
            )
            return
        options_request = request.get("options", {})
        if not isinstance(options_request, dict):
            await self._send(
                writer,
                {"ok": False, "id": request_id, "error": "options must be an object"},
            )
            return
        # Validation (unknown families, unknown option keys) raises
        # ReproError, answered as an error response by the caller.
        spec = AdversarySpec.from_dict(spec_dict)
        options = CheckOptions.from_dict(options_request)
        key = cache_key(spec, options)

        record = self.store.get_by_key(key)
        if record is not None:
            await self._send(
                writer,
                {
                    "ok": True,
                    "id": request_id,
                    "hot": True,
                    "job": key,
                    "record": record.to_dict(),
                },
            )
            return

        job = self._jobs.get(key)
        if job is None:
            if self._queue.qsize() >= self.queue_limit:
                self.rejected += 1
                await self._send(
                    writer,
                    {"ok": False, "id": request_id, "job": key, "error": "queue full"},
                )
                return
            job = _Job(key, spec.to_dict(), options.to_dict())
            self._jobs[key] = job
            self._queue.put_nowait(job)
        else:
            self.coalesced += 1

        if not request.get("wait"):
            await self._send(
                writer,
                {
                    "ok": True,
                    "id": request_id,
                    "accepted": True,
                    "job": key,
                    "state": job.state,
                },
            )
            return

        await self._send(
            writer, {"id": request_id, "event": job.state, "job": key}
        )
        await self._stream_wait(writer, request_id, job)

    async def _stream_wait(
        self, writer: asyncio.StreamWriter, request_id: Any, job: _Job
    ) -> None:
        # Progress: emit "started" when the job leaves the queue, then
        # the terminal response once it lands in the store (or fails).
        if job.state == "queued":
            await job.started.wait()
            await self._send(
                writer, {"id": request_id, "event": "started", "job": job.key}
            )
        await job.done.wait()
        record = self.store.get_by_key(job.key)
        if record is None:
            await self._send(
                writer,
                {
                    "ok": False,
                    "id": request_id,
                    "job": job.key,
                    "error": "query execution failed",
                },
            )
            return
        await self._send(
            writer,
            {
                "ok": True,
                "id": request_id,
                "hot": False,
                "job": job.key,
                "record": record.to_dict(),
            },
        )

    # ------------------------------------------------------------- #
    # Cold-work pool
    # ------------------------------------------------------------- #

    async def _worker(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            job = await self._queue.get()
            job.state = "running"
            job.started.set()
            try:
                record_dict = await loop.run_in_executor(
                    self._executor, execute_query, job.spec_dict, job.options_dict
                )
                # Store writes stay on the event loop: counters and the
                # journal are only ever touched from here.
                self.store.put(
                    AdversarySpec.from_dict(job.spec_dict),
                    CheckOptions.from_dict(job.options_dict),
                    RunRecord.from_dict(record_dict),
                )
            except Exception:
                # Whatever a cold job raises (a ReproError, or a KeyError
                # from malformed family params deep in a spec build) fails
                # that job alone: the worker stays in the pool, and the
                # job's waiters find no record and answer "query execution
                # failed".
                self.failed += 1
                _log.exception("cold query %s failed", job.key)
            finally:
                del self._jobs[job.key]
                job.done.set()
                self._queue.task_done()
