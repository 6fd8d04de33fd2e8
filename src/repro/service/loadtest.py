"""Concurrent load harness for the consensus-query service.

Drives a configurable mix of *hot* queries (drawn round-robin from a
small pre-warmed pool of specs, expected to be O(1) store lookups) and
*cold* queries (each a distinct never-seen spec, expected to queue onto
the worker pool) against a live server, from many concurrent client
connections, and then audits the exchange:

* every request carries a unique ``id``;
* the multiset of response ids must equal the multiset of request ids —
  one terminal response per request, none lost, none duplicated;
* hot requests must come back ``"hot": true``.

The mix schedule is deterministic (query ``i`` is cold iff
``i % cold_stride == 0``) — no entropy, per lint rule R3 — so two runs
of the harness issue the identical query sequence.  Latency statistics
use ``time.perf_counter`` (monotonic, allowed by R3) and are reported,
not asserted: the correctness claims are the id audit and the hot flags.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Any, Sequence

from repro.errors import AnalysisError
from repro.options import CheckOptions
from repro.schemas import SERVICE_PROTOCOL
from repro.specs import AdversarySpec

__all__ = ["LoadReport", "run_load_test", "default_hot_specs", "default_cold_specs"]


def default_hot_specs(count: int = 4) -> list[AdversarySpec]:
    """A small pool of cheap, distinct specs to pre-warm as the hot set."""
    if count < 1:
        raise AnalysisError("need at least one hot spec")
    return [
        AdversarySpec("random-oblivious", {"n": 2, "size": 2}, seed=seed)
        for seed in range(count)
    ]


def default_cold_specs(count: int) -> list[AdversarySpec]:
    """``count`` distinct never-repeating specs for the cold stream.

    Seeds are offset far away from :func:`default_hot_specs` so the two
    pools can never alias to the same cache key.
    """
    return [
        AdversarySpec("random-oblivious", {"n": 2, "size": 2}, seed=1_000_000 + index)
        for index in range(count)
    ]


class LoadReport:
    """Outcome of one load-test run (see :func:`run_load_test`)."""

    __slots__ = (
        "total",
        "hot_requests",
        "cold_requests",
        "responses",
        "hot_hits",
        "errors",
        "lost_ids",
        "duplicated_ids",
        "mismatched_hot",
        "hot_latency_s",
        "cold_latency_s",
    )

    def __init__(self) -> None:
        self.total = 0
        self.hot_requests = 0
        self.cold_requests = 0
        self.responses = 0
        self.hot_hits = 0
        self.errors = 0
        self.lost_ids: list[str] = []
        self.duplicated_ids: list[str] = []
        #: Requests issued against a pre-warmed spec that did not come
        #: back ``"hot": true`` — should be empty after warm-up.
        self.mismatched_hot = 0
        self.hot_latency_s: list[float] = []
        self.cold_latency_s: list[float] = []

    @property
    def ok(self) -> bool:
        """No lost, duplicated, errored, or wrongly-cold responses."""
        return (
            self.responses == self.total
            and not self.lost_ids
            and not self.duplicated_ids
            and self.errors == 0
            and self.mismatched_hot == 0
        )

    @staticmethod
    def _percentile(samples: list[float], fraction: float) -> float | None:
        if not samples:
            return None
        ordered = sorted(samples)
        position = min(len(ordered) - 1, int(fraction * len(ordered)))
        return ordered[position]

    def to_dict(self) -> dict[str, Any]:
        return {
            "ok": self.ok,
            "total": self.total,
            "hot_requests": self.hot_requests,
            "cold_requests": self.cold_requests,
            "responses": self.responses,
            "hot_hits": self.hot_hits,
            "errors": self.errors,
            "lost": len(self.lost_ids),
            "duplicated": len(self.duplicated_ids),
            "mismatched_hot": self.mismatched_hot,
            "hot_latency_p50_s": self._percentile(self.hot_latency_s, 0.50),
            "hot_latency_p99_s": self._percentile(self.hot_latency_s, 0.99),
            "cold_latency_p50_s": self._percentile(self.cold_latency_s, 0.50),
            "cold_latency_p99_s": self._percentile(self.cold_latency_s, 0.99),
        }


class _Client:
    """One NDJSON client connection."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def connect(cls, host: str, port: int) -> "_Client":
        reader, writer = await asyncio.open_connection(host, port)
        hello = json.loads((await reader.readline()).decode("utf-8"))
        if hello.get("schema") != SERVICE_PROTOCOL:
            raise AnalysisError(
                f"server speaks {hello.get('schema')!r}, "
                f"expected {SERVICE_PROTOCOL!r}"
            )
        return cls(reader, writer)

    async def request(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Send one request; read lines until its terminal response.

        Progress events (lines with an ``event`` field) are consumed and
        discarded — the terminal line is the one carrying ``ok``.
        """
        self.writer.write(json.dumps(payload).encode("utf-8") + b"\n")
        await self.writer.drain()
        while True:
            line = await self.reader.readline()
            if not line:
                raise ConnectionError("server closed mid-request")
            response = json.loads(line.decode("utf-8"))
            if "ok" in response:
                return response

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def _warm(
    host: str, port: int, specs: Sequence[AdversarySpec], options: CheckOptions
) -> None:
    client = await _Client.connect(host, port)
    try:
        for index, spec in enumerate(specs):
            response = await client.request(
                {
                    "op": "query",
                    "id": f"warm-{index}",
                    "spec": spec.to_dict(),
                    "options": options.to_dict(),
                    "wait": True,
                }
            )
            if not response.get("ok"):
                raise AnalysisError(f"warm-up query failed: {response}")
    finally:
        await client.close()


async def run_load_test(
    host: str,
    port: int,
    total: int = 1000,
    cold_stride: int = 10,
    connections: int = 50,
    hot_specs: Sequence[AdversarySpec] | None = None,
    options: CheckOptions | None = None,
    warm: bool = True,
) -> LoadReport:
    """Drive ``total`` mixed queries over ``connections`` concurrent clients.

    Query ``i`` is cold iff ``i % cold_stride == 0`` (so ``cold_stride=10``
    is the 90/10 hot/cold mix); hot queries cycle through ``hot_specs``.
    Cold queries use ``wait=True`` (the response is the record); hot
    queries omit it — a hot lookup answers immediately either way, and a
    non-hot answer to a hot request is counted in ``mismatched_hot``.
    Queries are pre-partitioned round-robin across the connections, each
    connection runs its slice sequentially, all connections run
    concurrently.
    """
    if total < 1:
        raise AnalysisError("load test needs total >= 1")
    if cold_stride < 1:
        raise AnalysisError("load test needs cold_stride >= 1")
    if connections < 1:
        raise AnalysisError("load test needs connections >= 1")
    specs = list(hot_specs) if hot_specs is not None else default_hot_specs()
    opts = options if options is not None else CheckOptions(max_depth=2)
    if warm:
        await _warm(host, port, specs, opts)

    cold_needed = len(range(0, total, cold_stride))
    cold_pool = default_cold_specs(cold_needed)
    requests: list[tuple[str, bool, AdversarySpec]] = []
    cold_used = 0
    for index in range(total):
        cold = index % cold_stride == 0
        if cold:
            spec = cold_pool[cold_used]
            cold_used += 1
        else:
            spec = specs[index % len(specs)]
        requests.append((f"q-{index}", cold, spec))

    report = LoadReport()
    report.total = total
    report.cold_requests = sum(1 for _, cold, _ in requests if cold)
    report.hot_requests = total - report.cold_requests
    seen: dict[str, int] = {}
    lock = asyncio.Lock()

    async def drive(slice_requests: list[tuple[str, bool, AdversarySpec]]) -> None:
        client = await _Client.connect(host, port)
        try:
            for request_id, cold, spec in slice_requests:
                payload: dict[str, Any] = {
                    "op": "query",
                    "id": request_id,
                    "spec": spec.to_dict(),
                    "options": opts.to_dict(),
                }
                if cold:
                    payload["wait"] = True
                start = time.perf_counter()
                response = await client.request(payload)
                elapsed = time.perf_counter() - start
                async with lock:
                    report.responses += 1
                    seen[request_id] = seen.get(request_id, 0) + 1
                    if response.get("id") != request_id:
                        # A response for an id we never sent on this
                        # connection is a routing bug: count it lost
                        # below and flag the stray as duplicated.
                        seen[str(response.get("id"))] = (
                            seen.get(str(response.get("id")), 0) + 1
                        )
                        seen[request_id] -= 1
                    if not response.get("ok"):
                        report.errors += 1
                    elif cold:
                        report.cold_latency_s.append(elapsed)
                    else:
                        report.hot_latency_s.append(elapsed)
                        if response.get("hot"):
                            report.hot_hits += 1
                        else:
                            report.mismatched_hot += 1
        finally:
            await client.close()

    slices = [requests[k::connections] for k in range(connections)]
    await asyncio.gather(*(drive(s) for s in slices if s))

    for request_id, _, _ in requests:
        count = seen.get(request_id, 0)
        if count == 0:
            report.lost_ids.append(request_id)
        elif count > 1:
            report.duplicated_ids.append(request_id)
    return report
