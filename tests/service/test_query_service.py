"""The asyncio consensus-query service: protocol, coalescing, hot path."""

import asyncio
import json

import pytest

from repro.backends import SerialBackend, jobs_for
from repro.consensus.solvability import CheckOptions
from repro.errors import AnalysisError
from repro.schemas import SERVICE_PROTOCOL
from repro.service import QueryService, execute_query
from repro.service.loadtest import _Client
from repro.specs import AdversarySpec
from repro.store import ResultStore, cache_key

OPTIONS = CheckOptions(max_depth=2)


def spec_for(seed: int) -> AdversarySpec:
    return AdversarySpec("random-oblivious", {"n": 2, "size": 2}, seed=seed)


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=60))


async def with_service(store, fn, **kwargs):
    service = QueryService(store, **kwargs)
    host, port = await service.start()
    try:
        return await fn(service, host, port)
    finally:
        await service.stop()


def query_payload(seed: int, request_id: str, wait: bool = True) -> dict:
    return {
        "op": "query",
        "id": request_id,
        "spec": spec_for(seed).to_dict(),
        "options": OPTIONS.to_dict(),
        "wait": wait,
    }


def test_execute_query_matches_serial_backend():
    direct = execute_query(spec_for(1).to_dict(), OPTIONS.to_dict())
    [expected] = SerialBackend(record_timing=False).run(
        jobs_for([spec_for(1)], max_depth=OPTIONS.max_depth), OPTIONS
    )
    assert direct == expected.to_dict()


def test_hello_line_carries_the_protocol_schema(tmp_path):
    async def scenario(service, host, port):
        reader, writer = await asyncio.open_connection(host, port)
        hello = json.loads((await reader.readline()).decode())
        writer.close()
        await writer.wait_closed()
        return hello

    hello = run(with_service(ResultStore(tmp_path), scenario))
    assert hello["schema"] == SERVICE_PROTOCOL
    assert hello["ok"] is True


def test_cold_then_hot_query_round_trip(tmp_path):
    async def scenario(service, host, port):
        client = await _Client.connect(host, port)
        cold = await client.request(query_payload(1, "a"))
        hot = await client.request(query_payload(1, "b"))
        await client.close()
        return cold, hot

    cold, hot = run(with_service(ResultStore(tmp_path), scenario))
    assert cold["ok"] and cold["hot"] is False and cold["id"] == "a"
    assert hot["ok"] and hot["hot"] is True and hot["id"] == "b"
    assert hot["record"] == cold["record"]
    assert hot["job"] == cache_key(spec_for(1), OPTIONS)
    # Served records are the normalized store shape: timing zeroed.
    assert hot["record"]["elapsed_s"] == 0.0


def test_hot_response_matches_serial_no_timing_run(tmp_path):
    async def scenario(service, host, port):
        client = await _Client.connect(host, port)
        await client.request(query_payload(2, "warm"))
        hot = await client.request(query_payload(2, "hit"))
        await client.close()
        return hot

    hot = run(with_service(ResultStore(tmp_path), scenario))
    [expected] = SerialBackend(record_timing=False).run(
        jobs_for([spec_for(2)], max_depth=OPTIONS.max_depth), OPTIONS
    )
    assert hot["record"] == expected.to_dict()


def test_nowait_query_accepted_then_status_polls_to_done(tmp_path):
    async def scenario(service, host, port):
        client = await _Client.connect(host, port)
        accepted = await client.request(query_payload(3, "q", wait=False))
        assert accepted["ok"] and accepted["accepted"]
        key = accepted["job"]
        while True:
            status = await client.request({"op": "status", "id": "s", "job": key})
            assert status["ok"]
            if status["state"] == "done":
                break
            assert status["state"] in ("queued", "running")
            await asyncio.sleep(0.01)
        await client.close()
        return status

    status = run(with_service(ResultStore(tmp_path), scenario))
    assert status["record"]["status"] in ("solvable", "impossible", "undecided")


def test_status_of_unknown_key_is_unknown(tmp_path):
    async def scenario(service, host, port):
        client = await _Client.connect(host, port)
        status = await client.request(
            {"op": "status", "id": "s", "job": "f" * 64}
        )
        await client.close()
        return status

    status = run(with_service(ResultStore(tmp_path), scenario))
    assert status["ok"] and status["state"] == "unknown"


def test_wait_streams_progress_events_before_terminal(tmp_path):
    async def scenario(service, host, port):
        reader, writer = await asyncio.open_connection(host, port)
        await reader.readline()  # hello
        writer.write((json.dumps(query_payload(4, "w")) + "\n").encode())
        await writer.drain()
        lines = []
        while True:
            line = json.loads((await reader.readline()).decode())
            lines.append(line)
            if "ok" in line:
                break
        writer.close()
        await writer.wait_closed()
        return lines

    lines = run(with_service(ResultStore(tmp_path), scenario))
    events = [line["event"] for line in lines if "event" in line]
    assert events == ["queued", "started"]
    assert all(line["id"] == "w" for line in lines)
    assert lines[-1]["ok"] and lines[-1]["hot"] is False


def test_identical_inflight_queries_coalesce(tmp_path):
    async def scenario(service, host, port):
        clients = [await _Client.connect(host, port) for _ in range(4)]
        responses = await asyncio.gather(
            *(
                client.request(query_payload(5, f"c{i}"))
                for i, client in enumerate(clients)
            )
        )
        for client in clients:
            await client.close()
        return service.coalesced, service.store.puts, responses

    coalesced, puts, responses = run(
        with_service(ResultStore(tmp_path), scenario, workers=1)
    )
    assert puts == 1  # one computation for four concurrent queries
    assert coalesced >= 1
    assert len({json.dumps(r["record"], sort_keys=True) for r in responses}) == 1
    assert sorted(r["id"] for r in responses) == ["c0", "c1", "c2", "c3"]


def test_full_queue_rejects_rather_than_buffering(tmp_path):
    async def scenario(service, host, port):
        # Freeze the cold-work pool so the queue cannot drain: the
        # rejection path must then fire deterministically.
        for task in service._worker_tasks:
            task.cancel()
        client = await _Client.connect(host, port)
        responses = []
        for i in range(4):
            responses.append(
                await client.request(query_payload(100 + i, f"f{i}", wait=False))
            )
        await client.close()
        return service.rejected, responses

    rejected, responses = run(
        with_service(ResultStore(tmp_path), scenario, workers=1, queue_limit=1)
    )
    assert rejected == 3
    assert responses[0]["ok"] and responses[0]["accepted"]
    assert all(
        not r["ok"] and r["error"] == "queue full" for r in responses[1:]
    )


def test_invalid_requests_answer_errors_not_disconnects(tmp_path):
    async def scenario(service, host, port):
        reader, writer = await asyncio.open_connection(host, port)
        await reader.readline()  # hello
        out = []
        for raw in (
            "not json",
            json.dumps({"op": "nope", "id": 1}),
            json.dumps({"op": "query", "id": 2}),  # no spec
            json.dumps(
                {
                    "op": "query",
                    "id": 3,
                    "spec": {"family": "no-such-family", "params": {}},
                }
            ),
            json.dumps(
                {
                    "op": "query",
                    "id": 4,
                    "spec": spec_for(1).to_dict(),
                    "options": {"bogus_knob": 1},
                }
            ),
            json.dumps({"op": "ping", "id": 5}),
        ):
            writer.write((raw + "\n").encode())
            await writer.drain()
            out.append(json.loads((await reader.readline()).decode()))
        writer.close()
        await writer.wait_closed()
        return out

    responses = run(with_service(ResultStore(tmp_path), scenario))
    assert [r["ok"] for r in responses] == [False, False, False, False, False, True]
    assert responses[-1]["pong"] is True  # connection survived every error


def test_legacy_memo_extensions_option_is_accepted_and_dropped(tmp_path):
    # Clients written against the removed extension-memo switch still send
    # it; every spelling decodes to the same options and the same key.
    async def scenario(service, host, port):
        client = await _Client.connect(host, port)
        responses = []
        for i, legacy in enumerate((True, False, None)):
            payload = query_payload(8, f"r{i}")
            payload["options"] = dict(payload["options"], memo_extensions=legacy)
            responses.append(await client.request(payload))
        await client.close()
        return responses

    responses = run(with_service(ResultStore(tmp_path), scenario))
    assert all(r["ok"] for r in responses)
    assert [r["hot"] for r in responses] == [False, True, True]
    assert {r["job"] for r in responses} == {cache_key(spec_for(8), OPTIONS)}
    assert execute_query(
        spec_for(8).to_dict(), dict(OPTIONS.to_dict(), memo_extensions=True)
    ) == responses[0]["record"]


def test_stats_op_reports_store_and_service_counters(tmp_path):
    async def scenario(service, host, port):
        client = await _Client.connect(host, port)
        await client.request(query_payload(6, "a"))
        await client.request(query_payload(6, "b"))
        stats = await client.request({"op": "stats", "id": "s"})
        await client.close()
        return stats

    stats = run(with_service(ResultStore(tmp_path), scenario))
    assert stats["ok"]
    body = stats["stats"]
    assert body["queries"] == 2
    assert body["hits"] >= 1 and body["puts"] == 1
    assert body["queue_limit"] >= 1


def test_service_restart_keeps_serving_hot_from_disk(tmp_path):
    async def warm(service, host, port):
        client = await _Client.connect(host, port)
        response = await client.request(query_payload(7, "cold"))
        await client.close()
        return response

    async def reheat(service, host, port):
        client = await _Client.connect(host, port)
        response = await client.request(query_payload(7, "hot"))
        await client.close()
        return response

    cold = run(with_service(ResultStore(tmp_path), warm))
    hot = run(with_service(ResultStore(tmp_path), reheat))  # fresh service
    assert cold["hot"] is False and hot["hot"] is True
    assert hot["record"] == cold["record"]


def test_service_rejects_bad_configuration(tmp_path):
    store = ResultStore(tmp_path)
    with pytest.raises(AnalysisError):
        QueryService(store, workers=0)
    with pytest.raises(AnalysisError):
        QueryService(store, queue_limit=0)
