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


async def pipelined(host, port, requests):
    """Send every request in one write, then read until the last one's
    terminal line; returns every terminal line read on the way."""
    reader, writer = await asyncio.open_connection(host, port)
    await reader.readline()  # hello
    writer.write(b"".join(json.dumps(r).encode() + b"\n" for r in requests))
    await writer.drain()
    last = requests[-1]["id"]
    responses = []
    while True:
        line = await reader.readline()
        if not line:
            break  # the server dropped the connection
        response = json.loads(line.decode())
        if "ok" in response:
            responses.append(response)
            if response["id"] == last:
                break
    writer.close()
    await writer.wait_closed()
    return responses


def test_malformed_specs_answer_errors_not_disconnects(tmp_path):
    bad_specs = {
        "empty": {},
        "family-list": {"family": ["oblivious"]},
        "params-str": {"family": "oblivious", "params": "abc"},
        "params-list": {"family": "oblivious", "params": [1, 2]},
    }
    requests = [
        {"op": "query", "id": request_id, "spec": spec}
        for request_id, spec in bad_specs.items()
    ] + [{"op": "ping", "id": "ping"}]

    async def scenario(service, host, port):
        return await pipelined(host, port, requests)

    responses = run(with_service(ResultStore(tmp_path), scenario))
    assert [r["id"] for r in responses] == [*bad_specs, "ping"]
    assert all(r["ok"] is False and r["error"] for r in responses[:-1])
    assert responses[-1]["ok"] and responses[-1]["pong"] is True


def test_spec_with_an_unknown_param_is_refused_before_the_store(tmp_path):
    spec = {"family": "named", "params": {"name": "lossy-full", "extra": 1}}
    requests = [
        {"op": "query", "id": "extra", "spec": spec, "options": OPTIONS.to_dict()},
        {"op": "ping", "id": "ping"},
    ]

    async def scenario(service, host, port):
        return await pipelined(host, port, requests)

    store = ResultStore(tmp_path)
    responses = run(with_service(store, scenario))
    assert [r["id"] for r in responses] == ["extra", "ping"]
    assert responses[0]["ok"] is False
    assert "unknown param" in responses[0]["error"]
    assert store.stats()["objects"] == 0 and store.puts == 0


def test_status_refuses_malformed_job_keys(tmp_path):
    # The store joins a job key into a file path, so only the cache-key
    # digest form may reach it.
    keys = {
        "nul": "\x00" + "f" * 63,
        "long": "f" * 4096,
        "escape": "../" + "f" * 61,
        "upper": "F" * 64,
    }
    requests = [
        {"op": "status", "id": request_id, "job": key}
        for request_id, key in keys.items()
    ] + [{"op": "ping", "id": "ping"}]

    async def scenario(service, host, port):
        return await pipelined(host, port, requests)

    store = ResultStore(tmp_path / "store")
    responses = run(with_service(store, scenario))
    assert [r["id"] for r in responses] == [*keys, "ping"]
    for response in responses[:-1]:
        assert response == {
            "ok": False,
            "id": response["id"],
            "error": "status needs a job key",
        }
    assert responses[-1]["pong"] is True
    assert store.hits == store.misses == 0  # the store was never asked


def test_legacy_extension_workers_option_cannot_fork(tmp_path):
    import multiprocessing

    spec = {"family": "named", "params": {"name": "lossy-full"}}
    options = {
        "max_depth": 9,
        "use_impossibility_provers": False,
        "use_broadcaster_certificate": False,
    }

    async def scenario(service, host, port):
        client = await _Client.connect(host, port)
        legacy = await client.request(
            {
                "op": "query",
                "id": "legacy",
                "spec": spec,
                "options": dict(options, extension_workers=24),
                "wait": True,
            }
        )
        children = multiprocessing.active_children()
        plain = await client.request(
            {"op": "query", "id": "plain", "spec": spec, "options": options}
        )
        await client.close()
        return legacy, plain, children

    legacy, plain, children = run(with_service(ResultStore(tmp_path), scenario))
    assert children == []
    assert legacy["ok"] and legacy["hot"] is False
    assert plain["ok"] and plain["hot"] is True
    assert legacy["job"] == plain["job"]
    assert legacy["record"] == plain["record"]
    assert legacy["record"]["status"] == "undecided"


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


def test_cold_job_exceptions_fail_the_job_not_the_worker(tmp_path, monkeypatch):
    """A cold job that raises anything must answer its waiters (and every
    coalesced twin) with one terminal error and leave the pool full.

    A stabilizing spec over the empty graph alone with ``window`` 1
    decodes and builds, but admits no infinite sequence, so its check
    raises ``AnalysisError`` inside the worker; a malformed option value
    is refused by the options decoder before it is queued; and an
    arbitrary exception from the executor stands in for any other bug.
    """
    import repro.service.server as server_module

    bad_spec = {
        "family": "stabilizing",
        "params": {"n": 2, "graphs": [0], "window": 1, "require_rooted": False},
    }
    real_execute = server_module.execute_query

    def flaky_execute(spec_dict, options_dict):
        if spec_dict.get("seed") == 999:
            raise TypeError("boom")
        return real_execute(spec_dict, options_dict)

    monkeypatch.setattr(server_module, "execute_query", flaky_execute)

    async def scenario(service, host, port):
        clients = [await _Client.connect(host, port) for _ in range(5)]
        bad_options = query_payload(9, "opt")
        bad_options["options"] = {"extension_workers": "x"}
        boom = query_payload(999, "boom")
        twins = [
            {"op": "query", "id": f"twin{i}", "spec": bad_spec, "wait": True}
            for i in range(2)
        ]
        responses = await asyncio.gather(
            clients[0].request(twins[0]),
            clients[1].request(twins[1]),
            clients[2].request(bad_options),
            clients[3].request(boom),
        )
        alive = sum(not task.done() for task in service._worker_tasks)
        after = await clients[4].request(query_payload(10, "next"))
        # Exactly one terminal line per id: the next line on every
        # connection answers a fresh ping, not a stray duplicate.
        pongs = [
            await client.request({"op": "ping", "id": f"p{i}"})
            for i, client in enumerate(clients)
        ]
        for client in clients:
            await client.close()
        return responses, alive, after, pongs, service.failed, service.coalesced

    responses, alive, after, pongs, failed, coalesced = run(
        with_service(ResultStore(tmp_path), scenario, workers=2)
    )
    assert [p["id"] for p in pongs] == [f"p{i}" for i in range(5)]
    assert all(p["pong"] for p in pongs)
    assert sorted(r["id"] for r in responses) == ["boom", "opt", "twin0", "twin1"]
    assert all(r["ok"] is False for r in responses)
    by_id = {r["id"]: r for r in responses}
    for request_id in ("twin0", "twin1", "boom"):
        assert by_id[request_id]["error"] == "query execution failed"
    assert "extension_workers" in by_id["opt"]["error"]
    assert alive == 2
    # "boom" plus the bad spec, once per job it was run as (the twins
    # coalesce when the second arrives while the first is in flight).
    assert failed + coalesced == 3
    assert after["ok"] and after["id"] == "next" and after["hot"] is False
