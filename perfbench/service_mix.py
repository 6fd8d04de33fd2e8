"""service-mix: a query server in its own process under mixed traffic.

Phases, after set-up (server start plus hot-set warm-up, several times):

1. ping: sequential pings on an idle connection (the transport floor);
2. open loop: requests due at a fixed offered rate, spread round-robin
   over 2 pipelined NDJSON connections; 90% hot lookups of the 64 warmed
   specs, 10% cold ``wait: true`` queries on specs never seen before.  A
   quarter of the cold queries get a twin: the same query, due at the
   same time, sent on the other connection, which the server coalesces
   with the first while it is in flight.  Latency runs from each hot or
   cold request's due time to its terminal response;
3. closed loop: a fixed window of outstanding requests per connection,
   the same mix, for capacity.

Every exchange is audited: one terminal response per id, no errors or
rejections, hot answers flagged hot and equal to the record the warm-up
stored, a cold query and its twin given the same record with at least
one of them flagged cold.

The generator is one process: the main thread paces the open loop with
``time.sleep`` (sub-millisecond precision, unlike an event loop's
millisecond timer) and one reader thread per connection records events.
"""

from __future__ import annotations

import json
import random
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any

from gate import DEFAULT_SEED, check_digest, recheck, verdict_digest
from stats import due_latencies, median, percentile, tail
from workloads import SETUP_REPS, Context, Outcome

HOT_SET = 64
#: Alphabet sizes of hot specs.  A hot lookup costs the same for any spec
#: (same key and record shape), but a size-3 spec can take the warm-up's
#: peak, and with it ``peak_rss_mb``, from 68 to 88 MB; a quarter of the
#: seeds drew one.
HOT_SIZES = (1, 2)
COLD_SHARE = 0.1
#: Share of cold queries followed by a twin.
TWIN_SHARE = 0.25
CONNECTIONS = 2
#: Offered open-loop rate (requests/s): about a quarter of the mix's
#: closed-loop capacity (~800/s) on a 2-core x86_64 box.
RATE = 200.0
#: Outstanding requests per connection in the closed loop.
WINDOW = 8
OPTIONS = {"max_depth": 6}
PINGS = 200
#: Share of the run's seconds given to the open loop; the closed loop
#: gets the rest.
OPEN_SHARE = 0.75
#: Cold specs drawn per run: enough for any open plus closed loop.
COLD_POOL = 12000


class Server:
    """A ``launcher.py serve`` process on a fresh store."""

    def __init__(self, ctx: Context, store: Path, trace_out: Path | None = None) -> None:
        command = [sys.executable, str(ctx.bench / "launcher.py"), "serve",
                   "--src", str(ctx.src), "--store", str(store)]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        self.process = subprocess.Popen(command, stdin=subprocess.PIPE,
                                        stdout=subprocess.PIPE, cwd=ctx.root)
        assert self.process.stdout is not None
        line = self.process.stdout.readline()
        if not line:
            self.stop()
            raise RuntimeError("query server exited before serving")
        self.host, self.port = json.loads(line)["serving"]

    def peak_rss_mb(self) -> float:
        """The server's peak resident set so far (``VmHWM``), in MB."""
        status = Path(f"/proc/{self.process.pid}/status").read_text(encoding="utf-8")
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM line in /proc/<pid>/status")

    def stop(self) -> None:
        if self.process.stdin is not None and not self.process.stdin.closed:
            self.process.stdin.close()
        try:
            self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()


class Entry:
    __slots__ = ("kind", "spec", "due", "sent", "started", "done", "response", "terminals")

    def __init__(self, kind: str, spec: int | None, due: float) -> None:
        self.kind = kind          # "hot", "cold", "twin" or "stats"
        self.spec = spec          # hot-set index or cold-pool index
        self.due = due
        self.sent = 0.0
        self.started: float | None = None
        self.done: float | None = None
        self.response: dict[str, Any] | None = None
        self.terminals = 0


class Client:
    """Two pipelined connections and the per-id exchange log."""

    def __init__(self, host: str, port: int) -> None:
        self.socks = []
        self.files = []
        for _ in range(CONNECTIONS):
            sock = socket.create_connection((host, port))
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            stream = sock.makefile("rb")
            json.loads(stream.readline())  # hello
            self.socks.append(sock)
            self.files.append(stream)
        self.locks = [threading.Lock() for _ in range(CONNECTIONS)]
        self.entries: dict[str, Entry] = {}
        self.strays = 0
        self.lock = threading.Lock()
        self.pending = 0
        self.idle = threading.Condition(self.lock)
        #: Closed-loop refill: called with the connection index after a
        #: terminal response, returns the next (id, entry, line) or None.
        self.refill: Any = None
        self.readers: list[threading.Thread] = []

    def call(self, payload: dict[str, Any]) -> dict[str, Any]:
        """One blocking request on connection 0 (before readers start)."""
        self.socks[0].sendall(json.dumps(payload).encode("utf-8") + b"\n")
        while True:
            response = json.loads(self.files[0].readline())
            if "ok" in response:
                return response

    def start_readers(self) -> None:
        for index in range(CONNECTIONS):
            thread = threading.Thread(target=self._read, args=(index,), daemon=True)
            thread.start()
            self.readers.append(thread)

    def send(self, index: int, rid: str, entry: Entry, line: bytes) -> None:
        with self.lock:
            self.entries[rid] = entry
            self.pending += 1
        entry.sent = time.perf_counter()
        with self.locks[index]:
            self.socks[index].sendall(line)

    def _read(self, index: int) -> None:
        stream = self.files[index]
        for raw in stream:
            now = time.perf_counter()
            response = json.loads(raw)
            with self.lock:
                entry = self.entries.get(response.get("id"))
                if entry is None:
                    self.strays += 1
                    continue
                if "event" in response:
                    if response["event"] in ("started", "running") and entry.started is None:
                        entry.started = now
                    continue
                entry.terminals += 1
                if entry.terminals > 1:
                    continue
                entry.done = now
                entry.response = response
                self.pending -= 1
                if self.pending == 0:
                    self.idle.notify_all()
                refill = self.refill
            if refill is not None:
                nxt = refill(index)
                if nxt is not None:
                    self.send(index, *nxt)

    def drain(self, timeout: float) -> bool:
        deadline = time.monotonic() + timeout
        with self.idle:
            while self.pending:
                left = deadline - time.monotonic()
                if left <= 0:
                    return False
                self.idle.wait(left)
        return True

    def close(self) -> None:
        for sock in self.socks:
            sock.shutdown(socket.SHUT_RDWR)
        for thread in self.readers:
            thread.join(timeout=10)
        for stream, sock in zip(self.files, self.socks):
            stream.close()
            sock.close()


def _query(rid: str, spec: dict[str, Any], wait: bool) -> bytes:
    payload: dict[str, Any] = {"op": "query", "id": rid, "spec": spec, "options": OPTIONS}
    if wait:
        payload["wait"] = True
    return json.dumps(payload).encode("utf-8") + b"\n"


class Mix:
    """The seeded request stream: hot indices, fresh cold indices, twins.

    A twin repeats the cold index drawn just before it.
    """

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.next_cold = 0
        self.twin: int | None = None

    def draw(self) -> tuple[str, int]:
        if self.twin is not None:
            index, self.twin = self.twin, None
            return "twin", index
        if self.rng.random() < COLD_SHARE:
            self.next_cold += 1
            if self.rng.random() < TWIN_SHARE:
                self.twin = self.next_cold - 1
            return "cold", self.next_cold - 1
        return "hot", self.rng.randrange(HOT_SET)


def hot_and_cold(seed: int) -> tuple[list[dict[str, Any]], list[dict[str, Any]]]:
    """The hot set and the cold pool, split from one seeded stream.

    The first ``HOT_SET`` specs with an alphabet size in ``HOT_SIZES`` are
    hot; every other spec, in order, is cold.
    """
    from repro.specs import random_rooted_specs

    hot: list[dict[str, Any]] = []
    cold: list[dict[str, Any]] = []
    for spec in random_rooted_specs(seed, 4, 2 * HOT_SET + COLD_POOL):
        spec_dict = spec.to_dict()
        if len(hot) < HOT_SET and spec_dict["params"]["size"] in HOT_SIZES:
            hot.append(spec_dict)
        else:
            cold.append(spec_dict)
    return hot, cold


def start_and_warm(ctx: Context, hot: list[dict[str, Any]], trace_out: Path | None
                   ) -> tuple[Server, Client, dict[int, dict[str, Any]], float]:
    """Set-up: start a server on a fresh store and warm the hot set."""
    began = time.perf_counter()
    server = Server(ctx, ctx.fresh_dir("service-store"), trace_out)
    try:
        client = Client(server.host, server.port)
        stored = {}
        for index, spec in enumerate(hot):
            response = client.call({"op": "query", "id": f"w-{index}", "spec": spec,
                                    "options": OPTIONS, "wait": True})
            if not response.get("ok"):
                raise RuntimeError(f"warm-up query failed: {response}")
            stored[index] = response["record"]
    except BaseException:
        server.stop()
        raise
    return server, client, stored, time.perf_counter() - began


def service_mix(ctx: Context, traced: bool) -> Outcome:
    out = Outcome()
    hot, cold = hot_and_cold(ctx.seed)
    if len(hot) != HOT_SET:
        out.fail(f"the seed's stream gave only {len(hot)} hot specs")
    specs = hot + cold
    if len({json.dumps(s, sort_keys=True) for s in specs}) != len(specs):
        out.fail("hot and cold specs are not all distinct")

    setups = []
    trace_out = ctx.trace_dir / "spans-server.json" if traced else None
    reps = 1 if traced else SETUP_REPS
    for rep in range(reps):
        last = rep == reps - 1
        server, client, stored, took = start_and_warm(ctx, hot, trace_out if last else None)
        setups.append(took)
        if not last:
            client.close()
            server.stop()
    try:
        # The server's peak is read after the warm-up: its checks run one
        # at a time, while the loops' peak follows which heavy cold checks
        # happen to overlap on the two worker threads (74 to 104 MB).
        server_rss = server.peak_rss_mb()
        pings = []
        for index in range(PINGS):
            sent = time.perf_counter()
            client.call({"op": "ping", "id": f"p-{index}"})
            pings.append(time.perf_counter() - sent)

        mix = Mix(ctx.seed)
        open_s = ctx.seconds * OPEN_SHARE
        count = int(RATE * open_s)
        plan = []
        slots, due_at = 0, 0.0
        while slots < count or mix.twin is not None:
            kind, index = mix.draw()
            if kind != "twin":  # a twin shares its cold query's due time
                due_at = slots / RATE
                slots += 1
            rid = f"o-{len(plan)}"
            spec = hot[index] if kind == "hot" else cold[index]
            plan.append((rid, Entry(kind, index, due_at), _query(rid, spec, kind != "hot")))
        client.start_readers()
        t0 = time.perf_counter() + 0.05
        for i, (rid, entry, line) in enumerate(plan):
            entry.due += t0
            delay = entry.due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            client.send(i % CONNECTIONS, rid, entry, line)
        open_end = time.perf_counter()
        if not client.drain(120):
            out.fail("open loop: responses still missing after 120 s")
        out.window = (t0, open_end)

        # Closed loop: each terminal response releases the next request.
        closed_s = ctx.seconds - open_s
        stop_at = time.perf_counter() + closed_s
        draws = threading.Lock()
        issued = [0]

        def refill(index: int) -> tuple[str, Entry, bytes] | None:
            now = time.perf_counter()
            if now >= stop_at:
                return None
            with draws:
                issued[0] += 1
                rid = f"c-{issued[0]}"
                kind, spec_index = mix.draw()
            spec = hot[spec_index] if kind == "hot" else cold[spec_index]
            return rid, Entry(kind, spec_index, now), _query(rid, spec, kind != "hot")

        client.refill = refill
        for i in range(WINDOW * CONNECTIONS):
            nxt = refill(i % CONNECTIONS)
            if nxt is not None:
                client.send(i % CONNECTIONS, *nxt)
        time.sleep(max(0.0, stop_at - time.perf_counter()))
        if not client.drain(120):
            out.fail("closed loop: responses still missing after 120 s")
        client.refill = None
        closed_done = sum(
            1 for rid, e in client.entries.items()
            if rid.startswith("c-") and e.done is not None and e.done <= stop_at
        )

        stats_entry = Entry("stats", None, time.perf_counter())
        client.send(0, "stats", stats_entry, json.dumps({"op": "stats", "id": "stats"}).encode() + b"\n")
        if not client.drain(30) or stats_entry.response is None:
            out.fail("no answer to the stats request")
            server_stats: dict[str, Any] = {}
        else:
            server_stats = stats_entry.response.get("stats", {})
        if server_stats.get("rejected"):
            out.fail(f"server rejected {server_stats['rejected']} queries")
    finally:
        client.close()
        server.stop()

    # Audit.
    due: dict[str, list[float]] = {"hot": [], "cold": []}
    done: dict[str, list[float]] = {"hot": [], "cold": []}
    late, queue_wait, execute = [], [], []
    cold_answers: dict[int, list[tuple[str, dict[str, Any]]]] = {}
    for rid, entry in client.entries.items():
        if entry.kind == "stats":
            continue
        out.attempted += 1
        response = entry.response
        if entry.terminals != 1 or response is None:
            out.fail(f"{rid}: {entry.terminals} terminal responses")
            continue
        if not response.get("ok"):
            out.fail(f"{rid}: error {response.get('error')!r}")
            continue
        if entry.kind == "hot":
            if response.get("hot") is not True or response.get("record") != stored[entry.spec]:
                out.fail(f"{rid}: hot answer not flagged hot or not the stored record")
                continue
        else:
            cold_answers.setdefault(entry.spec, []).append((rid, response))
            if entry.kind == "twin":
                continue
        if rid.startswith("o-") and entry.done is not None:
            due[entry.kind].append(entry.due)
            done[entry.kind].append(entry.done)
            late.append(entry.sent - entry.due)
            if entry.kind == "cold" and entry.started is not None:
                queue_wait.append(entry.started - entry.sent)
                execute.append(entry.done - entry.started)
    if client.strays:
        out.fail(f"{client.strays} responses for ids never sent")
    # Whichever of a cold query and its twin reached the server first
    # computed the record (answered cold); the other joined it in flight
    # (also cold) or, if it came late, found it in the store (hot).
    cold_records: dict[int, dict[str, Any]] = {}
    for index, answers in cold_answers.items():
        first_rid, first = answers[0]
        if any(r.get("record") != first.get("record") for _, r in answers):
            out.fail(f"{first_rid}: a cold query and its twin got different records")
        elif all(r.get("hot") is not False for _, r in answers):
            out.fail(f"{first_rid}: a spec never seen before was answered hot")
        else:
            cold_records[index] = first["record"]
    out.attempted += len(hot)
    hot_lat = due_latencies(due["hot"], done["hot"])
    cold_lat = due_latencies(due["cold"], done["cold"])

    if not hot_lat or not cold_lat:
        out.fail("open loop produced no hot or no cold samples")
        return out
    hot_p99 = tail(hot_lat, 99)
    cold_p90 = tail(cold_lat, 90)
    if hot_p99 is None or cold_p90 is None:
        out.fail("too few samples beyond hot p99 or cold p90")
    ms = 1000.0
    out.metrics["setup_s"] = median(setups)
    out.metrics["peak_rss_mb"] = server_rss
    out.named = {
        "hot_p50_ms": (median(hot_lat) * ms, "ms"),
        "hot_p99_ms": ((hot_p99 or 0.0) * ms, "ms"),
        "cold_p50_ms": (median(cold_lat) * ms, "ms"),
        "cold_p90_ms": ((cold_p90 or 0.0) * ms, "ms"),
        "capacity_qps": (closed_done / closed_s, "1/s"),
    }
    out.samples = {"hot": len(hot_lat), "cold": len(cold_lat), "closed_loop": closed_done}
    out.service = {
        "service.queue_wait_ms": (median(queue_wait) * ms if queue_wait else 0.0, "ms"),
        "service.execute_ms": (median(execute) * ms if execute else 0.0, "ms"),
        "service.ping_ms": (median(pings) * ms, "ms"),
        "service.coalesced": (server_stats.get("coalesced", 0), "count"),
        "service.rejected": (server_stats.get("rejected", 0), "count"),
        "loadgen.late_ms": (percentile(late, 99) * ms, "ms"),
    }

    # Verdicts: the hot set and the first cold answers, digested for the
    # default seed; a seeded sample re-checked for any seed.
    first_cold = [cold_records[i] for i in sorted(cold_records)[:HOT_SET]]
    digest_records = list(stored.values()) + first_cold
    if ctx.seed == DEFAULT_SEED:
        out.digest = verdict_digest(digest_records)
        problem = check_digest("service-mix", out.digest)
        if problem is not None and not ctx.record_digests:
            out.fail(problem)
    for problem in recheck([(OPTIONS, r) for r in digest_records], 8, random.Random(ctx.seed)):
        out.fail(problem)
    return out
