"""The fleet worker: claim a shard, stream records, heartbeat, publish.

A worker owns exactly two kinds of files — its lease and its attempt
output — and every step is safe against SIGKILL:

1. **Claim**: pick the lowest eligible shard (not journaled, not
   poisoned, past its retry backoff, unleased) and claim it with the
   exclusive-create lease; losing the race just means trying the next
   shard.
2. **Stream**: run the shard's jobs through
   :func:`~repro.backends.iter_job_records`, appending each record to the
   attempt's JSONL as it finishes — a kill mid-shard leaves a readable
   prefix, never a wedged run.  A background heartbeat thread extends the
   lease on a cadence and *stops itself* the moment the renewal says the
   claim is gone (the zombie signal).
3. **Publish**: write a done marker carrying the output's SHA-256 digest
   and record count, atomically.  The marker, not the output file, is
   what tells the coordinator "complete" — output without a marker is by
   definition a dead attempt.

Chaos (:mod:`repro.fleet.chaos`) is injected here, self-inflicted: the
worker consults the run config's schedule for its ``(shard, attempt)``
and kills, stalls, truncates, or corrupts itself accordingly.  With
``simulate=True`` (the deterministic test mode) the kill raises
:class:`SimulatedCrash` instead of SIGKILL, sleeps are skipped, and no
heartbeat thread runs — tests drive time by passing explicit ``now``
values to the state machine.
"""

from __future__ import annotations

import json
import os
import signal
import threading
from pathlib import Path

from repro.backends import iter_job_records
from repro.errors import AnalysisError
from repro.fleet.chaos import ChaosPlan
from repro.fleet.clock import sleep, wall_now
from repro.fleet.state import (
    FleetConfig,
    FleetPaths,
    claim_shard,
    load_config,
    load_shard_jobs,
    read_attempts,
    read_journal,
    read_poison,
    release_lease,
    renew_lease,
)
from repro.io import atomic
from repro.records import SCHEMA as RECORD_SCHEMA
from repro.schemas import FLEET_STATE

__all__ = ["SimulatedCrash", "claim_next", "run_attempt", "run_worker"]


class SimulatedCrash(RuntimeError):
    """Raised in ``simulate`` mode where a real worker would be SIGKILLed."""


def _crash(simulate: bool, where: str) -> None:
    if simulate:
        raise SimulatedCrash(where)
    os.kill(os.getpid(), signal.SIGKILL)


def claim_next(
    root: str | Path, worker: str, now: float | None = None
) -> tuple[int, int] | None:
    """Claim the lowest eligible shard; ``(shard, attempt)`` or ``None``.

    Eligible means: not journaled, not poisoned, past its backoff
    eligibility time, and with no lease file in place.  The lease
    pre-check is advisory (another worker can appear in between); the
    exclusive create inside :func:`~repro.fleet.state.claim_shard` is
    what actually arbitrates.

    A won claim is confirmed against a *fresh* journal read before it is
    returned.  The coordinator merges with append-then-release ordering,
    so a lease create that succeeds because of the release is guaranteed
    to see the journal entry on this re-read — without it, a worker whose
    journal view predates the append could re-claim a merged shard and
    rewrite the very output the journal's digest points at.
    """
    now = wall_now() if now is None else now
    config = load_config(root)
    paths = FleetPaths(root)
    journaled = {entry["shard"] for entry in read_journal(root)}
    poisoned = read_poison(root)
    ledger = read_attempts(root)
    for shard in range(config.shards):
        if shard in journaled or str(shard) in poisoned:
            continue
        entry = ledger.get(str(shard))
        if entry is None or now < entry["next_eligible"]:
            continue
        if paths.lease(shard).exists():
            continue
        attempt = entry["attempt"]
        if claim_shard(root, shard, worker, attempt, config.lease_ttl_s, now=now):
            if shard in {entry["shard"] for entry in read_journal(root)}:
                # Our pre-claim journal view was stale: the shard merged
                # between the read and the claim.  Abandon the lease we
                # just created (it is ours to remove) and move on.
                release_lease(root, shard)
                continue
            return shard, attempt
    return None


def _heartbeat_loop(
    root: str | Path,
    worker: str,
    shard: int,
    attempt: int,
    config: FleetConfig,
    plan: ChaosPlan,
    stop: threading.Event,
) -> None:
    interval = config.heartbeat_s
    if plan.renew_delay_s is not None:
        interval += plan.renew_delay_s
    while not stop.wait(interval):
        if not renew_lease(root, shard, worker, attempt, config.lease_ttl_s):
            # The claim is gone (reaped, or the ledger moved past us):
            # we are a zombie.  Stop renewing so the replacement claim
            # is not blocked; our late done marker will be rejected by
            # attempt number.
            return


def run_attempt(
    root: str | Path,
    worker: str,
    shard: int,
    attempt: int,
    simulate: bool = False,
) -> int:
    """Execute one claimed attempt end to end; returns records written.

    The caller must hold the shard's lease for this attempt.  The lease
    is deliberately *not* released on completion — it keeps other workers
    off the shard until the coordinator validates the done marker and
    removes lease and shard together (merge) or bumps the attempt (fail).
    """
    config = load_config(root)
    if shard in {entry["shard"] for entry in read_journal(root)}:
        # A journaled shard's output is the referent of the journal's
        # digest; rewriting it would wedge every later merge rebuild.
        # claim_next's post-claim re-check makes this unreachable in the
        # worker loop — this guard covers direct callers with a stale
        # claim.
        raise AnalysisError(
            f"shard {shard} is already journaled; refusing to run attempt "
            f"{attempt} over its merged output"
        )
    plan = (
        config.chaos.plan_for(shard, attempt)
        if config.chaos is not None
        else ChaosPlan()
    )
    jobs, options, record_timing = load_shard_jobs(root, shard)
    paths = FleetPaths(root)
    out = paths.attempt_out(shard, attempt)
    # Attempt numbers are single-use (the ledger bumps on every reap and
    # every merge), so a pre-existing file can only be debris from our own
    # failed claim; start clean rather than appending to it.
    out.unlink(missing_ok=True)
    atomic.append_line(out, json.dumps({"schema": RECORD_SCHEMA}, sort_keys=True))
    stop: threading.Event | None = None
    # A stalled attempt gets no heartbeat at all — that is the fault being
    # injected: the lease deadline must genuinely pass while the worker is
    # alive and mid-attempt.
    if not simulate and plan.stall_s is None:
        stop = threading.Event()
        threading.Thread(
            target=_heartbeat_loop,
            args=(root, worker, shard, attempt, config, plan, stop),
            daemon=True,
        ).start()
    written = 0
    try:
        for record in iter_job_records(0, jobs, options, record_timing):
            if plan.kill_after is not None and written == plan.kill_after:
                _crash(simulate, f"chaos kill mid-shard {shard} attempt {attempt}")
            atomic.append_line(
                out, json.dumps(record.to_dict(), sort_keys=True)
            )
            written += 1
            if written == 1 and plan.stall_s is not None and not simulate:
                # With no heartbeat running, sleeping past the ttl here
                # guarantees the lease expires mid-attempt and the attempt
                # finishes *late* — the zombie-rejection path.
                sleep(plan.stall_s)
        if plan.kill_after is not None and plan.kill_after >= written:
            _crash(simulate, f"chaos kill at end of shard {shard}")
    finally:
        if stop is not None:
            stop.set()
    if plan.truncate:
        size = out.stat().st_size
        os.truncate(out, max(1, size - 7))
    if plan.corrupt:
        atomic.overwrite_bytes(out, out.stat().st_size // 2, b"\x00chaos\x00")
    atomic.atomic_write_json(
        paths.attempt_done(shard, attempt),
        {
            "schema": FLEET_STATE,
            "kind": "done",
            "shard": shard,
            "attempt": attempt,
            "worker": worker,
            "digest": atomic.sha256_file(out),
            "records": written,
        },
    )
    return written


def run_worker(root: str | Path, worker: str) -> int:
    """The worker main loop (``repro-consensus fleet work``).

    Claims and runs attempts until every shard is journaled or poisoned,
    then exits 0.  When nothing is claimable *right now* (all remaining
    shards leased or in backoff) it polls — the coordinator may reap a
    dead peer's lease at any moment and make its shard claimable again.
    """
    config = load_config(root)
    while True:
        journaled = {entry["shard"] for entry in read_journal(root)}
        poisoned = read_poison(root)
        if len(journaled) + len(poisoned) >= config.shards:
            return 0
        claim = claim_next(root, worker)
        if claim is None:
            sleep(config.poll_s)
            continue
        shard, attempt = claim
        run_attempt(root, worker, shard, attempt)
