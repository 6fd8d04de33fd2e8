"""Lease lifecycle edge cases: races, zombies, and coordinator crashes.

Each test here is one of the interleavings the fleet's crash-safety
orderings exist for; they drive the steppable coordinator with explicit
``now`` values, so the scenarios are deterministic and sleep-free.
"""

import pytest

from repro.errors import AnalysisError
from repro.fleet import FleetConfig, FleetRunner, state
from repro.fleet import worker as worker_module
from repro.fleet.state import FleetPaths
from repro.fleet.worker import claim_next, run_attempt
from repro.io import atomic


@pytest.fixture()
def fleet(tmp_path, jobs6):
    root = tmp_path / "fleet"
    runner = FleetRunner(root)
    runner.initialize(
        jobs6,
        config=FleetConfig(shards=3, record_timing=False, lease_ttl_s=10.0),
    )
    return root, runner


def test_two_coordinators_race_one_claim_wins(fleet):
    root, _ = fleet
    # Two whole coordinators (or workers) race the same shard: the
    # exclusive create picks exactly one winner, and the loser sees the
    # winner's lease intact.
    assert state.claim_shard(root, 0, "coordinator-a", 0, 10.0, now=0.0)
    assert not state.claim_shard(root, 0, "coordinator-b", 0, 10.0, now=0.0)
    assert state.read_lease(root, 0)["worker"] == "coordinator-a"
    # claim_next skips the leased shard and picks the next one.
    assert claim_next(root, "coordinator-b", now=0.0) == (1, 0)


def test_expired_lease_with_live_holder_rejects_late_output(
    fleet, serial_bytes, drive_simulated
):
    root, runner = fleet
    # The worker claims shard 0 and then stalls (no heartbeat): the
    # deadline passes while its pid is still alive.
    assert claim_next(root, "stalled", now=0.0) == (0, 0)
    snap = runner.step(now=50.0)
    assert snap["counts"]["leased"] == 0
    ledger = state.read_attempts(root)
    assert ledger["0"]["attempt"] == 1
    assert "heartbeat stalled" in ledger["0"]["reasons"][0]
    # The zombie wakes up: its heartbeat is refused, its late completion
    # publishes a done marker for attempt 0 — which must never merge.
    assert not state.renew_lease(root, 0, "stalled", 0, 10.0, now=51.0)
    run_attempt(root, "stalled", 0, 0, simulate=True)
    snap = runner.step(now=52.0)
    assert snap["counts"]["merged"] == 0
    # A healthy replacement finishes everything; the late attempt-0
    # output contributed nothing and nothing was duplicated.
    drive_simulated(runner, now=60.0)
    assert FleetPaths(root).merged.read_bytes() == serial_bytes
    journal = state.read_journal(root)
    assert {entry["shard"]: entry["attempt"] for entry in journal} == {
        0: 1,
        1: 0,
        2: 0,
    }


def test_zombie_resurrected_lease_is_swept_as_stale(fleet):
    root, runner = fleet
    assert claim_next(root, "zombie", now=0.0) == (0, 0)
    runner.step(now=50.0)  # reap: ledger moves to attempt 1, lease removed
    # The zombie recreates its lease in the bump/remove window (it still
    # believes it holds attempt 0).
    assert state.claim_shard(root, 0, "zombie", 0, 10.0, now=50.5)
    runner.step(now=51.0)
    # The stale attempt number gives it away; the shard is claimable.
    assert state.read_lease(root, 0) is None


def test_resume_after_coordinator_killed_mid_merge(
    fleet, serial_bytes, drive_simulated
):
    root, runner = fleet
    # Complete shard 0 and merge it normally.
    assert claim_next(root, "w", now=0.0) == (0, 0)
    run_attempt(root, "w", 0, 0, simulate=True)
    snap = runner.step(now=1.0)
    assert snap["counts"]["merged"] == 1
    # Complete shard 1, then simulate the coordinator dying *mid-merge*:
    # it appended the journal line only partially and never removed the
    # lease or rebuilt merged.jsonl.
    assert claim_next(root, "w", now=2.0) == (1, 0)
    run_attempt(root, "w", 1, 0, simulate=True)
    paths = FleetPaths(root)
    with paths.journal.open("a", encoding="utf-8") as handle:
        handle.write('{"kind": "merge", "shard": 1, "atte')
    # A brand-new coordinator (no in-memory state) resumes: the torn line
    # is repaired away, shard 1 re-validates from its intact done marker,
    # and the rebuild neither loses nor duplicates a record.
    resumed = FleetRunner(root)
    drive_simulated(resumed, now=10.0)
    assert paths.merged.read_bytes() == serial_bytes
    assert [entry["shard"] for entry in sorted(
        state.read_journal(root), key=lambda entry: entry["shard"]
    )] == [0, 1, 2]


def test_resume_refuses_non_fleet_directory(tmp_path):
    with pytest.raises(AnalysisError):
        FleetRunner(tmp_path / "not-a-fleet").resume(workers=1)


def test_merge_bumps_ledger_like_the_fail_path(fleet):
    root, runner = fleet
    assert claim_next(root, "w", now=0.0) == (0, 0)
    run_attempt(root, "w", 0, 0, simulate=True)
    runner.step(now=1.0)
    # Attempt numbers are single-use across *success* too: a claim raced
    # into the lease-removal window carries a stale number and is swept
    # instead of rerunning over merged output.
    ledger = state.read_attempts(root)
    assert ledger["0"]["attempt"] == 1
    assert ledger["0"]["failures"] == 0


def test_stale_journal_view_cannot_reclaim_a_merged_shard(fleet, monkeypatch):
    root, runner = fleet
    assert claim_next(root, "w", now=0.0) == (0, 0)
    run_attempt(root, "w", 0, 0, simulate=True)
    runner.step(now=1.0)  # journal append → ledger bump → lease removal
    # The reviewer's race: a worker reads the journal *before* the merge
    # append but wins the lease *after* the release.  Blank the first
    # journal read to replay exactly that interleaving.
    real_read_journal = worker_module.read_journal
    calls = iter([True])

    def stale_then_real(path):
        if next(calls, False):
            return []
        return real_read_journal(path)

    monkeypatch.setattr(worker_module, "read_journal", stale_then_real)
    # The post-claim re-check disowns the shard-0 claim (append-then-
    # release ordering guarantees the fresh read sees the merge) and the
    # worker moves on to shard 1; no lease is left behind.
    assert claim_next(root, "stale", now=2.0) == (1, 0)
    assert state.read_lease(root, 0) is None
    state.rebuild_merged(root)  # journaled digests still verify


def test_run_attempt_refuses_a_journaled_shard(fleet):
    root, runner = fleet
    assert claim_next(root, "w", now=0.0) == (0, 0)
    run_attempt(root, "w", 0, 0, simulate=True)
    runner.step(now=1.0)
    # A fully stale direct caller (journal *and* ledger views predate the
    # merge) re-creates the claim with the journaled attempt number; the
    # attempt must refuse rather than rewrite the bytes the journal's
    # digest points at.
    out_bytes = FleetPaths(root).attempt_out(0, 0).read_bytes()
    assert state.claim_shard(root, 0, "stale", 0, 10.0, now=2.0)
    with pytest.raises(AnalysisError, match="already journaled"):
        run_attempt(root, "stale", 0, 0, simulate=True)
    assert FleetPaths(root).attempt_out(0, 0).read_bytes() == out_bytes
    state.rebuild_merged(root)  # digests still verify


def test_stranded_lease_of_journaled_shard_is_swept(fleet):
    root, runner = fleet
    assert claim_next(root, "w", now=0.0) == (0, 0)
    run_attempt(root, "w", 0, 0, simulate=True)
    runner.step(now=1.0)
    # A crash window leaves a lease behind for an already-journaled
    # shard; the next step must sweep it rather than wedge the shard.
    out = FleetPaths(root).attempt_out(0, 0)
    assert atomic.sha256_file(out)  # attempt files stay for audit
    assert state.claim_shard(root, 0, "stray", 0, 10.0, now=2.0)
    runner.step(now=3.0)
    assert state.read_lease(root, 0) is None
