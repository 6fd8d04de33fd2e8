"""Fleet state machinery: layout, leases, journal, validation, rebuild."""

import json

import pytest

from repro.backends import load_manifest
from repro.errors import AnalysisError
from repro.fleet import FleetConfig, FleetRunner, state
from repro.fleet.state import FleetPaths
from repro.fleet.worker import run_attempt
from repro.io import atomic
from repro.records import read_jsonl
from repro.schemas import FLEET_STATE


@pytest.fixture()
def fleet(tmp_path, jobs6):
    root = tmp_path / "fleet"
    runner = FleetRunner(root)
    runner.initialize(
        jobs6,
        config=FleetConfig(shards=3, record_timing=False, lease_ttl_s=10.0),
    )
    return root, runner


@pytest.mark.parametrize(
    "field, value",
    [
        ("lease_ttl_s", float("inf")),
        ("heartbeat_s", float("nan")),
        ("poll_s", 0.0),
        ("backoff_base_s", -3.0),
        ("backoff_cap_s", float("inf")),
        ("lease_ttl_s", "15"),
    ],
    ids=["ttl-inf", "heartbeat-nan", "poll-zero", "backoff-base-negative",
         "backoff-cap-inf", "ttl-str"],
)
def test_config_refuses_non_finite_and_negative_timings(field, value):
    with pytest.raises(AnalysisError, match=f"a fleet needs {field} to be a finite number"):
        FleetConfig(**{field: value})
    data = dict(FleetConfig().to_dict(), **{field: value})
    with pytest.raises(AnalysisError, match=field):
        FleetConfig.from_dict(data)


def test_config_allows_retrying_at_once():
    config = FleetConfig(backoff_base_s=0.0, backoff_cap_s=0.0)
    assert state.backoff_delay(config, 0, 3) == 0.0


def test_init_layout_and_double_init(fleet, jobs6):
    root, runner = fleet
    paths = FleetPaths(root)
    assert paths.config.is_file() and paths.journal.is_file()
    config = state.load_config(root)
    assert config.shards == 3 and config.jobs == 6
    # Manifests stamp shard=0: fleet provenance lives in the journal, and
    # the merged bytes must match the serial reference (which stamps 0).
    for shard in range(3):
        manifest = load_manifest(paths.manifest(shard))
        assert manifest["shard"] == 0
        assert [job.index for job in manifest["jobs"]] == [shard, shard + 3]
    with pytest.raises(AnalysisError, match="already holds a fleet"):
        runner.initialize(jobs6)


def test_init_is_crash_idempotent_before_config_lands(tmp_path, jobs6):
    # init dying between the journal write and the config write must not
    # wedge the directory: the rerun passes the config-exists check and
    # must end up with exactly one journal header, not an appended second
    # one that every later parse trips over.
    root = tmp_path / "fleet"
    FleetRunner(root).initialize(jobs6)
    FleetPaths(root).config.unlink()  # the crash window
    FleetRunner(root).initialize(jobs6)
    assert state.read_journal(root) == []
    header_lines = [
        line for line in atomic.read_lines(FleetPaths(root).journal) if line.strip()
    ]
    assert len(header_lines) == 1


def test_cli_status_on_non_fleet_dir_is_a_clean_error(tmp_path, capsys):
    from repro.cli import main

    assert main(["fleet", "status", "--dir", str(tmp_path / "nope")]) == 1
    captured = capsys.readouterr()
    assert "fleet status failed" in captured.err
    assert "Traceback" not in captured.err


def test_init_caps_shards_at_job_count(tmp_path, jobs6):
    runner = FleetRunner(tmp_path / "wide")
    config = runner.initialize(jobs6, config=FleetConfig(shards=50))
    assert config.shards == 6


def test_lease_lifecycle(fleet):
    root, _ = fleet
    assert state.claim_shard(root, 0, "w0", 0, 10.0, now=100.0)
    lease = state.read_lease(root, 0)
    assert lease["worker"] == "w0" and lease["deadline"] == 110.0
    assert not state.lease_expired(lease, now=105.0)
    assert state.lease_expired(lease, now=110.5)
    assert state.renew_lease(root, 0, "w0", 0, 10.0, now=200.0)
    assert state.read_lease(root, 0)["deadline"] == 210.0
    # Wrong worker or wrong attempt: the heartbeat must refuse.
    assert not state.renew_lease(root, 0, "w1", 0, 10.0, now=200.0)
    assert not state.renew_lease(root, 0, "w0", 1, 10.0, now=200.0)
    state.release_lease(root, 0)
    assert state.read_lease(root, 0) is None
    state.release_lease(root, 0)  # idempotent


def test_lease_expired_by_dead_pid(fleet):
    root, _ = fleet
    # Claim on behalf of a pid that cannot exist: expiry ignores deadline.
    assert state.claim_shard(root, 1, "ghost", 0, 1e6, now=0.0, pid=2**22 + 1)
    lease = state.read_lease(root, 1)
    assert state.lease_expired(lease, now=1.0)


def test_renew_refused_after_ledger_bump(fleet):
    root, _ = fleet
    assert state.claim_shard(root, 0, "w0", 0, 10.0, now=0.0)
    ledger = state.read_attempts(root)
    ledger["0"]["attempt"] = 1
    state.write_attempts(root, ledger)
    # The zombie self-silencing path: the lease file still names w0, but
    # the ledger has moved past attempt 0.
    assert not state.renew_lease(root, 0, "w0", 0, 10.0, now=1.0)


def test_backoff_deterministic_and_bounded(fleet):
    root, _ = fleet
    config = state.load_config(root)
    for shard in range(3):
        for failures in range(1, 6):
            delay = state.backoff_delay(config, shard, failures)
            assert delay == state.backoff_delay(config, shard, failures)
            exponential = min(
                config.backoff_cap_s,
                config.backoff_base_s * 2 ** (failures - 1),
            )
            assert 0.5 * exponential <= delay < 1.5 * exponential
    assert state.backoff_delay(config, 0, 1) != state.backoff_delay(config, 1, 1)


def test_journal_torn_tail_tolerated_and_repaired(fleet):
    root, _ = fleet
    state.append_merge(root, {"shard": 0, "attempt": 0, "digest": "d", "records": 2})
    paths = FleetPaths(root)
    with paths.journal.open("a", encoding="utf-8") as handle:
        handle.write('{"kind": "merge", "shard": 1, "att')  # killed mid-append
    assert [entry["shard"] for entry in state.read_journal(root)] == [0]
    assert state.repair_journal(root) is True
    assert state.repair_journal(root) is False  # nothing left to repair
    assert [entry["shard"] for entry in state.read_journal(root)] == [0]
    # The repaired file parses line-for-line.
    for line in paths.journal.read_text(encoding="utf-8").splitlines():
        json.loads(line)


def test_journal_mid_file_corruption_is_fatal(fleet):
    root, _ = fleet
    state.append_merge(root, {"shard": 0, "attempt": 0, "digest": "d", "records": 2})
    paths = FleetPaths(root)
    lines = paths.journal.read_text(encoding="utf-8").splitlines()
    lines[1] = '{"kind": "merge", broken'
    state.append_merge(root, {"shard": 1, "attempt": 0, "digest": "e", "records": 2})
    damaged = lines + [paths.journal.read_text(encoding="utf-8").splitlines()[-1]]
    paths.journal.write_text("\n".join(damaged) + "\n", encoding="utf-8")
    with pytest.raises(AnalysisError, match="cannot be trusted"):
        state.read_journal(root)


def test_journal_deduplicates_by_shard(fleet):
    root, _ = fleet
    entry = {"shard": 0, "attempt": 0, "digest": "d", "records": 2}
    state.append_merge(root, entry)
    state.append_merge(root, dict(entry, attempt=1))  # racing coordinator
    journal = state.read_journal(root)
    assert len(journal) == 1 and journal[0]["attempt"] == 0


def complete_attempt(root, shard, attempt=0):
    assert state.claim_shard(root, shard, "w", attempt, 10.0, now=0.0)
    run_attempt(root, "w", shard, attempt, simulate=True)


def test_validate_attempt_verdicts(fleet):
    root, runner = fleet
    expected = runner.expected_indices(0)
    assert state.validate_attempt(root, 0, 0, expected) == (None, "no done marker")
    complete_attempt(root, 0)
    records, reason = state.validate_attempt(root, 0, 0, expected)
    assert reason == "ok"
    assert {record.index for record in records} == expected
    # Wrong expected indices -> index mismatch.
    _, reason = state.validate_attempt(root, 0, 0, {0, 99})
    assert "index mismatch" in reason
    paths = FleetPaths(root)
    out = paths.attempt_out(0, 0)
    # Damage after completion -> digest mismatch, never an exception.
    atomic.overwrite_bytes(out, out.stat().st_size // 2, b"\x00x\x00")
    _, reason = state.validate_attempt(root, 0, 0, expected)
    assert "digest mismatch" in reason


def test_validate_attempt_torn_output(fleet):
    root, runner = fleet
    complete_attempt(root, 1)
    paths = FleetPaths(root)
    out = paths.attempt_out(1, 0)
    torn = out.read_bytes()[:-7]
    out.write_bytes(torn)
    # Republish a marker matching the torn bytes: the digest now passes
    # and the recovery reader is what must catch the damage.
    done = atomic.read_json(paths.attempt_done(1, 0))
    done["digest"] = atomic.sha256_file(out)
    atomic.atomic_write_json(paths.attempt_done(1, 0), done)
    _, reason = state.validate_attempt(root, 1, 0, runner.expected_indices(1))
    assert "torn output" in reason


def test_rebuild_merged_idempotent_and_tamper_evident(fleet, jobs6):
    root, runner = fleet
    for shard in range(3):
        complete_attempt(root, shard)
        out = FleetPaths(root).attempt_out(shard, 0)
        state.append_merge(
            root,
            {
                "shard": shard,
                "attempt": 0,
                "digest": atomic.sha256_file(out),
                "records": 2,
            },
        )
    first = state.rebuild_merged(root)
    assert [record.index for record in first] == list(range(6))
    again = state.rebuild_merged(root)
    assert [record.index for record in again] == list(range(6))
    merged = FleetPaths(root).merged
    assert len(list(read_jsonl(merged))) == 6
    out = FleetPaths(root).attempt_out(2, 0)
    atomic.overwrite_bytes(out, 4, b"!")
    with pytest.raises(AnalysisError, match="tampered"):
        state.rebuild_merged(root)


def test_snapshot_shape(fleet):
    root, _ = fleet
    assert state.claim_shard(root, 2, "w9", 0, 10.0, now=50.0)
    snap = state.snapshot(root, now=55.0)
    assert snap["schema"] == FLEET_STATE and snap["kind"] == "status"
    assert snap["counts"] == {
        "shards": 3,
        "merged": 0,
        "poisoned": 0,
        "pending": 3,
        "leased": 1,
    }
    (lease,) = snap["leases"]
    assert lease["shard"] == 2 and lease["worker"] == "w9"
    assert lease["expires_in_s"] == 5.0 and lease["holder_alive"]
    assert not snap["done"]
