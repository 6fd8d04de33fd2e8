"""Backend equivalence: serial == process == fleet, spec-only shipping."""

import json

import pytest

from repro.adversaries import SafetyAdversary, two_process_oblivious_family
from repro.api import run_sweep
from repro.backends import (
    ProcessBackend,
    SerialBackend,
    SweepBackend,
    iter_job_records,
    jobs_for,
    load_manifest,
    write_manifest,
)
from repro.consensus.census import two_process_census
from repro.consensus.solvability import CheckOptions
from repro.core.digraph import arrow
from repro.errors import AdversaryError, AnalysisError
from repro.fleet import FleetBackend
from repro.records import read_jsonl
from repro.specs import AdversarySpec, random_rooted_specs


def _fingerprint(records):
    return [
        (r.index, r.adversary, r.status, r.certificate, r.certified_depth, r.shard)
        for r in records
    ]


def _no_shard(fingerprints):
    return [fp[:-1] for fp in fingerprints]


def _two_process_specs():
    return [AdversarySpec("two-process", {"index": i}) for i in range(15)]


def _fleet(workdir, shards=2, **kwargs):
    """A fleet backend with test-speed polling (two worker subprocesses)."""
    return FleetBackend(workdir, shards=shards, workers=2, poll_s=0.05, **kwargs)


class TestBackendEquivalence:
    def test_all_three_backends_agree(self, tmp_path):
        jobs = jobs_for(_two_process_specs(), max_depth=4)
        serial = SerialBackend().run(jobs)
        process = ProcessBackend(2).run(jobs)
        fleet = _fleet(tmp_path / "fleet").run(jobs)
        assert _fingerprint(serial)[:3] != []  # sanity: records exist
        # Order-normalized record sets are identical, except the shard
        # column: the pool stamps its shard, the fleet keeps provenance in
        # its journal and stamps 0 like the serial reference.
        assert _no_shard(_fingerprint(serial)) == _no_shard(_fingerprint(process))
        assert _fingerprint(serial) == _fingerprint(fleet)

    def test_backends_satisfy_the_protocol(self, tmp_path):
        assert isinstance(SerialBackend(), SweepBackend)
        assert isinstance(ProcessBackend(2), SweepBackend)
        assert isinstance(FleetBackend(tmp_path), SweepBackend)

    def test_run_sweep_accepts_explicit_backend(self, tmp_path):
        jobs = jobs_for(_two_process_specs()[:5], max_depth=4)
        records = run_sweep(jobs, backend=_fleet(tmp_path / "fleet"))
        assert _fingerprint(records) == _fingerprint(run_sweep(jobs, workers=1))


class TestManifestRoundTrip:
    def test_end_to_end_without_pickled_adversaries(self, tmp_path):
        """Specs -> shard manifests on disk -> subprocesses -> merged JSONL."""
        workdir = tmp_path / "fleet"
        jobs = jobs_for(_two_process_specs(), max_depth=4)
        records = _fleet(workdir).run(jobs)

        # The on-disk interface the fleet workers consume:
        indices = []
        for k in range(2):
            manifest_path = workdir / "shards" / f"shard_{k}.json"
            payload = json.loads(manifest_path.read_text())
            assert payload["schema"] == "repro.sweep-manifest/1"
            # Jobs are pure JSON specs — nothing pickled, nothing live.
            for job in payload["jobs"]:
                assert set(job) == {"index", "max_depth", "tags", "spec"}
                assert job["spec"]["family"] == "two-process"
            indices.append([job.index for job in load_manifest(manifest_path)["jobs"]])
        # Striding matches ProcessBackend's shard layout.
        assert indices == [list(range(0, 15, 2)), list(range(1, 15, 2))]

        # Merged records match a ProcessBackend run of the same specs.
        assert _no_shard(_fingerprint(records)) == _no_shard(
            _fingerprint(ProcessBackend(2).run(jobs))
        )

    def test_live_oblivious_jobs_derive_specs(self, tmp_path):
        family = two_process_oblivious_family()[:4]
        records = _fleet(tmp_path / "fleet").run(jobs_for(family, max_depth=4))
        assert [r.adversary for r in records] == [a.name for a in family]
        assert all(r.spec["family"] == "oblivious" for r in records)

    def test_underivable_jobs_fail_loudly(self, tmp_path):
        table = {"a": {arrow("->"): ["a"]}}
        jobs = jobs_for([SafetyAdversary(2, ["a"], table)], max_depth=3)
        with pytest.raises(AdversaryError, match="cannot derive"):
            _fleet(tmp_path / "fleet").run(jobs)

    def test_manifest_runs_inline(self, tmp_path):
        manifest_path = tmp_path / "shard_0.json"
        write_manifest(
            jobs_for(_two_process_specs()[:3], max_depth=4),
            manifest_path,
            shard=5,
            options=CheckOptions(max_depth=4),
        )
        loaded = load_manifest(manifest_path)
        assert loaded["shard"] == 5
        assert loaded["options"].max_depth == 4
        records = list(
            iter_job_records(
                loaded["shard"],
                loaded["jobs"],
                loaded["options"],
                loaded["record_timing"],
            )
        )
        assert [r.shard for r in records] == [5, 5, 5]
        assert [r.index for r in records] == [0, 1, 2]

    def test_load_manifest_rejects_other_files(self, tmp_path):
        path = tmp_path / "not_manifest.json"
        path.write_text(json.dumps({"schema": "something-else", "jobs": []}))
        with pytest.raises(AnalysisError, match="not a sweep manifest"):
            load_manifest(path)

    def test_legacy_memo_extensions_in_manifest_options_is_dropped(self, tmp_path):
        path = write_manifest(
            jobs_for(_two_process_specs()[:1], max_depth=3),
            tmp_path / "old.json",
            options=CheckOptions(max_depth=3),
        )
        for legacy in (True, False, None):
            payload = json.loads(path.read_text())
            payload["options"]["memo_extensions"] = legacy
            path.write_text(json.dumps(payload))
            assert load_manifest(path)["options"] == CheckOptions(max_depth=3)

    def test_write_manifest_is_atomic(self, tmp_path, monkeypatch):
        import os

        path = write_manifest(
            jobs_for(_two_process_specs()[:2], max_depth=3), tmp_path / "shard.json"
        )
        before = path.read_bytes()

        def failing_replace(src, dst):
            raise OSError("simulated crash at the rename")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="simulated crash"):
            write_manifest(
                jobs_for(_two_process_specs()[2:5], max_depth=4), path
            )
        # The old manifest is intact and no temp file was left behind.
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["shard.json"]

    def test_failed_shard_is_quarantined_and_reported(self, tmp_path):
        # A family registered only in THIS process: the worker subprocess
        # cannot rebuild its specs, so the shard run must fail — and the
        # backend must surface that, not swallow it.
        from repro.specs import register_family

        try:
            register_family(
                "test-parent-process-only",
                lambda params, rng: two_process_oblivious_family()[0],
            )
        except AdversaryError:
            pass  # already registered by an earlier test run
        spec = AdversarySpec("test-parent-process-only", {})
        jobs = jobs_for([spec], max_depth=3)
        with pytest.raises(AnalysisError, match="quarantined 1 shard"):
            _fleet(tmp_path / "fleet", shards=1, max_attempts=1).run(jobs)


class TestSeededByteIdenticalRuns:
    def test_fleet_and_serial_jsonl_are_byte_identical(self, tmp_path):
        specs = random_rooted_specs(seed=3, n=3, samples=6)
        jobs = jobs_for(specs, max_depth=3, tags={"family": "rooted", "seed": 3})

        serial_out = tmp_path / "serial.jsonl"
        process_out = tmp_path / "process.jsonl"
        fleet_out = tmp_path / "fleet.jsonl"
        run_sweep(
            jobs, backend=SerialBackend(record_timing=False), jsonl_path=serial_out
        )
        run_sweep(
            jobs,
            backend=ProcessBackend(2, record_timing=False),
            jsonl_path=process_out,
        )
        run_sweep(
            jobs,
            backend=_fleet(tmp_path / "fleet", record_timing=False),
            jsonl_path=fleet_out,
        )
        assert fleet_out.read_bytes() == serial_out.read_bytes()
        # The pool differs from both only in the shard column it stamps.
        pooled = [r.to_dict() for r in read_jsonl(process_out)]
        for record in pooled:
            record["shard"] = 0
        assert pooled == [r.to_dict() for r in read_jsonl(serial_out)]
        # And the records really came from per-spec seeds, not a shared
        # rng stream: every record carries its own sub-seed.
        seeds = [r.seed for r in read_jsonl(fleet_out)]
        assert len(set(seeds)) == len(seeds)
        assert seeds == [s.seed for s in specs]

    def test_serial_matches_too_when_sharding_is_trivial(self, tmp_path):
        specs = random_rooted_specs(seed=8, n=3, samples=4)
        jobs = jobs_for(specs, max_depth=3)
        serial_out = tmp_path / "serial.jsonl"
        fleet_out = tmp_path / "fleet.jsonl"
        run_sweep(
            jobs, backend=SerialBackend(record_timing=False), jsonl_path=serial_out
        )
        run_sweep(
            jobs,
            backend=_fleet(tmp_path / "fleet", shards=1, record_timing=False),
            jsonl_path=fleet_out,
        )
        assert serial_out.read_bytes() == fleet_out.read_bytes()


class TestCensusOnBackends:
    def test_census_backend_param_matches_serial(self, tmp_path):
        serial = two_process_census(max_depth=5)
        fleet = two_process_census(max_depth=5, backend=_fleet(tmp_path / "fleet"))
        assert [
            (r.adversary.name, r.status, r.certificate, r.oracle, r.cgp)
            for r in serial
        ] == [
            (r.adversary.name, r.status, r.certificate, r.oracle, r.cgp)
            for r in fleet
        ]

    def test_from_record_does_not_mutate_callers_record(self):
        from repro.consensus.census import CensusRow

        family = two_process_oblivious_family()[:2]
        records = ProcessBackend(1).run(jobs_for(family, max_depth=4))
        original = records[0]
        row = CensusRow.from_record(family[0], original, oracle=True, cgp=True)
        assert original.oracle is None and original.cgp is None
        assert row.record is not original
        assert row.oracle is True and row.cgp is True

    def test_census_jsonl_records_carry_cross_verdicts(self, tmp_path):
        path = tmp_path / "census.jsonl"
        rows = two_process_census(max_depth=5, jsonl_path=path)
        records = list(read_jsonl(path))
        assert len(records) == len(rows) == 15
        assert all(r.oracle is not None and r.cgp is not None for r in records)
        assert [r.status for r in records] == [row.status.value for row in rows]


class TestExtensionWorkerClamp:
    """Process-pool sweeps must not oversubscribe via extension workers."""

    def test_run_shard_sets_the_env_cap(self, monkeypatch):
        from repro.backends import _run_shard
        from repro.core.views import _WORKER_CAP_ENV
        import os

        # Register the key with monkeypatch so the value _run_shard writes
        # directly into os.environ is rolled back at teardown.
        monkeypatch.setenv(_WORKER_CAP_ENV, "999")
        jobs = jobs_for(_two_process_specs()[:2], max_depth=3)
        options = CheckOptions(extension_workers=4)
        records = _run_shard((0, jobs, options, False))
        assert os.environ.get(_WORKER_CAP_ENV) == "1"
        assert len(records) == 2

    def test_env_cap_defeats_the_knob_at_dispatch_time(self, monkeypatch):
        from repro.core.views import ViewInterner, _WORKER_CAP_ENV

        interner = ViewInterner(2, extension_workers=8)
        monkeypatch.setenv(_WORKER_CAP_ENV, "1")
        assert interner._effective_workers(10**9) == 1
        monkeypatch.delenv(_WORKER_CAP_ENV)
        # Without the cap the knob is honored again (same interner).
        if interner.layer_backend == "numpy":
            assert interner._effective_workers(10**9) == 8

    def test_process_backend_matches_serial_with_workers_requested(self):
        jobs = jobs_for(_two_process_specs(), max_depth=4)
        options = CheckOptions(extension_workers=4)
        serial = SerialBackend(record_timing=False).run(jobs, CheckOptions())
        pooled = ProcessBackend(2, record_timing=False).run(jobs, options)
        assert _no_shard(_fingerprint(serial)) == _no_shard(_fingerprint(pooled))

    def test_manifest_subprocess_env_carries_the_cap(self, monkeypatch):
        """Concurrent fleet workers — the subprocesses that execute shard
        manifests — run with extension workers clamped to 1."""
        from pathlib import Path

        import repro
        from repro.core.views import _WORKER_CAP_ENV
        from repro.fleet.runner import _worker_env

        monkeypatch.delenv(_WORKER_CAP_ENV, raising=False)
        assert _worker_env(2)[_WORKER_CAP_ENV] == "1"
        single = _worker_env(1)
        assert _WORKER_CAP_ENV not in single
        # Workers run `-m repro.cli` from an uninstalled tree too.
        package_root = str(Path(repro.__file__).resolve().parents[1])
        assert single["PYTHONPATH"].split(":")[0] == package_root
