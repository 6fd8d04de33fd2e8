"""Backend equivalence: serial == process == fleet, spec-only shipping."""

import json

import pytest

from repro.adversaries import SafetyAdversary, two_process_oblivious_family
from repro.api import run_sweep
from repro.backends import (
    ProcessBackend,
    SerialBackend,
    SweepBackend,
    SweepJob,
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


#: The removed cap on extension workers inside pool and fleet workers.
_WORKER_CAP_ENV = "REPRO_MAX_EXTENSION_WORKERS"


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


@pytest.mark.parametrize("bad", [-1, True, "3", 2.0, None], ids=repr)
def test_sweep_job_refuses_a_max_depth_that_is_not_a_depth(bad, tmp_path):
    spec = AdversarySpec("two-process", {"index": 0})
    with pytest.raises(AnalysisError, match="max_depth"):
        SweepJob(0, max_depth=bad, spec=spec)
    path = write_manifest(jobs_for([spec], max_depth=2), tmp_path / "shard.json")
    payload = json.loads(path.read_text())
    payload["jobs"][0]["max_depth"] = bad
    path.write_text(json.dumps(payload))
    with pytest.raises(AnalysisError, match="max_depth"):
        load_manifest(path)


@pytest.mark.parametrize(
    "bad", [6, "lossy-full", AdversarySpec("two-process", {"index": 0})], ids=repr
)
def test_sweep_job_refuses_an_adversary_that_is_not_one(bad):
    """The second positional parameter is the adversary: ``SweepJob(0, 6,
    spec=s)`` must fail here, not as an ``AttributeError`` in a worker."""
    spec = AdversarySpec("two-process", {"index": 0})
    with pytest.raises(AnalysisError, match="MessageAdversary"):
        SweepJob(0, bad, spec=spec)
    with pytest.raises(AnalysisError, match="MessageAdversary"):
        SweepJob(0, bad)


def test_a_manifest_refuses_a_spec_document_passed_as_an_adversary(tmp_path):
    """``jobs_for`` takes adversaries or :class:`AdversarySpec` objects; a
    spec's JSON form is neither, and no manifest is written for it."""
    spec = AdversarySpec("two-process", {"index": 0})
    path = tmp_path / "shard.json"
    with pytest.raises(AnalysisError, match="MessageAdversary"):
        write_manifest(jobs_for([spec, spec.to_dict()], max_depth=2), path)
    assert not path.exists()


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

    def test_manifest_with_removed_knobs_loads(self, tmp_path):
        # Releases with the sharded extension and the plan-cache knob wrote
        # both keys into the options of every manifest.
        path = write_manifest(
            jobs_for(_two_process_specs()[:1], max_depth=3),
            tmp_path / "old.json",
            options=CheckOptions(max_depth=3),
        )
        payload = json.loads(path.read_text())
        payload["options"].update(extension_workers=1, plan_cache_size=None)
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
    """Process-pool sweeps cannot oversubscribe via extension workers.

    The ``extension_workers`` knob and the ``REPRO_MAX_EXTENSION_WORKERS``
    cap that clamped it inside pool and fleet workers are removed: every
    check is serial, so a pool's size is the sweep's whole process count.
    Requests that still carry the knob load, fork nothing, and run the
    same checks.
    """

    def test_run_shard_sets_the_env_cap(self, monkeypatch):
        import multiprocessing
        import os

        from repro.backends import _run_shard

        monkeypatch.delenv(_WORKER_CAP_ENV, raising=False)
        jobs = jobs_for(_two_process_specs()[:2], max_depth=3)
        options = CheckOptions.from_dict({"max_depth": 3, "extension_workers": 4})
        records = _run_shard((0, jobs, options, False))
        # No cap is needed, so the shard leaves the environment alone.
        assert _WORKER_CAP_ENV not in os.environ
        assert multiprocessing.active_children() == []
        assert len(records) == 2

    def test_env_cap_defeats_the_knob_at_dispatch_time(self, monkeypatch):
        import multiprocessing

        jobs = jobs_for(_two_process_specs()[:4], max_depth=4)
        legacy = CheckOptions.from_dict({"max_depth": 4, "extension_workers": 8})
        plain = SerialBackend(record_timing=False).run(jobs, CheckOptions(max_depth=4))
        for cap in ("1", None):
            if cap is None:
                monkeypatch.delenv(_WORKER_CAP_ENV, raising=False)
            else:
                monkeypatch.setenv(_WORKER_CAP_ENV, cap)
            records = SerialBackend(record_timing=False).run(jobs, legacy)
            assert multiprocessing.active_children() == []
            assert _fingerprint(records) == _fingerprint(plain)

    def test_process_backend_matches_serial_with_workers_requested(self):
        jobs = jobs_for(_two_process_specs(), max_depth=4)
        options = CheckOptions.from_dict({"max_depth": 4, "extension_workers": 4})
        serial = SerialBackend(record_timing=False).run(jobs, CheckOptions(max_depth=4))
        pooled = ProcessBackend(2, record_timing=False).run(jobs, options)
        assert _no_shard(_fingerprint(serial)) == _no_shard(_fingerprint(pooled))

    def test_manifest_subprocess_env_carries_the_cap(self, monkeypatch):
        """Fleet workers, the subprocesses that execute shard manifests,
        get the package on ``PYTHONPATH`` (they run ``-m repro.cli`` from
        an uninstalled tree too) and no extension-worker cap."""
        import os
        from pathlib import Path

        import repro
        from repro.fleet.runner import _worker_env

        package_root = str(Path(repro.__file__).resolve().parents[1])
        monkeypatch.delenv(_WORKER_CAP_ENV, raising=False)
        monkeypatch.delenv("PYTHONPATH", raising=False)
        single = _worker_env()
        assert _WORKER_CAP_ENV not in single
        assert single["PYTHONPATH"] == package_root
        monkeypatch.setenv("PYTHONPATH", "elsewhere")
        assert _worker_env()["PYTHONPATH"].split(os.pathsep) == [
            package_root,
            "elsewhere",
        ]


class TestOneInternerPerJob:
    """Every sweep job checks on a fresh interner of its own."""

    #: sha256 of the ``record_timing=False`` records of :meth:`_jobs`, as
    #: written when shards still shared one interner per process count.
    SHARED_DESIGN_SHA256 = (
        "867a63162e03bf4bdaf02c09d6ca0b1c902f553710410e71fc8f36350d2e9069"
    )

    @staticmethod
    def _jobs():
        specs = random_rooted_specs(5, 3, 24) + _two_process_specs()
        return jobs_for(specs, max_depth=4)

    def test_each_job_gets_its_own_empty_interner(self, monkeypatch):
        import repro.consensus.solvability as solvability

        check = solvability.check_consensus_with_options
        seen = []

        def spy(adversary, options, **kwargs):
            interner = kwargs["interner"]
            seen.append((interner, len(interner), interner.n == adversary.n))
            return check(adversary, options, **kwargs)

        monkeypatch.setattr(solvability, "check_consensus_with_options", spy)
        jobs = self._jobs()
        records = list(iter_job_records(0, jobs))
        assert len(seen) == len(records) == len(jobs)
        assert all(empty == 0 and same_n for _, empty, same_n in seen)
        assert len({id(interner) for interner, _, _ in seen}) == len(jobs)
        # A job's views are its own: the record counts every view its
        # interner holds after the check.
        assert [len(interner) for interner, _, _ in seen] == [
            record.views_interned for record in records
        ]

    def test_views_interned_is_the_solo_count_in_any_job_order(self):
        from repro.consensus.solvability import check_consensus_with_options
        from repro.core.views import ViewInterner

        jobs = self._jobs()
        options = CheckOptions()
        solo = {}
        for job in jobs:
            interner = ViewInterner(job.adversary.n)
            check_consensus_with_options(
                job.adversary, options.replace(max_depth=job.max_depth),
                interner=interner,
            )
            solo[job.index] = len(interner)
        assert any(solo.values())
        for order in (jobs, jobs[::-1], jobs[1::2] + jobs[::2]):
            records = list(iter_job_records(0, order, options))
            assert {r.index: r.views_interned for r in records} == solo

    def test_untimed_records_are_byte_identical_to_the_shared_design(self, tmp_path):
        import hashlib

        from repro.consensus.solvability import check_consensus_with_options
        from repro.core.views import ViewInterner
        from repro.records import RunRecord, certificate_summary, write_jsonl

        jobs = self._jobs()
        write_jsonl(iter_job_records(0, jobs, record_timing=False), tmp_path / "own.jsonl")
        own = (tmp_path / "own.jsonl").read_bytes()
        assert hashlib.sha256(own).hexdigest() == self.SHARED_DESIGN_SHA256

        # The same jobs checked on one interner per process count, which
        # catches its row index up before each later job's lookups.
        shared: dict = {}
        records = []
        for job in jobs:
            adversary = job.adversary
            interner = shared.setdefault(adversary.n, ViewInterner(adversary.n))
            result = check_consensus_with_options(
                adversary, CheckOptions(max_depth=job.max_depth), interner=interner
            )
            records.append(
                RunRecord(
                    index=job.index, adversary=adversary.name, n=adversary.n,
                    alphabet=len(adversary.alphabet()), max_depth=job.max_depth,
                    status=result.status.value,
                    certified_depth=result.certified_depth,
                    certificate=certificate_summary(result), elapsed_s=0.0,
                    views_interned=0, shard=0, tags=job.tags,
                    family=job.spec.family, seed=job.spec.seed,
                    spec=job.spec.to_dict(),
                )
            )
        write_jsonl(records, tmp_path / "shared.jsonl")
        assert (tmp_path / "shared.jsonl").read_bytes() == own
