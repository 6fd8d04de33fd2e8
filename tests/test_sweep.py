"""Tests for the sharded sweep engine and its census/CLI consumers."""

import json
import random

import pytest

from repro.adversaries import (
    random_rooted_family,
    two_process_oblivious_family,
)
from repro.consensus import check_consensus
from repro.consensus.census import random_rooted_census, two_process_census
from repro.errors import AnalysisError
from repro.api import (
    RunRecord,
    SweepJob,
    certificate_summary,
    jobs_for,
    read_jsonl,
    run_sweep,
    write_jsonl,
)


def _fingerprint(records):
    return [(r.index, r.adversary, r.status, r.certificate, r.certified_depth) for r in records]


class TestSerialEngine:
    def test_matches_direct_check_consensus(self):
        family = two_process_oblivious_family()
        records = run_sweep(jobs_for(family, max_depth=6))
        assert len(records) == 15
        for adversary, record in zip(family, records):
            result = check_consensus(adversary, max_depth=6)
            assert record.status == result.status.value
            assert record.certificate == certificate_summary(result)
            assert record.certified_depth == result.certified_depth
            assert record.n == 2
            assert record.alphabet == len(adversary.graphs)
            assert record.shard == 0
            assert record.elapsed_s >= 0

    def test_duplicate_indices_rejected(self):
        family = two_process_oblivious_family()[:2]
        jobs = [SweepJob(0, family[0]), SweepJob(0, family[1])]
        with pytest.raises(AnalysisError):
            run_sweep(jobs)

    def test_tags_carried_through(self):
        jobs = jobs_for(two_process_oblivious_family()[:3], max_depth=4,
                        tags={"family": "two-process"})
        records = run_sweep(jobs)
        assert all(record.tags == {"family": "two-process"} for record in records)


class TestParallelEngine:
    def test_two_workers_match_serial(self):
        jobs = jobs_for(two_process_oblivious_family(), max_depth=5)
        serial = run_sweep(jobs, workers=1)
        parallel = run_sweep(jobs, workers=2)
        assert _fingerprint(parallel) == _fingerprint(serial)

    def test_deterministic_strided_chunking(self):
        jobs = jobs_for(two_process_oblivious_family(), max_depth=4)
        records = run_sweep(jobs, workers=3)
        for record in records:
            assert record.shard == record.index % 3

    def test_workers_capped_by_job_count(self):
        jobs = jobs_for(two_process_oblivious_family()[:2], max_depth=4)
        records = run_sweep(jobs, workers=8)
        assert _fingerprint(records) == _fingerprint(run_sweep(jobs, workers=1))


class TestJsonl:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "out" / "sweep.jsonl"
        jobs = jobs_for(two_process_oblivious_family()[:5], max_depth=4)
        records = run_sweep(jobs, jsonl_path=path)
        loaded = list(read_jsonl(path))
        assert [r.to_dict() for r in loaded] == [r.to_dict() for r in records]
        # Schema header first, then one JSON object per line, indices in order.
        lines = path.read_text().strip().splitlines()
        assert json.loads(lines[0]) == {"schema": "repro.run-record/2"}
        assert [json.loads(line)["index"] for line in lines[1:]] == [0, 1, 2, 3, 4]

    def test_write_read_helpers(self, tmp_path):
        record = RunRecord(
            index=0, adversary="X", n=2, alphabet=1, max_depth=3,
            status="solvable", certified_depth=1, certificate="decision-table@1",
            elapsed_s=0.1, views_interned=7, shard=0, tags={"k": "v"},
        )
        path = tmp_path / "one.jsonl"
        write_jsonl([record], path)
        loaded = next(iter(read_jsonl(path)))
        assert loaded.to_dict() == record.to_dict()
        assert loaded.solvable is True


class TestCensusOnEngine:
    def test_two_process_census_parallel_matches_serial(self):
        serial = two_process_census(max_depth=5)
        parallel = two_process_census(max_depth=5, workers=2)
        assert [
            (r.adversary.name, r.status, r.certificate, r.certified_depth,
             r.oracle, r.cgp)
            for r in serial
        ] == [
            (r.adversary.name, r.status, r.certificate, r.certified_depth,
             r.oracle, r.cgp)
            for r in parallel
        ]

    def test_rooted_census_is_seed_deterministic(self):
        rows_a = random_rooted_census(random.Random(11), samples=6, max_depth=3)
        rows_b = random_rooted_census(random.Random(11), samples=6, max_depth=3)
        assert [(r.adversary, r.status) for r in rows_a] == [
            (r.adversary, r.status) for r in rows_b
        ]

    def test_rooted_family_generator_is_deterministic(self):
        family_a = random_rooted_family(random.Random(5), 3, 8)
        family_b = random_rooted_family(random.Random(5), 3, 8)
        assert [a.graphs for a in family_a] == [b.graphs for b in family_b]


class TestSweepCli:
    def test_sweep_command_writes_jsonl(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "two_process.jsonl"
        assert main([
            "sweep", "--family", "two-process", "--max-depth", "4",
            "--workers", "2", "--out", str(out),
        ]) == 0
        records = list(read_jsonl(out))
        assert len(records) == 15
        assert {r.status for r in records} == {"solvable", "impossible"}
        text = capsys.readouterr().out
        assert "15 jobs on 2 worker(s)" in text

    def test_sweep_rooted_family_seeded(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "rooted.jsonl"
        assert main([
            "sweep", "--family", "rooted", "--n", "3", "--samples", "4",
            "--max-depth", "3", "--seed", "9", "--out", str(out),
        ]) == 0
        records = list(read_jsonl(out))
        assert len(records) == 4
        assert all(r.tags == {"family": "rooted", "seed": 9} for r in records)
        # Jobs now travel as specs: every record carries its own sub-seed
        # and the full spec needed to rebuild the sampled adversary.
        assert all(r.family == "random-rooted" and r.seed is not None
                   for r in records)

    def test_fleet_run_matches_serial_sweep_bytes(self, tmp_path, capsys):
        from repro.cli import main

        reference = tmp_path / "serial.jsonl"
        assert main([
            "sweep", "--family", "two-process", "--max-depth", "4",
            "--backend", "serial", "--no-timing", "--out", str(reference),
        ]) == 0
        fleet_dir = tmp_path / "fleet"
        assert main([
            "fleet", "run", "--dir", str(fleet_dir), "--family", "two-process",
            "--max-depth", "4", "--shards", "2", "--workers", "2",
            "--no-timing", "--poll", "0.05",
        ]) == 0
        # Subprocess shards ran from JSON manifests and merged byte for byte.
        assert (fleet_dir / "shards" / "shard_1.json").exists()
        merged = fleet_dir / "merged.jsonl"
        assert merged.read_bytes() == reference.read_bytes()
        assert "merged.jsonl is the record of truth" in capsys.readouterr().out

    def test_report_command(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "two_process.jsonl"
        assert main([
            "sweep", "--family", "two-process", "--max-depth", "4",
            "--out", str(out),
        ]) == 0
        capsys.readouterr()
        assert main(["report", str(out)]) == 0
        text = capsys.readouterr().out
        assert "status histogram" in text
        assert "per-family statuses" in text


class TestRetry:
    def _undecided_sweep(self, tmp_path):
        """A seeded rooted sweep at depth 0 with a real undecided frontier."""
        from repro.specs import random_rooted_specs
        from repro.api import retry_jobs

        specs = random_rooted_specs(7, 3, 10, sizes=(1, 2))
        path = tmp_path / "first.jsonl"
        records = run_sweep(jobs_for(specs, max_depth=0), jsonl_path=path)
        undecided = [r for r in records if r.status == "undecided"]
        assert undecided, "expected an undecided frontier at depth 0"
        return records, undecided, path, retry_jobs

    def test_retry_requeues_only_undecided_at_deeper_budget(self, tmp_path):
        records, undecided, _, retry_jobs = self._undecided_sweep(tmp_path)
        jobs, skipped = retry_jobs(records, extra_depth=4)
        assert not skipped
        assert sorted(job.index for job in jobs) == sorted(
            r.index for r in undecided
        )
        for job in jobs:
            assert job.max_depth == 4  # 0 + 4
            assert job.tags["retry_of_max_depth"] == 0
        retried = run_sweep(jobs)
        assert all(r.status != "undecided" for r in retried)

    def test_retry_absolute_budget_and_validation(self, tmp_path):
        records, _, _, retry_jobs = self._undecided_sweep(tmp_path)
        jobs, _ = retry_jobs(records, max_depth=6)
        assert all(job.max_depth == 6 for job in jobs)
        with pytest.raises(AnalysisError):
            retry_jobs(records)
        with pytest.raises(AnalysisError):
            retry_jobs(records, extra_depth=2, max_depth=6)

    def test_records_without_specs_are_reported_not_dropped_silently(self):
        from repro.records import RunRecord
        from repro.api import retry_jobs

        bare = RunRecord(
            index=0, adversary="X", n=2, alphabet=1, max_depth=2,
            status="undecided", certified_depth=None,
            certificate="undecided@2", elapsed_s=0.0, views_interned=0,
            shard=0,
        )
        jobs, skipped = retry_jobs([bare], extra_depth=2)
        assert jobs == []
        assert skipped == [bare]

    def test_no_finite_table_records_are_skipped(self):
        from repro.api import retry_jobs
        from repro.specs import AdversarySpec

        spec = AdversarySpec("stabilizing", {"n": 2, "graphs": [2, 4, 6], "window": 2})
        [record] = run_sweep(jobs_for([spec], max_depth=4))
        assert record.status == "undecided"
        assert record.certificate == "undecided:no-finite-table"
        for budget in ({"extra_depth": 2}, {"max_depth": 12}):
            jobs, skipped = retry_jobs([record], **budget)
            assert jobs == []
            assert skipped == [record]

    def test_cli_retry_roundtrip(self, tmp_path, capsys):
        from repro.cli import main

        first = tmp_path / "first.jsonl"
        assert main([
            "sweep", "--family", "rooted", "--n", "3", "--samples", "10",
            "--sizes", "1", "2", "--seed", "7", "--max-depth", "0",
            "--out", str(first),
        ]) == 0
        capsys.readouterr()
        retried = tmp_path / "retried.jsonl"
        assert main([
            "sweep", "--retry", str(first), "--max-depth", "+4",
            "--out", str(retried),
        ]) == 0
        out = capsys.readouterr().out
        assert "jobs on" in out
        first_records = list(read_jsonl(first))
        retried_records = list(read_jsonl(retried))
        undecided = [r for r in first_records if r.status == "undecided"]
        assert len(retried_records) == len(undecided)
        assert all(r.max_depth == 4 for r in retried_records)
        # Indices trace back to the original sweep.
        assert {r.index for r in retried_records} == {
            r.index for r in undecided
        }

    def test_cli_retry_on_decided_file_is_a_noop(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "two.jsonl"
        assert main([
            "sweep", "--family", "two-process", "--max-depth", "4",
            "--out", str(out),
        ]) == 0
        capsys.readouterr()
        assert main(["sweep", "--retry", str(out)]) == 0
        assert "no undecided records to retry" in capsys.readouterr().out

    def test_cli_relative_depth_requires_retry(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["sweep", "--family", "two-process", "--max-depth", "+2"])

    def test_retry_skips_budgets_that_do_not_deepen(self, tmp_path):
        records, undecided, _, retry_jobs = self._undecided_sweep(tmp_path)
        # Absolute budget equal to the original: nothing can change.
        jobs, skipped = retry_jobs(records, max_depth=0)
        assert jobs == []
        assert len(skipped) == len(undecided)
        with pytest.raises(AnalysisError):
            retry_jobs(records, extra_depth=0)

    def test_cli_retry_rejects_family_selection(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "two.jsonl"
        assert main([
            "sweep", "--family", "two-process", "--max-depth", "4",
            "--out", str(out),
        ]) == 0
        with pytest.raises(SystemExit, match="cannot be combined"):
            main(["sweep", "--retry", str(out), "--family", "rooted"])

    def test_cli_retry_rejects_non_deepening_relative_budget(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit, match="deepen the budget"):
            main(["sweep", "--retry", str(tmp_path / "x.jsonl"),
                  "--max-depth", "+0"])
