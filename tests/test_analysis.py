"""Tests for the report layer over record streams (fresh and archived)."""

import json

from repro.analysis import certificate_kind, render_report, report_jsonl, summarize
from repro.api import jobs_for, run_sweep
from repro.records import RunRecord
from repro.specs import AdversarySpec


def _record(index, status="solvable", certificate="decision-table@1", **kw):
    defaults = dict(
        index=index, adversary=f"A{index}", n=2, alphabet=2, max_depth=4,
        status=status, certified_depth=1, certificate=certificate,
        elapsed_s=0.001 * (index + 1), views_interned=3, shard=0,
    )
    defaults.update(kw)
    return RunRecord(**defaults)


class TestCertificateKind:
    def test_strips_instance_detail(self):
        assert certificate_kind("decision-table@3") == "decision-table"
        assert certificate_kind("broadcaster p1") == "broadcaster"
        assert certificate_kind("undecided@6") == "undecided"
        assert certificate_kind("nonbroadcastable-lasso") == "nonbroadcastable-lasso"
        assert certificate_kind("-") == "-"
        assert certificate_kind(None) == "-"


class TestSummarize:
    def test_counts_and_pivots(self):
        records = [
            _record(0),
            _record(1, status="impossible", certificate="nonbroadcastable-lasso"),
            _record(2, status="undecided", certificate="undecided@4",
                    certified_depth=None, family="rooted"),
            _record(3, n=3, alphabet=5, family="rooted"),
        ]
        report = summarize(records, top=2)
        assert report.total == 4
        assert report.status_counts == {
            "solvable": 2, "impossible": 1, "undecided": 1,
        }
        assert report.certificate_counts["decision-table"] == 2
        assert report.by_family["rooted"]["undecided"] == 1
        assert report.by_shape[(2, 2)]["solvable"] == 1
        assert report.by_shape[(3, 5)] == {"solvable": 1}
        assert [r.index for r in report.undecided] == [2]
        # Slowest listing is elapsed-descending and bounded by top.
        assert [r.index for r in report.slowest] == [3, 2]

    def test_family_falls_back_to_tags(self):
        report = summarize([_record(0, tags={"family": "tagged"})])
        assert "tagged" in report.by_family

    def test_undecided_frontier_orders_by_explored_depth(self):
        records = [
            _record(0, status="undecided", certificate="undecided@2",
                    certified_depth=None, max_depth=6),
            _record(1, status="undecided", certificate="undecided@6",
                    certified_depth=None, max_depth=6),
            _record(2, status="undecided", certificate="-",  # legacy records
                    certified_depth=None, max_depth=6),
        ]
        report = summarize(records)
        # Deepest-explored first; legacy "-" certificates sort last.
        assert [r.index for r in report.undecided] == [1, 0, 2]

    def test_summarize_streams_without_buffering(self):
        def stream():
            for index in range(2000):
                yield _record(index)

        report = summarize(stream(), top=3)
        assert report.total == 2000
        # elapsed_s grows with index, so the slowest are the last three.
        assert [r.index for r in report.slowest] == [1999, 1998, 1997]

    def test_summarize_top_zero_skips_slowest(self):
        assert summarize([_record(0)], top=0).slowest == []


class TestRenderReport:
    def test_sections_present(self):
        records = [
            _record(0),
            _record(1, status="undecided", certificate="undecided@4",
                    certified_depth=None),
        ]
        text = render_report(summarize(records))
        assert "status histogram" in text
        assert "certificate histogram" in text
        assert "per-family statuses" in text
        assert "per-(n, |D|) statuses" in text
        assert "undecided frontier (1 records)" in text
        assert "undecided@4" in text

    def test_report_from_fresh_sweep(self, tmp_path):
        path = tmp_path / "fresh.jsonl"
        specs = [AdversarySpec("two-process", {"index": i}) for i in range(15)]
        run_sweep(jobs_for(specs, max_depth=4), jsonl_path=path)
        text = report_jsonl(path)
        assert "15 records" in text
        assert "two-process" in text
        assert "n=2 |D|=4" in text

    def test_report_from_pr2_era_headerless_jsonl(self, tmp_path):
        """Old artifacts (no header, no family/spec fields) still report."""
        path = tmp_path / "archived.jsonl"
        lines = []
        for index, (status, certificate) in enumerate([
            ("solvable", "decision-table@1"),
            ("impossible", "single-component-induction"),
            ("undecided", "-"),  # old records used "-" for undecided
        ]):
            lines.append(json.dumps({
                "index": index, "adversary": f"Old{index}", "n": 2,
                "alphabet": 2, "max_depth": 6, "status": status,
                "certified_depth": None, "certificate": certificate,
                "elapsed_s": 0.01, "views_interned": 4, "shard": 0,
                "tags": {"family": "two-process"},
            }))
        path.write_text("\n".join(lines) + "\n")
        text = report_jsonl(path)
        assert "3 records" in text
        assert "undecided frontier (1 records)" in text
        assert "two-process" in text


class TestCrossValidation:
    def test_cgp_and_oracle_mining(self):
        records = [
            _record(0, cgp=True, oracle=True),                    # both agree
            _record(1, cgp=False, oracle=True),                   # cgp disagrees
            _record(2, status="impossible", certified_depth=None,
                    certificate="nonbroadcastable-lasso", cgp=True,
                    family="rooted"),                             # cgp disagrees
            _record(3, status="undecided", certified_depth=None,
                    certificate="undecided@4", cgp=True),         # unresolved
            _record(4),                                           # no verdicts
        ]
        report = summarize(records)
        assert report.cgp.checked == 4
        assert report.cgp.agree == 1
        assert report.cgp.unresolved == 1
        assert [r.index for r in report.cgp.disagreements] == [1, 2]
        assert report.cgp.disagreements_by_family() == {"-": 1, "rooted": 1}
        assert report.oracle.checked == 2
        assert report.oracle.agree == 2
        assert report.oracle.disagree == 0

    def test_report_renders_disagreement_section(self):
        records = [
            _record(0, cgp=True),
            _record(1, cgp=False, family="rooted"),
        ]
        text = render_report(summarize(records))
        assert "CGP reconstruction cross-validation" in text
        assert "1 agree, 1 disagree" in text
        assert "cgp predicted unsolvable" in text
        assert "disagreements by family: rooted: 1" in text
        # No oracle verdicts anywhere: the oracle section is omitted.
        assert "literature-oracle" not in text

    def test_sections_absent_without_verdicts(self):
        text = render_report(summarize([_record(0)]))
        assert "cross-validation" not in text

    def test_census_jsonl_feeds_the_cgp_section(self, tmp_path):
        import random

        from repro.consensus.census import random_rooted_census

        path = tmp_path / "census.jsonl"
        random_rooted_census(
            random.Random(5), n=3, samples=6, max_depth=3, jsonl_path=path
        )
        text = report_jsonl(path)
        assert "CGP reconstruction cross-validation" in text
        assert "checked 6" in text


class TestJsonReport:
    """The machine-readable report document (``report --json``)."""

    def _records(self):
        return [
            _record(0),
            _record(1, status="impossible", certificate="nonbroadcastable-lasso"),
            _record(2, status="undecided", certificate="undecided@4",
                    certified_depth=None, family="rooted"),
            _record(3, n=3, alphabet=5, family="rooted", cgp=False),
        ]

    def test_to_dict_round_trips_through_json(self):
        doc = json.loads(json.dumps(summarize(self._records()).to_dict()))
        assert doc["schema"] == "repro.sweep-report/1"
        assert doc["total"] == 4
        assert doc["status_counts"] == {
            "solvable": 2, "impossible": 1, "undecided": 1
        }
        assert doc["by_shape"]["n=3 |D|=5"] == {"solvable": 1}
        assert doc["by_family"]["rooted"]["undecided"] == 1
        assert [r["index"] for r in doc["undecided"]] == [2]
        # Embedded records are full RunRecord dicts, re-loadable.
        from repro.records import RunRecord

        rebuilt = RunRecord.from_dict(doc["undecided"][0])
        assert rebuilt.certificate == "undecided@4"

    def test_cross_validation_sections(self):
        doc = summarize(self._records()).to_dict()
        cgp = doc["cross_validation"]["cgp"]
        # Record 3 is solvable but cgp predicted unsolvable: a disagreement.
        assert cgp["checked"] == 1
        assert cgp["disagree"] == 1
        assert cgp["disagreements_by_family"] == {"rooted": 1}
        assert cgp["disagreements"][0]["index"] == 3
        assert doc["cross_validation"]["oracle"]["checked"] == 0

    def test_json_report_jsonl(self, tmp_path):
        from repro.analysis import json_report_jsonl
        from repro.records import write_jsonl

        path = tmp_path / "records.jsonl"
        write_jsonl(self._records(), path)
        doc = json.loads(json_report_jsonl(path))
        assert doc["schema"] == "repro.sweep-report/1"
        assert doc["total"] == 4

    def test_cli_report_json_flag(self, tmp_path, capsys):
        from repro.cli import main
        from repro.records import write_jsonl

        path = tmp_path / "records.jsonl"
        write_jsonl(self._records(), path)
        assert main(["report", str(path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro.sweep-report/1"
        assert doc["cross_validation"]["cgp"]["disagree"] == 1
