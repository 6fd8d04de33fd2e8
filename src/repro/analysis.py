"""Aggregation and reporting over sweep record streams.

A million-scenario census is only as useful as the questions you can ask
of its output.  This module turns any stream of
:class:`~repro.records.RunRecord` — a fresh in-memory sweep, a merged
fleet run, an archived JSONL file from an earlier revision — into a
:class:`SweepReport`: status and certificate histograms, per-family and
per-``(n, |D|)`` pivot tables, the undecided records in two kinds (the
frontier that exhausted its depth budget, i.e. where to spend more compute
next, and the ``undecided:no-finite-table`` records that no budget can
decide), and the slowest jobs.  ``repro-consensus report records.jsonl``
renders it from the command line; :func:`repro.consensus.census` rows and
:func:`~repro.api.run_sweep` results feed it directly.

>>> from repro.records import RunRecord
>>> record = RunRecord(index=0, adversary="X", n=2, alphabet=2, max_depth=4,
...     status="solvable", certified_depth=1, certificate="decision-table@1",
...     elapsed_s=0.01, views_interned=5, shard=0)
>>> summarize([record]).status_counts["solvable"]
1
"""

from __future__ import annotations

import heapq
from collections import Counter
from pathlib import Path
from typing import Iterable

from repro.records import NO_FINITE_TABLE, RunRecord, read_jsonl
from repro.schemas import SWEEP_REPORT

__all__ = [
    "CrossValidation",
    "SweepReport",
    "certificate_kind",
    "summarize",
    "render_report",
    "report_jsonl",
    "json_report_jsonl",
]


def _explored_depth(record: RunRecord) -> int:
    """Deepest explored depth of an undecided record.

    Undecided results carry it only in the certificate string
    (``undecided@6`` — ``certified_depth`` is None by definition); legacy
    ``"-"`` certificates report -1, sorting after every annotated record.
    """
    certificate = record.certificate or ""
    if "@" in certificate:
        _, _, depth = certificate.partition("@")
        try:
            return int(depth)
        except ValueError:
            return -1
    return -1


def certificate_kind(certificate: str | None) -> str:
    """The certificate family of a record's certificate string.

    Strips instance detail: ``decision-table@3`` → ``decision-table``,
    ``broadcaster p1`` → ``broadcaster``, ``undecided@6`` → ``undecided``;
    the impossibility witness kinds, ``undecided:no-finite-table`` and the
    legacy ``"-"`` placeholder pass through unchanged.
    """
    if not certificate:
        return "-"
    return certificate.split("@", 1)[0].split(" ", 1)[0]


class CrossValidation:
    """Agreement mining for one baseline column (``cgp`` or ``oracle``).

    Census records carry the verdict of a baseline next to the checker's
    certified status; this accumulator counts where they coincide and
    keeps every disagreeing record — for the CGP reconstruction heuristic
    the disagreements *are* the census's scientific output (Section 6.2:
    exactly where the heuristic diverges from the certified checker).
    """

    __slots__ = ("label", "checked", "agree", "unresolved", "disagreements")

    def __init__(self, label: str) -> None:
        self.label = label
        #: Records carrying this baseline's verdict at all.
        self.checked = 0
        #: Checker decided and matches the baseline.
        self.agree = 0
        #: Baseline present but the checker ran out of budget (undecided).
        self.unresolved = 0
        #: Records where a decided checker contradicts the baseline.
        self.disagreements: list[RunRecord] = []

    @property
    def disagree(self) -> int:
        return len(self.disagreements)

    def add(self, record: RunRecord, verdict: bool | None) -> None:
        if verdict is None:
            return
        self.checked += 1
        solvable = record.solvable
        if solvable is None:
            self.unresolved += 1
        elif solvable == verdict:
            self.agree += 1
        else:
            self.disagreements.append(record)

    def disagreements_by_family(self) -> Counter:
        """Family label -> number of disagreeing records."""
        return Counter(record.family_label for record in self.disagreements)

    def to_dict(self) -> dict:
        """JSON-able form (the ``report --json`` CrossValidation section)."""
        return {
            "label": self.label,
            "checked": self.checked,
            "agree": self.agree,
            "disagree": self.disagree,
            "unresolved": self.unresolved,
            "disagreements_by_family": dict(self.disagreements_by_family()),
            "disagreements": [record.to_dict() for record in self.disagreements],
        }

    def __repr__(self) -> str:
        return (
            f"CrossValidation({self.label}: checked={self.checked}, "
            f"agree={self.agree}, disagree={self.disagree}, "
            f"unresolved={self.unresolved})"
        )


class SweepReport:
    """Aggregated view of one record stream (see :func:`summarize`)."""

    __slots__ = (
        "total",
        "status_counts",
        "certificate_counts",
        "by_family",
        "by_shape",
        "undecided",
        "slowest",
        "total_elapsed_s",
        "top",
        "cgp",
        "oracle",
    )

    def __init__(
        self,
        total: int,
        status_counts: Counter,
        certificate_counts: Counter,
        by_family: dict[str, Counter],
        by_shape: dict[tuple[int, int], Counter],
        undecided: list[RunRecord],
        slowest: list[RunRecord],
        total_elapsed_s: float,
        top: int,
        cgp: CrossValidation | None = None,
        oracle: CrossValidation | None = None,
    ) -> None:
        self.total = total
        self.status_counts = status_counts
        self.certificate_counts = certificate_counts
        #: family label -> status counter (label falls back to the
        #: ``family`` tag of records without a spec, then ``"-"``).
        self.by_family = by_family
        #: (n, alphabet size) -> status counter.
        self.by_shape = by_shape
        #: Undecided records, deepest-explored first: the frontier where a
        #: bigger depth budget (or a new prover) would earn new verdicts,
        #: then the ``undecided:no-finite-table`` records, where only a new
        #: prover would.
        self.undecided = undecided
        self.slowest = slowest
        self.total_elapsed_s = total_elapsed_s
        self.top = top
        #: Cross-validation against the CGP reconstruction heuristic and
        #: the literature oracle (census streams carry both in-record).
        self.cgp = cgp if cgp is not None else CrossValidation("cgp")
        self.oracle = oracle if oracle is not None else CrossValidation("oracle")

    def to_dict(self) -> dict:
        """Machine-readable form of the whole report (``report --json``).

        Everything the rendered text shows, as one JSON document with a
        versioned ``schema`` marker: histograms, pivots (labels
        stringified for JSON keys), the full undecided frontier, the
        slowest jobs, and both :class:`CrossValidation` sections —
        records embedded via :meth:`~repro.records.RunRecord.to_dict`, so
        downstream tooling (CI artifacts, dashboards) can re-queue or
        re-check them directly.
        """
        return {
            "schema": SWEEP_REPORT,
            "total": self.total,
            "total_elapsed_s": self.total_elapsed_s,
            "status_counts": dict(self.status_counts),
            "certificate_counts": dict(self.certificate_counts),
            "by_family": {
                str(label): dict(counter)
                for label, counter in sorted(self.by_family.items(), key=lambda kv: str(kv[0]))
            },
            "by_shape": {
                f"n={n} |D|={alphabet}": dict(counter)
                for (n, alphabet), counter in sorted(self.by_shape.items())
            },
            "undecided": [record.to_dict() for record in self.undecided],
            "slowest": [record.to_dict() for record in self.slowest],
            "cross_validation": {
                "oracle": self.oracle.to_dict(),
                "cgp": self.cgp.to_dict(),
            },
        }

    def __repr__(self) -> str:
        counts = ", ".join(
            f"{count} {status}" for status, count in sorted(self.status_counts.items())
        )
        return f"SweepReport({self.total} records: {counts})"


def summarize(records: Iterable[RunRecord], top: int = 5) -> SweepReport:
    """Aggregate a record stream into a :class:`SweepReport`.

    Works on any iterable of records — lists, generators, or the lazy
    stream of :func:`~repro.records.read_jsonl` — in one pass.  ``top``
    bounds the slowest-jobs listing; the undecided frontier is kept in
    full (it is the report's actionable output).
    """
    status_counts: Counter = Counter()
    certificate_counts: Counter = Counter()
    by_family: dict[str, Counter] = {}
    by_shape: dict[tuple[int, int], Counter] = {}
    undecided: list[RunRecord] = []
    cgp = CrossValidation("cgp")
    oracle = CrossValidation("oracle")
    total = 0
    total_elapsed = 0.0
    # Only the top-N slowest are retained (heap of (elapsed, tiebreak)),
    # so summarizing a million-record stream stays O(undecided + top) in
    # memory, not O(total).
    slow_heap: list[tuple[float, int, RunRecord]] = []
    for record in records:
        total += 1
        total_elapsed += record.elapsed_s
        status_counts[record.status] += 1
        certificate_counts[certificate_kind(record.certificate)] += 1
        by_family.setdefault(record.family_label, Counter())[record.status] += 1
        by_shape.setdefault((record.n, record.alphabet), Counter())[record.status] += 1
        cgp.add(record, record.cgp)
        oracle.add(record, record.oracle)
        if record.status == "undecided":
            undecided.append(record)
        if top > 0:
            entry = (record.elapsed_s, -total, record)
            if len(slow_heap) < top:
                heapq.heappush(slow_heap, entry)
            else:
                heapq.heappushpop(slow_heap, entry)
    undecided.sort(
        key=lambda r: (
            r.certificate == NO_FINITE_TABLE,
            -_explored_depth(r),
            -r.max_depth,
            r.n,
            r.index,
        )
    )
    slowest = [entry[2] for entry in sorted(slow_heap, key=lambda e: (-e[0], -e[1]))]
    return SweepReport(
        total=total,
        status_counts=status_counts,
        certificate_counts=certificate_counts,
        by_family=by_family,
        by_shape=by_shape,
        undecided=undecided,
        slowest=slowest,
        total_elapsed_s=total_elapsed,
        top=top,
        cgp=cgp,
        oracle=oracle,
    )


def _histogram(title: str, counts: Counter, width: int = 32) -> list[str]:
    lines = [title]
    if not counts:
        return lines + ["  (no records)"]
    peak = max(counts.values())
    for key, count in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])):
        bar = "#" * max(1, round(width * count / peak))
        lines.append(f"  {key:28s} {count:>6d} {bar}")
    return lines


def _pivot(title: str, rows: dict, statuses: list[str], label_width: int = 24) -> list[str]:
    header = "  " + "label".ljust(label_width) + "".join(
        f"{status:>12s}" for status in statuses
    ) + f"{'total':>12s}"
    lines = [title, header, "  " + "-" * (len(header) - 2)]
    for label in sorted(rows, key=str):
        counter = rows[label]
        cells = "".join(f"{counter.get(status, 0):>12d}" for status in statuses)
        lines.append(
            "  " + str(label).ljust(label_width) + cells
            + f"{sum(counter.values()):>12d}"
        )
    return lines


def render_report(report: SweepReport) -> str:
    """Render a :class:`SweepReport` as a monospaced text block."""
    statuses = sorted(report.status_counts)
    lines = [
        f"{report.total} records, total checker time "
        f"{report.total_elapsed_s:.3f}s",
        "",
    ]
    lines += _histogram("status histogram", report.status_counts)
    lines.append("")
    lines += _histogram("certificate histogram", report.certificate_counts)
    lines.append("")
    lines += _pivot("per-family statuses", report.by_family, statuses)
    lines.append("")
    shape_rows = {
        f"n={n} |D|={alphabet}": counter
        for (n, alphabet), counter in report.by_shape.items()
    }
    lines += _pivot("per-(n, |D|) statuses", shape_rows, statuses)
    for validation in (report.oracle, report.cgp):
        if validation.checked == 0:
            continue
        title = (
            "CGP reconstruction cross-validation"
            if validation.label == "cgp"
            else "literature-oracle cross-validation"
        )
        lines.append("")
        lines.append(title)
        lines.append(
            f"  checked {validation.checked}: {validation.agree} agree, "
            f"{validation.disagree} disagree, "
            f"{validation.unresolved} unresolved (checker undecided)"
        )
        if validation.disagreements:
            by_family = validation.disagreements_by_family()
            lines.append(
                "  disagreements by family: "
                + ", ".join(
                    f"{family}: {count}"
                    for family, count in sorted(by_family.items())
                )
            )
            for record in validation.disagreements:
                predicted = "solvable" if record.solvable is False else "unsolvable"
                lines.append(
                    f"  #{record.index:<4d} {record.adversary:32s} "
                    f"checker={record.status:11s} "
                    f"{validation.label} predicted {predicted}"
                )
    settled = [r for r in report.undecided if r.certificate == NO_FINITE_TABLE]
    frontier = [r for r in report.undecided if r.certificate != NO_FINITE_TABLE]
    for title, group in (
        ("undecided frontier", frontier),
        ("undecided, no finite decision table at any depth", settled),
    ):
        if not group:
            continue
        lines.append("")
        lines.append(f"{title} ({len(group)} records)")
        for record in group:
            lines.append(
                f"  #{record.index:<4d} {record.adversary:32s} "
                f"{record.certificate:16s} budget max_depth={record.max_depth}"
            )
    if report.slowest and report.total_elapsed_s > 0:
        lines.append("")
        lines.append(f"slowest jobs (top {len(report.slowest)})")
        for record in report.slowest:
            lines.append(
                f"  #{record.index:<4d} {record.adversary:32s} "
                f"{record.status:11s} {record.elapsed_s * 1e3:>9.1f}ms"
            )
    return "\n".join(lines)


def report_jsonl(path: str | Path, top: int = 5) -> str:
    """Summarize and render a JSONL record file (any schema version)."""
    return render_report(summarize(read_jsonl(path), top=top))


def json_report_jsonl(path: str | Path, top: int = 5) -> str:
    """Summarize a JSONL record file into the machine-readable JSON report."""
    import json

    return json.dumps(summarize(read_jsonl(path), top=top).to_dict(), indent=2)
