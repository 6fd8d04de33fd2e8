"""Census tooling: systematic classification of adversary families.

Sweeps a family of adversaries through the checker and cross-validates the
verdicts against the literature oracles and the CGP reconstruction.  The
census is the reproduction's instrument for the claims of Section 6.2: for
two processes the classification is provably complete; for three processes
it reports exactly where the heuristic baseline diverges from the certified
checker.

Both censuses run on the sweep engine (:func:`repro.api.run_sweep`) on
every path: ``workers=1`` runs the inline serial backend, which checks
each adversary on a fresh view interner of its own, and ``workers > 1``
(or an explicit :class:`~repro.backends.SweepBackend`) fans the checker
jobs out.  Every row is a :class:`~repro.records.RunRecord` from the
sweep engine — with the census's ``oracle``/``cgp`` cross-validation
verdicts filled in — so a census serializes to the same JSONL streams
(``jsonl_path=...``) and feeds the same :mod:`repro.analysis` reports as
any other sweep.
"""

from __future__ import annotations

import copy
import random
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from repro.adversaries.generators import (
    random_rooted_family,
    two_process_oblivious_family,
)
from repro.adversaries.oblivious import ObliviousAdversary
from repro.consensus.baselines import cgp_predicts_solvable
from repro.consensus.provers import two_process_oblivious_verdict
from repro.consensus.solvability import SolvabilityStatus
from repro.records import RunRecord, write_jsonl

if TYPE_CHECKING:  # pragma: no cover - type-only (avoids an import cycle)
    from repro.backends import SweepBackend

__all__ = ["CensusRow", "two_process_census", "random_rooted_census"]


class CensusRow:
    """One classified adversary with all verdicts side by side.

    The row is a thin view over a :class:`~repro.records.RunRecord`
    (``row.record``) that keeps the live adversary attached for
    interactive use.
    """

    __slots__ = ("adversary", "record")

    def __init__(self, adversary: ObliviousAdversary, record: RunRecord) -> None:
        self.adversary = adversary
        self.record = record

    @classmethod
    def from_record(
        cls,
        adversary: ObliviousAdversary,
        record: RunRecord,
        oracle: bool | None,
        cgp: bool,
    ) -> "CensusRow":
        """Row backed by a sweep-engine record (cross-verdicts attached).

        The caller's record is not modified: the row owns a copy with the
        ``oracle``/``cgp`` fields filled in, so records already written to
        (or compared against) a JSONL stream stay untouched.
        """
        record = copy.copy(record)
        record.oracle = oracle
        record.cgp = cgp
        return cls(adversary, record)

    # Record-backed views ------------------------------------------------ #

    @property
    def status(self) -> SolvabilityStatus:
        return SolvabilityStatus(self.record.status)

    @property
    def certificate(self) -> str:
        return self.record.certificate

    @property
    def certified_depth(self) -> int | None:
        return self.record.certified_depth

    @property
    def oracle(self) -> bool | None:
        return self.record.oracle

    @property
    def cgp(self) -> bool:
        return self.record.cgp

    @property
    def checker_solvable(self) -> bool | None:
        """Checker verdict (None when undecided)."""
        return self.record.solvable

    @property
    def oracle_agrees(self) -> bool | None:
        """Agreement with the exact literature oracle (None without oracle)."""
        if self.oracle is None or self.checker_solvable is None:
            return None
        return self.checker_solvable == self.oracle

    @property
    def cgp_agrees(self) -> bool | None:
        """Agreement with the CGP reconstruction heuristic."""
        if self.checker_solvable is None:
            return None
        return self.checker_solvable == self.cgp

    def __repr__(self) -> str:
        return (
            f"CensusRow({self.adversary.name}, checker={self.checker_solvable}, "
            f"oracle={self.oracle}, cgp={self.cgp})"
        )


def _classify(
    adversaries: Iterable[ObliviousAdversary],
    max_depth: int,
    workers: int,
    oracle_fn,
    backend: SweepBackend | None = None,
    jsonl_path: str | Path | None = None,
    store=None,
) -> list[CensusRow]:
    """Run the checker over a family and attach oracle/CGP verdicts."""
    # Lazy: repro.api pulls in the backends module, which imports this
    # package — resolving it at call time keeps module import acyclic.
    from repro.api import jobs_for, run_sweep

    adversaries = list(adversaries)
    records = run_sweep(
        jobs_for(adversaries, max_depth),
        workers=workers,
        backend=backend,
        store=store,
    )
    rows = [
        CensusRow.from_record(
            adversary, record, oracle_fn(adversary), cgp_predicts_solvable(adversary)
        )
        for adversary, record in zip(adversaries, records)
    ]
    if jsonl_path is not None:
        write_jsonl([row.record for row in rows], jsonl_path)
    return rows


def two_process_census(
    max_depth: int = 6,
    workers: int = 1,
    backend: SweepBackend | None = None,
    jsonl_path: str | Path | None = None,
    store=None,
) -> list[CensusRow]:
    """Classify all 15 nonempty two-process oblivious adversaries.

    Every row carries the exact literature verdict; the census is complete
    and the test suite asserts full agreement.  ``workers > 1`` (or an
    explicit ``backend``) fans the checker jobs out through the sweep
    engine; a ``store`` (result-store instance or path) routes the jobs
    through the content-addressed cache, so a repeat census is pure
    lookups; ``jsonl_path`` writes the rows' records as a standard
    versioned JSONL stream.
    """
    return _classify(
        two_process_oblivious_family(),
        max_depth,
        workers,
        two_process_oblivious_verdict,
        backend=backend,
        jsonl_path=jsonl_path,
        store=store,
    )


def random_rooted_census(
    rng: random.Random,
    n: int = 3,
    samples: int = 25,
    sizes: Iterable[int] = (1, 2, 3),
    max_depth: int = 4,
    workers: int = 1,
    backend: SweepBackend | None = None,
    jsonl_path: str | Path | None = None,
    store=None,
) -> list[CensusRow]:
    """Classify random rooted oblivious adversaries on ``n`` processes.

    No exact oracle exists here, so ``oracle`` is None; the interesting
    output is where the CGP reconstruction disagrees with the checker's
    certified verdicts.  Sampling happens in this process with the explicit
    ``rng`` (the family — and the shard assignment of every sample — is a
    pure function of the seed); only the checker jobs fan out to workers.
    """
    family = random_rooted_family(rng, n, samples, sizes=tuple(sizes))
    return _classify(
        family,
        max_depth,
        workers,
        lambda adversary: None,
        backend=backend,
        jsonl_path=jsonl_path,
        store=store,
    )
