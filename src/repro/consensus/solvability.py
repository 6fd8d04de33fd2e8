"""The consensus solvability checker (Theorems 5.5, 5.11, 6.6, 6.7).

:func:`check_consensus` orchestrates every certificate the library knows:

1. **Impossibility provers** (sound, exact where they apply):
   an admissible lasso with no broadcaster ever
   (:func:`~repro.consensus.provers.find_nonbroadcastable_lasso`,
   Theorem 5.11) and, for oblivious adversaries, the single-component
   induction (:class:`~repro.consensus.provers.SingleComponentInduction`,
   Corollary 5.6).  When both fail on an adversary ``A`` that is not
   limit-closed, they run again on its limit closure ``cl(A)``.  ``A`` and
   ``cl(A)`` have the same finite prefixes (Section 6.3), so ``A`` has a
   decision table at some depth iff ``cl(A)`` does; a certificate for
   ``cl(A)`` proves that no depth has one, and step 2 is skipped.

2. **Iterative deepening** over the prefix space: at each depth ``t``
   compute the indistinguishability components (= ``ε = 2^{-t}``
   approximations); if a valid value assignment exists, consensus is
   certified SOLVABLE with an executable decision table (Theorem 5.5's
   universal algorithm).  En route the checker records the equivalence
   data of Theorem 6.6 (bivalence vs broadcastability per depth).

3. **Guaranteed-broadcaster solvability** (Theorem 5.11/6.7 sufficiency):
   a process heard by all in every admissible sequence yields the
   "decide x_p upon hearing p" algorithm — the certificate that resolves
   non-compact adversaries whose prefix spaces never separate.

The provers assume the full input space of the spec's domain; with
``input_vectors`` restricted to fewer assignments they do not run, and the
checker goes straight to step 2.

If no certificate fires the result is UNDECIDED, in one of two kinds.
Either the deepening explored every depth up to ``max_depth`` (or up to
the ``max_nodes`` budget) and the depth history is the evidence, so a
bigger budget might still find a table; or the closure certificate of
step 1 proved that no depth has one, the deepening never ran, and the
result carries that certificate (``closure_impossibility``) instead.

:class:`CheckOptions` lives in :mod:`repro.options`, which the store and
the sessions import without this module; it is re-exported here, so
``from repro.consensus.solvability import CheckOptions`` names the same
class.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Sequence

from repro.adversaries.base import MessageAdversary
from repro.adversaries.compactness import limit_closure
from repro.consensus.decision import DecisionTable, build_decision_table
from repro.consensus.provers import (
    SingleComponentInduction,
    find_guaranteed_broadcaster,
    find_nonbroadcastable_lasso,
)
from repro.consensus.spec import ConsensusSpec
from repro.core.inputs import all_assignments, validate_assignment
from repro.core.views import ViewInterner
from repro.errors import AnalysisError
from repro.options import CheckOptions
from repro.topology.components import ComponentAnalysis
from repro.topology.prefixspace import PrefixSpace

__all__ = [
    "SolvabilityStatus",
    "CheckOptions",
    "DepthReport",
    "ImpossibilityWitness",
    "BroadcasterCertificate",
    "SolvabilityResult",
    "check_consensus",
    "check_consensus_with_options",
]


class SolvabilityStatus(Enum):
    """Outcome of the solvability analysis."""

    SOLVABLE = "solvable"
    IMPOSSIBLE = "impossible"
    UNDECIDED = "undecided"


class DepthReport:
    """Per-depth component statistics gathered during iterative deepening."""

    __slots__ = (
        "depth",
        "prefixes",
        "components",
        "bivalent",
        "non_broadcastable",
    )

    def __init__(self, summary: dict) -> None:
        self.depth = summary["depth"]
        self.prefixes = summary["prefixes"]
        self.components = summary["components"]
        self.bivalent = summary["bivalent"]
        self.non_broadcastable = summary["non_broadcastable"]

    def __repr__(self) -> str:
        return (
            f"DepthReport(t={self.depth}, prefixes={self.prefixes}, "
            f"components={self.components}, bivalent={self.bivalent}, "
            f"non_broadcastable={self.non_broadcastable})"
        )


class ImpossibilityWitness:
    """Why consensus is impossible.

    ``kind`` is one of:

    * ``"nonbroadcastable-lasso"`` — ``lasso`` holds an admissible
      (stem, cycle) on which no process is ever heard by all;
    * ``"single-component-induction"`` — ``induction`` holds the
      certificate object with the C1/C2 witnesses.
    """

    __slots__ = ("kind", "lasso", "induction")

    def __init__(self, kind: str, lasso=None, induction=None) -> None:
        self.kind = kind
        self.lasso = lasso
        self.induction = induction

    def explain(self) -> str:
        """Human-readable account of the certificate."""
        if self.kind == "nonbroadcastable-lasso":
            stem, cycle = self.lasso
            return (
                "Admissible sequence with no broadcaster: "
                f"stem={stem!r}, cycle={cycle!r}; by the input-flipping "
                "chain of Theorem 5.11 its component joins all valences."
            )
        return self.induction.explain()

    def __repr__(self) -> str:
        return f"ImpossibilityWitness(kind={self.kind!r})"


class BroadcasterCertificate:
    """Why consensus is solvable without a finite-depth decision table.

    ``process`` is heard by everyone eventually in every admissible
    sequence; "decide ``x_process`` upon hearing it" is a correct
    algorithm (every connected component is broadcastable by ``process``).
    """

    __slots__ = ("process",)

    def __init__(self, process: int) -> None:
        self.process = process

    def explain(self) -> str:
        return (
            f"Process {self.process} is a guaranteed broadcaster: every "
            "admissible sequence eventually delivers its input to all; "
            "decide x_{p} upon hearing it (Theorem 5.11/6.7)."
        )

    def __repr__(self) -> str:
        return f"BroadcasterCertificate(process={self.process})"


class SolvabilityResult:
    """Complete outcome of :func:`check_consensus`.

    ``closure_impossibility`` is set when the provers certified the
    adversary's limit closure impossible, so no depth has a decision
    table and the deepening was skipped (``history`` is then empty): the
    result is SOLVABLE by a broadcaster or UNDECIDED with this witness.
    """

    __slots__ = (
        "adversary",
        "spec",
        "status",
        "decision_table",
        "broadcaster",
        "impossibility",
        "closure_impossibility",
        "history",
        "certified_depth",
        "max_depth",
    )

    def __init__(self, **kwargs) -> None:
        for key in self.__slots__:
            setattr(self, key, kwargs.get(key))

    @property
    def solvable(self) -> bool:
        """True iff status is SOLVABLE."""
        return self.status is SolvabilityStatus.SOLVABLE

    def algorithm(self):
        """The executable consensus algorithm of the certificate.

        Returns a ready-to-run
        :class:`~repro.simulation.algorithms.ConsensusAlgorithm`: the
        universal algorithm for a decision-table certificate, or the
        decide-on-broadcaster rule for a guaranteed-broadcaster
        certificate.  Raises for non-solvable results.
        """
        from repro.simulation.algorithms import (
            BroadcastValueAlgorithm,
            UniversalAlgorithm,
        )

        if self.decision_table is not None:
            return UniversalAlgorithm(self.decision_table)
        if self.broadcaster is not None:
            return BroadcastValueAlgorithm(
                ViewInterner(self.adversary.n), self.broadcaster.process
            )
        raise AnalysisError(
            f"{self.adversary.name} is {self.status.value}: no algorithm"
        )

    def theorem_6_6_consistency(self) -> list[bool]:
        """Per-depth agreement of "no bivalence" with "all broadcastable".

        For compact adversaries Theorem 6.6 predicts the two certificates
        coincide in the limit; on the paper's examples they coincide at
        every depth, which the tests assert.
        """
        return [
            (report.bivalent == 0) == (report.non_broadcastable == 0)
            for report in self.history
        ]

    def explain(self) -> str:
        """One-paragraph summary of the verdict and its certificate."""
        explored = (
            "deepening skipped: no finite decision table exists"
            if self.closure_impossibility is not None
            else f"explored depth <= {self.max_depth}"
        )
        lines = [f"{self.adversary.name}: {self.status.value.upper()} ({explored})"]
        if self.decision_table is not None:
            lines.append(
                f"  decision table certified at depth {self.certified_depth} "
                f"with {len(self.decision_table.assignment)} components"
            )
        if self.broadcaster is not None:
            lines.append("  " + self.broadcaster.explain())
        if self.impossibility is not None:
            lines.append("  " + self.impossibility.explain().replace("\n", "\n  "))
        if self.closure_impossibility is not None:
            lines.append(
                "  The limit closure has the same finite prefixes and is "
                "impossible, so no depth has a decision table (Section 6.3):"
            )
            lines.append(
                "    " + self.closure_impossibility.explain().replace("\n", "\n    ")
            )
        for report in self.history:
            lines.append(f"  {report!r}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"SolvabilityResult({self.adversary.name}, {self.status.name}, "
            f"depth={self.certified_depth})"
        )


_UNSET = object()


def check_consensus(
    adversary: MessageAdversary,
    spec: ConsensusSpec | None = None,
    input_vectors: Iterable[Sequence] | None = None,
    max_depth: int | object = _UNSET,
    interner: ViewInterner | None = None,
    max_nodes: int | object = _UNSET,
    use_impossibility_provers: bool | object = _UNSET,
    use_broadcaster_certificate: bool | object = _UNSET,
    options: CheckOptions | None = None,
) -> SolvabilityResult:
    """Decide consensus solvability under a message adversary.

    This is the keyword-compatibility wrapper over
    :func:`check_consensus_with_options`: the tuning keywords
    (``max_depth=10``, ``max_nodes=2_000_000``, the certificate toggles —
    defaults as in :class:`CheckOptions`) are folded into a
    :class:`CheckOptions`, overriding ``options`` field-by-field when both
    are given.  New code should pass ``options`` (or use
    :class:`repro.api.Session`).

    Parameters
    ----------
    adversary:
        The message adversary.
    spec:
        Input domain and validity condition (default binary, weak validity).
    input_vectors:
        Restrict the input assignments (default: the full assignment space
        of the spec's domain, as in the paper).  The impossibility provers
        assume the full space, so they run only when these cover it.
    options:
        A :class:`CheckOptions` bundle; explicit keywords win over it.

    Returns
    -------
    SolvabilityResult
        With an executable certificate: a validated
        :class:`~repro.consensus.decision.DecisionTable`, a
        :class:`BroadcasterCertificate`, or an
        :class:`ImpossibilityWitness`; UNDECIDED carries the depth history,
        or, when no depth can have a decision table, the limit closure's
        witness as ``closure_impossibility``.
    """
    overrides = {
        name: value
        for name, value in (
            ("max_depth", max_depth),
            ("max_nodes", max_nodes),
            ("use_impossibility_provers", use_impossibility_provers),
            ("use_broadcaster_certificate", use_broadcaster_certificate),
        )
        if value is not _UNSET
    }
    effective = options or CheckOptions()
    if overrides:
        effective = effective.replace(**overrides)
    return check_consensus_with_options(
        adversary,
        effective,
        spec=spec,
        input_vectors=input_vectors,
        interner=interner,
    )


def _impossibility_witness(adversary: MessageAdversary) -> ImpossibilityWitness | None:
    """The first sound impossibility certificate for ``adversary``, if any."""
    lasso = find_nonbroadcastable_lasso(adversary)
    if lasso is not None:
        return ImpossibilityWitness("nonbroadcastable-lasso", lasso=lasso)
    # Applies to oblivious adversaries and, via the oblivious core, to any
    # limit-closed adversary.
    induction = SingleComponentInduction(adversary)
    if induction.applies:
        return ImpossibilityWitness("single-component-induction", induction=induction)
    return None


def check_consensus_with_options(
    adversary: MessageAdversary,
    options: CheckOptions,
    spec: ConsensusSpec | None = None,
    input_vectors: Iterable[Sequence] | None = None,
    interner: ViewInterner | None = None,
) -> SolvabilityResult:
    """The options-driven checker core behind :func:`check_consensus`."""
    max_depth = options.max_depth
    max_nodes = options.max_nodes
    use_broadcaster_certificate = options.use_broadcaster_certificate
    spec = spec or ConsensusSpec()
    every_input = all_assignments(adversary.n, spec.domain)
    if input_vectors is None:
        input_vectors = every_input
    else:
        input_vectors = [
            validate_assignment(vec, adversary.n, spec.domain) for vec in input_vectors
        ]
    # The provers certify impossibility over the full input space only: a
    # restricted one can be solvable where the full one is not.
    full_space = set(input_vectors) >= set(every_input)
    use_provers = options.use_impossibility_provers and full_space

    history: list[DepthReport] = []

    # 1. Sound impossibility certificates.
    closure_impossibility = None
    if use_provers:
        impossibility = _impossibility_witness(adversary)
        if impossibility is not None:
            return SolvabilityResult(
                adversary=adversary,
                spec=spec,
                status=SolvabilityStatus.IMPOSSIBLE,
                impossibility=impossibility,
                history=history,
                certified_depth=None,
                max_depth=max_depth,
            )
        # A and cl(A) have the same finite prefixes, so an impossible
        # closure rules out a decision table at every depth.  An adversary
        # with no live initial state has no closure; the prefix space
        # below reports it.
        if not adversary.is_limit_closed() and (
            adversary.initial_states() & adversary.live_states()
        ):
            closure_impossibility = _impossibility_witness(limit_closure(adversary))

    # 2. Iterative deepening for a decision-table certificate.
    table: DecisionTable | None = None
    certified_depth = None
    if closure_impossibility is None:
        space = PrefixSpace(
            adversary,
            input_vectors=input_vectors,
            interner=interner,
            max_nodes=max_nodes,
        )
        for depth in range(max_depth + 1):
            try:
                analysis = ComponentAnalysis(space, depth)
            except AnalysisError:
                break
            history.append(DepthReport(analysis.summary()))
            if all(spec.allowed_values(c) for c in analysis.components):
                table = build_decision_table(analysis, spec)
                certified_depth = depth
                break
            # Release this depth's component columns before the next
            # depth's extension and labelling allocate theirs.
            del analysis

    if table is not None:
        return SolvabilityResult(
            adversary=adversary,
            spec=spec,
            status=SolvabilityStatus.SOLVABLE,
            decision_table=table,
            history=history,
            certified_depth=certified_depth,
            max_depth=max_depth,
        )

    # 3. Guaranteed-broadcaster certificate (decisive for non-compact
    #    adversaries whose prefix spaces never separate).
    if use_broadcaster_certificate:
        broadcaster = find_guaranteed_broadcaster(adversary)
        if broadcaster is not None:
            return SolvabilityResult(
                adversary=adversary,
                spec=spec,
                status=SolvabilityStatus.SOLVABLE,
                broadcaster=BroadcasterCertificate(broadcaster),
                closure_impossibility=closure_impossibility,
                history=history,
                certified_depth=None,
                max_depth=max_depth,
            )

    return SolvabilityResult(
        adversary=adversary,
        spec=spec,
        status=SolvabilityStatus.UNDECIDED,
        closure_impossibility=closure_impossibility,
        history=history,
        certified_depth=None,
        max_depth=max_depth,
    )
