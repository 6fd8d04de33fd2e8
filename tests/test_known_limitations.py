"""Honest documentation of the checker's known limitations, as tests.

These tests pin down where the library *correctly reports UNDECIDED*: the
adversaries are outside the certified classes, the literature knows (or
conjectures) the answer, and we assert that no certificate fires — so any
future strengthening of the provers will surface here as a pleasant test
failure to update.
"""

from repro.adversaries.stabilizing import StabilizingAdversary
from repro.consensus.solvability import SolvabilityStatus, check_consensus
from repro.core.digraph import arrow
from repro.records import certificate_summary

TO, FRO, BOTH = arrow("->"), arrow("<-"), arrow("<->")


class TestVSSCWindowOverImpossibleBase:
    """Stable-root windows over the full rooted alphabet {←, ↔, →}.

    By [23], a vertex-stable root component lasting D+1 rounds (dynamic
    diameter D; here D = 1, so a 2-round window) makes consensus solvable —
    but the certificate is *knowledge-based*: different admissible
    sequences stabilize on different roots, so there is no single
    guaranteed broadcaster, and the prefix space (which sees only the
    safety closure — the impossible lossy link) never separates.  The
    checker certifies the closure impossible, skips the deepening that
    cannot succeed, and honestly reports UNDECIDED.
    """

    def test_undecided_with_full_diagnostics(self):
        adversary = StabilizingAdversary(2, [TO, FRO, BOTH], window=2)
        result = check_consensus(adversary, max_depth=4)
        assert result.status is SolvabilityStatus.UNDECIDED
        # The diagnostics show why: the closure is the lossy link, one
        # component at every depth, so no depth has a decision table.
        assert certificate_summary(result) == "undecided:no-finite-table"
        witness = result.closure_impossibility
        assert witness.kind == "single-component-induction"
        assert witness.induction.core == frozenset({TO, FRO, BOTH})
        assert result.history == []
        # And no liveness certificate exists:
        assert result.broadcaster is None
        assert result.impossibility is None

    def test_no_guaranteed_broadcaster(self):
        from repro.consensus.provers import find_guaranteed_broadcaster

        adversary = StabilizingAdversary(2, [TO, FRO, BOTH], window=2)
        assert find_guaranteed_broadcaster(adversary) is None

    def test_but_no_nonbroadcastable_sequence_either(self):
        """Every admissible sequence has *some* broadcaster (the stable
        root's member), so the impossibility prover must not fire."""
        from repro.consensus.provers import find_nonbroadcastable_lasso

        adversary = StabilizingAdversary(2, [TO, FRO, BOTH], window=2)
        assert find_nonbroadcastable_lasso(adversary) is None

    def test_restricted_alphabet_is_certified(self):
        """Dropping <-> from the alphabet makes the closure solvable and
        the checker certifies immediately — the limitation is specific to
        closure-impossible, knowledge-based families."""
        adversary = StabilizingAdversary(2, [TO, FRO], window=2)
        result = check_consensus(adversary, max_depth=4)
        assert result.status is SolvabilityStatus.SOLVABLE
