"""Closure-first deepening: no table search once ``cl(A)`` is certified impossible.

An adversary ``A`` and its limit closure ``cl(A)`` have the same finite
prefixes (Section 6.3), so ``A`` has a decision table at some depth iff
``cl(A)`` does.  When the provers fail on ``A`` but certify ``cl(A)``
impossible, the checker skips the deepening and goes straight to the
broadcaster certificate; without one the result is UNDECIDED with the
certificate ``undecided:no-finite-table``.
"""

import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from repro.adversaries.compactness import limit_closure
from repro.adversaries.stabilizing import EventuallyForeverAdversary, StabilizingAdversary
from repro.consensus.solvability import SolvabilityStatus, check_consensus
from repro.core.digraph import arrow
from repro.errors import AnalysisError, ReproError
from repro.records import NO_FINITE_TABLE, certificate_summary
from repro.specs import NAMED_ADVERSARIES, AdversarySpec
from repro.topology.components import ComponentAnalysis
from repro.topology.prefixspace import PrefixSpace

TO, FRO, BOTH, NONE = arrow("->"), arrow("<-"), arrow("<->"), arrow("none")

_SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "verdict_ledger.py"
_spec = importlib.util.spec_from_file_location("verdict_ledger", _SCRIPT)
ledger = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ledger)


def _shortcut_adversaries():
    """Every named or two-process family adversary the shortcut fires on."""
    specs = [AdversarySpec("named", {"name": name}) for name in sorted(NAMED_ADVERSARIES)]
    found = []
    for spec in specs + ledger.two_process_families():
        try:
            adversary = spec.build()
            result = check_consensus(adversary, max_depth=0)
        except ReproError:
            continue
        if result.closure_impossibility is not None:
            found.append(adversary)
    return found


SHORTCUT = _shortcut_adversaries()


def test_the_shortcut_fires_on_both_families():
    kinds = Counter(type(adversary).__name__ for adversary in SHORTCUT)
    # eventually-to-full-base plus the 59 family specs of the ledger.
    assert len(SHORTCUT) == 60
    assert set(kinds) == {"EventuallyForeverAdversary", "StabilizingAdversary"}


@pytest.mark.parametrize(
    "adversary",
    [
        NAMED_ADVERSARIES["eventually-to-full-base"](),
        EventuallyForeverAdversary(2, [NONE, TO, FRO], [TO, FRO]),
        StabilizingAdversary(2, [TO, FRO, BOTH], window=2),
        StabilizingAdversary(2, [NONE, TO, FRO], window=1, require_rooted=False),
    ],
    ids=lambda adversary: adversary.name,
)
def test_adversary_and_closure_have_the_same_layers(adversary):
    """The premise, at small depth: the two prefix spaces coincide."""
    closure = limit_closure(adversary)
    assert not adversary.is_limit_closed() and closure.is_limit_closed()
    spaces = PrefixSpace(adversary), PrefixSpace(closure)
    for depth in range(5):
        own, closed = (ComponentAnalysis(space, depth) for space in spaces)
        assert len(spaces[0].layer(depth)) == len(spaces[1].layer(depth))
        assert len(own.components) == len(closed.components)
        assert Counter(map(len, own.components)) == Counter(map(len, closed.components))
        assert len(own.bivalent_components()) == len(closed.bivalent_components())


@pytest.mark.parametrize("adversary", SHORTCUT, ids=lambda adversary: adversary.name)
def test_no_decision_table_through_depth_6_with_provers_off(adversary):
    result = check_consensus(
        adversary,
        max_depth=6,
        use_impossibility_provers=False,
        use_broadcaster_certificate=False,
    )
    assert result.status is SolvabilityStatus.UNDECIDED
    assert [report.depth for report in result.history] == list(range(7))


class TestShortcutResult:
    def test_undecided_carries_the_closure_witness(self):
        adversary = StabilizingAdversary(2, [TO, FRO, BOTH], window=2)
        result = check_consensus(adversary, max_depth=10)
        assert result.status is SolvabilityStatus.UNDECIDED
        assert result.history == []
        assert result.impossibility is None
        assert result.closure_impossibility.kind == "single-component-induction"
        assert certificate_summary(result) == NO_FINITE_TABLE == "undecided:no-finite-table"
        text = result.explain()
        assert "deepening skipped: no finite decision table exists" in text
        assert "limit closure" in text and "Single-component induction" in text

    def test_broadcaster_still_decides_without_deepening(self):
        adversary = NAMED_ADVERSARIES["eventually-to-full-base"]()
        result = check_consensus(adversary, max_depth=11)
        assert result.status is SolvabilityStatus.SOLVABLE
        assert certificate_summary(result) == "broadcaster p0"
        assert result.history == []
        assert result.closure_impossibility is not None
        # The same verdict and certificate as the full deepening.
        deepened = check_consensus(adversary, max_depth=4, use_impossibility_provers=False)
        assert certificate_summary(deepened) == certificate_summary(result)
        assert len(deepened.history) == 5

    def test_provers_off_turns_the_shortcut_off(self):
        adversary = StabilizingAdversary(2, [TO, FRO, BOTH], window=2)
        result = check_consensus(adversary, max_depth=3, use_impossibility_provers=False)
        assert result.closure_impossibility is None
        assert certificate_summary(result) == "undecided@3"

    def test_restricted_inputs_turn_the_shortcut_off(self):
        adversary = StabilizingAdversary(2, [TO, FRO, BOTH], window=2)
        result = check_consensus(adversary, max_depth=3, input_vectors=[(0, 0), (0, 1), (1, 1)])
        assert result.closure_impossibility is None
        assert len(result.history) == 4

    def test_limit_closed_adversaries_are_not_retried(self):
        result = check_consensus(NAMED_ADVERSARIES["no-hub"]())
        assert result.closure_impossibility is None
        assert result.certified_depth == 1

    @pytest.mark.parametrize("window", [1, 2, 3, 4])
    def test_no_infinite_sequence_still_raises_from_the_prefix_space(self, window):
        adversary = AdversarySpec(
            "stabilizing",
            {"n": 2, "graphs": [0], "window": window, "require_rooted": False},
        ).build()
        with pytest.raises(AnalysisError, match="admits no infinite sequences"):
            check_consensus(adversary)
