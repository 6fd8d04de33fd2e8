"""End-to-end solvability verdicts against the literature ground truth.

This is the executable form of the paper's Section 6 and the heart of the
reproduction: every row's expected verdict comes from [8, 9, 21, 22, 23]
and the paper's own discussion.
"""

import pytest

from repro.adversaries.generators import out_star_set, santoro_widmayer_family
from repro.adversaries.lossylink import (
    directed_only,
    eventually_one_direction,
    lossy_link_full,
    lossy_link_no_hub,
    lossy_link_with_silence,
    one_directional_and_both,
)
from repro.adversaries.oblivious import ObliviousAdversary
from repro.adversaries.stabilizing import (
    EventuallyForeverAdversary,
    StabilizingAdversary,
)
from repro.consensus.solvability import SolvabilityStatus, check_consensus
from repro.consensus.spec import ConsensusSpec
from repro.core.digraph import Digraph, arrow
from repro.core.views import numpy_available

TO, FRO, BOTH, NONE = arrow("->"), arrow("<-"), arrow("<->"), arrow("none")


class TestTwoProcessVerdicts:
    """Section 6.1/6.2: the lossy-link family."""

    def test_full_lossy_link_impossible(self):
        result = check_consensus(lossy_link_full())
        assert result.status is SolvabilityStatus.IMPOSSIBLE
        assert result.impossibility.kind == "single-component-induction"

    def test_no_hub_solvable_at_depth_one(self):
        result = check_consensus(lossy_link_no_hub())
        assert result.status is SolvabilityStatus.SOLVABLE
        assert result.certified_depth == 1
        result.decision_table.validate()

    def test_silence_impossible_with_lasso_witness(self):
        result = check_consensus(lossy_link_with_silence())
        assert result.status is SolvabilityStatus.IMPOSSIBLE
        assert result.impossibility.kind == "nonbroadcastable-lasso"
        stem, cycle = result.impossibility.lasso
        # The witness cycle must be inert: the empty graph repeated.
        assert all(g == NONE for g in cycle)

    @pytest.mark.parametrize("direction", ["->", "<-"])
    def test_singletons_and_hubs_solvable(self, direction):
        for adversary in (directed_only(direction), one_directional_and_both(direction)):
            result = check_consensus(adversary)
            assert result.status is SolvabilityStatus.SOLVABLE
            assert result.certified_depth == 1

    def test_both_only_solvable(self):
        result = check_consensus(ObliviousAdversary(2, [BOTH]))
        assert result.status is SolvabilityStatus.SOLVABLE

    def test_exhaustive_two_process_census_matches_oracle(self):
        """All 15 nonempty two-process oblivious adversaries vs the oracle."""
        from itertools import combinations

        from repro.consensus.provers import two_process_oblivious_verdict

        graphs = [TO, FRO, BOTH, NONE]
        for size in range(1, 5):
            for subset in combinations(graphs, size):
                adversary = ObliviousAdversary(2, subset)
                expected = two_process_oblivious_verdict(adversary)
                result = check_consensus(adversary, max_depth=6)
                assert result.status is not SolvabilityStatus.UNDECIDED, adversary
                assert (result.status is SolvabilityStatus.SOLVABLE) == expected, (
                    adversary.name
                )


class TestNProcessVerdicts:
    """[21], [22] and rooted families for n = 3."""

    def test_santoro_widmayer_n_minus_one_losses_impossible(self):
        result = check_consensus(santoro_widmayer_family(3, 2))
        assert result.status is SolvabilityStatus.IMPOSSIBLE

    def test_santoro_widmayer_fewer_losses_solvable(self):
        result = check_consensus(santoro_widmayer_family(3, 1), max_depth=4)
        assert result.status is SolvabilityStatus.SOLVABLE

    def test_out_stars_solvable(self):
        result = check_consensus(ObliviousAdversary(3, out_star_set(3)))
        assert result.status is SolvabilityStatus.SOLVABLE
        assert result.certified_depth == 1

    def test_multi_root_graph_impossible(self):
        # A graph with two root components repeated forever has no
        # broadcaster; the lasso prover must find it.
        split = Digraph(3, [(0, 1)])  # roots {0} and {2}
        result = check_consensus(ObliviousAdversary(3, [split]))
        assert result.status is SolvabilityStatus.IMPOSSIBLE
        assert result.impossibility.kind == "nonbroadcastable-lasso"

    def test_two_cycles_n3(self):
        # Two rooted graphs whose roots never intersect: 3-cycles are fully
        # broadcastable each round, so consensus is solvable.
        cycle_a = Digraph.directed_cycle(3)
        cycle_b = Digraph.directed_cycle(3, order=[0, 2, 1])
        result = check_consensus(ObliviousAdversary(3, [cycle_a, cycle_b]), max_depth=4)
        assert result.status is SolvabilityStatus.SOLVABLE


class TestNonCompactVerdicts:
    """Section 6.3: eventually stabilizing families."""

    def test_eventually_one_direction_solvable(self):
        result = check_consensus(eventually_one_direction("->"))
        assert result.status is SolvabilityStatus.SOLVABLE

    def test_eventually_direction_over_impossible_base(self):
        """Liveness rescues an otherwise impossible compact base."""
        adversary = EventuallyForeverAdversary(2, [FRO, BOTH, TO], [TO])
        result = check_consensus(adversary, max_depth=4)
        assert result.status is SolvabilityStatus.SOLVABLE
        assert result.broadcaster is not None
        assert result.broadcaster.process == 0

    def test_closure_of_that_adversary_is_impossible(self):
        from repro.adversaries.compactness import limit_closure

        adversary = EventuallyForeverAdversary(2, [FRO, BOTH, TO], [TO])
        closure_result = check_consensus(limit_closure(adversary), max_depth=4)
        assert closure_result.status is not SolvabilityStatus.SOLVABLE

    def test_stabilizing_window_over_two_arrows_solvable(self):
        adversary = StabilizingAdversary(2, [TO, FRO], window=2)
        result = check_consensus(adversary)
        assert result.status is SolvabilityStatus.SOLVABLE


class TestSpecVariants:
    def test_strong_validity_no_hub(self):
        spec = ConsensusSpec(validity="strong")
        result = check_consensus(lossy_link_no_hub(), spec=spec)
        assert result.status is SolvabilityStatus.SOLVABLE
        result.decision_table.validate()

    def test_three_valued_domain(self):
        spec = ConsensusSpec(domain=(0, 1, 2))
        result = check_consensus(lossy_link_no_hub(), spec=spec)
        assert result.status is SolvabilityStatus.SOLVABLE
        assert result.decision_table.decided_values() <= {0, 1, 2}

    def test_restricted_inputs(self):
        result = check_consensus(
            lossy_link_no_hub(), input_vectors=[(0, 0), (1, 1), (0, 1)]
        )
        assert result.status is SolvabilityStatus.SOLVABLE

    @pytest.mark.parametrize(
        "factory", [lossy_link_full, lossy_link_with_silence], ids=["lossy-full", "silence"]
    )
    def test_provers_skip_a_restricted_input_space(self, factory):
        """The provers certify the full input space only.

        With the unanimous assignments alone, "decide your own input" is a
        depth-0 table; the provers used to answer IMPOSSIBLE here anyway
        (single-component induction on lossy-full, the non-broadcastable
        lasso on silence).
        """
        unanimous = [(0, 0), (1, 1)]
        result = check_consensus(factory(), input_vectors=unanimous)
        without_provers = check_consensus(
            factory(), input_vectors=unanimous, use_impossibility_provers=False
        )
        for checked in (result, without_provers):
            assert checked.status is SolvabilityStatus.SOLVABLE
            assert checked.certified_depth == 0
        # Listing every assignment, in any order, keeps the provers on.
        every = [(1, 1), (1, 0), (0, 1), (0, 0)]
        assert check_consensus(factory(), input_vectors=every).impossibility is not None

    def test_impossible_stays_impossible_with_strong_validity(self):
        spec = ConsensusSpec(validity="strong")
        result = check_consensus(lossy_link_full(), spec=spec)
        assert result.status is SolvabilityStatus.IMPOSSIBLE


class TestResultObject:
    def test_history_recorded_for_solvable(self):
        result = check_consensus(lossy_link_no_hub())
        assert [r.depth for r in result.history] == [0, 1]
        assert result.history[0].bivalent == 1
        assert result.history[1].bivalent == 0

    def test_theorem_6_6_consistency_on_examples(self):
        for adversary in (lossy_link_no_hub(), one_directional_and_both("->")):
            result = check_consensus(adversary)
            assert all(result.theorem_6_6_consistency())

    def test_explain_is_textual(self):
        result = check_consensus(lossy_link_full())
        text = result.explain()
        assert "IMPOSSIBLE" in text
        solvable = check_consensus(lossy_link_no_hub())
        assert "SOLVABLE" in solvable.explain()

    def test_undecided_when_provers_disabled(self):
        result = check_consensus(
            lossy_link_full(),
            max_depth=3,
            use_impossibility_provers=False,
            use_broadcaster_certificate=False,
        )
        assert result.status is SolvabilityStatus.UNDECIDED
        assert all(r.bivalent >= 1 for r in result.history)

    def test_solvable_flag(self):
        assert check_consensus(lossy_link_no_hub()).solvable
        assert not check_consensus(lossy_link_full()).solvable

    def test_algorithm_convenience(self):
        import random

        from repro.errors import AnalysisError
        from repro.simulation import run_many

        table_result = check_consensus(lossy_link_no_hub())
        algorithm = table_result.algorithm()
        stats = run_many(
            algorithm, lossy_link_no_hub(), random.Random(0), trials=25, rounds=4
        )
        assert stats.agreement_failures == 0 and stats.decided == 25

        broadcaster_result = check_consensus(
            EventuallyForeverAdversary(2, [FRO, BOTH, TO], [TO]), max_depth=3
        )
        assert broadcaster_result.algorithm().name == "broadcast-value"

        with pytest.raises(AnalysisError):
            check_consensus(lossy_link_full()).algorithm()


def test_deepening_releases_each_depth_before_the_next(monkeypatch):
    """Depth t - 1's component analysis is gone when depth t's starts.

    Its columns are as large as the layer, so holding them through the
    next extension and labelling would raise the check's peak memory.
    """
    import weakref

    from repro.topology.components import ComponentAnalysis

    analyses = []
    analyze = ComponentAnalysis.__init__

    def tracked(self, space, depth):
        assert [ref() for ref in analyses] == [None] * len(analyses), depth
        analyses.append(weakref.ref(self))
        analyze(self, space, depth)

    monkeypatch.setattr(ComponentAnalysis, "__init__", tracked)
    result = check_consensus(
        lossy_link_full(), max_depth=5, use_impossibility_provers=False
    )
    assert len(analyses) == 6 and len(result.history) == 6


@pytest.mark.skipif(
    not numpy_available(),
    reason="the member order belongs to the vectorized component pass",
)
def test_only_a_certified_depth_sorts_its_member_order(monkeypatch):
    """An undecided check reads component sizes and valences, never members.

    The vectorized pass folds masks and valences over ``comp_ids``, so the
    prefixes are grouped by component only when a decision table (or a
    member list) asks: never on a walk that stays undecided.
    """
    import repro.topology.components as components

    sorted_layers = []
    member_order = components._member_order

    def spy(np, comp_ids, sizes):
        sorted_layers.append(len(comp_ids))
        return member_order(np, comp_ids, sizes)

    monkeypatch.setattr(components, "_member_order", spy)
    result = check_consensus(
        lossy_link_full(), max_depth=8, use_impossibility_provers=False
    )
    assert result.status is SolvabilityStatus.UNDECIDED
    assert len(result.history) == 9 and sorted_layers == []
    result = check_consensus(santoro_widmayer_family(3, 1))
    assert result.status is SolvabilityStatus.SOLVABLE
    assert sorted_layers == [392]  # the certified depth-2 layer only
