"""Tests for the layered admissible prefix space."""

import pytest

from repro.adversaries.lossylink import (
    eventually_one_direction,
    lossy_link_full,
    lossy_link_no_hub,
)
from repro.adversaries.oblivious import ObliviousAdversary
from repro.core.digraph import arrow
from repro.errors import AnalysisError
from repro.topology.prefixspace import PrefixSpace

TO, FRO = arrow("->"), arrow("<-")


class TestConstruction:
    def test_layer_zero_is_input_assignments(self):
        space = PrefixSpace(lossy_link_no_hub())
        layer0 = space.layer(0)
        assert len(layer0) == 4
        assert {node.inputs for node in layer0} == {
            (0, 0), (0, 1), (1, 0), (1, 1)
        }

    def test_custom_input_vectors(self):
        space = PrefixSpace(lossy_link_no_hub(), input_vectors=[(0, 0), (1, 1)])
        assert len(space.layer(0)) == 2

    def test_duplicate_inputs_rejected(self):
        with pytest.raises(AnalysisError):
            PrefixSpace(lossy_link_no_hub(), input_vectors=[(0, 0), (0, 0)])

    def test_empty_inputs_rejected(self):
        with pytest.raises(AnalysisError):
            PrefixSpace(lossy_link_no_hub(), input_vectors=[])

    def test_layer_sizes_grow_by_alphabet(self):
        space = PrefixSpace(lossy_link_full())
        space.ensure_depth(3)
        assert space.layer_sizes() == [4, 12, 36, 108]

    def test_max_nodes_guard(self):
        space = PrefixSpace(lossy_link_full(), max_nodes=20)
        with pytest.raises(AnalysisError):
            space.ensure_depth(3)


class TestStructure:
    def test_parents_chain_to_layer_zero(self):
        space = PrefixSpace(lossy_link_no_hub())
        for node in space.layer(3):
            parent = space.parent_of(3, node.index)
            assert parent is not None
            assert parent.prefix.graphs == node.prefix.graphs[:-1]
            assert parent.inputs == node.inputs

    def test_input_index_preserved(self):
        space = PrefixSpace(lossy_link_no_hub())
        for node in space.layer(2):
            assert space.input_vectors[node.input_index] == node.inputs

    def test_unanimous_nodes(self):
        space = PrefixSpace(lossy_link_no_hub())
        unanimous = space.unanimous_nodes(2)
        assert set(unanimous) == {0, 1}
        assert all(node.inputs == (0, 0) for node in unanimous[0])
        assert len(unanimous[0]) == 4

    def test_find_node(self):
        space = PrefixSpace(lossy_link_no_hub())
        node = space.find_node(2, (0, 1), [TO, FRO])
        assert node.inputs == (0, 1)
        with pytest.raises(AnalysisError):
            space.find_node(1, (0, 1), [arrow("<->")])

    def test_words_match_adversary_enumeration(self):
        adversary = lossy_link_full()
        space = PrefixSpace(adversary, input_vectors=[(0, 1)])
        for t in range(4):
            words = {node.prefix.graphs for node in space.layer(t)}
            expected = {w.graphs for w in adversary.iter_words(t)}
            assert words == expected


class TestStreaming:
    def test_iter_layers_matches_ensure_depth(self):
        materialized = PrefixSpace(lossy_link_full())
        materialized.ensure_depth(4)
        streamed = PrefixSpace(lossy_link_full())
        seen = []
        for depth, store in streamed.iter_layers(max_depth=4):
            seen.append((depth, len(store)))
            assert store.levels == materialized.layer_store(depth).levels
            assert list(store.parents) == list(materialized.layer_store(depth).parents)
        assert seen == [(t, len(materialized.layer_store(t))) for t in range(5)]

    def test_iter_layers_resumes_on_partially_built_space(self):
        space = PrefixSpace(lossy_link_no_hub())
        space.ensure_depth(2)
        depths = [depth for depth, _ in space.iter_layers(max_depth=5)]
        assert depths == [0, 1, 2, 3, 4, 5]
        assert space.depth == 5

    def test_frontier_mode_matches_materialized_at_depth_6(self):
        """Streaming equality: the frontier columns agree with retain='all'."""
        materialized = PrefixSpace(lossy_link_full())
        materialized.ensure_depth(6)
        frontier = PrefixSpace(lossy_link_full(), retain="frontier")
        frontier.ensure_depth(6)
        full_store = materialized.layer_store(6)
        store = frontier.layer_store(6)
        assert store.levels == full_store.levels
        assert list(store.parents) == list(full_store.parents)
        assert list(store.input_idx) == list(full_store.input_idx)
        assert list(store.graphs) == list(full_store.graphs)
        assert list(store.states) == list(full_store.states)
        # Historical layers keep sizes, parents, and input indices only.
        assert frontier.layer_sizes() == materialized.layer_sizes()
        for t in range(6):
            condensed = frontier._stores[t]
            assert condensed.condensed
            assert list(condensed.parents) == list(materialized.layer_store(t).parents)
            assert list(condensed.input_idx) == list(materialized.layer_store(t).input_idx)

    def test_frontier_mode_matches_materialized_at_depth_8(self):
        """Deep streaming equality on the layer kernel: 4 * 3^8 prefixes.

        The whole-layer kernel interns streamed (memo-off) and
        materialized layers through different call patterns; at depth 8
        every column must still coincide exactly.
        """
        materialized = PrefixSpace(lossy_link_full())
        materialized.ensure_depth(8)
        frontier = PrefixSpace(lossy_link_full(), retain="frontier")
        for _, store in frontier.iter_layers(max_depth=8):
            pass
        full_store = materialized.layer_store(8)
        assert len(store) == 4 * 3**8
        assert store.levels == full_store.levels
        assert list(store.parents) == list(full_store.parents)
        assert list(store.input_idx) == list(full_store.input_idx)
        assert list(store.graphs) == list(full_store.graphs)
        assert list(store.states) == list(full_store.states)

    def test_frontier_streaming_on_state_grouped_adversary(self):
        """Multi-group layers (eventually-forever) stream identically."""
        materialized = PrefixSpace(eventually_one_direction("->"))
        materialized.ensure_depth(6)
        frontier = PrefixSpace(
            eventually_one_direction("->"), retain="frontier"
        )
        frontier.ensure_depth(6)
        assert frontier.layer_store(6).levels == materialized.layer_store(6).levels
        assert frontier.layer_store(6).states == materialized.layer_store(6).states

    def test_frontier_mode_reiteration_raises_instead_of_gutted_stores(self):
        space = PrefixSpace(lossy_link_no_hub(), retain="frontier")
        for _ in space.iter_layers(max_depth=3):
            pass
        with pytest.raises(AnalysisError):
            next(iter(space.iter_layers(max_depth=3)))

    def test_frontier_mode_evicted_access_raises(self):
        space = PrefixSpace(lossy_link_no_hub(), retain="frontier")
        space.ensure_depth(3)
        with pytest.raises(AnalysisError):
            space.layer_store(1)
        with pytest.raises(AnalysisError):
            space.node(3, 0)  # materialization needs evicted ancestors
        # The frontier columns themselves stay available.
        assert len(space.layer_store(3).levels) == 4 * 2**3

    def test_frontier_mode_component_analysis_at_frontier(self):
        from repro.topology.components import ComponentAnalysis

        plain = PrefixSpace(lossy_link_no_hub())
        frontier = PrefixSpace(lossy_link_no_hub(), retain="frontier")
        expected = ComponentAnalysis(plain, 4).summary()
        got = ComponentAnalysis(frontier, 4).summary()
        assert got == expected

    def test_retain_validated(self):
        with pytest.raises(AnalysisError):
            PrefixSpace(lossy_link_no_hub(), retain="sometimes")

    def test_shared_interner_reuses_views_across_spaces(self):
        from repro.core.views import ViewInterner

        interner = ViewInterner(2)
        first = PrefixSpace(lossy_link_full(), interner=interner)
        first.ensure_depth(3)
        views = len(interner)
        second = PrefixSpace(lossy_link_full(), interner=interner)
        second.ensure_depth(3)
        assert second.layer_store(3).levels == first.layer_store(3).levels
        # The second space resolves every view through the shared tables.
        assert len(interner) == views


class TestLivenessPruning:
    def test_noncompact_adversary_prefixes_are_safety_prefixes(self):
        # For eventually-> the transient phase is unconstrained over {<-,->}.
        space = PrefixSpace(eventually_one_direction("->"))
        assert len(space.layer(3)) == 4 * 8

    def test_dead_end_safety_state_pruned(self):
        # An adversary that forces -> then has only -> available: prefixes
        # through the dead letter are never generated.
        from repro.adversaries.safety import SafetyAdversary

        table = {
            "start": {TO: ["go"], FRO: ["stuck"]},
            "go": {TO: ["go"]},
            "stuck": {},
        }
        adversary = SafetyAdversary(2, ["start"], table)
        space = PrefixSpace(adversary, input_vectors=[(0, 1)])
        assert len(space.layer(1)) == 1
        assert space.layer(1)[0].prefix.graphs == (TO,)

    def test_interner_shared_across_layers(self):
        space = PrefixSpace(lossy_link_no_hub())
        space.ensure_depth(3)
        for node in space.layer(3):
            assert node.prefix.interner is space.interner
