"""Tests for indistinguishability components and ε-approximations."""

import pytest
from kernels import BACKENDS

from repro.adversaries.generators import out_star_set, santoro_widmayer_family
from repro.adversaries.lossylink import (
    lossy_link_full,
    lossy_link_no_hub,
    lossy_link_with_silence,
    one_directional_and_both,
)
from repro.adversaries.oblivious import ObliviousAdversary
from repro.core.digraph import arrow
from repro.core.distances import d_min
from repro.errors import AnalysisError
from repro.topology.approximation import (
    EpsApproximation,
    eps_approximation_of_value,
    eps_ball,
)
from repro.topology.components import (
    _COMPONENT_NUMPY_MIN_CELLS,
    ComponentAnalysis,
    UnionFind,
)
from repro.topology.prefixspace import PrefixSpace

TO, FRO, BOTH = arrow("->"), arrow("<-"), arrow("<->")


class TestUnionFind:
    def test_basic(self):
        uf = UnionFind(5)
        uf.union(0, 1)
        uf.union(3, 4)
        assert uf.find(0) == uf.find(1)
        assert uf.find(3) == uf.find(4)
        assert uf.find(0) != uf.find(3)
        uf.union(1, 4)
        assert uf.find(0) == uf.find(3)

    def test_idempotent_union(self):
        uf = UnionFind(3)
        uf.union(0, 1)
        uf.union(1, 0)
        assert uf.find(0) == uf.find(1)


class TestComponentStructure:
    def test_members_partition_the_layer(self):
        space = PrefixSpace(lossy_link_no_hub())
        analysis = ComponentAnalysis(space, 2)
        seen = set()
        for component in analysis.components:
            for index in component.member_indices:
                assert index not in seen
                seen.add(index)
        assert seen == set(range(len(space.layer(2))))

    def test_component_of_is_consistent(self):
        space = PrefixSpace(lossy_link_no_hub())
        analysis = ComponentAnalysis(space, 2)
        for component in analysis.components:
            for node in component.members():
                assert analysis.component_of(node) is component

    def test_indistinguishable_nodes_share_component(self):
        space = PrefixSpace(lossy_link_no_hub())
        analysis = ComponentAnalysis(space, 2)
        layer = space.layer(2)
        for a in layer:
            for b in layer:
                if d_min(a.prefix, b.prefix) == 0.0:
                    assert analysis.component_of(a) is analysis.component_of(b)

    def test_component_of_view_lookup(self):
        space = PrefixSpace(lossy_link_no_hub())
        analysis = ComponentAnalysis(space, 2)
        for node in space.layer(2):
            for p in range(2):
                component = analysis.component_of_view(p, node.prefix.view(p))
                assert component is analysis.component_of(node)
        assert analysis.component_of_view(0, 10**9) is None

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "make, depth",
        [(lossy_link_no_hub, 8), (lambda: santoro_widmayer_family(3, 1), 3)],
        ids=["no-hub-d8", "sw31-d3"],
    )
    def test_component_of_view_on_layers_past_the_numpy_floor(
        self, backend, make, depth
    ):
        space = PrefixSpace(make())
        analysis = ComponentAnalysis(space, depth)
        n = space.adversary.n
        ids = list(space.layer_store(depth).levels.ids)
        assert len(ids) >= _COMPONENT_NUMPY_MIN_CELLS
        for cell, vid in enumerate(ids):
            expected = analysis.components[int(analysis.comp_ids[cell // n])]
            assert analysis.component_of_view(cell % n, vid) is expected
            # The same view id asked for under another owner does not occur.
            assert analysis.component_of_view((cell + 1) % n, vid) is None


class TestLossyLinkComponentCounts:
    """The key qualitative shapes from Section 6.1/6.2."""

    @pytest.mark.parametrize("depth", range(4))
    def test_full_lossy_link_stays_connected(self, depth):
        space = PrefixSpace(lossy_link_full())
        analysis = ComponentAnalysis(space, depth)
        assert len(analysis.components) == 1
        assert analysis.components[0].is_bivalent
        assert not analysis.components[0].is_broadcastable

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_no_hub_separates_at_depth_one(self, depth):
        space = PrefixSpace(lossy_link_no_hub())
        analysis = ComponentAnalysis(space, depth)
        assert analysis.bivalent_components() == []
        assert analysis.non_broadcastable_components() == []

    @pytest.mark.parametrize("depth", range(4))
    def test_silence_stays_connected(self, depth):
        space = PrefixSpace(lossy_link_with_silence())
        analysis = ComponentAnalysis(space, depth)
        assert len(analysis.components) == 1

    def test_one_directional_and_both_broadcastable(self):
        space = PrefixSpace(one_directional_and_both("->"))
        analysis = ComponentAnalysis(space, 1)
        assert analysis.bivalent_components() == []
        for component in analysis.components:
            assert 0 in component.broadcasters

    def test_out_stars_solvable_at_depth_one(self):
        adversary = ObliviousAdversary(3, out_star_set(3))
        space = PrefixSpace(adversary)
        analysis = ComponentAnalysis(space, 1)
        assert analysis.bivalent_components() == []
        assert analysis.non_broadcastable_components() == []

    def test_santoro_widmayer_n3_two_losses_connected(self):
        adversary = santoro_widmayer_family(3, 2)
        space = PrefixSpace(adversary, input_vectors=[(0, 0, 0), (1, 1, 1), (0, 1, 1), (0, 0, 1)])
        analysis = ComponentAnalysis(space, 1)
        assert len(analysis.bivalent_components()) >= 1


class TestBroadcasterValues:
    def test_theorem_5_9_invariant(self):
        """Broadcaster inputs are constant per component (Theorem 5.9)."""
        for adversary in [
            lossy_link_no_hub(),
            one_directional_and_both("->"),
            ObliviousAdversary(3, out_star_set(3)),
        ]:
            space = PrefixSpace(adversary)
            for depth in (1, 2):
                analysis = ComponentAnalysis(space, depth)
                for component in analysis.components:
                    for p in component.broadcasters:
                        component.broadcaster_value(p)  # must not raise

    def test_summary_fields(self):
        space = PrefixSpace(lossy_link_no_hub())
        summary = ComponentAnalysis(space, 1).summary()
        assert summary["prefixes"] == 8
        assert summary["components"] == 4
        assert summary["bivalent"] == 0


class TestRefinement:
    """Components refine as the depth grows (ε' <= ε nesting, Lemma 6.3(ii))."""

    @pytest.mark.parametrize(
        "make_adversary",
        [lossy_link_full, lossy_link_no_hub, lambda: one_directional_and_both("->")],
    )
    def test_deeper_components_map_into_coarser_ones(self, make_adversary):
        space = PrefixSpace(make_adversary())
        shallow = ComponentAnalysis(space, 2)
        deep = ComponentAnalysis(space, 3)
        for component in deep.components:
            parents = {
                shallow.component_of(space.parent_of(3, i)).id
                for i in component.member_indices
            }
            assert len(parents) == 1


class TestEpsApproximation:
    def test_matches_union_find_components(self):
        for make in [lossy_link_full, lossy_link_no_hub]:
            space = PrefixSpace(make())
            for depth in (1, 2):
                analysis = ComponentAnalysis(space, depth)
                for node in space.layer(depth):
                    approx = EpsApproximation(space, depth, node)
                    component = analysis.component_of(node)
                    assert sorted(approx.member_indices) == sorted(
                        component.member_indices
                    )

    def test_seed_depth_checked(self):
        space = PrefixSpace(lossy_link_no_hub())
        node = space.layer(1)[0]
        with pytest.raises(AnalysisError):
            EpsApproximation(space, 2, node)

    def test_eps_ball_is_symmetric_membership(self):
        space = PrefixSpace(lossy_link_no_hub())
        layer = space.layer(2)
        for center in layer[:6]:
            ball = eps_ball(space, 2, center)
            assert center in ball
            for member in ball:
                assert center in eps_ball(space, 2, member)

    def test_lemma_6_3_iii_intersecting_approximations_equal(self):
        space = PrefixSpace(lossy_link_no_hub())
        depth = 2
        layer = space.layer(depth)
        approxes = [EpsApproximation(space, depth, node) for node in layer]
        for a in approxes:
            for b in approxes:
                members_a = set(a.member_indices)
                members_b = set(b.member_indices)
                if members_a & members_b:
                    assert members_a == members_b

    def test_value_approximation_covers_valent_nodes(self):
        space = PrefixSpace(lossy_link_no_hub())
        approx0 = eps_approximation_of_value(space, 2, 0)
        values = {node.unanimous_value for node in approx0}
        assert 0 in values
        # For the solvable adversary no unanimous-1 node may appear.
        assert 1 not in values

    def test_value_approximation_missing_value(self):
        space = PrefixSpace(lossy_link_no_hub(), input_vectors=[(0, 1)])
        with pytest.raises(AnalysisError):
            eps_approximation_of_value(space, 1, 0)

    def test_contains_valence(self):
        space = PrefixSpace(lossy_link_full())
        approx = EpsApproximation(space, 1, space.layer(1)[0])
        assert approx.contains_valence(0)
        assert approx.contains_valence(1)
