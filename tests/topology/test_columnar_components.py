"""Equivalence: columnar components/decision tables vs the PR-4 reference.

The columnar pipeline (``ComponentAnalysis`` labelling the layer's view
graph, ``build_decision_table`` folding over component-id columns)
replaced the object-based construction.  These tests pin it — on both
kernel backends, and on both view-graph solvers (scipy and the no-scipy
Shiloach–Vishkin loop) — to a self-contained reimplementation of the
PR-4 algorithm: per-node bucket union-find over materialized level
tuples, eager member lists, and the tuple-driven decision-map
construction.  The contract is exact: identical
component partitions (member lists in canonical first-member order),
valences, broadcast masks, and identical decision tables (assignment,
final map, early map) under both validity conditions.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.topology.components as components_module
from repro.adversaries import (
    ObliviousAdversary,
    eventually_one_direction,
    lossy_link_full,
    lossy_link_no_hub,
    one_directional_and_both,
    out_star_set,
    random_oblivious_adversary,
    santoro_widmayer_family,
)
from repro.adversaries.generators import random_rooted_family
from repro.adversaries.stabilizing import StabilizingAdversary
from repro.consensus.decision import build_decision_table
from repro.consensus.spec import STRONG, WEAK, ConsensusSpec
from repro.core.digraph import arrow
from repro.core.graphword import full_mask
from repro.core.views import ViewInterner, numpy_available
from repro.errors import AnalysisError
from repro.topology.components import ComponentAnalysis, UnionFind
from repro.topology.prefixspace import PrefixSpace

TO, FRO = arrow("->"), arrow("<-")

BACKENDS = ["python"] + (["numpy"] if numpy_available() else [])


@pytest.fixture(autouse=True)
def vectorize_even_tiny_layers(monkeypatch):
    """Drop the cell floors so test-sized layers exercise the numpy passes."""
    import repro.consensus.decision as decision_module

    monkeypatch.setattr(components_module, "_COMPONENT_NUMPY_MIN_CELLS", 0)
    monkeypatch.setattr(decision_module, "_DECISION_NUMPY_MIN_CELLS", 0)


# --------------------------------------------------------------------- #
# Reference implementation: the PR-4 object-based construction, verbatim
# semantics (bucket union-find over level tuples, eager member lists,
# tuple-driven decision maps).
# --------------------------------------------------------------------- #


class ReferenceComponents:
    def __init__(self, space, depth):
        store = space.layer_store(depth)
        levels = [tuple(level) for level in store.levels]
        n = space.adversary.n
        uf = UnionFind(len(levels))
        everyone = full_mask(n)
        buckets = {}
        node_masks = []
        for index, views in enumerate(levels):
            common = everyone
            for p in range(n):
                vid = views[p]
                common &= space.interner.origin_mask(vid)
                key = vid * n + p
                first = buckets.setdefault(key, index)
                if first != index:
                    uf.union(first, index)
            node_masks.append(common)
        unanimity = space.unanimity_by_index
        input_idx = list(store.input_idx)
        members_of = {}
        valences_of = {}
        mask_of = {}
        for index, common in enumerate(node_masks):
            root = uf.find(index)
            members_of.setdefault(root, []).append(index)
            mask_of[root] = mask_of.get(root, everyone) & common
            value = unanimity[input_idx[index]]
            if value is not None:
                valences_of.setdefault(root, set()).add(value)
        self.members = list(members_of.values())
        self.valences = [
            frozenset(valences_of.get(root, ())) for root in members_of
        ]
        self.masks = [mask_of[root] for root in members_of]
        self.comp_of_node = {}
        for cid, members in enumerate(self.members):
            for index in members:
                self.comp_of_node[index] = cid
        self.space = space
        self.depth = depth
        self.input_idx = input_idx

    # -- the PR-4 spec logic over reference data ------------------------

    def allowed_values(self, cid, spec):
        if spec.validity == WEAK:
            valences = self.valences[cid]
            if not valences:
                return frozenset(spec.domain)
            if len(valences) == 1:
                return valences
            return frozenset()
        allowed = set(spec.domain)
        vectors = self.space.input_vectors
        for index in self.members[cid]:
            allowed &= set(vectors[self.input_idx[index]])
            if not allowed:
                break
        return frozenset(allowed)

    def broadcaster_value(self, cid, p):
        vectors = self.space.input_vectors
        values = {
            vectors[self.input_idx[index]][p] for index in self.members[cid]
        }
        assert len(values) == 1
        return next(iter(values))

    def pick_value(self, cid, spec):
        allowed = self.allowed_values(cid, spec)
        if not allowed:
            raise AnalysisError(f"component {cid} admits no decision value")
        if len(allowed) == 1:
            return next(iter(allowed))
        n = self.space.adversary.n
        for p in range(n):
            if self.masks[cid] >> p & 1:
                value = self.broadcaster_value(cid, p)
                if value in allowed:
                    return value
        for value in spec.domain:
            if value in allowed:
                return value
        raise AssertionError("nonempty allowed set")

    def decision_maps(self, spec):
        """The PR-4 ``build_decision_table`` loops, tuple-driven."""
        space, depth = self.space, self.depth
        assignment = {
            cid: self.pick_value(cid, spec) for cid in range(len(self.members))
        }
        store = space.layer_store(depth)
        levels = [tuple(level) for level in store.levels]
        final = {}
        node_values = [None] * len(levels)
        for cid, members in enumerate(self.members):
            value = assignment[cid]
            for index in members:
                node_values[index] = value
                for vid in levels[index]:
                    final[vid] = value
        value_list = sorted(set(assignment.values()), key=repr)
        bit_of = {value: 1 << i for i, value in enumerate(value_list)}
        possible = {}
        value_bits = [bit_of[value] for value in node_values]
        for s in range(depth, -1, -1):
            level_store = space.layer_store(s)
            for index, bits in enumerate(value_bits):
                for vid in level_store.levels[index]:
                    possible[vid] = possible.get(vid, 0) | bits
            if s:
                parents = list(level_store.parents)
                parent_bits = [0] * len(space.layer_store(s - 1))
                for index, bits in enumerate(value_bits):
                    parent_bits[parents[index]] |= bits
                value_bits = parent_bits
        early = {
            view: value_list[bits.bit_length() - 1]
            for view, bits in possible.items()
            if bits and bits & (bits - 1) == 0
        }
        return assignment, final, early


def assert_components_match(space, depth):
    analysis = ComponentAnalysis(space, depth)
    reference = ReferenceComponents(space, depth)
    got = [
        (c.member_indices, c.valences, c.broadcast_mask)
        for c in analysis.components
    ]
    expected = list(zip(reference.members, reference.valences, reference.masks))
    assert got == expected
    assert [int(cid) for cid in analysis.comp_ids] == [
        reference.comp_of_node[i] for i in range(len(space.layer_store(depth)))
    ]
    return analysis, reference


def assert_tables_match(analysis, reference, spec):
    try:
        expected = reference.decision_maps(spec)
    except AnalysisError:
        with pytest.raises(AnalysisError):
            build_decision_table(analysis, spec)
        return
    table = build_decision_table(analysis, spec)
    assignment, final, early = expected
    assert table.assignment == assignment
    assert table.final == final
    assert table.early == early


FAMILIES = [
    ("lossy-full", lossy_link_full, 4),
    ("no-hub", lossy_link_no_hub, 4),
    ("to-and-both", lambda: one_directional_and_both("->"), 4),
    ("stars-n3", lambda: ObliviousAdversary(3, out_star_set(3)), 3),
    ("sw-n3-1", lambda: santoro_widmayer_family(3, 1), 2),
    ("eventually-to", lambda: eventually_one_direction("->"), 4),
    (
        "stabilizing-w2",
        lambda: StabilizingAdversary(2, [TO, FRO], window=2),
        4,
    ),
]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "label, factory, depth", FAMILIES, ids=[f[0] for f in FAMILIES]
)
def test_columnar_components_match_reference(label, factory, depth, backend):
    space = PrefixSpace(factory(), layer_backend=backend)
    for t in range(depth + 1):
        assert_components_match(space, t)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("validity", [WEAK, STRONG])
@pytest.mark.parametrize(
    "label, factory, depth", FAMILIES, ids=[f[0] for f in FAMILIES]
)
def test_columnar_decision_tables_match_reference(
    label, factory, depth, backend, validity
):
    spec = ConsensusSpec(validity=validity)
    space = PrefixSpace(factory(), layer_backend=backend)
    for t in range(depth + 1):
        analysis, reference = assert_components_match(space, t)
        assert_tables_match(analysis, reference, spec)


@pytest.mark.parametrize("backend", BACKENDS)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    n=st.integers(min_value=1, max_value=4),
    size=st.integers(min_value=1, max_value=4),
    rooted=st.booleans(),
    depth=st.integers(min_value=0, max_value=3),
)
@settings(max_examples=20, deadline=None)
def test_columnar_pipeline_matches_on_random_oblivious(
    backend, seed, n, size, rooted, depth
):
    rng = random.Random(seed)
    try:
        adversary = random_oblivious_adversary(
            rng, n, size=size, rooted_only=rooted
        )
    except Exception:
        return  # some (n, size, rooted) draws admit no family
    space = PrefixSpace(adversary, layer_backend=backend)
    analysis, reference = assert_components_match(space, depth)
    assert_tables_match(analysis, reference, ConsensusSpec())


def use_solver(monkeypatch, solver):
    """Pin the numpy pass to one view-graph solver (skip absent scipy)."""
    if solver == "scipy":
        if components_module._scipy_csgraph() is None:
            pytest.skip("scipy is not installed")
    else:
        monkeypatch.setattr(components_module, "_scipy_csgraph", lambda: None)


def assert_solver_matches_reference(monkeypatch, solver):
    use_solver(monkeypatch, solver)
    for _, factory, depth in FAMILIES:
        space = PrefixSpace(factory(), layer_backend="numpy")
        for t in range(depth + 1):
            analysis, reference = assert_components_match(space, t)
            assert_tables_match(analysis, reference, ConsensusSpec())


@pytest.mark.skipif(not numpy_available(), reason="numpy-only fallback")
def test_sv_fallback_matches_reference(monkeypatch):
    """Without scipy, the Shiloach–Vishkin loop must produce the same
    partitions (it is the numpy path CI exercises on scipy-less boxes)."""
    assert_solver_matches_reference(monkeypatch, "sv")


@pytest.mark.skipif(not numpy_available(), reason="numpy-only solver")
def test_scipy_solver_matches_reference(monkeypatch):
    assert_solver_matches_reference(monkeypatch, "scipy")


@pytest.mark.skipif(not numpy_available(), reason="numpy-only solvers")
@pytest.mark.parametrize("solver", ["scipy", "sv"])
def test_view_graph_node_range_stays_bounded_under_shared_interner(
    solver, monkeypatch
):
    """A sweep shard shares one interner per ``n`` across its jobs, so a
    later job's layers hold view ids scattered across every earlier job's
    allocations.  The view graph must still have at most one node per
    cell (ids compact instead of spanning the interner), and its
    partitions must stay exact."""
    use_solver(monkeypatch, solver)
    family = random_rooted_family(random.Random(3), 4, 12)
    interner = ViewInterner(4, layer_backend="numpy")
    for adversary in family[:-1]:
        PrefixSpace(adversary, interner=interner).ensure_depth(3)
    space = PrefixSpace(family[-1], interner=interner)
    seen = []
    view_nodes = components_module._view_nodes

    def spy(np, mat):
        nodes, offset, node_count = view_nodes(np, mat)
        seen.append((mat.size, int(mat.max()) - int(mat.min()) + 1, node_count))
        return nodes, offset, node_count

    monkeypatch.setattr(components_module, "_view_nodes", spy)
    for t in range(4):
        analysis, reference = assert_components_match(space, t)
        assert_tables_match(analysis, reference, ConsensusSpec())
    assert len(seen) == 4
    assert any(span > cells for cells, span, _ in seen)  # ids really spread
    assert all(node_count <= cells for cells, _, node_count in seen)


@pytest.mark.skipif(not numpy_available(), reason="numpy-only guard")
def test_many_valued_domains_fall_back_to_exact_valences():
    """>=64 distinct unanimity values overflow int64 bitmaps; the numpy
    dispatch must route such spaces to the arbitrary-precision pass."""
    vectors = [(v, v) for v in range(70)] + [(0, 1)]
    space = PrefixSpace(
        lossy_link_no_hub(), input_vectors=vectors, layer_backend="numpy"
    )
    for t in (0, 1):
        analysis, _ = assert_components_match(space, t)
        for component in analysis.components:
            if len(component) == 1:
                index = component.member_indices[0]
                store = space.layer_store(t)
                value = space.unanimity_by_index[int(store.input_idx[index])]
                expected = frozenset() if value is None else frozenset({value})
                assert component.valences == expected


@pytest.mark.skipif(not numpy_available(), reason="needs both backends")
def test_backends_agree_on_summaries():
    for factory in (lossy_link_full, lambda: santoro_widmayer_family(3, 1)):
        summaries = {}
        for backend in ("python", "numpy"):
            space = PrefixSpace(factory(), layer_backend=backend)
            summaries[backend] = [
                ComponentAnalysis(space, t).summary() for t in range(3)
            ]
        assert summaries["python"] == summaries["numpy"]
