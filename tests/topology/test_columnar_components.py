"""Equivalence: columnar components/decision tables vs the PR-4 reference.

The columnar pipeline (``ComponentAnalysis`` labelling the layer's view
graph, ``build_decision_table`` folding over component-id columns)
replaced the object-based construction.  These tests pin it — on both
kernels — to a self-contained reimplementation of the PR-4
algorithm: per-node bucket union-find over materialized level tuples,
eager member lists, and the tuple-driven decision-map construction.  The
contract is exact: identical component partitions (member lists in
canonical first-member order), valences, broadcast masks, and identical
decision tables (assignment, final map, early map) under both validity
conditions.  The numpy pass's Shiloach–Vishkin labeler is also checked
directly on synthetic view matrices against :class:`UnionFind`, and —
where scipy is installed — against scipy's ``connected_components`` as a
test-only oracle.  The package itself never imports scipy.
"""

import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from kernels import BACKENDS, without_numpy

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
from repro.core.views import ViewInterner, numpy_available, numpy_module
from repro.errors import AnalysisError
from repro.topology.components import ComponentAnalysis, UnionFind
from repro.topology.prefixspace import PrefixSpace

TO, FRO = arrow("->"), arrow("<-")


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
    if not isinstance(analysis.comp_ids, list):
        # The vectorized pass emits int32 id and member-order columns.
        assert analysis.comp_ids.dtype.name == "int32"
        assert all(c._members.dtype.name == "int32" for c in analysis.components)
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
    space = PrefixSpace(factory())
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
    space = PrefixSpace(factory())
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
    space = PrefixSpace(adversary)
    analysis, reference = assert_components_match(space, depth)
    assert_tables_match(analysis, reference, ConsensusSpec())


def scipy_comp_ids(space, depth):
    """Canonical component ids of one layer, labelled by scipy (test oracle).

    Builds the same view graph as the numpy pass — one node per distinct
    view, one edge from each prefix's column-0 view to each of its other
    views — and numbers scipy's components by smallest member index.
    """
    sparse = pytest.importorskip("scipy.sparse")
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    np = numpy_module()
    mat = space.layer_store(depth).levels.array()
    views, nodes = np.unique(mat, return_inverse=True)
    nodes = nodes.reshape(mat.shape)
    n = mat.shape[1]
    graph = sparse.coo_matrix(
        (
            np.ones(len(mat) * (n - 1)),
            (np.repeat(nodes[:, 0], n - 1), nodes[:, 1:].reshape(-1)),
        ),
        shape=(len(views), len(views)),
    )
    _, labels = csgraph.connected_components(graph, directed=False)
    canonical: dict[int, int] = {}
    return [
        canonical.setdefault(label, len(canonical))
        for label in labels[nodes[:, 0]].tolist()
    ]


#: Layers deeper than FAMILIES': a lossy-full chain the labeler needs 9
#: hooking rounds for (5 at depth 4), 4,092 no-hub components, and an
#: n=3 layer with 56.
DEEP_LAYERS = [
    ("lossy-full", lossy_link_full, 8),
    ("no-hub", lossy_link_no_hub, 10),
    ("sw-n3-1", lambda: santoro_widmayer_family(3, 1), 3),
]


@pytest.mark.skipif(not numpy_available(), reason="numpy-only labeler")
def test_sv_fallback_matches_reference():
    """The Shiloach–Vishkin loop is the numpy pass's only labeler: on
    layers deep enough to take it many hooking rounds it must reproduce
    the reference partitions and decision tables exactly."""
    for _, factory, depth in DEEP_LAYERS:
        space = PrefixSpace(factory())
        space.ensure_depth(depth)
        analysis, reference = assert_components_match(space, depth)
        assert_tables_match(analysis, reference, ConsensusSpec())


@pytest.mark.skipif(not numpy_available(), reason="numpy-only labeler")
def test_scipy_solver_matches_reference():
    """scipy, as a test-only oracle, labels every family's view graph
    into the same partitions as the numpy pass."""
    pytest.importorskip("scipy")
    for _, factory, depth in FAMILIES + DEEP_LAYERS:
        space = PrefixSpace(factory())
        for t in range(depth + 1):
            analysis = ComponentAnalysis(space, t)
            assert analysis.comp_ids.tolist() == scipy_comp_ids(space, t)


@pytest.mark.skipif(not numpy_available(), reason="numpy-only labeler")
@pytest.mark.parametrize("oracle", ["scipy", "sv"])
def test_view_graph_node_range_stays_bounded_under_shared_interner(
    oracle, monkeypatch
):
    """A sweep shard shares one interner per ``n`` across its jobs, so a
    later job's layers hold view ids scattered across every earlier job's
    allocations.  The view graph must still have at most one node per
    cell (ids compact instead of spanning the interner), and its
    partitions must stay exact: against the reference, and with
    ``oracle="scipy"`` also against scipy's labeling of the same graph."""
    if oracle == "scipy":
        pytest.importorskip("scipy")
    family = random_rooted_family(random.Random(3), 4, 12)
    interner = ViewInterner(4)
    for adversary in family[:-1]:
        PrefixSpace(adversary, interner=interner).ensure_depth(3)
    space = PrefixSpace(family[-1], interner=interner)
    seen = []
    view_nodes = components_module._view_nodes

    def spy(np, mat):
        nodes, offset, node_count, node_views = view_nodes(np, mat)
        seen.append((mat.size, int(mat.max()) - int(mat.min()) + 1, node_count))
        return nodes, offset, node_count, node_views

    monkeypatch.setattr(components_module, "_view_nodes", spy)
    for t in range(4):
        analysis, reference = assert_components_match(space, t)
        assert_tables_match(analysis, reference, ConsensusSpec())
        if oracle == "scipy":
            assert analysis.comp_ids.tolist() == scipy_comp_ids(space, t)
    assert len(seen) == 4
    assert any(span > cells for cells, span, _ in seen)  # ids really spread
    assert all(node_count <= cells for cells, _, node_count in seen)


# --------------------------------------------------------------------- #
# The labeler on synthetic view matrices
# --------------------------------------------------------------------- #


def union_find_ids(rows):
    """Canonical component ids of prefixes that merge on any shared id."""
    union_find = UnionFind(len(rows))
    first: dict[int, int] = {}
    for index, row in enumerate(rows):
        for view in row:
            other = first.setdefault(view, index)
            if other != index:
                union_find.union(other, index)
    canonical: dict[int, int] = {}
    return [
        canonical.setdefault(union_find.find(i), len(canonical))
        for i in range(len(rows))
    ]


@st.composite
def view_matrices(draw):
    """``(rows, spread)``: a synthetic layer and the gap between its ids.

    Shapes: random rows over a small id pool (many merges), long chains
    whose consecutive prefixes share one view — ids ascending, descending
    or shuffled along the chain — and layers of private views, where the
    first hooking pass settles every edge.
    """
    n = draw(st.integers(min_value=1, max_value=7))
    shape = draw(
        st.sampled_from(["random", "ascending", "descending", "shuffled", "private"])
    )
    if shape == "random":
        count = draw(st.integers(min_value=1, max_value=40))
        pool = draw(st.integers(min_value=1, max_value=3 * count * n))
        raw = [
            [draw(st.integers(min_value=0, max_value=pool - 1)) for _ in range(n)]
            for _ in range(count)
        ]
    elif shape == "private":
        count = draw(st.integers(min_value=1, max_value=40))
        order = draw(st.permutations(range(count * n)))
        raw = [list(order[i * n : (i + 1) * n]) for i in range(count)]
    else:
        count = draw(st.integers(min_value=1, max_value=300))
        links = list(range(count + 1))
        if shape == "descending":
            links.reverse()
        elif shape == "shuffled":
            links = draw(st.permutations(links))
        fresh = iter(range(count + 1, count + 1 + count * n))
        raw = [
            [links[i], links[i + 1]][:n] + [next(fresh) for _ in range(n - 2)]
            for i in range(count)
        ]
    spread = draw(st.sampled_from([1, 3, 4096]))
    base = draw(st.sampled_from([0, 7, 2**30]))
    return [[base + spread * v for v in row] for row in raw], spread


#: Chunk sizes for the labeler: small ones split the synthetic matrices
#: into many chunks, the default keeps each in one.
CHUNKS = [1, 2, 3, 5, components_module._REHASH_CHUNK]


@pytest.mark.skipif(not numpy_available(), reason="numpy-only labeler")
@pytest.mark.parametrize(
    "chunk", CHUNKS, ids=[str(c) for c in CHUNKS[:-1]] + ["default"]
)
@given(case=view_matrices())
@settings(max_examples=150, deadline=None)
def test_sv_labels_match_union_find(chunk, case):
    """Labels match union-find at every chunk size.

    Across chunks, the labeler's later rounds must resolve each edge's
    ends to their current roots: a root hooked by an earlier chunk and
    re-pointed again would drop the union it was hooked for.
    """
    rows, spread = case
    np = numpy_module()
    mat = np.array(rows, dtype=np.int32)
    nodes, offset, node_count, node_views = components_module._view_nodes(np, mat)
    if spread == 4096 and mat.min() != mat.max():
        assert offset == 0 and node_count < mat.max() - mat.min()  # compacted
    if node_views is None:
        assert nodes is mat
    else:
        assert (node_views[nodes] == mat).all()  # each node's view id
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(components_module, "_REHASH_CHUNK", chunk)
        labels = components_module._sv_labels(np, nodes, offset, node_count)
        comp_ids, count = components_module._first_member_ids(np, labels, node_count)
    expected = union_find_ids(rows)
    assert comp_ids.dtype == np.int32
    assert comp_ids.tolist() == expected
    assert count == max(expected) + 1


@pytest.mark.skipif(not numpy_available(), reason="numpy-only labeler")
def test_check_never_imports_scipy():
    """A numpy-backend check whose layers cross the vectorized threshold
    labels them without scipy: the package never imports it.  Only bites
    where scipy is installed."""
    pytest.importorskip("scipy")
    script = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "import repro.topology.components as components\n"
        "from repro.adversaries import lossy_link_full\n"
        "from repro.consensus.solvability import check_consensus\n"
        "labeled = []\n"
        "label = components._sv_labels\n"
        "def spy(np, nodes, offset, node_count):\n"
        "    labeled.append(nodes.size)\n"
        "    return label(np, nodes, offset, node_count)\n"
        "components._sv_labels = spy\n"
        "check_consensus(lossy_link_full(), max_depth=7,\n"
        "                use_impossibility_provers=False)\n"
        "assert max(labeled) >= components._COMPONENT_NUMPY_MIN_CELLS, labeled\n"
        "print('scipy' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parents[2] / "src")
    out = subprocess.run(
        [sys.executable, "-c", script, src],
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"


@pytest.mark.skipif(not numpy_available(), reason="numpy-only guard")
def test_many_valued_domains_fall_back_to_exact_valences():
    """>=64 distinct unanimity values overflow int64 bitmaps; the numpy
    dispatch must route such spaces to the arbitrary-precision pass."""
    vectors = [(v, v) for v in range(70)] + [(0, 1)]
    space = PrefixSpace(
        lossy_link_no_hub(), input_vectors=vectors
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
        with without_numpy():
            space = PrefixSpace(factory())
            python = [ComponentAnalysis(space, t).summary() for t in range(3)]
        space = PrefixSpace(factory())
        assert [ComponentAnalysis(space, t).summary() for t in range(3)] == python
