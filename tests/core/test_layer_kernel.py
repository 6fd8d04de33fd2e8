"""Equivalence tests of the whole-layer extension kernel.

``ViewInterner.extend_layer_table`` batches the successor interning of an
entire prefix-space layer; these tests pin it — on both the numpy and the
pure-Python backend — to per-parent ``extend_level`` calls across every
adversary family shape (oblivious single-group layers, eventually/
stabilizing multi-group layers, randomized oblivious alphabets).

View-id *numbering* is explicitly not part of the contract (backends
allocate in different orders), so levels are compared through a canonical
structural form; view/row *counts* are part of the contract (the kernel
must intern exactly the views the per-parent path interns — no phantom
(owner, row) pairs for combinations no parent requested).
"""

import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from kernels import BACKENDS, without_numpy

import repro.core.views as views_module
from repro.adversaries import (
    ObliviousAdversary,
    eventually_one_direction,
    lossy_link_full,
    lossy_link_no_hub,
    out_star_set,
    random_oblivious_adversary,
    santoro_widmayer_family,
)
from repro.adversaries.generators import all_digraphs
from repro.adversaries.stabilizing import StabilizingAdversary
from repro.consensus.solvability import CheckOptions
from repro.core.digraph import Digraph, arrow
from repro.core.inputs import all_assignments, binary_domain
from repro.core.views import LayerTable, ViewInterner, numpy_available, numpy_module
from repro.errors import AnalysisError
from repro.specs import NAMED_ADVERSARIES
from repro.topology.prefixspace import PrefixSpace

TO, FRO = arrow("->"), arrow("<-")

#: The numpy kernel's cell floor as shipped, read before the fixture
#: below drops it.
DEFAULT_MIN_CELLS = views_module._NUMPY_MIN_CELLS

@pytest.fixture(autouse=True)
def batch_even_tiny_layers(monkeypatch):
    """Drop the numpy floor so test-sized layers exercise the numpy
    kernel on the numpy platform, not only the batched Python one."""
    import repro.core.views as views_module

    monkeypatch.setattr(views_module, "_NUMPY_MIN_CELLS", 0)


def canonical(interner, vid, cache):
    """Structural identity of a view, independent of id numbering."""
    got = cache.get(vid)
    if got is None:
        if interner.is_leaf(vid):
            got = (interner.pid(vid), interner.leaf_value(vid))
        else:
            got = (
                interner.pid(vid),
                tuple(
                    sorted(
                        canonical(interner, child, cache)
                        for child in interner.child_row(vid)
                    )
                ),
            )
        cache[vid] = got
    return got


def canonical_levels(interner, levels):
    cache: dict = {}
    return [
        tuple(canonical(interner, vid, cache) for vid in level)
        for level in levels
    ]


def per_parent_layers(adversary, depth, interner, input_vectors=None):
    """The per-parent reference: one ``extend_level`` call per (parent, graph).

    Returns per depth the ``(levels, parents, graphs)`` columns in the
    exact order the original ``PrefixSpace.extend`` emitted them.
    """
    if input_vectors is None:
        input_vectors = all_assignments(adversary.n, binary_domain)
    levels = [interner.leaf_level(vec) for vec in input_vectors]
    initial = frozenset(adversary.initial_states() & adversary.live_states())
    states = [initial] * len(levels)
    layers = [(levels, [-1] * len(levels), [None] * len(levels))]
    for _ in range(depth):
        new_levels, new_states, parents, graphs = [], [], [], []
        for i, node_states in enumerate(states):
            for graph, nxt in adversary.admissible_extensions(node_states):
                new_levels.append(interner.extend_level(levels[i], graph))
                new_states.append(nxt)
                parents.append(i)
                graphs.append(graph)
        levels, states = new_levels, new_states
        layers.append((levels, parents, graphs))
    return layers


def assert_space_matches_reference(adversary, depth):
    space = PrefixSpace(adversary)
    space.ensure_depth(depth)
    reference = ViewInterner(adversary.n)
    layers = per_parent_layers(adversary, depth, reference)
    for t, (levels, parents, graphs) in enumerate(layers):
        store = space.layer_store(t)
        # Ordering columns are id-free and must match exactly (columns may
        # be arrays/tiles; compare their materialized contents).
        assert list(store.parents) == parents
        if t:
            assert list(store.graphs) == graphs
        assert canonical_levels(space.interner, store.levels) == (
            canonical_levels(reference, levels)
        )
    # No phantom views/rows: the kernel interns exactly the per-parent set.
    assert len(space.interner) == len(reference)
    assert space.interner.stats().rows == reference.stats().rows


FAMILIES = [
    ("lossy-full", lossy_link_full, 4),
    ("no-hub", lossy_link_no_hub, 4),
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
def test_layer_kernel_matches_per_parent_path(label, factory, depth, backend):
    assert_space_matches_reference(factory(), depth)


@pytest.mark.parametrize("backend", BACKENDS)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    n=st.integers(min_value=1, max_value=4),
    size=st.integers(min_value=1, max_value=4),
    rooted=st.booleans(),
    depth=st.integers(min_value=0, max_value=3),
)
@settings(max_examples=25, deadline=None)
def test_layer_kernel_matches_on_random_oblivious(
    backend, seed, n, size, rooted, depth
):
    rng = random.Random(seed)
    try:
        adversary = random_oblivious_adversary(
            rng, n, size=size, rooted_only=rooted
        )
    except Exception:
        return  # some (n, size, rooted) draws admit no family
    assert_space_matches_reference(adversary, depth)


@pytest.mark.skipif(not numpy_available(), reason="numpy backend unavailable")
def test_backends_agree_structurally():
    for factory, depth in (
        (lossy_link_full, 3),
        (lambda: santoro_widmayer_family(3, 1), 3),
        (lossy_link_no_hub, 5),
    ):
        with without_numpy():
            py = PrefixSpace(factory())
            py.ensure_depth(depth)
        np_ = PrefixSpace(factory())
        np_.ensure_depth(depth)
        assert len(py.interner) == len(np_.interner)
        assert py.interner.stats().rows == np_.interner.stats().rows
        for t in range(depth + 1):
            assert canonical_levels(
                py.interner, py.layer_store(t).levels
            ) == canonical_levels(np_.interner, np_.layer_store(t).levels)


@pytest.mark.parametrize("backend", BACKENDS)
def test_extend_layer_column_alignment_and_duplicates(backend):
    interner = ViewInterner(2)
    level_a = interner.leaf_level((0, 1))
    level_b = interner.leaf_level((1, 0))
    graphs = lossy_link_full().alphabet()
    by_graph = interner.extend_layer([level_a, level_b, level_a], graphs)
    assert len(by_graph) == len(graphs)
    for j, graph in enumerate(graphs):
        column = by_graph[j]
        assert len(column) == 3
        # Duplicate parents map to identical results...
        assert column[0] == column[2]
        # ...and every cell equals the per-parent extension.
        assert column[0] == interner.extend_level(level_a, graph)
        assert column[1] == interner.extend_level(level_b, graph)


@pytest.mark.parametrize("backend", BACKENDS)
def test_extend_layer_edge_cases(backend):
    interner = ViewInterner(2)
    level = interner.leaf_level((0, 1))
    graphs = lossy_link_full().alphabet()
    assert interner.extend_layer([level], ()) == []
    assert interner.extend_layer([], graphs) == [[], [], []]
    with pytest.raises(AnalysisError):
        interner.extend_layer([(level[0],)], graphs)


@pytest.mark.parametrize("backend", BACKENDS)
def test_repeated_extension_interns_nothing_new(backend):
    interner = ViewInterner(2)
    levels = [interner.leaf_level((0, 1)), interner.leaf_level((1, 0))]
    graphs = lossy_link_full().alphabet()
    first = interner.extend_layer(levels, graphs)
    views, rows = len(interner), interner.stats().rows
    # Interning is idempotent: a repeat batch and the per-parent path
    # resolve every view through the row table without allocating.
    assert interner.extend_layer(levels, graphs) == first
    for i, level in enumerate(levels):
        for j, graph in enumerate(graphs):
            assert interner.extend_level(level, graph) == first[j][i]
    assert (len(interner), interner.stats().rows) == (views, rows)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "label, factory, depth", FAMILIES, ids=[f[0] for f in FAMILIES]
)
def test_kernel_column_is_the_stored_child_layer(label, factory, depth, backend):
    """The kernel returns a layer's children parent-major, as stored.

    Re-running the kernel on a built layer interns nothing, so its column
    must be, id for id, the stored children of the parents it was given —
    the whole next layer for a single-group layer, and each member's
    contiguous block of children for every state group of a grouped one —
    and child ``i * width + j`` must be what ``extend_level`` resolves for
    parent ``i`` and graph ``j``.
    """
    space = PrefixSpace(factory())
    space.ensure_depth(depth)
    adversary = space.adversary
    n = adversary.n
    interner = space.interner
    before = (len(interner), interner.stats().rows)
    group_counts = set()
    for t in range(1, depth + 1):
        parent, child = space.layer_store(t - 1), space.layer_store(t)
        children_of: dict = {}
        for index, i in enumerate(child.parents):
            children_of.setdefault(int(i), []).append(child.levels[index])
        groups: dict = {}
        for i, states in enumerate(parent.states):
            groups.setdefault(states, []).append(i)
        group_counts.add(len(groups))
        for states, members in groups.items():
            alphabet = adversary.extension_alphabet(states)
            sub = LayerTable.from_levels(n, [parent.levels[i] for i in members])
            column = interner.extend_layer_table(sub, alphabet)
            assert column.tolist() == [
                level for i in members for level in children_of[i]
            ], (t, states)
            assert column.tolist() == [
                interner.extend_level(parent.levels[i], graph)
                for i in members
                for graph in alphabet
            ], (t, states)
            if len(groups) == 1:
                assert list(column.ids) == list(child.levels.ids), t
    assert (len(interner), interner.stats().rows) == before
    grouped = label in ("eventually-to", "stabilizing-w2")
    assert (max(group_counts) > 1) == grouped


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "other", [Digraph(1), Digraph(3, [(0, 1), (1, 2)])], ids=["n-1", "n+1"]
)
def test_graph_on_another_process_count_is_refused(backend, other):
    """A graph on n - 1 or n + 1 processes raises and interns nothing.

    Its in-lists would put a view of process 0 into column 1 (n - 1) or
    index past the level (n + 1).
    """
    interner = ViewInterner(2)
    level = interner.leaf_level((0, 1))
    interner.extend_level(level, TO)
    before = (len(interner), interner.stats().rows)
    with pytest.raises(AnalysisError):
        interner.extend_level(level, other)
    for graphs in ([other], [FRO, other]):
        with pytest.raises(AnalysisError):
            interner.extend_layer_table([level, level], graphs)
    assert (len(interner), interner.stats().rows) == before


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("size", [1, 3], ids=["short", "long"])
def test_level_of_another_length_is_refused(backend, size):
    """A level of 1 or 3 views on n=2 raises and interns nothing.

    ``extend_level`` used to raise a bare ``IndexError`` on the short level
    and cut the long one to its first two views; packing tuple levels for
    the layer kernel re-framed two 3-view levels as three 2-view ones,
    with a process-0 view in column 1.
    """
    interner = ViewInterner(2)
    level = interner.leaf_level((0, 1)) + interner.leaf_level((1, 0))
    bad = level[:size]
    interner.extend_level(level[:2], TO)
    before = (len(interner), interner.stats().rows)
    with pytest.raises(AnalysisError):
        interner.extend_level(bad, FRO)
    with pytest.raises(AnalysisError):
        LayerTable.from_levels(2, [bad, bad])
    with pytest.raises(AnalysisError):
        interner.extend_layer_table([bad, bad], [FRO])
    with pytest.raises(AnalysisError):
        interner.extend_layer([bad], [FRO])
    assert (len(interner), interner.stats().rows) == before


@pytest.mark.parametrize("backend", BACKENDS)
def test_views_of_several_depths_are_refused(backend):
    """Depth-0 and depth-1 views in one call raise and intern nothing.

    Every new row used to take the first view's depth plus one, so the
    depth-2 children of ``l1`` read depth 1, and a later extension of
    ``l1`` returned those mis-stamped rows.
    """
    interner = ViewInterner(2)
    l0 = interner.leaf_level((0, 1))
    l1 = interner.extend_level(l0, arrow("<->"))
    before = (len(interner), interner.stats().rows)
    with pytest.raises(AnalysisError, match="share a depth"):
        interner.extend_layer_table([l0, l1], (TO,))
    with pytest.raises(AnalysisError, match="share a depth"):
        interner.extend_layer_table([l1, l0], [[TO], [FRO]], [[1], [0]])
    with pytest.raises(AnalysisError, match="share a depth"):
        interner.extend_level((l0[0], l1[1]), TO)
    assert (len(interner), interner.stats().rows) == before
    # The refusals left every column appendable.
    children = interner.extend_layer_table([l1, l1], (TO,)).tolist()
    assert children == [interner.extend_level(l1, TO)] * 2
    assert {interner.depth(vid) for vid in children[0]} == {2}


def _ragged_layer(interner, draw_specs):
    """The depth-``d`` levels of ``(inputs, word)`` specs, one per parent."""
    levels = []
    for inputs, word in draw_specs:
        level = interner.leaf_level(inputs)
        for graph in word:
            level = interner.extend_level(level, graph)
        levels.append(level)
    return levels


@pytest.mark.parametrize(
    "min_cells", [0, DEFAULT_MIN_CELLS], ids=["floor-0", "floor-default"]
)
@pytest.mark.parametrize("backend", BACKENDS)
@given(data=st.data(), n=st.integers(min_value=2, max_value=3))
@settings(max_examples=25, deadline=None)
def test_ragged_layer_matches_per_parent_and_per_group(backend, min_cells, data, n):
    """A layer split into 1-4 state groups, each with its own alphabet.

    Every child equals per-parent ``extend_level``, and the ragged call
    interns exactly the views and rows that one call per group interns on
    a fresh interner: an in-list shared by groups under different owners
    gets each owner's bit only on the rows its own groups reach.
    """
    pool = list(all_digraphs(n))
    depth = data.draw(st.integers(min_value=0, max_value=2))
    count = data.draw(st.integers(min_value=1, max_value=40))
    specs = [
        (
            tuple(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))),
            [data.draw(st.sampled_from(pool)) for _ in range(depth)],
        )
        for _ in range(count)
    ]
    group_count = data.draw(st.integers(min_value=1, max_value=4))
    group_of = [data.draw(st.integers(0, group_count - 1)) for _ in range(count)]
    alphabets = [
        tuple(data.draw(st.lists(st.sampled_from(pool), max_size=4, unique=True)))
        for _ in range(group_count)
    ]
    members = [[i for i in range(count) if group_of[i] == g] for g in range(group_count)]
    if group_count == 1 and data.draw(st.booleans()):
        members = [None]
    elif backend == "numpy" and data.draw(st.booleans()):
        np = numpy_module()
        members = [np.array(rows, dtype=np.int64) for rows in members]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(views_module, "_NUMPY_MIN_CELLS", min_cells)
        interner = ViewInterner(n)
        levels = _ragged_layer(interner, specs)
        children = interner.extend_layer_table(levels, alphabets, members).tolist()
        per_group = ViewInterner(n)
        group_levels = _ragged_layer(per_group, specs)
        for g, alphabet in enumerate(alphabets):
            rows = [i for i in range(count) if group_of[i] == g]
            per_group.extend_layer_table([group_levels[i] for i in rows], alphabet)
    counts = (len(interner), interner.stats().rows)
    assert counts == (len(per_group), per_group.stats().rows)
    assert children == [
        interner.extend_level(levels[i], graph)
        for i in range(count)
        for graph in alphabets[group_of[i]]
    ]
    assert (len(interner), interner.stats().rows) == counts


@pytest.mark.parametrize("backend", BACKENDS)
def test_shared_in_list_sets_only_the_owners_its_groups_reach(backend):
    """``->`` and ``<-`` share the in-list ``(0, 1)`` as owners 1 and 0.

    Parent 0 extends by ``->`` only and parent 1 by ``<-`` only, so the
    row of parent 0's in-list ``(0, 1)`` holds owner 1's view alone and
    parent 1's holds owner 0's: four child views, not six.
    """
    interner = ViewInterner(2)
    levels = [interner.leaf_level((0, 1)), interner.leaf_level((1, 0))]
    children = interner.extend_layer_table(levels, [[TO], [FRO]], [[0], [1]])
    assert len(interner) == 4 + 4 and interner.stats().rows == 4
    to_child, fro_child = children.tolist()
    assert interner.child_row(to_child[1]) == tuple(sorted(levels[0]))
    assert interner.child_row(fro_child[0]) == tuple(sorted(levels[1]))
    with pytest.raises(AnalysisError):
        interner.pid(to_child[1] - 1)  # owner 0 of parent 0's shared row
    with pytest.raises(AnalysisError):
        interner.pid(fro_child[0] + 1)  # owner 1 of parent 1's shared row


@pytest.mark.parametrize("backend", BACKENDS)
def test_groups_must_partition_the_layer(backend):
    interner = ViewInterner(2)
    levels = [interner.leaf_level((0, 1)), interner.leaf_level((1, 0))]
    before = (len(interner), interner.stats().rows)
    for members in (
        [[0], [0]], [[0], []], [[0, 1], [1]], [[-1], [0]], [[0], [2]], [None, [0]], [[0], None],
    ):
        with pytest.raises(AnalysisError):
            interner.extend_layer_table(levels, [[TO], [FRO]], members)
    with pytest.raises(AnalysisError):
        interner.extend_layer_table(levels, [[TO], [FRO]], [[0, 1]])
    assert (len(interner), interner.stats().rows) == before


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(NAMED_ADVERSARIES))
def test_one_kernel_call_per_depth_and_no_reprobed_rows(name, backend, monkeypatch):
    """A fresh build makes one kernel call per depth, and none probes.

    Rows of different depths or in-lists never coincide, so on a fresh
    interner every row a build interns is new: every kernel call decides
    not to probe (the numpy kernel, forced on every layer here, is told
    so), and no row is ever placed in the row table — leaves are found
    through the leaf table, so it stays empty at its initial 64 slots.
    Spaces stop where ``max_nodes`` allows (``sw-n3-1`` and ``sw-n3-2``
    before depth 6).
    """
    calls = []
    extend = ViewInterner.extend_layer_table

    def counted(self, *args, **kwargs):
        calls.append(len(args[0]))
        return extend(self, *args, **kwargs)

    decided = []
    probe_depth = ViewInterner._probe_depth

    def logged_decision(self, depth):
        decided.append(probe_depth(self, depth))
        return decided[-1]

    probed = []
    intern = ViewInterner._intern_rows_numpy

    def logged_intern(self, np, uniq, hashes, k, depth, probe):
        probed.append(probe)
        return intern(self, np, uniq, hashes, k, depth, probe)

    monkeypatch.setattr(ViewInterner, "extend_layer_table", counted)
    monkeypatch.setattr(ViewInterner, "_probe_depth", logged_decision)
    monkeypatch.setattr(ViewInterner, "_intern_rows_numpy", logged_intern)
    space = PrefixSpace(NAMED_ADVERSARIES[name](), max_nodes=400_000)
    for depth in range(1, 7):
        try:
            space.ensure_depth(depth)
        except AnalysisError:
            break
    assert space.depth >= 3
    assert calls == space.layer_sizes()[:-1]
    assert decided == [False] * len(calls)
    assert (len(probed) > 0) == (backend == "numpy")
    assert not any(probed)
    interner = space.interner
    assert interner._rows_indexed == 0 < interner._row_count
    assert len(interner._row_slots) == 64
    assert max(interner._row_slots) == -1


def test_layer_backend_validation():
    """The platform picks the kernel: neither the interner nor a prefix
    space takes a backend, and an options document naming one is checked
    as before and then dropped."""
    with pytest.raises(TypeError):
        ViewInterner(2, layer_backend="python")
    with pytest.raises(TypeError):
        PrefixSpace(lossy_link_full(), layer_backend="python")
    with pytest.raises(AnalysisError, match="layer_backend"):
        CheckOptions.from_dict({"layer_backend": "cython"})
    for backend in (None, "python", "numpy"):
        assert CheckOptions.from_dict({"layer_backend": backend}) == CheckOptions()


def test_numpy_backend_requested_without_numpy_raises():
    """Without numpy, naming it raises only where a parameter is gone.

    The interner takes no backend (``TypeError``), and a space built from
    an options document that names numpy runs the pure-Python kernel
    instead of failing on a worker that lacks it.
    """
    with without_numpy():
        with pytest.raises(TypeError):
            ViewInterner(2, layer_backend="numpy")
        options = CheckOptions.from_dict({"max_depth": 3, "layer_backend": "numpy"})
        space = PrefixSpace(lossy_link_no_hub(), max_nodes=options.max_nodes)
        space.ensure_depth(options.max_depth)
    assert isinstance(space.layer_store(3).levels.ids, array)
