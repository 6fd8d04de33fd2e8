"""Grouped prefix-space layers against the per-child merge loop they replaced.

Stateful adversaries (eventually-forever, stabilizing: the non-compact
families of §6.3) split every layer into state-keyed groups, each with
its own alphabet.  ``PrefixSpace`` extends all of them with one ragged
kernel call per depth and builds the child columns from per-parent
widths, with the round graphs and state sets held as a palette plus int
codes.  The reference below is the old loop, verbatim in semantics: one
kernel call per group, children appended one by one.

The ragged call interns each in-neighborhood's rows once across all
groups, so grouped layers number their views differently from the
reference by design.  Levels are therefore compared by canonical view
structure (the ``structure`` helper of ``test_kernel_parity.py``), while
everything id-free stays exact: the parents, input-index, graph and state
columns, their widths, frontier retention, and the view and row counts
(no phantom views for owners no group's pattern reaches).

The reference keeps every integer column at int64, while the space and
its interner store narrow ones (per-row owner masks at the mask width for
``n``, row depths int32, parents int32, input indices at the width of the
input palette), so the comparison is by
value and the widths are pinned separately: a column that wrapped or
widened fails one check or the other.
"""

from __future__ import annotations

import random
import sys
from array import array
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from kernels import BACKENDS

from repro.adversaries.generators import all_digraphs, all_rooted_digraphs
from repro.adversaries.lossylink import eventually_one_direction
from repro.adversaries.stabilizing import (
    EventuallyForeverAdversary,
    StabilizingAdversary,
)
from repro.adversaries.oblivious import ObliviousAdversary
from repro.core.digraph import Digraph, arrow
from repro.core.inputs import all_assignments, binary_domain
from repro.core.views import LayerTable, ViewInterner, plain_ids
from repro.specs import NAMED_ADVERSARIES
from repro.topology.prefixspace import PrefixSpace

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "core"))
from test_kernel_parity import structure  # noqa: E402


# --------------------------------------------------------------------- #
# Reference: the per-child merge loop (state groups found by a per-parent
# dict pass, one kernel call per group, children appended one by one).
# --------------------------------------------------------------------- #


def reference_layers(adversary, depth: int):
    """Every layer's five columns, built by the old loop.

    Levels, parents and input indices are int64 ``array('q')`` columns;
    graphs and states are plain lists.
    """
    n = adversary.n
    interner = ViewInterner(n)
    vectors = all_assignments(n, binary_domain)
    flat = array("q")
    for vec in vectors:
        flat.extend(interner.leaf_level(vec))
    initial = frozenset(adversary.initial_states() & adversary.live_states())
    layer = (
        flat,
        array("q", [-1] * len(vectors)),
        array("q", range(len(vectors))),
        [None] * len(vectors),
        [initial] * len(vectors),
    )
    layers = [layer]
    for _ in range(depth):
        cur_flat, _, cur_inputs, _, cur_states = layer
        count = len(cur_states)
        groups: dict = {}
        for i, node_states in enumerate(cur_states):
            groups.setdefault(node_states, []).append(i)
        exts_of: list = [None] * count
        cols_of: list = [None] * count
        pos_of: list = [0] * count
        for node_states, members in groups.items():
            exts = adversary.admissible_extensions(node_states)
            if not exts:
                continue
            sub = array("q")
            for i in members:
                sub.extend(cur_flat[i * n : (i + 1) * n])
            group_col = plain_ids(
                interner.extend_layer_table(
                    LayerTable(n, sub), adversary.extension_alphabet(node_states)
                ).ids
            )
            for mi, i in enumerate(members):
                exts_of[i] = exts
                cols_of[i] = group_col
                pos_of[i] = mi
        flat = array("q")
        parents = array("q")
        input_idx = array("q")
        graphs: list = []
        states: list = []
        for i, exts in enumerate(exts_of):
            if exts is None:
                continue
            base = pos_of[i] * len(exts) * n
            for j, (graph, nxt_states) in enumerate(exts):
                flat.extend(cols_of[i][base + j * n : base + (j + 1) * n])
                parents.append(i)
                input_idx.append(cur_inputs[i])
                graphs.append(graph)
                states.append(nxt_states)
        layer = (flat, parents, input_idx, graphs, states)
        layers.append(layer)
    return layers, interner


#: Bytes per element of the interner's per-row owner-mask column (up to
#: 7 processes) and depth column, and of a layer's parents column.
OWNER_WIDTH, DEPTH_WIDTH, PARENT_WIDTH = 1, 4, 4


def input_width(space) -> int:
    """Bytes per input index: int8 up to 128 assignments, int16 beyond."""
    return 1 if len(space.input_vectors) <= 128 else 2


def assert_column(column, reference, width: int, label) -> None:
    """``column`` equals the int64 ``reference`` by value, at ``width`` bytes."""
    assert column.itemsize == width, label
    assert plain_ids(column) == list(reference), label


def structures(interner, ids, cache) -> list:
    """The canonical view structure of every id of a flat level column."""
    return [structure(interner, vid, cache) for vid in plain_ids(ids)]


def assert_interners_match(interner, reference) -> None:
    """Same view and row counts, at the interner's narrow column widths."""
    assert interner._row_owners.itemsize == OWNER_WIDTH
    assert interner._row_depth.itemsize == DEPTH_WIDTH
    assert len(interner) == len(reference)
    assert interner.stats().rows == reference.stats().rows


def assert_layers_match(adversary, depth: int) -> None:
    space = PrefixSpace(adversary)
    space.ensure_depth(depth)
    frontier = PrefixSpace(adversary, retain="frontier")
    frontier.ensure_depth(depth)
    layers, reference = reference_layers(adversary, depth)
    width = input_width(space)
    cache: dict = {}
    reference_cache: dict = {}
    for t, (flat, parents, input_idx, graphs, states) in enumerate(layers):
        store = space.layer_store(t)
        expected = structures(reference, flat, reference_cache)
        assert structures(space.interner, store.levels.ids, cache) == expected, t
        assert_column(store.parents, parents, PARENT_WIDTH, t)
        assert_column(store.input_idx, input_idx, width, t)
        assert list(store.graphs) == graphs, t
        assert list(store.states) == states, t
        # Frontier retention condenses every layer but the deepest to the
        # same parents and input indices, at the same widths.
        kept = frontier._stores[t]
        assert kept.condensed == (t < depth), t
        assert_column(kept.parents, parents, PARENT_WIDTH, t)
        assert_column(kept.input_idx, input_idx, width, t)
    assert structures(frontier.interner, kept.levels.ids, {}) == expected
    assert_interners_match(space.interner, reference)
    assert_interners_match(frontier.interner, reference)
    # Materialized nodes read plain ints off the narrow columns.
    _, parents, input_idx, _, _ = layers[depth]
    for index in sorted({0, len(parents) // 2, len(parents) - 1}):
        node = space.node(depth, index)
        assert type(node.parent) is int and node.parent == parents[index]
        assert type(node.input_index) is int
        assert node.input_index == input_idx[index]
        assert node.inputs == space.input_vectors[input_idx[index]]


NAMED_STATEFUL = ["eventually-to", "eventually-to-full-base", "stabilizing-w2"]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", NAMED_STATEFUL)
def test_named_stateful_layers_match_reference(name, backend):
    assert_layers_match(NAMED_ADVERSARIES[name](), 7)


@pytest.mark.parametrize("backend", BACKENDS)
def test_three_process_stabilizing_layers_match_reference(backend):
    graphs = list(all_rooted_digraphs(3))[:4]
    assert_layers_match(StabilizingAdversary(3, graphs, window=2), 4)


def _random_stateful(kind: str, n: int, seed: int, window: int):
    rng = random.Random(seed)
    if kind == "stabilizing":
        pool = list(all_rooted_digraphs(n))
        return StabilizingAdversary(
            n, rng.sample(pool, min(len(pool), rng.randint(1, 4))), window=window
        )
    pool = list(all_digraphs(n))
    base = rng.sample(pool, rng.randint(0, min(len(pool), 4)))
    eventual = rng.sample(pool, rng.randint(1, min(len(pool), 3)))
    return EventuallyForeverAdversary(n, base, eventual)


@pytest.mark.parametrize("backend", BACKENDS)
@given(
    kind=st.sampled_from(["eventually-forever", "stabilizing"]),
    n=st.integers(min_value=2, max_value=3),
    seed=st.integers(min_value=0, max_value=2**31),
    window=st.integers(min_value=1, max_value=3),
    depth=st.integers(min_value=1, max_value=5),
)
@settings(max_examples=25, deadline=None)
def test_random_stateful_layers_match_reference(backend, kind, n, seed, window, depth):
    adversary = _random_stateful(kind, n, seed, window)
    assert_layers_match(adversary, min(depth, 3) if n == 3 else depth)


@pytest.mark.parametrize("backend", BACKENDS)
def test_grouped_layers_store_coded_columns(backend):
    """Grouped layers keep a small palette plus narrow int codes."""
    space = PrefixSpace(eventually_one_direction("->"))
    space.ensure_depth(5)
    store = space.layer_store(5)
    assert sorted(map(repr, store.graphs.items)) == sorted(
        map(repr, {arrow("->"), arrow("<-")})
    )
    assert len(store.states.items) == len(set(store.states.items))
    for column in (store.graphs, store.states):
        assert len(column.codes) == len(store)
        assert column.codes.itemsize == 1


@pytest.mark.parametrize("backend", BACKENDS)
def test_eight_process_input_indices_are_int16(backend):
    """n=8 has 256 binary assignments: input indices widen to int16."""
    adversary = ObliviousAdversary(8, [Digraph.complete(8), Digraph(8, [])])
    space = PrefixSpace(adversary)
    space.ensure_depth(2)
    assert len(space.input_vectors) == 256
    # Eight owner bits need the int16 mask width.
    assert space.interner._row_owners.itemsize == 2
    for t in range(3):
        store = space.layer_store(t)
        assert store.input_idx.itemsize == 2
        assert store.parents.itemsize == PARENT_WIDTH
        if t:
            parent_inputs = plain_ids(space.layer_store(t - 1).input_idx)
            expected = array("q", [parent_inputs[i] for i in plain_ids(store.parents)])
            assert_column(store.input_idx, expected, 2, t)
        else:
            assert_column(store.input_idx, array("q", range(256)), 2, t)
    node = space.node(2, 4 * 255 + 1)  # two graphs: four children per input
    assert node.input_index == 255 and node.inputs == space.input_vectors[255]
