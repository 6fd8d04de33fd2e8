"""The row index is built on demand and keeps exact hash-consing.

Every interning path appends its rows without placing them in the row
table (``_row_slots``), and a call at a depth that holds no rows yet does
not probe it either, so a fresh build leaves every row unindexed, leaves
included.  Every later lookup — ``node()``, ``extend_level`` or a kernel
call at a depth that already holds rows, as in a second check on an
interner shared on purpose — first places the unindexed rows, so a
structurally equal view still gets the kernel's id and nothing is
interned twice; leaves are found through the leaf table.  The tests run
on both backends, with the numpy kernel's cell floor at 0 and at its
default, and with the placement chunk shrunk so that every catch-up of
these builds spans many chunks.
"""

import pytest
from kernels import BACKENDS

import repro.core.views as views_module
from repro.consensus.solvability import check_consensus
from repro.core.digraph import arrow
from repro.core.ptg import PTGPrefix
from repro.core.views import ViewInterner
from repro.specs import NAMED_ADVERSARIES
from repro.topology.prefixspace import PrefixSpace

#: The numpy kernel's cell floor as shipped.
DEFAULT_MIN_CELLS = views_module._NUMPY_MIN_CELLS

#: (adversary, depth): an oblivious and a stateful (ragged) n=2 space and
#: an n=3 one, each with more than 4096 rows, so the numpy placement runs.
CASES = [("lossy-full", 7), ("eventually-to-full-base", 7), ("stars-n3", 5)]


@pytest.fixture(params=[0, DEFAULT_MIN_CELLS], ids=["floor-0", "floor-default"])
def small_chunks(request, monkeypatch):
    """Set the numpy cell floor and shrink the placement chunk."""
    monkeypatch.setattr(views_module, "_NUMPY_MIN_CELLS", request.param)
    monkeypatch.setattr(views_module, "_REHASH_CHUNK", 64)


@pytest.mark.parametrize("backend", BACKENDS)
def test_extend_level_and_node_append_their_rows_unindexed(backend):
    interner = ViewInterner(2)
    level = interner.leaf_level((0, 1))
    child = interner.extend_level(level, arrow("->"))
    view = interner.node(0, child)
    rows, views = interner._row_count, len(interner)
    assert rows == 5 and interner._rows_indexed == 0

    # Lookups at the held depths catch the index up and find the same ids.
    assert interner.extend_level(level, arrow("->")) == child
    assert interner._rows_indexed == rows
    assert interner.node(0, child) == view
    assert (interner._row_count, len(interner)) == (rows, views)

    # A fresh row found missing by a lookup still appends unindexed.
    fro = interner.extend_level(level, arrow("<-"))
    assert interner._row_count == rows + 1 and interner._rows_indexed == rows
    assert interner.extend_level(level, arrow("<-")) == fro
    assert interner._rows_indexed == rows + 1


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name, depth", CASES)
def test_lookups_after_a_lazy_build_return_the_kernel_ids(name, depth, backend, small_chunks):
    space = PrefixSpace(NAMED_ADVERSARIES[name]())
    space.ensure_depth(depth)
    interner = space.interner
    rows, views = interner._row_count, len(interner)
    assert interner._rows_indexed == 0 < rows

    # node(): the first lookup catches the index up; every view of the
    # deepest layer is found again from its children.
    deepest = space.layer_store(depth).levels
    for level in deepest:
        for p, vid in enumerate(level):
            assert interner.node(p, interner.children(vid)) == vid
    assert interner._rows_indexed == rows

    # leaf(): the depth-0 levels, value by value.
    for vector, level in zip(space.input_vectors, space.layer_store(0).levels):
        assert tuple(interner.leaf(p, x) for p, x in enumerate(vector)) == level

    # extend_level: prefixes replayed from their inputs and graph words
    # (through PTGPrefix) meet the kernel's levels at every depth.
    for index in range(0, len(deepest), 7):
        node = space.node(depth, index)
        replay = PTGPrefix(interner, node.inputs, node.prefix.graphs)
        assert replay._view_history == node.prefix._view_history
    assert (interner._row_count, len(interner)) == (rows, views)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", ["lossy-full", "eventually-to-full-base", "sw-n3-1"])
def test_a_second_check_on_a_shared_interner_interns_no_view(name, backend, small_chunks):
    adversary = NAMED_ADVERSARIES[name]()
    interner = ViewInterner(adversary.n)
    # Without the provers every check deepens through the prefix space.
    options = dict(max_depth=5, max_nodes=400_000, use_impossibility_provers=False)
    first = check_consensus(adversary, interner=interner, **options)
    views, rows = len(interner), interner._row_count
    assert views and interner._rows_indexed < rows
    second = check_consensus(adversary, interner=interner, **options)
    assert (len(interner), interner._row_count) == (views, rows)
    assert interner._rows_indexed == rows
    assert (second.status, second.certified_depth) == (first.status, first.certified_depth)
    assert list(map(repr, second.history)) == list(map(repr, first.history))
    if first.decision_table is not None:
        assert second.decision_table.assignment == first.decision_table.assignment
