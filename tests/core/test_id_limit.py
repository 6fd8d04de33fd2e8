"""The interner's int32 id limit: refuse, never wrap, never cache.

Every view id, row id and arena offset is stored in four bytes, so an
interner must raise before it would hold more than ``_ID_LIMIT`` views,
rows or arena cells.  The limit is patched small here, the way
``test_row_rehash.py`` patches ``_REHASH_CHUNK``.  Each interning path —
both layer kernels, ``extend_level``, ``node`` and ``leaf_level`` — must
refuse a batch that would pass it before writing any of it, leave the
columns consistent, and still take a smaller extension afterwards.  The
error is a ``CapacityError``, not an ``AnalysisError``, so the checker's
depth loop cannot turn it into an UNDECIDED verdict that a store caches.
"""

import pytest

import repro.core.views as views_module
from repro.adversaries import lossy_link_full
from repro.api import Session
from repro.consensus.solvability import CheckOptions, check_consensus_with_options
from repro.core.digraph import arrow
from repro.core.views import LayerTable, ViewInterner, numpy_available
from repro.errors import AnalysisError, CapacityError, ReproError
from repro.store import ResultStore
from repro.topology.prefixspace import PrefixSpace

BACKENDS = ["python"] + (["numpy"] if numpy_available() else [])


def counts(interner):
    """(views, rows, arena cells): the three quantities the limit bounds."""
    return len(interner._pid), len(interner._row_hashes), len(interner._row_data)


def assert_consistent(interner, limit):
    views, rows, cells = counts(interner)
    assert max(views, rows, cells) <= limit
    for name in ("_depth", "_row", "_origin_mask"):
        assert len(getattr(interner, name)) == views, name
    assert len(interner._node_slots) == rows * interner.n
    assert len(interner._row_masks) == rows
    assert len(interner._row_starts) == rows + 1
    assert interner._row_starts[-1] == cells
    assert max(interner._node_slots, default=-1) < views
    assert max(interner._row_slots) < rows
    assert max(interner._row_data, default=-1) < views


@pytest.fixture
def limit_to(monkeypatch):
    """Patch the id limit; tiny layers take the batch kernels."""
    monkeypatch.setattr(views_module, "_BATCH_MIN_CELLS", 0)
    monkeypatch.setattr(views_module, "_NUMPY_MIN_CELLS", 0)

    def patch(limit):
        monkeypatch.setattr(views_module, "_ID_LIMIT", limit)
        return limit

    return patch


def test_capacity_error_is_not_an_analysis_error():
    assert issubclass(CapacityError, ReproError)
    assert not issubclass(CapacityError, AnalysisError)


@pytest.mark.parametrize("backend", BACKENDS)
def test_layer_kernels_refuse_a_batch_past_the_limit(backend, limit_to):
    space = PrefixSpace(lossy_link_full(), layer_backend=backend)
    space.ensure_depth(3)
    interner = space.interner
    before = counts(interner)
    # Room for a one-level extension, far too little for the next layer.
    limit = limit_to(max(before) + 4)
    with pytest.raises(CapacityError):
        space.extend()
    assert counts(interner) == before
    assert space.depth == 3
    assert_consistent(interner, limit)

    level = space.layer_store(3).levels[0]
    [table] = interner.extend_layer_table(
        LayerTable.from_levels(2, [level]), [arrow("->")]
    )
    assert counts(interner) != before
    assert_consistent(interner, limit)
    assert table[0] == interner.extend_level(level, arrow("->"))
    assert all(vid < limit for vid in table[0])


@pytest.mark.parametrize("backend", BACKENDS)
def test_layer_kernels_refuse_an_owner_batch_past_the_limit(backend, limit_to):
    """Every row interned, some views not: the views are refused whole."""

    def prepared():
        space = PrefixSpace(lossy_link_full(), layer_backend=backend)
        space.ensure_depth(3)
        table = space.layer_store(3).levels
        # "->" interns each parent's (v0, v1) row for owner 1 only, so
        # "<->" then needs owner 0's views on those rows and nothing else.
        space.interner.extend_layer_table(table, [arrow("->")])
        return space.interner, table

    reference, table = prepared()
    views, rows, cells = counts(reference)
    reference.extend_layer_table(table, [arrow("<->")])
    assert counts(reference)[1:] == (rows, cells)
    need = len(reference) - views
    interner, table = prepared()
    limit = limit_to(views + need - 1)
    assert limit >= max(rows, cells)
    with pytest.raises(CapacityError):
        interner.extend_layer_table(table, [arrow("<->")])
    assert counts(interner) == (views, rows, cells)
    assert_consistent(interner, limit)
    interner.extend_layer_table(LayerTable.from_levels(2, [table[0]]), [arrow("<->")])
    assert counts(interner) == (views + 1, rows, cells)
    assert_consistent(interner, limit)


@pytest.mark.parametrize("backend", BACKENDS)
def test_extend_level_refuses_past_the_limit(backend, limit_to):
    interner = ViewInterner(2, layer_backend=backend)
    level = interner.leaf_level((0, 1))
    before = counts(interner)
    # "->" needs two views, one more than a limit of 3 leaves room for;
    # "<->" (one row of two cells, two views) fits a limit of 4.
    limit = limit_to(3)
    with pytest.raises(CapacityError):
        interner.extend_level(level, arrow("->"))
    assert counts(interner) == before
    assert_consistent(interner, limit)
    limit = limit_to(4)
    both = interner.extend_level(level, arrow("<->"))
    assert counts(interner) == (4, 1, 2)
    assert_consistent(interner, limit)
    with pytest.raises(CapacityError):
        interner.extend_level(level, arrow("->"))
    assert counts(interner) == (4, 1, 2)
    assert interner.extend_level(level, arrow("<->")) == both


def test_node_refuses_past_the_limit(limit_to):
    interner = ViewInterner(2)
    a, b = interner.leaf_level((0, 1))
    limit = limit_to(3)
    assert interner.node(0, [a, b]) == 2
    with pytest.raises(CapacityError):
        interner.node(1, [a, b])  # known row, but no room for the view
    with pytest.raises(CapacityError):
        interner.node(0, [a])  # fresh row and view
    assert counts(interner) == (3, 1, 2)
    assert_consistent(interner, limit)
    assert interner.node(0, [b, a]) == 2  # already interned: no new id


def test_leaf_level_refuses_past_the_limit(limit_to):
    interner = ViewInterner(3)
    interner.leaf_level((0, 0, 0))
    limit = limit_to(5)
    with pytest.raises(CapacityError):
        interner.leaf_level((1, 1, 1))  # three new leaves, room for two
    assert counts(interner) == (3, 0, 0)
    assert interner.leaf_level((1, 1, 0)) == (3, 4, 2)
    assert_consistent(interner, limit)
    with pytest.raises(CapacityError):
        interner.leaf(2, 1)
    assert interner.leaf(0, 1) == 3


def test_check_propagates_and_is_never_cached(limit_to, tmp_path):
    limit_to(40)
    # Without the provers lossy-full deepens until max_depth; the limit
    # stops it after a few layers, which must not read as "undecided".
    options = CheckOptions(max_depth=8, use_impossibility_provers=False)
    with pytest.raises(CapacityError):
        check_consensus_with_options(lossy_link_full(), options)
    store = ResultStore(tmp_path)
    session = Session(options, store=store)
    with pytest.raises(CapacityError):
        session.check_record(lossy_link_full())
    assert store.stats()["objects"] == 0
    assert store.stats()["puts"] == 0
