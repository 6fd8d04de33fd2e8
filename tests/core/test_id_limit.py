"""The interner's int32 id limit: refuse, never wrap, never cache.

A view id is its ``(row, owner)`` slot ``rid * n + p`` and every arena
offset is stored in four bytes, so an interner must raise before
``rows * n`` or its arena cells would pass ``_ID_LIMIT``.  A view on a
row that already exists needs no id room: its slot was counted with the
row.  The limit is patched small here, the way ``test_row_rehash.py``
patches ``_REHASH_CHUNK``.  Each interning path — both layer kernels,
``extend_level``, ``node`` and ``leaf_level`` — must refuse a batch that
would pass it before writing any of it, leave the columns consistent, and
still take a smaller extension afterwards.  The error is a
``CapacityError``, not an ``AnalysisError``, so the checker's depth loop
cannot turn it into an UNDECIDED verdict that a store caches.
"""

import pytest
from kernels import BACKENDS

import repro.core.views as views_module
from repro.adversaries import lossy_link_full
from repro.api import Session
from repro.consensus.solvability import CheckOptions, check_consensus_with_options
from repro.core.digraph import Digraph, arrow
from repro.core.views import LayerTable, ViewInterner
from repro.errors import AnalysisError, CapacityError, ReproError
from repro.store import ResultStore
from repro.topology.prefixspace import PrefixSpace

#: Every column of the interner's state.
COLUMNS = (
    "_row_owners",
    "_row_depth",
    "_row_masks",
    "_row_data",
    "_row_starts",
    "_row_hashes",
    "_row_slots",
)


def counts(interner):
    """(views, rows, arena cells): the limit bounds rows * n and cells."""
    return len(interner), len(interner._row_hashes), len(interner._row_data)


def snapshot(interner):
    """Every column by value, plus the view and leaf counts."""
    state = {name: list(getattr(interner, name)) for name in COLUMNS}
    state["len"] = len(interner)
    state["leaves"] = interner.stats().leaves
    return state


def assert_consistent(interner, limit):
    views, rows, cells = counts(interner)
    n = interner.n
    assert rows * n <= limit and cells <= limit
    for name in ("_row_owners", "_row_depth", "_row_masks"):
        assert len(getattr(interner, name)) == rows, name
    assert len(interner._row_starts) == rows + 1
    assert interner._row_starts[-1] == cells
    assert views == sum(bin(owners).count("1") for owners in interner._row_owners)
    assert max(interner._row_slots) < rows
    # Every child id names a view: a slot below rows * n with its bit set.
    for vid in interner._row_data:
        assert 0 <= vid < rows * n
        assert interner._row_owners[vid // n] >> vid % n & 1


@pytest.fixture
def limit_to(monkeypatch):
    """Patch the id limit; tiny layers take the numpy kernel too."""
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
    space = PrefixSpace(lossy_link_full())
    space.ensure_depth(3)
    interner = space.interner
    before = counts(interner)
    # Room for a one-level extension (two fresh rows), far too little for
    # the next layer.
    limit = limit_to((before[1] + 2) * interner.n)
    with pytest.raises(CapacityError):
        space.extend()
    assert counts(interner) == before
    assert space.depth == 3
    assert_consistent(interner, limit)

    level = space.layer_store(3).levels[0]
    table = interner.extend_layer_table(
        LayerTable.from_levels(2, [level]), [arrow("->")]
    )
    assert counts(interner) != before
    assert_consistent(interner, limit)
    assert table[0] == interner.extend_level(level, arrow("->"))
    assert all(vid < limit for vid in table[0])


@pytest.mark.parametrize("backend", BACKENDS)
def test_layer_kernels_refuse_an_owner_batch_past_the_limit(backend, limit_to):
    """Every row interned, some views not: the views need no room.

    A full interner still takes the missing owners' views on its rows,
    and refuses a batch with one fresh row whole.  Its rows were appended
    unindexed; caught up by one lookup first, the refusal leaves even the
    row table as it was, and without that lookup it changes no content
    column (the refused call catches the index up itself).
    """

    def prepared():
        space = PrefixSpace(lossy_link_full())
        space.ensure_depth(3)
        table = space.layer_store(3).levels
        # "<-" interns each parent's (v0, v1) row for owner 0 only, so
        # "<->" then needs owner 1's views on those rows and nothing else.
        space.interner.extend_layer_table(table, [arrow("<-")])
        return space.interner, table

    reference, table = prepared()
    views, rows, cells = counts(reference)
    reference.extend_layer_table(table, [arrow("<->")])
    assert counts(reference)[1:] == (rows, cells)
    need = len(reference) - views
    assert need > 0
    for caught_up in (True, False):
        interner, table = prepared()
        limit = limit_to(rows * interner.n)
        assert limit >= cells
        assert interner._rows_indexed < rows
        if caught_up:
            # Owner 0's view of parent 0's (v0, v1) row, found by lookup.
            vid = interner.node(0, table[0])
            assert interner._rows_indexed == rows and vid < limit
        # "->" needs a fresh (v0,) row per parent: refused whole.
        state = snapshot(interner)
        with pytest.raises(CapacityError):
            interner.extend_layer_table(table, [arrow("->")])
        after = snapshot(interner)
        if not caught_up:
            del state["_row_slots"], after["_row_slots"]
        assert after == state
        assert_consistent(interner, limit)
        both = interner.extend_layer_table(table, [arrow("<->")])
        assert counts(interner) == (views + need, rows, cells)
        assert_consistent(interner, limit)
        assert all(vid < limit for vid in both.ids)


@pytest.mark.parametrize("backend", BACKENDS)
def test_extend_level_refuses_past_the_limit(backend, limit_to):
    interner = ViewInterner(2)
    level = interner.leaf_level((0, 1))
    before = counts(interner)
    # "->" needs two fresh rows (eight slots with the two leaf rows), one
    # row more than a limit of 7 leaves room for; "<->" (one row of two
    # cells, two views) fits it.
    limit = limit_to(7)
    with pytest.raises(CapacityError):
        interner.extend_level(level, arrow("->"))
    assert counts(interner) == before
    assert_consistent(interner, limit)
    both = interner.extend_level(level, arrow("<->"))
    assert counts(interner) == (4, 3, 2)
    assert_consistent(interner, limit)
    with pytest.raises(CapacityError):
        interner.extend_level(level, arrow("->"))
    assert counts(interner) == (4, 3, 2)
    assert interner.extend_level(level, arrow("<->")) == both


@pytest.mark.parametrize("backend", BACKENDS)
def test_extend_level_sets_no_owner_bit_before_its_fresh_rows_fit(backend, limit_to):
    """A found row's missing owner waits until the fresh rows have room.

    Process 1's row already exists without its owner bit, and processes 0
    and 2 need fresh rows: a refused call must not have handed out
    process 1's view first.
    """
    interner = ViewInterner(3)
    a, b, c = level = interner.leaf_level((0, 1, 0))
    shared = interner.node(0, [a, b])
    graph = Digraph(3, [(0, 1)])
    assert graph.in_neighbor_lists == ((0,), (0, 1), (2,))
    views, rows, cells = counts(interner)
    limit = limit_to((rows + 1) * 3)  # room for one fresh row, not two
    state = snapshot(interner)
    with pytest.raises(CapacityError):
        interner.extend_level(level, graph)
    after = snapshot(interner)
    # The lookup caught the row index up; every content column is as it was.
    del state["_row_slots"], after["_row_slots"]
    assert after == state
    assert_consistent(interner, limit)
    limit = limit_to((rows + 2) * 3)
    child = interner.extend_level(level, graph)
    assert child[1] == shared + 1
    assert counts(interner) == (views + 3, rows + 2, cells + 2)
    assert_consistent(interner, limit)


def test_node_refuses_past_the_limit(limit_to):
    interner = ViewInterner(2)
    a, b = interner.leaf_level((0, 1))
    limit = limit_to(6)
    assert interner.node(0, [a, b]) == 4
    assert interner.node(1, [a, b]) == 5  # known row: its slot is counted
    with pytest.raises(CapacityError):
        interner.node(0, [a])  # fresh row
    assert counts(interner) == (4, 3, 2)
    assert_consistent(interner, limit)
    assert interner.node(0, [b, a]) == 4  # already interned: no new id


def test_leaf_level_refuses_past_the_limit(limit_to):
    interner = ViewInterner(3)
    interner.leaf_level((0, 0, 0))
    limit = limit_to(15)  # five rows of three slots
    with pytest.raises(CapacityError):
        interner.leaf_level((1, 1, 1))  # three new leaf rows, room for two
    assert counts(interner) == (3, 3, 0)
    assert interner.leaf_level((1, 1, 0)) == (9, 13, 8)
    assert_consistent(interner, limit)
    with pytest.raises(CapacityError):
        interner.leaf(2, 1)
    assert interner.leaf(0, 1) == 9


@pytest.mark.parametrize("n", [2, 7])
@pytest.mark.parametrize("backend", BACKENDS)
def test_capacity_counts_rows_times_n(n, backend, limit_to):
    """One more row fits exactly when ``(rows + 1) * n`` is within the limit."""
    interner = ViewInterner(n)
    level = interner.leaf_level(tuple(range(n)))
    rows = counts(interner)[1]
    complete = Digraph.complete(n)  # one fresh row, every owner on it
    limit = limit_to((rows + 1) * n - 1)
    state = snapshot(interner)
    for extend in (
        lambda: interner.extend_level(level, complete),
        lambda: interner.extend_layer_table([level], [complete]),
        lambda: interner.node(0, level),
        lambda: interner.leaf(0, "fresh"),
    ):
        with pytest.raises(CapacityError):
            extend()
        assert snapshot(interner) == state
    assert_consistent(interner, limit)
    limit = limit_to((rows + 1) * n)
    child = interner.extend_level(level, complete)
    assert counts(interner) == (2 * n, rows + 1, n)
    assert sorted(child) == list(range(rows * n, (rows + 1) * n))
    assert max(child) == limit - 1
    assert_consistent(interner, limit)


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
