"""The row index survives growth and catch-up: every row stays findable.

``ViewInterner`` looks child rows up through an open-addressing table
(``_row_slots``) that it builds on demand: every interning path appends
its rows unindexed, and the first lookup after them (``node()``,
``extend_level`` or a kernel call at a depth that holds rows) places them
from the stored per-row hashes, growing the table by a rehash when the
load bound requires it.  With numpy and at least 4096 rows to place,
placement runs in chunks of ``_REHASH_CHUNK`` rows, each chunk stepping
past the slots already held before it scatters.  Leaf rows (owner-only,
no children) sit in the table too, keyed by their own row id.  A lost row
breaks no verdict directly — the row is simply interned again under a new
id later — so these tests check the table itself: after catch-ups that
grow the table or fill a roomy one, and after a re-placement into the
tightest table the load bound allows, with the chunk shrunk so that
placement crosses many chunk boundaries, every row id sits in exactly one
slot, a probe for each stored row under its 32-bit key finds that row,
and re-extending an already-interned layer interns nothing new.
"""

import pytest
from kernels import BACKENDS

import repro.core.views as views_module
from repro.adversaries import lossy_link_full
from repro.core.views import ViewInterner, numpy_available
from repro.topology.prefixspace import PrefixSpace

#: A chunk small enough that every vectorized rehash below spans several.
SMALL_CHUNK = 1000


@pytest.fixture
def placements(monkeypatch):
    """Shrink the placement chunk; log each placement's (first, rows, slots)."""
    monkeypatch.setattr(views_module, "_REHASH_CHUNK", SMALL_CHUNK)
    log = []
    place = ViewInterner._place_rows

    def logged(self):
        log.append((self._rows_indexed, len(self._row_hashes), len(self._row_slots)))
        place(self)

    monkeypatch.setattr(ViewInterner, "_place_rows", logged)
    return log


def assert_row_table_intact(interner):
    stats = interner.stats()
    rows = interner._row_count
    assert rows == stats.rows + stats.leaves
    assert interner._rows_indexed == rows
    placed = sorted(rid for rid in interner._row_slots if rid >= 0)
    assert placed == list(range(rows))
    for rid in range(rows):
        kids = interner._row_tuple(rid)
        key = interner._row_hashes[rid]
        # A child row's key is its 32-bit hash; a leaf row's its own id.
        assert key == (views_module._row_hash(kids) if kids else rid)
        assert interner._row_find(kids, key) == rid


def tight_size(rows):
    """The smallest table the load bound allows for ``rows`` rows."""
    size = 64
    while (rows + 2) * 3 >= size * 2:
        size *= 2
    return size


@pytest.mark.parametrize("backend", BACKENDS)
def test_rows_survive_chunked_rehashes(backend, placements):
    depth = 8
    space = PrefixSpace(lossy_link_full())
    space.ensure_depth(depth - 1)
    interner = space.interner
    # A fresh build places no row, not even its leaves.
    assert placements == [] and interner._rows_indexed == 0
    # The first lookup catches the index up: one rehash into a grown
    # table places every row from the start, chunk by chunk.
    level = space.layer_store(depth - 1).levels[0]
    assert interner.node(1, interner.children(level[1])) == level[1]
    rows = interner._row_count
    assert placements == [(0, rows, tight_size(rows))]
    if numpy_available():
        assert rows >= max(4096, 4 * SMALL_CHUNK)
    assert_row_table_intact(interner)

    # The next depth appends unindexed into a table roomy enough for it,
    # so the catch-up places only those rows, stepping past held slots.
    interner._row_rehash(size=tight_size(3 * rows))
    size = len(interner._row_slots)
    del placements[:]
    space.ensure_depth(depth)
    assert placements == [] and interner._rows_indexed == rows
    level = space.layer_store(depth).levels[0]
    assert interner.node(1, interner.children(level[1])) == level[1]
    assert placements == [(rows, interner._row_count, size)]
    if numpy_available():
        assert interner._row_count - rows >= max(4096, 4 * SMALL_CHUNK)
    assert_row_table_intact(interner)

    # Re-place everything once more into the tightest table the load bound
    # allows, so probe runs are long and cross chunk boundaries.
    interner._row_rehash(size=tight_size(interner._row_count))
    assert_row_table_intact(interner)

    # The deepest layer again, from its parents: every row and view exists.
    adversary = space.adversary
    states = next(iter(space.layer_store(depth - 1).states.items))
    alphabet = adversary.extension_alphabet(states)
    parent = space.layer_store(depth - 1)
    views, rows = len(interner), interner.stats().rows
    again = interner.extend_layer_table(parent.levels, alphabet)
    assert len(interner) == views
    assert interner.stats().rows == rows
    assert list(again.ids) == list(space.layer_store(depth).levels.ids)
    assert_row_table_intact(interner)
