"""The row table survives growth: every row stays findable after rehashes.

``ViewInterner`` interns child rows through an open-addressing table
(``_row_slots``) that grows by rehashing from the stored per-row hashes.
With numpy and at least 4096 rows, placement runs in chunks of
``_REHASH_CHUNK`` rows, each chunk stepping past the slots earlier chunks
hold before it scatters.  Leaf rows (owner-only, no children) sit in the
table too, keyed by their own row id.  A rehash that loses a row breaks no verdict
directly — the row is simply interned again under a new id later — so
these tests check the table itself: after several rehashes, with the
chunk shrunk so that placement crosses many chunk boundaries, every row
id sits in exactly one slot, a probe for each stored row under its 32-bit
key finds that row, and re-extending an already-interned layer interns
nothing new.
"""

import pytest

import repro.core.views as views_module
from repro.adversaries import lossy_link_full
from repro.core.views import ViewInterner, numpy_available
from repro.topology.prefixspace import PrefixSpace

BACKENDS = ["python"] + (["numpy"] if numpy_available() else [])

#: A chunk small enough that every vectorized rehash below spans several.
SMALL_CHUNK = 1000


@pytest.fixture
def rehashes(monkeypatch):
    """Shrink the rehash chunk and log the row count of every rehash."""
    monkeypatch.setattr(views_module, "_REHASH_CHUNK", SMALL_CHUNK)
    log = []
    rehash = ViewInterner._row_rehash

    def logged(self, size=None):
        log.append(len(self._row_hashes))
        rehash(self, size)

    monkeypatch.setattr(ViewInterner, "_row_rehash", logged)
    return log


def assert_row_table_intact(interner):
    stats = interner.stats()
    rows = interner._row_count
    assert rows == stats.rows + stats.leaves
    placed = sorted(rid for rid in interner._row_slots if rid >= 0)
    assert placed == list(range(rows))
    for rid in range(rows):
        kids = interner._row_tuple(rid)
        key = interner._row_hashes[rid]
        # A child row's key is its 32-bit hash; a leaf row's its own id.
        assert key == (views_module._row_hash(kids) if kids else rid)
        found, _ = interner._row_find(kids, key)
        assert found == rid


@pytest.mark.parametrize("backend", BACKENDS)
def test_rows_survive_chunked_rehashes(backend, rehashes):
    depth = 8
    space = PrefixSpace(lossy_link_full(), layer_backend=backend)
    space.ensure_depth(depth)
    interner = space.interner
    # A leaf interned late sits among the child rows of the last chunk.
    interner.leaf(0, "late")
    # Re-place everything once more into the tightest table the load bound
    # allows, so probe runs are long and cross chunk boundaries.
    rows = interner._row_count
    size = 64
    while (rows + 2) * 3 >= size * 2:
        size *= 2
    interner._row_rehash(size=size)
    assert len(rehashes) >= 4
    if numpy_available():
        assert max(rehashes) >= max(4096, 4 * SMALL_CHUNK)
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
