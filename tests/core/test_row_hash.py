"""One row-hash scheme for both layer kernels.

A child row's probe key is the low 32 bits of CPython's int-tuple hash:
the scalar side calls the builtin when the interpreter's hash matches the
emulation (and the emulation otherwise), and the numpy kernel runs the
emulation vectorized.  Rows interned by one kernel are found by the
other only if all three agree on every row, and the emulation alone must
build the very same row table.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from kernels import BACKENDS

import repro.core.views as views_module
from repro.adversaries import lossy_link_full
from repro.core.views import numpy_module
from repro.topology.prefixspace import PrefixSpace

#: Batches of sorted child rows: 1 to 9 distinct view ids anywhere in int32.
ROW_BATCHES = st.lists(
    st.lists(st.integers(0, 2**31 - 1), min_size=1, max_size=9, unique=True).map(
        lambda ids: tuple(sorted(ids))
    ),
    min_size=1,
    max_size=200,
)


#: The scalar probe key of an interpreter whose builtin hash differs.
emulated = views_module._emulated_row_hash


@given(ROW_BATCHES)
@settings(max_examples=100, deadline=None)
def test_builtin_emulated_and_bulk_row_hashes_agree(batch):
    keys = [emulated(kids) for kids in batch]
    assert [views_module._row_hash(kids) for kids in batch] == keys
    if views_module._TUPLE_HASH_OK:
        assert [hash(kids) & views_module._MASK32 for kids in batch] == keys
    np = numpy_module()
    if np is None:
        return
    for k in {len(kids) for kids in batch}:
        rows = [kids for kids in batch if len(kids) == k]
        bulk = views_module._bulk_row_hashes(np, np.array(rows, dtype=np.int32), k)
        assert bulk.dtype == np.uint32
        assert bulk.tolist() == [emulated(kids) for kids in rows]


@pytest.mark.parametrize("backend", BACKENDS)
def test_emulated_scalar_hash_builds_the_same_row_table(backend, monkeypatch):
    """The interpreter fallback (emulation on the scalar side) moves no row."""

    def row_table():
        space = PrefixSpace(lossy_link_full())
        space.ensure_depth(8)
        interner = space.interner
        return {
            column: bytes(getattr(interner, column))
            for column in ("_row_data", "_row_starts", "_row_hashes", "_row_slots")
        }

    expected = row_table()
    calls = []

    def emulated_row_hash(kids):
        calls.append(1)
        return emulated(kids)

    monkeypatch.setattr(views_module, "_row_hash", emulated_row_hash)
    assert row_table() == expected
    assert calls
