"""Four-byte view ids: the column widths and the arithmetic around them.

View ids (``(row, owner)`` slots), row ids, arena offsets and probe slots
are int32 on both kernel backends, row keys are the low 32 bits of the
row hash, and the per-row owner and origin masks take the narrowest
signed width holding ``n`` bits.  numpy wraps int32 shifts and products
silently, so everything that combines ids — ``_unique_rows``' packed
keys, the ``rid * n + p`` slot ids — must run in int64 before it is
stored.  These tests pin the widths, feed the key packing ids whose
packed keys need 63 bits, and pin the width the slot ids are computed in.
"""

from array import array

import pytest
from kernels import BACKENDS

import repro.core.views as views_module
from repro.adversaries import lossy_link_full
from repro.core.views import (
    LayerTable,
    ViewInterner,
    _mask_typecode,
    _unique_rows,
    numpy_available,
    numpy_column,
    numpy_module,
)
from repro.topology.prefixspace import PrefixSpace

needs_numpy = pytest.mark.skipif(not numpy_available(), reason="needs numpy")


@pytest.mark.parametrize(
    "n, typecode", [(1, "b"), (7, "b"), (8, "h"), (15, "h"), (16, "i"),
                    (31, "i"), (32, "q"), (62, "q"), (63, None)]
)
def test_mask_width_holds_n_bits(n, typecode):
    assert _mask_typecode(n) == typecode
    interner = ViewInterner(n)
    for masks in (interner._row_masks, interner._row_owners):
        if typecode is None:
            assert masks == []
        else:
            assert masks.typecode == typecode
            masks.append((1 << n) - 1)  # the full n-bit mask fits, signed


@pytest.mark.parametrize("backend", BACKENDS)
def test_layer_columns_are_int32(backend):
    space = PrefixSpace(lossy_link_full())
    space.ensure_depth(6)
    for t in range(7):
        ids = space.layer_store(t).levels.ids
        assert ids.itemsize == 4, t
        if numpy_available():
            assert space.layer_store(t).levels.array().dtype == "int32", t
    interner = space.interner
    for name in ("_row_depth", "_row_data", "_row_starts", "_row_slots"):
        assert getattr(interner, name).itemsize == 4, name
    assert interner._row_hashes.itemsize == 4  # the low 32 key bits
    assert interner._row_owners.itemsize == interner._row_masks.itemsize == 1


@needs_numpy
def test_numpy_column_keeps_widths_and_copies_lists_to_int32():
    np = numpy_module()
    assert numpy_column(array("b", [1, 2])).dtype == np.int8
    assert numpy_column(array("q", [1, 2])).dtype == np.int64
    assert numpy_column([1, 2]).dtype == np.int32
    column = np.arange(3, dtype=np.int16)
    assert numpy_column(column) is column
    assert LayerTable(2, [0, 1, 2, 3]).array().dtype == np.int32


@needs_numpy
@pytest.mark.parametrize("k", [2, 3, 4])
def test_unique_rows_packs_int32_ids_in_int64(k):
    """Packed keys of up to 63 bits must not wrap on an int32 matrix."""
    np = numpy_module()
    rng = np.random.default_rng(k)
    pool = rng.integers(0, 1 << 20, size=(400, k), endpoint=True)
    pool[0] = 1 << 20  # the widest id: 21 bits, so k = 3 packs 63 bits
    pool[1, -1] = 1 << 20
    rows = pool[rng.integers(0, len(pool), size=3000)]
    rows[:2] = pool[:2]
    cand = np.sort(rows, axis=1).astype(np.int32)
    uniq32, inv32 = _unique_rows(np, cand)
    uniq64, inv64 = _unique_rows(np, cand.astype(np.int64))
    assert uniq32.tolist() == uniq64.tolist()
    assert inv32.reshape(-1).tolist() == inv64.reshape(-1).tolist()
    assert [tuple(r) for r in uniq32.tolist()] == sorted(set(map(tuple, cand.tolist())))
    assert (uniq32[inv32.reshape(-1)] == cand).all()


@needs_numpy
def test_kernel_row_ids_reach_slot_keys_as_int64():
    """``rid * n + p`` is computed from int64 row ids, then stored int32.

    The ``rows * n`` id limit keeps every stored slot id below 2**31, but
    the product is formed before that is known, so this pins the width
    the numpy kernel computes it in, and the uint32 row keys it probes
    with.
    """
    np = numpy_module()
    interner = ViewInterner(2)
    level = interner.leaf_level((0, 1))
    uniq = np.array([sorted(level)], dtype=np.int32)
    hashes = views_module._bulk_row_hashes(np, uniq, 2)
    assert hashes.dtype == np.uint32
    assert int(hashes[0]) == views_module._row_hash(tuple(sorted(level)))
    rids = interner._intern_rows_numpy(np, uniq, hashes, 2, 1, True)
    assert rids.dtype == np.int64 and rids.tolist() == [2]  # two leaf rows
    assert interner._row_slots.typecode == interner._row_data.typecode == "i"
    assert list(interner._row_depth) == [0, 0, 1]
    assert list(interner._row_owners) == [1, 2, 0]  # no view on it yet
