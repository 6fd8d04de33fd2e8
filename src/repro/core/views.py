"""Interned full-information views (local causal pasts).

The paper reasons about the *view* ``V_{p}(PT^t)`` of a process ``p`` in a
process-time graph: the causal past of the node ``(p, t)``, i.e. the subgraph
of all process-time nodes with a path to ``(p, t)`` (Section 4, Figure 2).

For full-information protocols the causal past admits an equivalent recursive
representation, which is what this module implements:

* at time 0, the view of ``p`` is the leaf ``(p, x_p)``;
* at time ``t >= 1``, the view of ``p`` is ``(p, {view(q, t-1) : q ∈
  In_{G_t}(p)})`` where the in-neighborhood includes ``p`` itself.

Because every sub-view records its owner, the recursive representation and
the causal-past subgraph determine each other (a fact the test suite checks
by brute force).  Views are *hash-consed* through :class:`ViewInterner`:
structurally equal views receive the same integer id, so the view-equality
tests that underlie every distance function in the paper become integer
comparisons.

Array-backed view tables
------------------------
The interner is columnar, and a view's id is its *slot* ``rid * n + p``
in the child-row table: ``rid`` the interned row, ``p`` the owner.  A
depth-``t`` view is fixed by its owner and the set of depth-``t - 1``
views it heard, so every view of one row shares that row's depth and
origin mask, and a view exists exactly when its owner's bit is set on
the row.  Per row, parallel ``array`` columns hold the owner bitmask
(``_row_owners``) and the origin bitmask (``_row_masks``), both at the
narrowest signed width holding ``n`` bits (int8 up to 7 processes), and
the depth (``_row_depth``, int32); nothing is stored per view, and the
owner, row, depth and origin mask of a view all come from ``vid // n``
and ``vid % n``.  A leaf ``(p, x_p)`` is an owner-only row with no
children.  Child rows (sorted view-id sets) live flat in an arena
(``_row_data`` + ``_row_starts`` offsets, both int32): no per-row Python
tuple is ever stored.  Row lookups go through a packed-key
open-addressing table (``_row_slots``, int32 row ids): the low 32 bits
of a 64-bit mix of the child ids are the probe key, kept per row
(``_row_hashes``, uint32) so rows are placed without touching row
contents, and collisions resolve by comparing against the arena.  The
probe and the placement read only ``key & mask``, and with int32 row ids
the table never holds more than ``2**32`` slots, so 32 key bits lose
nothing.  A leaf row is keyed by its own row id; being empty, it never
matches a child-row probe, and leaves are found through the
``(p, value)`` leaf table.

The table is an index built on demand, and interning never writes it:
every path — both layer kernels, :meth:`ViewInterner.extend_level`,
:meth:`ViewInterner.node` and a new leaf — appends its fresh rows
unindexed.  A depth-``t`` row holds depth-``t - 1`` views, so it can only
equal another depth-``t`` row: a call at a depth that holds no rows yet
appends without looking anything up, and a call at a depth that already
has rows first places every unindexed row (the catch-up, the only code
that writes the table) and then probes.  Leaves are found through the
leaf table and never probe.  A single check on a fresh interner never
places a row; an interner shared on purpose still hash-conses exactly.

Slot ids leave gaps — the slots of owners a row has no view for — so ids
are not ``0 .. len - 1``: ``len()`` counts views (set owner bits), an
accessor given a gap id raises :class:`~repro.errors.AnalysisError`, and
consumers that index by id use the layer's id span.  Every id, row id and
arena offset is stored in four bytes, with no wider fallback: an interner
raises :class:`~repro.errors.CapacityError` before ``rows * n`` or its
arena cells would pass :data:`_ID_LIMIT` (``2**31 - 1``), leaving every
column consistent.

The interner also maintains, per row, the bitmask of processes whose
*initial* node ``(q, 0, x_q)`` occurs in the causal past, and per view (on
demand) the observed input values.  This is precisely the information
needed to decide broadcastability (Definition 5.8): ``p`` has broadcast in
a prefix iff the bit of ``p`` is set in every process's view mask.

The whole-layer extension kernel
--------------------------------
:meth:`ViewInterner.extend_layer_table` interns the successors of an
*entire* prefix-space layer in one call — every state group with its own
alphabet, when the adversary is stateful — and returns one
:class:`LayerTable` holding the child layer as the prefix space stores it:
parent-major, each parent's children contiguous, in parent order.  That
flat view-id column is the exchange format the prefix space, the component
analysis, and the decision-table builder all consume directly, so a layer
never expands into per-child Python tuples on the hot path.  The kernel
works per distinct *in-neighborhood* across all groups' alphabets (child
rows depend on the in-list only, never on the owner or the group): it
builds the candidate child rows of every parent that uses it, deduplicates
them at once, interns each distinct row a single time (looked up in the
row table only when the depth already holds rows), and creates
views at unique-row granularity: a child column is ``urid * n + p``, with
owner ``p``'s bit set on the rows of the groups whose alphabet has the
pattern ``(p, in-list)``.  Two kernels implement the batch, and each
assembles the child column once; the platform picks between them, not
the caller:

* numpy — the layer column becomes one int32 matrix; candidate rows
  are gathered/sorted/uniqued as packed int64 key columns (``np.unique``-based
  bulk interning: row keys are computed vectorized over the distinct
  rows), and owner bits are set through vectorized gathers over the
  interner's buffer-backed row columns.  Runs every call of at least
  :data:`_NUMPY_MIN_CELLS` cells where :func:`numpy_module` returns numpy
  (``REPRO_PURE_PYTHON=1`` vetoes it at import time).
* pure Python — the same batched structure in plain loops, for every
  other call, so ``dependencies = []`` stays true.

Importing this module does not import numpy: :func:`numpy_module`, the
one gate of every columnar stage, imports it on its first call and
caches it, so a process that runs no kernel, component pass or decision
fold (a sweep coordinator, a store reader) never loads it.

Both kernels run serially in the calling process; sweeps parallelize
across jobs (process-pool and fleet backends), never inside one layer.
This is the only layer-extension path.  Two thin entry points sit on top
of the same row arena: :meth:`ViewInterner.extend_level` extends one
level by one graph in a direct loop over its in-neighborhoods (what
:class:`~repro.core.ptg.PTGPrefix` needs), and
:meth:`ViewInterner.extend_layer` is a tuple-in, per-graph-tuples-out
wrapper over :meth:`ViewInterner.extend_layer_table`.  All paths produce
structurally identical views and may be mixed freely on one interner;
only the view-id *numbering* may differ between them.
"""

from __future__ import annotations

import os
import sys
from array import array
from itertools import chain
from typing import Iterable, Sequence

from repro.core.digraph import Digraph
from repro.errors import AnalysisError, CapacityError

#: The import gate's state before its first call.
_UNRESOLVED = object()

#: The gate :func:`numpy_module` returns: ``_UNRESOLVED`` until its first
#: call, then numpy, or ``None`` where numpy does not import.
#: ``REPRO_PURE_PYTHON=1`` vetoes it here, at import time.
_np = None if os.environ.get("REPRO_PURE_PYTHON") else _UNRESOLVED

__all__ = [
    "LayerTable",
    "ViewInterner",
    "ViewStats",
    "numpy_available",
    "numpy_module",
]

#: Origin masks are stored in a signed machine-int array column when they
#: fit (see :func:`_mask_typecode`); interners on more processes fall back
#: to a plain list column.
_MASK_ARRAY_MAX_N = 62

#: The most view slots (``rows * n``) or arena cells an interner holds.
#: Ids and arena offsets are stored as int32, so the interner raises
#: :class:`~repro.errors.CapacityError` before it would write one past
#: this (the largest space ever checked held about 0.26G views).  Read at
#: call time, so tests can monkeypatch it.
_ID_LIMIT = (1 << 31) - 1

#: Below this many (parent, pattern) cells the numpy batch is not worth its
#: fixed per-call overhead; tiny layers stay on the pure-Python kernel.
_NUMPY_MIN_CELLS = 192

#: Rows the vectorized row-table placement (rehash or catch-up) places per
#: chunk.  Its index and row-id temporaries are sized by the chunk, not by
#: every row, so indexing a million rows allocates a few MB instead of a
#: few dozen.
_REHASH_CHUNK = 1 << 16

_MASK64 = (1 << 64) - 1

#: Row keys keep the low 32 bits of the 64-bit tuple hash: probes and
#: rehashes read only ``key & mask``, and the probe table never has more
#: than ``2**32`` slots.
_MASK32 = (1 << 32) - 1

#: CPython's tuple-hash constants (xxHash-style, CPython >= 3.8): the one
#: row-hash scheme of both kernels.  The numpy kernel emulates it
#: vectorized; the scalar side uses the C-speed builtin hash when the
#: running interpreter's ``hash(tuple_of_ints)`` matches the scheme
#: (verified at import below) and the Python-level emulation otherwise.
#: Int lanes hash to themselves below ``2**61 - 1``, far above any
#: reachable view id.
_XXPRIME_1 = 11400714785074694791
_XXPRIME_2 = 14029467366897019727
_XXPRIME_5 = 2870177450012600261
_XX_SUFFIX = _XXPRIME_5 ^ 3527539


def numpy_available() -> bool:
    """Whether the columnar stages run their numpy paths on this platform.

    Asks :func:`numpy_module`, so a first call loads numpy.
    """
    return numpy_module() is not None


def numpy_module():
    """The numpy module honoring ``REPRO_PURE_PYTHON`` (None when vetoed).

    The one import gate of the columnar pipeline: the layer kernel, the
    prefix space's columns, the component analysis and the decision
    tables take their numpy paths exactly when this returns numpy and
    their cell floors allow it.  numpy is imported by the first call and
    cached in ``_np`` (``None`` where it does not import); the veto was
    read when this module was imported, so setting the variable later
    changes nothing.
    """
    global _np
    if _np is _UNRESOLVED:
        try:
            import numpy as module
        except ImportError:  # pragma: no cover - exercised by the no-numpy CI leg
            module = None
        _np = module
    return _np


def _is_ndarray(column) -> bool:
    """Whether ``column`` is a numpy array, without loading numpy.

    No ndarray exists before something imports numpy, so this holds for
    arrays made before the gate resolved or while a test vetoes it.
    """
    np = sys.modules.get("numpy")
    return np is not None and isinstance(column, np.ndarray)


def _code_typecode(palette_size: int) -> str:
    """The narrowest ``array`` typecode (also a numpy dtype) for codes.

    Codes ``0 .. palette_size - 1`` fit int8 up to 128 entries and int16
    up to 32768; larger palettes take int64.  Shared by the interner's
    owner column and the prefix space's coded and input-index columns.
    """
    if palette_size <= 1 << 7:
        return "b"
    if palette_size <= 1 << 15:
        return "h"
    return "q"


def _mask_typecode(n: int) -> str | None:
    """The narrowest signed ``array`` typecode holding ``n``-bit masks.

    int8 up to 7 processes, int16 up to 15, int32 up to 31, int64 up to
    :data:`_MASK_ARRAY_MAX_N`; ``None`` beyond (a plain list column).
    """
    if n > _MASK_ARRAY_MAX_N:
        return None
    return "b" if n < 8 else "h" if n < 16 else "i" if n < 32 else "q"


def numpy_column(column):
    """A flat integer column as a 1-D numpy array (zero-copy where possible).

    ndarray passes through and an ``array`` becomes a buffer view at its
    own width — int32 for view-id and parent columns, the palette width for
    input indices; any other sequence copies into int32, the view-id
    width.  The single normalizer behind :meth:`LayerTable.array` and the
    layer stores' parent/input column accessors.
    """
    np = numpy_module()
    if np is None:
        raise AnalysisError("numpy_column() requires numpy")
    if isinstance(column, np.ndarray):
        return column
    if isinstance(column, array):
        return np.frombuffer(column, dtype=column.typecode)
    return np.array(column, dtype=np.int32)


def plain_ids(ids) -> list:
    """A flat id column as a plain-int list (shared refs, dict-key safe).

    List indexing returns shared references, while array/ndarray element
    reads allocate a fresh int per access — and ndarray ints would wrap
    64-bit hash folds.  The columnar consumers (layer kernels, component
    analysis, decision maps) normalize through this one helper.
    """
    if isinstance(ids, list):
        return ids
    return ids.tolist() if hasattr(ids, "tolist") else list(ids)


def _emulated_tuple_hash(kids: Sequence[int]) -> int:
    """CPython's int-tuple hash, reimplemented (the numpy kernel's spec)."""
    acc = _XXPRIME_5
    for x in kids:
        acc = (acc + x * _XXPRIME_2) & _MASK64
        acc = ((acc << 31) | (acc >> 33)) & _MASK64
        acc = (acc * _XXPRIME_1) & _MASK64
    acc = (acc + (len(kids) ^ _XX_SUFFIX)) & _MASK64
    if acc == _MASK64:  # (Py_uhash_t)-1 is reserved
        acc = 1546275796
    return acc


#: Whether the interpreter's builtin tuple hash matches the emulation.
#: A mismatching interpreter (PyPy, a future CPython) hashes rows through
#: the emulation on the scalar side too, so both kernels still probe
#: identical slots.
_TUPLE_HASH_OK = all(
    (hash(probe) & _MASK64) == _emulated_tuple_hash(probe)
    for probe in ((0,), (1, 2, 3), (5, 2**40, 17, 3), tuple(range(9)))
)


def _builtin_row_hash(kids) -> int:
    """Probe key via the interpreter's C tuple hash (verified above)."""
    return hash(kids if type(kids) is tuple else tuple(kids)) & _MASK32


def _emulated_row_hash(kids: Sequence[int]) -> int:
    """Probe key via the Python-level tuple-hash emulation."""
    return _emulated_tuple_hash(kids) & _MASK32


_row_hash = _builtin_row_hash if _TUPLE_HASH_OK else _emulated_row_hash


def _bulk_row_hashes(np, uniq, k: int):
    """Vectorized probe keys (uint32) for a ``(count, k)`` row matrix.

    Bit-identical to :func:`_row_hash` on every row (the tuple-hash
    emulation folded in uint64 and cut to its low 32 bits), so rows
    interned by either kernel resolve through the same slots.
    """
    acc = np.full(len(uniq), _XXPRIME_5, dtype=np.uint64)
    p2 = np.uint64(_XXPRIME_2)
    p1 = np.uint64(_XXPRIME_1)
    s31 = np.uint64(31)
    s33 = np.uint64(33)
    for c in range(k):
        acc = acc + uniq[:, c].astype(np.uint64) * p2
        acc = ((acc << s31) | (acc >> s33)) * p1
    acc = acc + np.uint64(k ^ _XX_SUFFIX)
    acc[acc == np.uint64(_MASK64)] = np.uint64(1546275796)
    return acc.astype(np.uint32)


def _unique_rows(np, cand):
    """Distinct rows of a row-sorted id matrix, plus the inverse map.

    Rows dedup through a packed int64 key column when the ids fit one
    word, and through ``np.unique(..., axis=0)`` otherwise.  Keys pack in
    int64 whatever the matrix width: numpy wraps int32 shifts silently.
    Both paths return the distinct rows in *lexicographic* order — an
    order that depends only on the row set, never on the packing bit
    width.  The numpy kernel interns distinct rows in this order, so it
    fixes the view-id numbering of every layer.
    """
    k = cand.shape[1]
    if k == 1:
        _, first_idx, inv = np.unique(
            cand[:, 0], return_index=True, return_inverse=True
        )
        return cand[first_idx], inv
    max_id = int(cand[:, -1].max())
    bits = max(1, max_id.bit_length())
    if k * bits <= 63:
        # Pack each sorted row into one int64 key: unique on 1-D ints is
        # far cheaper than row-wise unique.
        keys = cand[:, 0].astype(np.int64)
        for c in range(1, k):
            keys <<= bits
            keys |= cand[:, c]
        _, first_idx, inv = np.unique(
            keys, return_index=True, return_inverse=True
        )
        return cand[first_idx], inv
    return np.unique(cand, axis=0, return_inverse=True)


def _check_partition(count: int, members: Sequence) -> None:
    """Raise unless the groups ``members`` partition parents ``0 .. count - 1``.

    A ``None`` group (the whole layer) is refused: only a sole group may
    give it.
    """
    np = numpy_module()
    if any(rows is None for rows in members):
        ok = False
    elif np is None:
        ok = sorted(chain.from_iterable(members)) == list(range(count))
    else:
        flat = np.concatenate(
            [np.asarray(rows, dtype=np.int64).ravel() for rows in members]
            + [np.empty(0, dtype=np.int64)]
        )
        ok = len(flat) == count and (
            not count
            or (flat.min() >= 0 and flat.max() < count and np.bincount(flat).max() == 1)
        )
    if not ok:
        raise AnalysisError(f"state groups must partition the layer's {count} parents")


def _inlist_uses(plans: Sequence[tuple], sizes: Sequence[int]) -> list:
    """The distinct in-neighborhoods of a layer's group plans, with their users.

    One ``(in_list, spans, owners)`` entry per distinct in-list, in first
    occurrence order: ``spans`` maps each group whose alphabet holds the
    in-list, in group order, to its slice of the in-list's candidate rows
    (the groups' members stacked, ``sizes[g]`` rows each), and ``owners``
    maps each owner ``p`` to the ``(group, pattern index)`` pairs of the
    pattern ``(p, in_list)``.  The kernels intern an in-list's candidate
    rows once for all its groups, but set owner ``p``'s bit only on its
    pairs' groups' rows: with ``n = 2``, ``->`` and ``<-`` share the
    in-list ``(0, 1)`` as owners 1 and 0, and either bit on the other
    group's rows would be a view that no parent reaches.
    """
    index: dict = {}
    uses: list = []
    for g, (patterns, _) in enumerate(plans):
        for pi, (p, in_list) in enumerate(patterns):
            u = index.setdefault(in_list, len(uses))
            if u == len(uses):
                uses.append((in_list, {}, {}))
            _, spans, owners = uses[u]
            if g not in spans:
                start = spans[next(reversed(spans))].stop if spans else 0
                spans[g] = slice(start, start + sizes[g])
            owners.setdefault(p, []).append((g, pi))
    return uses


class LayerTable(Sequence):
    """Columnar view-id levels of one layer: the array-native exchange format.

    A layer table is ``count`` levels of ``n`` view ids stored as one flat
    column (``ids``; row-major, so level ``i`` occupies
    ``ids[i*n : (i+1)*n]``).  Both kernels return an int32 column — an
    ``array('i')`` from the Python kernel, an int32 numpy array from the
    vectorized one; a plain list also works.  Consumers normalize through
    :meth:`array` (numpy matrix) or plain indexing.  Tuple
    materialization is strictly on demand: indexing or iterating yields
    per-level tuples for the object-level APIs
    (:class:`~repro.topology.prefixspace.PrefixNode` wrappers, tests), but
    the hot analyses read the flat column and never build them.
    """

    __slots__ = ("n", "ids")

    def __init__(self, n: int, ids) -> None:
        self.n = n
        self.ids = ids

    @classmethod
    def from_levels(cls, n: int, levels: Iterable[Sequence[int]]) -> "LayerTable":
        """Pack an iterable of length-``n`` levels into one flat int32 column.

        A level of another length raises
        :class:`~repro.errors.AnalysisError`: packed, it would shift every
        later level's columns onto other processes' views.
        """
        flat = array("i")
        for level in levels:
            if len(level) != n:
                raise AnalysisError(f"level of {len(level)} views for n={n}")
            flat.extend(level)
        return cls(n, flat)

    def __len__(self) -> int:
        return len(self.ids) // self.n

    def __getitem__(self, item):
        n = self.n
        if isinstance(item, slice):
            return [self[i] for i in range(*item.indices(len(self)))]
        size = len(self)
        if item < 0:
            item += size
        if not 0 <= item < size:
            raise IndexError(item)
        base = item * n
        chunk = self.ids[base : base + n]
        if _is_ndarray(chunk):
            chunk = chunk.tolist()  # plain ints: hashable keys, no wraparound
        return tuple(chunk)

    def __iter__(self):
        n = self.n
        ids = self.ids
        if _is_ndarray(ids):
            ids = ids.tolist()
        for base in range(0, len(ids), n):
            yield tuple(ids[base : base + n])

    def __eq__(self, other) -> bool:
        if isinstance(other, LayerTable):
            return self.n == other.n and list(self.ids) == list(other.ids)
        if isinstance(other, (list, tuple)):
            return len(self) == len(other) and all(
                a == tuple(b) for a, b in zip(self, other)
            )
        return NotImplemented

    def __hash__(self):  # pragma: no cover - tables are not dict keys
        raise TypeError("LayerTable is unhashable; use tolist() levels")

    def array(self):
        """The ``(count, n)`` numpy matrix over the flat column.

        int32 for the kernels' columns, zero-copy for numpy-backed and
        ``array``-backed columns (buffer view, at the array's own width);
        requires numpy.
        """
        return numpy_column(self.ids).reshape(-1, self.n)

    def tolist(self) -> list[tuple[int, ...]]:
        """Materialize the per-level tuples (compat/diagnostic path)."""
        return list(self)

    def __repr__(self) -> str:
        kind = type(self.ids).__name__
        return f"LayerTable(n={self.n}, count={len(self)}, ids={kind})"


class ViewStats:
    """A small report on the contents of a :class:`ViewInterner`.

    Beyond the view counts, the stats expose the table geometry that the
    benchmarks and the CLI use to watch interner pressure: ``rows`` is the
    number of distinct interned child sets, and ``approx_bytes`` an
    estimate of the resident size of all tables (columns and side tables;
    Python object headers of shared children are not counted).
    """

    __slots__ = (
        "total",
        "leaves",
        "max_depth",
        "rows",
        "approx_bytes",
    )

    def __init__(
        self,
        total: int,
        leaves: int,
        max_depth: int,
        rows: int = 0,
        approx_bytes: int = 0,
    ) -> None:
        self.total = total
        self.leaves = leaves
        self.max_depth = max_depth
        self.rows = rows
        self.approx_bytes = approx_bytes

    def __repr__(self) -> str:
        return (
            f"ViewStats(total={self.total}, leaves={self.leaves}, "
            f"max_depth={self.max_depth}, rows={self.rows}, "
            f"approx_bytes={self.approx_bytes})"
        )


class ViewInterner:
    """Hash-consing store for full-information views of an ``n``-process system.

    All prefixes participating in one analysis must share one interner; view
    ids are only comparable within the interner that produced them.  Because
    views depend only on inputs and in-neighborhoods — never on the
    adversary that generated a prefix — one interner may also be shared
    *across* checks and adversaries of the same ``n``
    (``check_consensus(..., interner=...)``).  Interning appends rows
    unindexed, and the second check's first lookup catches the row index
    up, so equal views keep equal ids.  Sweeps give each job a fresh
    interner, which never builds the index.

    The whole-layer extension kernel runs on numpy when
    :func:`numpy_module` returns it and in pure Python otherwise; the
    platform affects speed and view-id numbering only, never the
    interned structure.

    Examples
    --------
    >>> interner = ViewInterner(2)
    >>> a = interner.leaf(0, 1)
    >>> b = interner.leaf(0, 1)
    >>> a == b
    True
    """

    __slots__ = (
        "n",
        "_origin_values",
        "_leaf_table",
        "_row_data",
        "_row_starts",
        "_row_hashes",
        "_row_slots",
        "_row_slot_mask",
        "_rows_indexed",
        "_held_depths",
        "_row_masks",
        "_row_owners",
        "_row_depth",
        "_view_count",
        "_leaf_count",
    )

    def __init__(self, n: int) -> None:
        if n <= 0:
            raise AnalysisError("a view interner needs n >= 1 processes")
        self.n = n
        # Origin *values* are sparse, per view id: only leaves, node()
        # views and forced views hold an entry; the extension kernels
        # defer them (see :meth:`origins`).
        self._origin_values: dict[int, tuple] = {}
        # Leaf table: (p, value) -> vid.
        self._leaf_table: dict = {}
        # Child rows live flat in an arena (``_row_data`` + ``_row_starts``
        # offsets) and are looked up through a packed-key open-addressing
        # table: ``_row_slots`` holds row ids, probed at ``key & mask``
        # with linear probing, and ``_row_hashes`` keeps each row's 32-bit
        # key so rows are placed by gather.  Ids, offsets and slots are
        # int32.  Every row is appended unindexed; rows ``0 ..
        # _rows_indexed - 1`` are placed, the rest wait for the catch-up
        # (:meth:`_index_rows`).  ``_held_depths`` records the depths that
        # hold rows, so an interning call knows whether its rows can repeat.
        self._row_data = array("i")
        self._row_starts = array("i", [0])
        self._row_hashes = array("I")
        self._row_slots = array("i", [-1]) * 64
        self._row_slot_mask = 63
        self._rows_indexed = 0
        self._held_depths: set[int] = set()
        # Per-row columns; view ``rid * n + p`` exists iff bit ``p`` of
        # ``_row_owners[rid]`` is set.  A view's origin mask is the union
        # of its children's masks, which depends on the row only, so it
        # is kept per row.  Owner and origin masks share the narrowest
        # signed width holding n bits (int8 up to 7 processes), so the
        # numpy kernel gathers both by buffer.
        mask_typecode = _mask_typecode(n)
        self._row_masks = array(mask_typecode) if mask_typecode else []
        self._row_owners = array(mask_typecode) if mask_typecode else []
        self._row_depth = array("i")
        self._view_count = 0
        self._leaf_count = 0

    # ------------------------------------------------------------------ #
    # The interned child-row arena
    # ------------------------------------------------------------------ #

    def _row_find(self, kids: Sequence[int], h: int) -> int:
        """The id of row ``kids`` under its 32-bit key ``h``, or ``-1``.

        Linear probing from ``h & mask``; key hits compare against the
        arena.  Sees only indexed rows: callers catch the index up first
        (:meth:`_index_rows`).
        """
        slots = self._row_slots
        mask = self._row_slot_mask
        hashes = self._row_hashes
        starts = self._row_starts
        data = self._row_data
        k = len(kids)
        idx = h & mask
        while True:
            rid = slots[idx]
            if rid < 0:
                return -1
            if hashes[rid] == h:
                s = starts[rid]
                if starts[rid + 1] - s == k:
                    for j in range(k):
                        if data[s + j] != kids[j]:
                            break
                    else:
                        return rid
            idx = (idx + 1) & mask

    def _intern_rows(
        self, rows: Sequence[tuple[int, ...]], depth: int, probe: bool
    ) -> Sequence[int]:
        """Intern distinct sorted child rows of depth ``depth``; their row ids.

        The pure-Python twin of :meth:`_intern_rows_numpy`.  With
        ``probe`` (the depth already holds rows) the index catches up and
        every row is looked up; without it every row is fresh.  Room for
        all fresh rows is reserved before any is written (a refused batch
        raises :class:`~repro.errors.CapacityError` and changes no content
        column), and they append in order, unindexed, owning no view yet,
        with origin masks folded from their children's rows.
        """
        first = len(self._row_hashes)
        data = self._row_data
        starts = self._row_starts
        rids: Sequence[int]
        if probe:
            self._index_rows()
            # :meth:`_row_find`'s probe, inlined: a call per row made a
            # PTGPrefix replay on a shared interner about 2 us of 17 slower.
            slots = self._row_slots
            slot_mask = self._row_slot_mask
            hashes = self._row_hashes
            found: list[int] = []
            fresh: list[tuple[int, ...]] = []
            keys = []
            for kids in rows:
                h = _row_hash(kids)
                k = len(kids)
                idx = h & slot_mask
                while True:
                    rid = slots[idx]
                    if rid < 0:
                        break
                    if hashes[rid] == h:
                        s = starts[rid]
                        if starts[rid + 1] - s == k:
                            for j in range(k):
                                if data[s + j] != kids[j]:
                                    break
                            else:
                                break
                    idx = (idx + 1) & slot_mask
                if rid < 0:
                    rid = first + len(fresh)
                    fresh.append(kids)
                    keys.append(h)
                found.append(rid)
            rids, rows = found, fresh
        else:
            keys = [_row_hash(kids) for kids in rows]
            rids = range(first, first + len(rows))
        if rows:
            self._reserve(len(rows), sum(map(len, rows)))
            n = self.n
            row_masks = self._row_masks
            for kids in rows:
                data.extend(kids)
                starts.append(len(data))
                mask = 0
                for c in kids:
                    mask |= row_masks[c // n]
                row_masks.append(mask)
            self._row_hashes.extend(keys)
            self._row_owners.extend([0] * len(rows))
            self._row_depth.extend([depth] * len(rows))
            self._held_depths.add(depth)
        return rids

    def _probe_depth(self, depth: int) -> bool:
        """Whether interning rows of ``depth`` must look them up first.

        Decided once per call, before anything is interned.  A depth that
        holds no rows cannot repeat one: a row's children are owned by
        exactly the processes of its in-list, so rows of different
        in-lists never coincide, and each call deduplicates its rows
        before it interns them.
        """
        return depth in self._held_depths

    def _index_rows(self) -> None:
        """The catch-up: place every unindexed row before a lookup.

        Grows the table through :meth:`_row_rehash` only when the load
        bound requires it; otherwise places just the rows not yet indexed.
        """
        nrows = len(self._row_hashes)
        if self._rows_indexed == nrows:
            return
        size = len(self._row_slots)
        while (nrows + 2) * 3 >= size * 2:
            size *= 2
        if size != len(self._row_slots):
            self._row_rehash(size)
        else:
            self._place_rows()

    def _row_rehash(self, size: int) -> None:
        """Place every row anew into an empty probe table of ``size`` slots."""
        self._row_slots = array("i", [-1]) * size
        self._row_slot_mask = size - 1
        self._rows_indexed = 0
        self._place_rows()

    def _place_rows(self) -> None:
        """Place the unindexed rows into the probe table by their keys.

        The only code that writes the table: interning appends rows
        unindexed, and the catch-up (:meth:`_index_rows`) or a rehash
        places them here.  Placement goes by the stored per-row key — row
        contents are never re-read — and rows already placed stay where
        they are.  With numpy available and at least 4096 rows to place,
        placement runs in fixed chunks of :data:`_REHASH_CHUNK` rows, so
        its temporaries are sized by the chunk: each chunk first steps its
        probe cursors past the slots already held, then resolves its own
        collisions by iterated last-write-wins scatter.  Otherwise
        placement is a per-row Python loop.  Probe cursors are int64; the
        slots hold int32 row ids.  The caller sizes the table for the load
        bound.
        """
        first = self._rows_indexed
        nrows = len(self._row_hashes)
        slots = self._row_slots
        mask = self._row_slot_mask
        np = numpy_module() if nrows - first >= 4096 else None
        if np is not None:
            slots_np = np.frombuffer(slots, dtype=np.int32)
            hashes_np = np.frombuffer(self._row_hashes, dtype=np.uint32)
            umask = np.uint32(mask)
            for lo in range(first, nrows, _REHASH_CHUNK):
                hi = min(lo + _REHASH_CHUNK, nrows)
                idx = (hashes_np[lo:hi] & umask).astype(np.int64)
                rids = np.arange(lo, hi, dtype=np.int32)
                while len(rids):
                    # Step past held slots (placed rows, earlier chunks,
                    # earlier winners) first, so no scatter lands on one.
                    held = np.flatnonzero(slots_np[idx] >= 0)
                    while len(held):
                        idx[held] = (idx[held] + 1) & mask
                        held = held[slots_np[idx[held]] >= 0]
                    slots_np[idx] = rids
                    lost = slots_np[idx] != rids
                    idx = idx[lost]
                    rids = rids[lost]
            del slots_np, hashes_np
        else:
            hashes = self._row_hashes
            for rid in range(first, nrows):
                idx = hashes[rid] & mask
                while slots[idx] >= 0:
                    idx = (idx + 1) & mask
                slots[idx] = rid
        self._rows_indexed = nrows

    def _intern_rows_numpy(self, np, uniq, hashes, k: int, depth: int, probe: bool):
        """Bulk-intern distinct candidate rows of depth ``depth``, vectorized.

        The numpy twin of :meth:`_intern_rows`.  ``uniq`` is the
        ``(count, k)`` matrix of distinct sorted rows, ``hashes`` their
        uint32 keys.  With ``probe`` (the depth already holds rows) the
        index catches up and every row is looked up by gathers through
        transient buffer windows over the table (key hits verify against
        the arena, mismatches advance their probe cursor); without it
        every row is fresh.  The fresh rows append in order, unindexed,
        to the arena and the per-row columns in one contiguous copy each
        (origin masks fold from the children's rows; owner masks start
        empty).  Returns the int64 row id per input row, ready for
        ``rid * n + p``.  Raises :class:`~repro.errors.CapacityError`
        before appending rows or arena cells past :data:`_ID_LIMIT`.
        """
        count = len(uniq)
        nrows = len(self._row_hashes)
        if probe:
            self._index_rows()
            slot_mask = self._row_slot_mask
            slots_np = np.frombuffer(self._row_slots, dtype=np.int32)
            row_hashes_np = np.frombuffer(self._row_hashes, dtype=np.uint32)
            starts_np = np.frombuffer(self._row_starts, dtype=np.int32)
            data_np = np.frombuffer(self._row_data, dtype=np.int32)
            idx = (hashes & np.uint32(slot_mask)).astype(np.int64)
            rids = np.full(count, -1, dtype=np.int64)
            unresolved = np.arange(count, dtype=np.int64)
            while len(unresolved):
                # An empty slot ends a miss's probe.
                cur = slots_np[idx[unresolved]]
                held = cur >= 0
                occupied = unresolved[held]
                occ_rids = cur[held]
                resolved = np.zeros(len(occupied), dtype=bool)
                hit_pos = np.flatnonzero(row_hashes_np[occ_rids] == hashes[occupied])
                if len(hit_pos):
                    cand_rows = occupied[hit_pos]
                    cand_rids = occ_rids[hit_pos]
                    s = starts_np[cand_rids]
                    length_ok = (starts_np[cand_rids + 1] - s) == k
                    eq = np.zeros(len(hit_pos), dtype=bool)
                    sub = np.flatnonzero(length_ok)
                    if len(sub):
                        ss = s[sub]
                        sub_eq = np.ones(len(sub), dtype=bool)
                        for j in range(k):
                            sub_eq &= data_np[ss + j] == uniq[cand_rows[sub], j]
                        eq[sub] = sub_eq
                    match_sel = hit_pos[eq]
                    rids[occupied[match_sel]] = occ_rids[match_sel]
                    resolved[match_sel] = True
                advance = occupied[~resolved]
                idx[advance] = (idx[advance] + 1) & slot_mask
                unresolved = advance
            del slots_np, starts_np, data_np, row_hashes_np
            fresh_rows = np.flatnonzero(rids < 0)
            rids[fresh_rows] = np.arange(nrows, nrows + len(fresh_rows))
            if len(fresh_rows) < count:
                uniq, hashes = uniq[fresh_rows], hashes[fresh_rows]
        else:
            rids = np.arange(nrows, nrows + count, dtype=np.int64)
        fresh = len(uniq)
        if fresh:
            self._reserve(fresh, k * fresh)
            old_len = len(self._row_data)
            payload = np.ascontiguousarray(uniq, dtype=np.int32)
            # A row's origin mask is the OR of its children's row masks,
            # folded column by column (a reduce along a k-wide axis is
            # several times slower).
            child_rows = payload // self.n
            mask_view = np.frombuffer(self._row_masks, dtype=self._row_masks.typecode)
            fresh_masks = mask_view[child_rows[:, 0]]
            for j in range(1, k):
                fresh_masks |= mask_view[child_rows[:, j]]
            del mask_view, child_rows
            self._row_data.frombytes(payload.tobytes())
            del payload
            self._row_starts.frombytes(
                np.arange(old_len + k, old_len + k * fresh + 1, k, dtype=np.int32).tobytes()
            )
            self._row_hashes.frombytes(hashes.tobytes())
            self._row_masks.frombytes(fresh_masks.tobytes())
            self._row_owners.frombytes(bytes(fresh_masks.nbytes))
            self._row_depth.frombytes(np.full(fresh, depth, dtype=np.int32).tobytes())
            self._held_depths.add(depth)
        return rids

    def _row_tuple(self, rid: int) -> tuple[int, ...]:
        """Materialize one interned row as a tuple (accessor path only)."""
        starts = self._row_starts
        return tuple(self._row_data[starts[rid] : starts[rid + 1]])

    @property
    def _row_count(self) -> int:
        return len(self._row_hashes)

    def _view_row(self, vid: int) -> int:
        """The row of view ``vid``; a clean error for an id naming no view.

        Slot ids leave gaps (owners a row holds no view for), so an id
        below ``rows * n`` may still name nothing.
        """
        rid, p = divmod(vid, self.n)
        if vid < 0 or rid >= len(self._row_owners) or not self._row_owners[rid] >> p & 1:
            raise AnalysisError(f"no view with id {vid} in this interner")
        return rid

    # ------------------------------------------------------------------ #
    # The int32 id limit
    # ------------------------------------------------------------------ #

    def _has_room(self, rows: int, cells: int = 0) -> bool:
        """Whether that many more rows and arena cells fit the limit.

        A row brings ``n`` view slots, so rows are bounded by
        ``rows * n <= _ID_LIMIT``; a view on an existing row needs no room.
        """
        return (
            (len(self._row_hashes) + rows) * self.n <= _ID_LIMIT
            and len(self._row_data) + cells <= _ID_LIMIT
        )

    def _reserve(self, rows: int, cells: int = 0) -> None:
        """Raise :class:`~repro.errors.CapacityError` unless the ids fit.

        Every path checks a whole batch this way before it writes any of
        it — a call's new leaves for :meth:`leaf` and :meth:`leaf_level`,
        a call's fresh rows for :meth:`_intern_rows` and its numpy twin —
        so a refused batch leaves every content column as it was.
        """
        if not self._has_room(rows, cells):
            raise CapacityError(
                f"view interner full: {len(self._row_hashes)} rows of "
                f"{self.n} slots and {len(self._row_data)} arena cells "
                f"cannot take {rows} and {cells} more under the int32 "
                f"limit of {_ID_LIMIT} slots and cells"
            )

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    def _add_leaf(self, p: int, value) -> int:
        """Append the owner-only row of a fresh leaf and return its view id.

        No lookup: leaves are found through the leaf table.  The empty row
        is keyed by its own row id, so once placed it takes a free slot and
        no child-row probe (``k >= 1``) ever matches it.
        """
        rid = len(self._row_hashes)
        self._row_starts.append(len(self._row_data))
        self._row_hashes.append(rid & _MASK32)
        self._row_masks.append(1 << p)
        self._row_owners.append(1 << p)
        self._row_depth.append(0)
        vid = rid * self.n + p
        self._leaf_table[(p, value)] = vid
        self._origin_values[vid] = ((p, value),)
        self._leaf_count += 1
        self._view_count += 1
        return vid

    def leaf(self, p: int, value) -> int:
        """Intern the time-0 view ``(p, value)`` and return its id."""
        self._check_pid(p)
        vid = self._leaf_table.get((p, value))
        if vid is None:
            self._reserve(1)
            vid = self._add_leaf(p, value)
        return vid

    def node(self, p: int, children: Iterable[int]) -> int:
        """Intern the view of ``p`` whose in-neighborhood saw ``children``.

        ``children`` are the ids of the previous-round views of ``p``'s
        in-neighbors (including ``p`` itself); they must all have the same
        depth.
        """
        self._check_pid(p)
        kids = tuple(sorted(set(children)))
        if not kids:
            raise AnalysisError("a non-leaf view needs at least its own previous view")
        n = self.n
        depths = {self._row_depth[self._view_row(c)] for c in kids}
        if len(depths) != 1:
            raise AnalysisError(f"children of a view must share a depth, got {sorted(depths)}")
        depth = depths.pop() + 1
        rid = -1
        if self._probe_depth(depth):
            self._index_rows()
            rid = self._row_find(kids, _row_hash(kids))
            if rid >= 0 and self._row_owners[rid] >> p & 1:
                return rid * n + p
        # Validate *before* interning the row, so a rejected call leaves no
        # phantom row behind in the tables (or the stats).
        values: dict[int, object] = {}
        for c in kids:
            for q, value in self.origins(c):
                previous = values.setdefault(q, value)
                if previous != value:
                    raise AnalysisError(
                        f"inconsistent input values for process {q}: {previous!r} vs {value!r}"
                    )
        if rid < 0:
            rid = self._intern_rows([kids], depth, False)[0]
        self._row_owners[rid] |= 1 << p
        self._view_count += 1
        vid = rid * n + p
        self._origin_values[vid] = tuple(
            sorted(values.items(), key=lambda kv: kv[0])
        )
        return vid

    def leaf_level(self, inputs: Sequence) -> tuple[int, ...]:
        """Intern the whole time-0 level ``(leaf(0, x_0), ..., leaf(n-1, x_{n-1}))``."""
        if len(inputs) != self.n:
            raise AnalysisError(
                f"assignment of length {len(inputs)} for n={self.n} interner"
            )
        leaf_table = self._leaf_table
        leaf_table_get = leaf_table.get
        if not self._has_room(len(inputs)):
            self._reserve(sum(key not in leaf_table for key in enumerate(inputs)))
        level = []
        for p, value in enumerate(inputs):
            vid = leaf_table_get((p, value))
            if vid is None:
                vid = self._add_leaf(p, value)
            level.append(vid)
        return tuple(level)

    def extend_level(self, level: tuple[int, ...], graph: Digraph) -> tuple[int, ...]:
        """One synchronous round: the views of all processes after ``graph``.

        ``level`` must be the full view-id tuple of one prefix at some time
        ``t`` (so the children of each new view are mutually consistent by
        construction); the result is the level at time ``t + 1``.  Its
        distinct rows are interned in one :meth:`_intern_rows` call, looked
        up only when depth ``t + 1`` already holds rows, and owner bits are
        set only after every fresh row is in.  Origin *values* of the new
        views are materialized lazily (only :meth:`origins` and
        :meth:`input_of` force them) — the prefix-space hot path needs only
        the origin masks.  A level of another length, views of several
        depths or a graph on another process count raise
        :class:`~repro.errors.AnalysisError`.
        """
        n = self.n
        if len(level) != n:
            raise AnalysisError(f"level of {len(level)} views for n={n} interner")
        self._check_graph(graph)
        row_depth = self._row_depth
        depths = {row_depth[v // n] for v in level}
        if len(depths) != 1:
            raise AnalysisError(f"level views must share a depth, got {sorted(depths)}")
        depth = depths.pop() + 1
        # Each process's row, deduplicated in first-occurrence order.
        index: dict = {}
        picks = []
        for in_list in graph.in_neighbor_lists:
            size = len(in_list)
            if size == 2:
                a = level[in_list[0]]
                b = level[in_list[1]]
                kids = (a, b) if a < b else (b, a)
            elif size == 1:
                kids = (level[in_list[0]],)
            else:
                kids = tuple(sorted([level[q] for q in in_list]))
            picks.append(index.setdefault(kids, len(index)))
        rids = self._intern_rows(list(index), depth, self._probe_depth(depth))
        owners = self._row_owners
        vids = []
        added = 0
        for p, u in enumerate(picks):
            rid = rids[u]
            held = owners[rid]
            if not held >> p & 1:
                owners[rid] = held | 1 << p
                added += 1
            vids.append(rid * n + p)
        self._view_count += added
        return tuple(vids)

    def _alphabet_plan(self, graphs: Sequence[Digraph]) -> tuple:
        """The distinct ``(p, in-neighborhood)`` patterns of an alphabet.

        Alphabets repeat in-rows across their graphs (e.g. every graph in
        which ``p`` hears everyone shares a row); which rows coincide is a
        property of the *alphabet alone*, so the dedup runs once per group
        alphabet of a kernel call, outside the per-parent work.  Returns
        ``(patterns, layouts)``: the distinct patterns in first-occurrence
        order and, per graph, the pattern indices assembling its level.
        :func:`_inlist_uses` groups the patterns of a layer's state groups
        by in-neighborhood, so the layer kernels share candidate-row work
        across owners and groups.  Building a plan checks every graph's
        process count (:class:`~repro.errors.AnalysisError`).
        """
        patterns: list[tuple[int, tuple[int, ...]]] = []
        index_of: dict = {}
        layouts = []
        for graph in graphs:
            self._check_graph(graph)
            layout = []
            for p, in_list in enumerate(graph.in_neighbor_lists):
                pattern = (p, in_list)
                i = index_of.get(pattern)
                if i is None:
                    i = len(patterns)
                    index_of[pattern] = i
                    patterns.append(pattern)
                layout.append(i)
            layouts.append(layout)
        return patterns, layouts

    # ------------------------------------------------------------------ #
    # The whole-layer extension kernel
    # ------------------------------------------------------------------ #

    def extend_layer_table(
        self,
        table: "LayerTable | Sequence[Sequence[int]]",
        graphs: Sequence,
        members: Sequence | None = None,
    ) -> LayerTable:
        """Intern the successors of an entire layer, columns in — column out.

        ``table`` is the :class:`LayerTable` of one layer (or any sequence
        of length-``n`` levels, which is packed first) and ``graphs`` the
        alphabet every parent extends by.  With ``members`` the layer is
        *ragged*: ``graphs[g]`` is the alphabet of state group ``g``, whose
        parent indices are ``members[g]`` (the groups partition the layer;
        a sole group may give ``None`` for all of it).  Returns the child
        layer as the prefix space stores it, parent-major: each parent's
        children are contiguous, in parent order, one per graph of its
        alphabet (child ``i * len(graphs) + j`` is parent ``i`` extended by
        ``graphs[j]`` for one alphabet) — element-wise equal to per-parent
        :meth:`extend_level` calls.  The candidate child rows of each
        distinct in-neighborhood are built and deduplicated across every
        parent and group that uses it and interned once; owner bits go only
        where a group's pattern reaches (:func:`_inlist_uses`).  The
        numpy kernel runs when :func:`numpy_module` returns numpy and the
        call has at least :data:`_NUMPY_MIN_CELLS` cells in all, the
        pure-Python kernel otherwise.  A
        level of another length, views of several depths, a graph on
        another process count, or groups that do not partition the layer
        raise :class:`~repro.errors.AnalysisError` before anything is
        interned.
        """
        n = self.n
        if not isinstance(table, LayerTable):
            table = LayerTable.from_levels(n, table)
        if table.n != n:
            raise AnalysisError(
                f"layer table of n={table.n} levels for n={n} interner"
            )
        if len(table.ids) % n:
            raise AnalysisError(
                f"layer column of {len(table.ids)} ids is not a multiple of n={n}"
            )
        count = len(table)
        if members is None:
            graphs, members = (graphs,), (None,)
        elif len(members) != len(graphs):
            raise AnalysisError(
                f"{len(graphs)} alphabets for {len(members)} state groups"
            )
        elif not (len(members) == 1 and members[0] is None):
            _check_partition(count, members)
        groups = [
            (self._alphabet_plan(alphabet), rows)
            for alphabet, rows in zip(graphs, members)
            if len(alphabet) and (count if rows is None else len(rows))
        ]
        sizes = [count if rows is None else len(rows) for _, rows in groups]
        cells = sum(len(plan[0]) * size for (plan, _), size in zip(groups, sizes))
        if not cells:
            return LayerTable(n, array("i"))
        uses = _inlist_uses([plan for plan, _ in groups], sizes)
        if (
            n <= _MASK_ARRAY_MAX_N
            and cells >= _NUMPY_MIN_CELLS
            and numpy_module() is not None
        ):
            return LayerTable(n, self._extend_layer_numpy(table, groups, uses))
        return LayerTable(n, self._extend_layer_python(table, groups, uses))

    def extend_layer(
        self,
        levels: Sequence[Sequence[int]],
        graphs: Sequence[Digraph],
    ) -> list[list[tuple[int, ...]]]:
        """:meth:`extend_layer_table` with per-level tuples in and out.

        ``result[j][i]`` is ``levels[i]`` extended by ``graphs[j]``, read
        from the parent-major child layer by stride.  Levels must be full
        (length ``n``) view-id tuples of one common depth, as produced by
        :meth:`leaf_level` or a previous extension; duplicates are fine.
        """
        graphs = tuple(graphs)
        children = self.extend_layer_table(levels, graphs).tolist()
        return [children[j :: len(graphs)] for j in range(len(graphs))]

    def _extend_layer_python(self, table: LayerTable, groups: list, uses: list) -> array:
        """The batched pure-Python layer kernel.

        Same structure as the numpy kernel — candidate rows dedup per
        in-neighborhood across every parent that uses it, views resolve
        at unique-row granularity, rows are looked up only when the depth
        already holds rows (:meth:`_intern_rows`) — in plain loops over
        the flat layer column and plain-int member lists.  Small per-row
        key tuples are built transiently for the batch-local dedup dict;
        nothing tuple-shaped is stored or returned, and the child column
        is an ``array('i')``.
        """
        n = self.n
        ids = plain_ids(table.ids)
        total = len(ids)
        count = total // n
        row_depth = self._row_depth
        depths = {row_depth[v // n] for v in ids}
        if len(depths) != 1:
            raise AnalysisError(f"layer views must share a depth, got {sorted(depths)}")
        depth = depths.pop() + 1
        probe = self._probe_depth(depth)
        owners = self._row_owners
        members = [None if rows is None else plain_ids(rows) for _, rows in groups]
        vid_arrs: list = [[None] * len(plan[0]) for plan, _ in groups]
        for in_list, spans, owner_pairs in uses:
            k = len(in_list)
            if members[0] is None:
                bases: Iterable[int] = range(0, total, n)
            else:
                bases = [i * n for g in spans for i in members[g]]
            # Column pass: candidate child row per parent, dedup in place.
            uniq_index: dict = {}
            uniq_rows: list[tuple[int, ...]] = []
            inv: list[int] = []
            uniq_setdefault = uniq_index.setdefault
            inv_append = inv.append
            uniq_append = uniq_rows.append
            if k == 1:
                q = in_list[0]
                for base in bases:
                    kids = (ids[base + q],)
                    u = uniq_setdefault(kids, len(uniq_rows))
                    if u == len(uniq_rows):
                        uniq_append(kids)
                    inv_append(u)
            elif k == 2:
                qa, qb = in_list
                for base in bases:
                    a = ids[base + qa]
                    b = ids[base + qb]
                    kids = (a, b) if a < b else (b, a)
                    u = uniq_setdefault(kids, len(uniq_rows))
                    if u == len(uniq_rows):
                        uniq_append(kids)
                    inv_append(u)
            elif k == n:
                for base in bases:
                    kids = tuple(sorted(ids[base : base + n]))
                    u = uniq_setdefault(kids, len(uniq_rows))
                    if u == len(uniq_rows):
                        uniq_append(kids)
                    inv_append(u)
            else:
                for base in bases:
                    kids = tuple(sorted([ids[base + q] for q in in_list]))
                    u = uniq_setdefault(kids, len(uniq_rows))
                    if u == len(uniq_rows):
                        uniq_append(kids)
                    inv_append(u)
            # Intern the distinct rows of this column once, looked up only
            # when the depth already held rows before this call.
            urids = self._intern_rows(uniq_rows, depth, probe)
            # Owner p's bit goes on the rows its groups reach; the child
            # column of its pattern is the slot ``rid * n + p``.
            added = 0
            for p, pairs in owner_pairs.items():
                bit = 1 << p
                targets = urids
                if len(pairs) < len(spans):
                    reached: set = set()
                    for g, _ in pairs:
                        reached.update(inv[spans[g]])
                    targets = [urids[u] for u in reached]
                for rid in targets:
                    held = owners[rid]
                    if not held & bit:
                        owners[rid] = held | bit
                        added += 1
                vid_u = [rid * n + p for rid in urids]
                for g, pi in pairs:
                    vid_arrs[g][pi] = array("i", [vid_u[u] for u in inv[spans[g]]])
            self._view_count += added
        # Cell p of child i * width + j of a group's block is pattern
        # layouts[j][p] of its i-th parent: one strided array-slice
        # assignment per (graph, process).
        blocks = []
        for (plan, _), rows, arrs in zip(groups, members, vid_arrs):
            stride = len(plan[1]) * n
            size = count if rows is None else len(rows)
            block = array("i", bytes(4 * size * stride))
            for j, layout in enumerate(plan[1]):
                for p, pi in enumerate(layout):
                    block[j * n + p :: stride] = arrs[pi]
            blocks.append(block)
        if members[0] is None:
            return blocks[0]
        # Ragged: each member's contiguous children, laid out in parent order.
        children: list = [array("i")] * count
        for (plan, _), rows, block in zip(groups, members, blocks):
            span = len(plan[1]) * n
            for mi, i in enumerate(rows):
                children[i] = block[mi * span : (mi + 1) * span]
        out = array("i")
        for part in children:
            out.extend(part)
        return out

    def _extend_layer_numpy(self, table: LayerTable, groups: list, uses: list):
        """The vectorized layer kernel.

        Per distinct in-neighborhood, the candidate rows of every parent
        that uses it — the whole layer, or its groups' members stacked —
        gather/sort as one int32 matrix and dedup via ``np.unique`` on
        packed int64 key columns; row keys are computed vectorized over
        the distinct rows, which append in bulk (looked up first only when
        the depth already holds rows, :meth:`_intern_rows_numpy`), and
        each owner sets its bit on the distinct rows its groups reach with
        one gather and one scatter over the buffer-backed owner column.
        The child column of owner ``p`` is ``urid * n + p`` (products in
        int64, stored int32, which the ``rows * n`` id limit keeps in
        range).  Views over the interner's columns are strictly transient:
        every ``frombuffer`` window is dropped before the underlying array
        can resize.
        """
        np = numpy_module()
        n = self.n
        level_matrix = table.array()
        count = len(level_matrix)
        # One view column at a time; the depth window is dropped before
        # interning appends to the depth column.
        depth_view = np.frombuffer(self._row_depth, dtype=np.int32)
        depth = int(depth_view[int(level_matrix[0, 0]) // n])
        mixed = any(
            (depth_view[level_matrix[:, p] // n] != depth).any() for p in range(n)
        )
        del depth_view
        if mixed:
            raise AnalysisError(f"layer views must share a depth, not all are at {depth}")
        depth += 1
        probe = self._probe_depth(depth)
        owner_dtype = self._row_owners.typecode
        members = [rows for _, rows in groups]
        vid_cols: list = [[None] * len(plan[0]) for plan, _ in groups]
        for in_list, spans, owner_pairs in uses:
            # Gather each parent's in-list columns, sort every row (child
            # rows are *sets* of view ids), and dedup across the layer.
            k = len(in_list)
            if members[0] is None:
                cand = level_matrix[:, in_list]
            else:
                parents = np.concatenate([members[g] for g in spans])
                cand = level_matrix[parents[:, None], in_list]
                del parents
            if k > 1:
                cand = np.ascontiguousarray(cand)
                cand.sort(axis=1)
            uniq, inv = _unique_rows(np, cand)
            del cand  # layer-sized; only the distinct rows are interned
            # Bulk-hash the distinct rows (same key as _row_hash), then
            # look them up (at a held depth) and append, all vectorized.
            hashes = _bulk_row_hashes(np, uniq, k)
            urid_arr = self._intern_rows_numpy(np, uniq, hashes, k, depth, probe)
            del uniq, hashes
            slot_base = (urid_arr * n).astype(np.int32)
            owners_view = np.frombuffer(self._row_owners, dtype=owner_dtype)
            held = owners_view[urid_arr]
            added = 0
            for p, pairs in owner_pairs.items():
                bit = 1 << p
                if len(pairs) < len(spans):
                    hit = np.zeros(len(held), dtype=bool)
                    for g, _ in pairs:
                        hit[inv[spans[g]]] = True
                    part = held[hit]
                    added += len(part) - int(np.count_nonzero(part & bit))
                    held[hit] = part | bit
                else:
                    added += len(held) - int(np.count_nonzero(held & bit))
                    held |= bit
                column = slot_base + p
                for g, pi in pairs:
                    vid_cols[g][pi] = column[inv[spans[g]]]
            owners_view[urid_arr] = held
            del owners_view, held, slot_base
            self._view_count += added
        if members[0] is None:
            # Child i * width + j is row (i, j) of a (count, width, n)
            # block, filled one graph's contiguous (count, n) levels at a
            # time.
            layouts = groups[0][0][1]
            out = np.empty((count, len(layouts), n), dtype=np.int32)
            for j, layout in enumerate(layouts):
                out[:, j, :] = np.stack([vid_cols[0][pi] for pi in layout], axis=1)
            return out.reshape(-1)
        # Ragged: parent i's children start at the running sum of the
        # widths before it; each group scatters its members' (members, n)
        # levels one graph at a time (one 2-D block scatter is slower).
        widths = np.zeros(count, dtype=np.int64)
        for (plan, _), rows in zip(groups, members):
            widths[rows] = len(plan[1])
        offsets = np.cumsum(widths) - widths
        out = np.empty((int(offsets[-1] + widths[-1]), n), dtype=np.int32)
        for (plan, _), rows, cols in zip(groups, members, vid_cols):
            first = offsets[rows]
            for j, layout in enumerate(plan[1]):
                out[first + j] = np.stack([cols[pi] for pi in layout], axis=1)
        return out.reshape(-1)

    def _check_pid(self, p: int) -> None:
        if not 0 <= p < self.n:
            raise AnalysisError(f"process id {p} outside 0..{self.n - 1}")

    def _check_graph(self, graph: Digraph) -> None:
        if graph.n != self.n:
            raise AnalysisError(f"graph on {graph.n} processes for n={self.n}")

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #

    def pid(self, vid: int) -> int:
        """The process that owns view ``vid``: its slot, ``vid % n``."""
        self._view_row(vid)
        return vid % self.n

    def depth(self, vid: int) -> int:
        """The time (round number) at which view ``vid`` is taken."""
        return self._row_depth[self._view_row(vid)]

    def is_leaf(self, vid: int) -> bool:
        """Whether ``vid`` is a time-0 view."""
        return self.depth(vid) == 0

    def leaf_value(self, vid: int):
        """The input value of a time-0 view."""
        if not self.is_leaf(vid):
            raise AnalysisError(f"view {vid} is not a leaf")
        return self._origin_values[vid][0][1]

    def children(self, vid: int) -> frozenset[int]:
        """The previous-round views visible in ``vid`` (empty for leaves)."""
        return frozenset(self._row_tuple(self._view_row(vid)))

    def child_row(self, vid: int) -> tuple[int, ...]:
        """The sorted interned child tuple of a non-leaf view."""
        if self.is_leaf(vid):
            raise AnalysisError(f"view {vid} is a leaf and has no child row")
        return self._row_tuple(vid // self.n)

    def origin_mask(self, vid: int) -> int:
        """Bitmask of processes whose initial node lies in the causal past."""
        return self._row_masks[self._view_row(vid)]

    def origins(self, vid: int) -> tuple:
        """Sorted tuple of ``(q, x_q)`` pairs visible in the causal past."""
        cached = self._origin_values.get(vid)
        if cached is None:
            self._view_row(vid)
            cached = self._force_origins(vid)
        return cached

    def _force_origins(self, vid: int) -> tuple:
        """Materialize lazily-deferred origin values (fast-path views only).

        Views created by the extension kernels defer the value merge;
        their children are mutually consistent by construction, so a plain
        union suffices.
        """
        n = self.n
        values = self._origin_values
        row_data = self._row_data
        row_starts = self._row_starts
        row_masks = self._row_masks
        merged: dict[int, object] = {}
        stack = [vid]
        seen = {vid}
        pending: list[int] = []
        while stack:
            current = stack.pop()
            known = values.get(current)
            if known is None:
                pending.append(current)
                rid = current // n
                for child in row_data[row_starts[rid] : row_starts[rid + 1]]:
                    if child not in seen:
                        seen.add(child)
                        stack.append(child)
            else:
                merged.update(known)
        # Fill in post-order so deeper views are cached too.
        for current in reversed(pending):
            mask = row_masks[current // n]
            entry = tuple((q, merged[q]) for q in range(n) if mask >> q & 1)
            values[current] = entry
        return values[vid]

    def knows_input_of(self, vid: int, q: int) -> bool:
        """Whether the causal past of ``vid`` contains ``(q, 0, x_q)``."""
        return bool(self.origin_mask(vid) >> q & 1)

    def input_of(self, vid: int, q: int):
        """The input value of ``q`` as recorded in the causal past of ``vid``."""
        for owner, value in self.origins(vid):
            if owner == q:
                return value
        raise AnalysisError(f"view {vid} has not heard of process {q}")

    def stats(self) -> ViewStats:
        """Summary statistics and table geometry of the interner's contents.

        ``rows`` counts child rows; the owner-only rows of leaves count as
        ``leaves``.
        """
        row_depth = self._row_depth
        max_depth = max(row_depth) if len(row_depth) else 0
        getsizeof = sys.getsizeof
        approx = (
            getsizeof(self._origin_values)
            + getsizeof(self._leaf_table)
            + getsizeof(self._row_data)
            + getsizeof(self._row_starts)
            + getsizeof(self._row_hashes)
            + getsizeof(self._row_slots)
            + getsizeof(self._row_masks)
            + getsizeof(self._row_owners)
            + getsizeof(row_depth)
        )
        # The origin-value tuples held (leaves, node() views, forced
        # views); child ids live flat in the arena (already counted above)
        # and shared small ints are not charged.
        tuple_header = getsizeof(())
        for entry in self._origin_values.values():
            approx += tuple_header + len(entry) * (tuple_header + 16)
        return ViewStats(
            self._view_count,
            self._leaf_count,
            max_depth,
            rows=len(self._row_hashes) - self._leaf_count,
            approx_bytes=approx,
        )

    def __len__(self) -> int:
        """The number of views (owner bits set), not the id range."""
        return self._view_count

    # ------------------------------------------------------------------ #
    # Causal-cone reconstruction (used by viz and by the test suite)
    # ------------------------------------------------------------------ #

    def cone(self, vid: int) -> tuple[set, set]:
        """The causal past of ``vid`` as explicit process-time nodes/edges.

        Returns ``(nodes, edges)`` where nodes are ``(q, s)`` pairs (``s`` the
        time coordinate, with ``s = 0`` nodes standing for ``(q, 0, x_q)``)
        and edges are ``((q, s), (r, s + 1))`` pairs.  The apex is
        ``(pid(vid), depth(vid))``.
        """
        n = self.n
        row_depth = self._row_depth
        nodes: set = set()
        edges: set = set()
        seen: set[int] = set()
        stack = [vid]
        self._view_row(vid)
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            p, d = current % n, row_depth[current // n]
            nodes.add((p, d))
            for child in self._row_tuple(current // n):
                edges.add(((child % n, d - 1), (p, d)))
                stack.append(child)
        return nodes, edges
