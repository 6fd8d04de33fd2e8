"""Connected components of the depth-``t`` prefix space in the minimum topology.

Two depth-``t`` prefixes are *indistinguishable* when some process has the
same view in both through round ``t`` — equivalently, their ``d_min``
distance is below ``2^{-t}``, i.e. each lies in the other's ``2^{-t}``-ball.
The transitive closure of indistinguishability partitions the layer into
components; these are exactly the ``ε = 2^{-t}`` approximations of
Definition 6.2 (a fact checked against the literal iterative construction in
:mod:`repro.topology.approximation` and its tests).

For each component the analysis records the data the consensus
characterizations need:

* the *valences*: which unanimous input values ``v`` occur among members
  (a component containing two different valences is "bivalent" — by
  Corollary 5.6 its persistence at every depth is exactly consensus
  impossibility);
* the *broadcasters*: processes heard by every process in every member
  (Definition 5.8 / Theorem 5.11 / Theorem 6.6);
* the broadcaster input values (Theorem 5.9 predicts they are constant per
  component — asserted here, making the theorem an executable invariant).

Columnar pipeline
-----------------
The analysis consumes the layer's flat columns directly — the
:class:`~repro.core.views.LayerTable` view-id column, the input-index
column, and the interner's origin-mask column — and produces columns: a
per-prefix component-id column (``comp_ids``) plus per-component member
index arrays.  Column ``p`` of a level always holds a view owned by ``p``,
so a view id alone keys its cell: two prefixes are indistinguishable
exactly when they share a view id.  Two equivalent paths compute it, and
the platform and the layer pick one, not the caller:

* numpy, when :func:`~repro.core.views.numpy_module` returns it and the
  layer has at least :data:`_COMPONENT_NUMPY_MIN_CELLS` cells —
  connectivity is that of the layer's *view graph*, whose nodes are the
  layer's views and where each prefix joins its ``n`` views by ``n - 1``
  edges (column 0 to column ``p``).  One int32 Shiloach–Vishkin loop
  labels it (:func:`_sv_labels`): every round, the pointer compression,
  the final label gather and the first-member renumbering read the view
  columns in :data:`~repro.core.views._REHASH_CHUNK`-row chunks, so the
  labeller holds one parent pointer per node and one label per prefix
  and otherwise only chunk-sized buffers.  ``comp_ids`` is an int32
  column, per-component masks and valences fold straight over it, and
  the member order (an int32 column grouping prefixes by component) is
  sorted only when a decision table or a member list reads it;
* pure Python, everywhere else — the batched union-find pass over the
  flat column (one dict probe per cell on its view id, inlined union by
  size with path halving).

Both paths order components canonically by smallest member index, so
component ids, member order, and every downstream decision table are
identical on either path.  :class:`Component` objects stay thin
wrappers; their member *lists* (and any
:class:`~repro.topology.prefixspace.PrefixNode`) materialize lazily.
"""

from __future__ import annotations

from array import array
from typing import Iterator

from repro.core.graphword import full_mask
from repro.core.views import _REHASH_CHUNK, numpy_module, plain_ids
from repro.errors import AnalysisError
from repro.topology.prefixspace import PrefixNode, PrefixSpace

__all__ = ["Component", "ComponentAnalysis", "UnionFind"]

#: Below this many (prefix, process) cells the vectorized component pass
#: is not worth its fixed overhead (a dozen numpy calls per hooking round,
#: the first-member and ``reduceat`` folds); small layers run the Python
#: pass.  Measured against the union-find on lossy-link, Santoro–Widmayer
#: and random rooted n=4 layers (2-vCPU x86_64, numpy 2.4): the vectorized
#: pass wins 1.2-1.5x at 512-576 cells and 1.5-3.3x at 648-1,176, ties
#: around 256 (0.8-1.06x) and loses at 128-216 (0.6-0.75x).
_COMPONENT_NUMPY_MIN_CELLS = 512

#: The vectorized pass encodes valence sets as bitmaps (uint8 up to 8
#: distinct values, int64 beyond); spaces with more distinct unanimity
#: values run the Python pass instead.
_NUMPY_MAX_VALENCES = 62


def _bits_dtype(np, value_count: int):
    """The narrowest bitmap dtype for ``value_count`` one-bit values."""
    return np.uint8 if value_count <= 8 else np.int64


def _view_nodes(np, mat):
    """Node ids over a layer's ``(count, n)`` view matrix, at most one per cell.

    Returns ``(nodes, offset, node_count, node_views)``: cell ``(i, p)``
    is node ``nodes[i, p] - offset``, there are never more nodes than
    cells, and ``node_views`` is the view id of each node, or ``None``
    when that is just ``node + offset``.  A fresh interner allocates a
    layer's rows consecutively, so shifting by the smallest view id is
    free; the range then also spans the layer's gap slots (owners a row
    holds no view for), which is harmless while it stays within the cell
    count.  An interner shared on purpose across checks interleaves
    several spaces' rows, so the id range can run far past the layer; then
    the ids compact through one ``np.unique``.
    """
    lo = int(mat.min())
    span = int(mat.max()) - lo + 1
    if span <= mat.size:
        return mat, lo, span, None
    uniq, inverse = np.unique(mat, return_inverse=True)
    return inverse.reshape(mat.shape), 0, len(uniq), uniq


def _node_column(np, cells, offset: int, out=None):
    """View-graph node ids (int32) of some cells: view id minus ``offset``."""
    if out is None:
        out = np.empty(cells.shape, dtype=np.int32)
    np.subtract(cells, offset, out=out, casting="unsafe")
    return out


def _sv_labels(np, nodes, offset: int, node_count: int):
    """Shiloach–Vishkin connectivity over the view graph, in int32 numpy.

    Every round reads the view columns in :data:`_REHASH_CHUNK`-row chunks
    through preallocated buffers, so apart from the parent pointers (one
    per node) and the returned labels no temporary grows with the layer.
    The first round hooks every (column 0, column ``p``) edge: the larger
    of its two nodes points at the smaller with ``np.minimum.at``, which
    commutes, so the chunk order does not matter.  Parent pointers then
    compress in place (:func:`_compress_parents`), and the second round
    settles one chunk of edges at a time.  An edge whose ends' parents
    agree shares a tree and is settled for good: from here on only roots
    are re-pointed, so trees only merge.  The other ends are resolved to
    their *current* roots first (:func:`_resolve_roots`): an earlier
    chunk may have hooked the root a parent pointer names, and
    re-pointing that former root would cut it from its new tree and lose
    a union.  Each later round then hooks the chunk's surviving root
    pairs, pointer-jumps just the roots it moved and drops the edges it
    settled, until the chunk has none left.  Returns each prefix's label:
    the root of its column-0 view, in ``range(node_count)``.
    """
    count, n = nodes.shape
    if n == 1:
        return _node_column(np, nodes[:, 0], offset)
    parent = np.arange(node_count, dtype=np.int32)
    step = min(_REHASH_CHUNK, count)
    spans = [(start, min(start + step, count)) for start in range(0, count, step)]
    heads = np.empty(step, dtype=np.int32)
    tails = np.empty(step, dtype=np.int32)
    low = np.empty(step, dtype=np.int32)
    for start, stop in spans:
        size = stop - start
        head = _node_column(np, nodes[start:stop, 0], offset, heads[:size])
        for p in range(1, n):
            tail = _node_column(np, nodes[start:stop, p], offset, tails[:size])
            np.minimum(head, tail, out=low[:size])
            np.maximum(head, tail, out=tail)
            np.minimum.at(parent, tail, low[:size])
    del low
    _compress_parents(np, parent)
    for start, stop in spans:
        size = stop - start
        head_roots = parent[
            _node_column(np, nodes[start:stop, 0], offset, heads[:size])
        ]
        lows = []
        highs = []
        for p in range(1, n):
            tail_roots = parent[
                _node_column(np, nodes[start:stop, p], offset, tails[:size])
            ]
            unsettled = head_roots != tail_roots
            lows.append(head_roots[unsettled])
            highs.append(tail_roots[unsettled])
        a = np.concatenate(lows)
        b = np.concatenate(highs)
        del lows, highs
        _resolve_roots(np, parent, a)
        _resolve_roots(np, parent, b)
        unsettled = a != b
        a = a[unsettled]
        b = b[unsettled]
        while len(a):
            low = np.minimum(a, b)
            np.maximum(a, b, out=b)
            np.minimum.at(parent, b, low)
            # Only the hooked roots moved; jump their pointers to the new roots.
            up = parent[b]
            while True:
                jumped = parent[up]
                if np.array_equal(jumped, up):
                    break
                parent[b] = jumped
                up = jumped
            a = parent[low]
            unsettled = a != up
            a = a[unsettled]
            b = up[unsettled]
    _compress_parents(np, parent)
    labels = np.empty(count, dtype=np.int32)
    for start, stop in spans:
        head = _node_column(np, nodes[start:stop, 0], offset, heads[: stop - start])
        labels[start:stop] = parent[head]
    return labels


def _resolve_roots(np, parent, nodes) -> None:
    """Replace each of ``nodes`` by its current root, in place.

    Only the entries not yet at a root climb further, so the few long
    chains a chunk meets (roots an earlier chunk hooked) cost a few small
    gathers, not a pass over every node each.
    """
    pending = np.flatnonzero(parent[nodes] != nodes)
    while len(pending):
        climbed = parent[nodes[pending]]
        nodes[pending] = climbed
        pending = pending[parent[climbed] != climbed]


def _compress_parents(np, parent) -> None:
    """Point every node straight at its root: pointer jumping, in place.

    Each pass jumps :data:`_REHASH_CHUNK` pointers at a time; a pass that
    moves no pointer ends the loop.
    """
    step = _REHASH_CHUNK
    moved = True
    while moved:
        moved = False
        for start in range(0, len(parent), step):
            chunk = parent[start : start + step]
            jumped = parent[chunk]
            if not np.array_equal(jumped, chunk):
                chunk[...] = jumped
                moved = True


def _first_member_ids(np, labels, bound: int):
    """Renumber component labels by each component's smallest member index.

    ``np.minimum.at`` finds every label's first member, one
    :data:`_REHASH_CHUNK`-row chunk of labels at a time; sorted, those
    first members number the components.  The ``bound``-sized
    first-member buffer then becomes the renumbering table, and the
    labels are renumbered in place, chunk by chunk.  Returns
    ``(comp_ids, component_count)``: ``labels`` itself, now int32 ids in
    the Python pass's canonical order, whatever the labels were.
    """
    count = len(labels)
    step = min(_REHASH_CHUNK, count)
    first = np.full(bound, count, dtype=np.int32)
    offsets = np.arange(step, dtype=np.int32)
    index = np.empty(step, dtype=np.int32)
    for start in range(0, count, step):
        chunk = labels[start : start + step]
        size = len(chunk)
        np.minimum.at(first, chunk, np.add(offsets[:size], start, out=index[:size]))
    leaders = first[first < count]
    leaders.sort()
    remap = first
    remap[labels[leaders]] = np.arange(len(leaders), dtype=np.int32)
    for start in range(0, count, step):
        chunk = labels[start : start + step]
        # ``take`` buffers ``out`` in its default mode: in place is safe.
        np.take(remap, chunk, out=chunk)
    return labels, len(leaders)


class UnionFind:
    """Array-based union-find with path halving and union by size."""

    __slots__ = ("parent", "size")

    def __init__(self, count: int) -> None:
        self.parent = list(range(count))
        self.size = [1] * count

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]


class _MemberOrder:
    """A vectorized layer's prefix indices grouped by component, built on first read.

    Holds the analysis's ``comp_ids`` column and the component sizes (a
    list).  :meth:`columns` sorts the member order
    the first time a decision table or a member list asks for it; a check
    that never certifies never builds it.  Components keep this object,
    not their analysis: a component → analysis reference would close a
    cycle that only the cyclic collector frees, so a depth's columns
    could outlive the depth.
    """

    __slots__ = ("comp_ids", "sizes", "_columns")

    def __init__(self, comp_ids, sizes: list[int]) -> None:
        self.comp_ids = comp_ids
        self.sizes = sizes
        self._columns: tuple | None = None

    def columns(self) -> tuple:
        """``(member_order, comp_starts)``: int32 prefix indices grouped by
        component (ascending within one) and each component's int64 offset
        into them, plus the offsets as a list."""
        if self._columns is None:
            self._columns = _member_order(numpy_module(), self.comp_ids, self.sizes)
        return self._columns

    def members(self, cid: int):
        """Component ``cid``'s members: a slice of the member order."""
        order, _, bounds = self.columns()
        return order[bounds[cid] : bounds[cid] + self.sizes[cid]]


def _member_order(np, comp_ids, sizes: list[int]) -> tuple:
    """The member order of a ``comp_ids`` column (see :class:`_MemberOrder`)."""
    order = np.argsort(comp_ids, kind="stable").astype(np.int32)
    starts = np.zeros(len(sizes), dtype=np.int64)
    np.cumsum(sizes[:-1], out=starts[1:])
    return order, starts, starts.tolist()


class Component:
    """One connected component of a depth-``t`` layer.

    Member indices are held as whatever column the analysis produced (an
    int32 numpy array on the vectorized path, a list on the Python path).
    On the vectorized path that column is a slice of the layer's member
    order, which is sorted only when some component first reads its
    members; until then the component holds the shared
    :class:`_MemberOrder` and knows only its size.
    :attr:`member_indices` materializes — and caches — the plain-int list
    on first access, so columnar consumers never pay for it.
    """

    __slots__ = (
        "id",
        "depth",
        "valences",
        "broadcast_mask",
        "_space",
        "_rows",
    )

    def __init__(
        self,
        component_id: int,
        depth: int,
        member_indices,
        valences: frozenset,
        broadcast_mask: int,
        space: PrefixSpace,
    ) -> None:
        self.id = component_id
        self.depth = depth
        self._rows = member_indices
        self.valences = valences
        self.broadcast_mask = broadcast_mask
        self._space = space

    # -- membership -----------------------------------------------------

    @property
    def _members(self):
        """The member column, sliced from the member order on first read."""
        rows = self._rows
        if isinstance(rows, _MemberOrder):
            rows = self._rows = rows.members(self.id)
        return rows

    @property
    def member_indices(self) -> list[int]:
        """The member prefix indices as a plain list (lazily materialized)."""
        members = self._members
        if not isinstance(members, list):
            members = self._rows = plain_ids(members)
        return members

    def member_input_indices(self) -> Iterator[int]:
        """Input-vector index of every member, without node wrappers.

        A member column from the vectorized pass gathers its inputs in one
        numpy call, without materializing an implicit input column.
        """
        store = self._space.layer_store(self.depth)
        members = self._members
        if isinstance(members, list):
            input_idx = store.input_idx
            return (int(input_idx[i]) for i in members)
        return iter(store.input_array(members).tolist())

    def members(self) -> Iterator[PrefixNode]:
        """Iterate over the member prefix nodes."""
        layer = self._space.layer(self.depth)
        return (layer[i] for i in self._members)

    def __len__(self) -> int:
        rows = self._rows
        if isinstance(rows, _MemberOrder):
            return rows.sizes[self.id]
        return len(rows)

    @property
    def representative(self) -> PrefixNode:
        """An arbitrary (first-indexed) member."""
        return self._space.layer(self.depth)[self._members[0]]

    # -- consensus-relevant structure ------------------------------------

    @property
    def is_bivalent(self) -> bool:
        """Whether members include two differently-valent prefixes."""
        return len(self.valences) >= 2

    @property
    def broadcasters(self) -> frozenset[int]:
        """Processes that have broadcast by depth ``t`` in *every* member."""
        n = self._space.adversary.n
        return frozenset(p for p in range(n) if self.broadcast_mask >> p & 1)

    @property
    def is_broadcastable(self) -> bool:
        """Whether some process has broadcast in every member (Thm 6.6 test)."""
        return self.broadcast_mask != 0

    def broadcaster_value(self, p: int):
        """The input value of broadcaster ``p`` (constant by Theorem 5.9)."""
        input_vectors = self._space.input_vectors
        values = {input_vectors[i][p] for i in self.member_input_indices()}
        if len(values) != 1:
            raise AnalysisError(
                f"Theorem 5.9 violation: broadcaster {p} has values {values} "
                f"within one connected component"
            )
        return next(iter(values))

    def __repr__(self) -> str:
        return (
            f"Component(#{self.id}, depth={self.depth}, "
            f"size={len(self)}, valences={set(self.valences)}, "
            f"broadcasters={set(self.broadcasters)})"
        )


class ComponentAnalysis:
    """Components of one layer of a :class:`PrefixSpace`.

    Attributes
    ----------
    components:
        The :class:`Component` partition, ordered by smallest member index.
    comp_ids:
        Per-prefix component-id column (int32 numpy array on the
        vectorized path, list on the Python path) — the columnar handoff
        the decision-table builder consumes.
    member_order, comp_starts:
        On the vectorized path, the prefix indices grouped by component
        (int32, ascending within a component) and each component's
        offset into that order (int64) — the grouping the decision-table
        builder folds over, sorted on first read.  ``None`` on the Python
        path.

    Examples
    --------
    >>> from repro.adversaries.lossylink import lossy_link_no_hub
    >>> analysis = ComponentAnalysis(PrefixSpace(lossy_link_no_hub()), 1)
    >>> analysis.bivalent_components() == []
    True
    """

    def __init__(self, space: PrefixSpace, depth: int) -> None:
        self.space = space
        self.depth = depth
        store = space.layer_store(depth)
        table = store.levels
        interner = space.interner
        n = space.adversary.n
        np = numpy_module()
        count = len(table)
        self._order: _MemberOrder | None = None
        # The vectorized pass folds valences as int64 bitmaps; instances
        # with more distinct unanimity values than fit take the Python
        # pass (arbitrary-precision sets).
        distinct_values = len(
            {v for v in space.unanimity_by_index if v is not None}
        )
        if (
            np is not None
            and isinstance(interner._row_masks, array)
            and distinct_values <= _NUMPY_MAX_VALENCES
            and count * n >= _COMPONENT_NUMPY_MIN_CELLS
        ):
            self._analyze_numpy(np, store, table, interner, n, count)
        else:
            self._analyze_python(store, table, interner, n, count)
        self._view_map: dict[int, int] | None = None

    @property
    def member_order(self):
        order = self._order
        return None if order is None else order.columns()[0]

    @property
    def comp_starts(self):
        order = self._order
        return None if order is None else order.columns()[1]

    # ------------------------------------------------------------------ #
    # The two component passes
    # ------------------------------------------------------------------ #

    def _analyze_python(self, store, table, interner, n: int, count: int) -> None:
        """Batched union-find over the flat layer column (pure Python)."""
        ids = plain_ids(table.ids)
        union_find = UnionFind(count)
        parent = union_find.parent
        size = union_find.size
        row_masks = interner._row_masks
        everyone = full_mask(n)
        # One pass: bucket cells by view id (a view has one owner, so two
        # prefixes sharing a bucket are indistinguishable) and fold the
        # per-node broadcast mask while the views are at hand.
        buckets: dict[int, int] = {}
        bucket_get = buckets.get
        node_masks: list[int] = []
        node_masks_append = node_masks.append
        base = 0
        for index in range(count):
            common = everyone
            for p in range(n):
                vid = ids[base + p]
                common &= row_masks[vid // n]
                first = bucket_get(vid)
                if first is None:
                    buckets[vid] = index
                    continue
                # Inline union by size with path halving.
                a, b = first, index
                while parent[a] != a:
                    parent[a] = a = parent[parent[a]]
                while parent[b] != b:
                    parent[b] = b = parent[parent[b]]
                if a != b:
                    if size[a] < size[b]:
                        a, b = b, a
                    parent[b] = a
                    size[a] += size[b]
            node_masks_append(common)
            base += n

        # Gather per-root data in a second pass over the columns.  Because
        # nodes are visited in index order, each root is first reached
        # through its smallest member, so the insertion order of
        # ``members_of`` is already the canonical (first-member) component
        # order — no sort needed.
        unanimity = self.space.unanimity_by_index
        members_of: dict[int, list[int]] = {}
        valences_of: dict[int, set] = {}
        mask_of: dict[int, int] = {}
        for index, (common, input_index) in enumerate(zip(node_masks, store.input_idx)):
            root = index
            while parent[root] != root:
                parent[root] = root = parent[parent[root]]
            members = members_of.get(root)
            if members is None:
                members_of[root] = [index]
                mask_of[root] = common
            else:
                members.append(index)
                mask_of[root] &= common
            value = unanimity[input_index]
            if value is not None:
                held = valences_of.get(root)
                if held is None:
                    valences_of[root] = {value}
                else:
                    held.add(value)

        empty: frozenset = frozenset()
        valences_get = valences_of.get
        space = self.space
        depth = self.depth
        self.components: list[Component] = []
        components_append = self.components.append
        component_of_root: dict[int, int] = {}
        for component_id, (root, members) in enumerate(members_of.items()):
            held = valences_get(root)
            components_append(
                Component(
                    component_id=component_id,
                    depth=depth,
                    member_indices=members,
                    valences=frozenset(held) if held else empty,
                    broadcast_mask=mask_of[root],
                    space=space,
                )
            )
            component_of_root[root] = component_id
        comp_ids = [0] * count
        for cid, component in enumerate(self.components):
            for index in component._members:
                comp_ids[index] = cid
        self.comp_ids = comp_ids

    def _analyze_numpy(self, np, store, table, interner, n: int, count: int) -> None:
        """Vectorized component pass over the layer's view graph.

        A prefix's component is that of its column-0 view in the view
        graph (see the module docstring), labelled by :func:`_sv_labels`
        and renumbered in place by smallest member index
        (:func:`_first_member_ids`), matching the Python pass ordering
        exactly.  Then one chunked pass folds node masks (column by column
        from the views' rows, each column's ``// n`` into one reused
        chunk buffer), valences and sizes straight over ``comp_ids``: the
        only other layer-sized temporary is the one-byte input column,
        and no member order is sorted until something reads one
        (:class:`_MemberOrder`).
        """
        mat = table.array()
        nodes, offset, node_count, _ = _view_nodes(np, mat)
        labels = _sv_labels(np, nodes, offset, node_count)
        del nodes
        comp_ids, ncomp = _first_member_ids(np, labels, node_count)
        del labels
        row_masks = np.frombuffer(
            interner._row_masks, dtype=interner._row_masks.typecode
        )
        # Valence bitmaps: unanimity values code into one bit per distinct
        # value once per space (uint8 up to 8 values).
        space = self.space
        value_index: dict = {}
        input_codes = np.array(
            [
                -1 if value is None else value_index.setdefault(value, len(value_index))
                for value in space.unanimity_by_index
            ],
            dtype=np.int8,
        )
        value_list = list(value_index)
        inputs = store.input_array()
        # One pass over the layer in chunks folds each prefix's node mask
        # (the AND of its views' rows), its valence bit and its count into
        # per-component columns.  A component lacks broadcaster p when a
        # member lacks it, and has a valence when a member has it: each
        # bit folds by one scatter over those members' ``comp_ids``, and
        # every write of a scatter stores the same bit, so repeated ids
        # are harmless.  (numpy's ``bitwise_and.at`` has no fast indexed
        # loop: 15 ms on a 708,588-prefix layer, against 0.9 ms.)
        missing = np.zeros(ncomp, dtype=row_masks.dtype)
        comp_bits = np.zeros(ncomp, dtype=_bits_dtype(np, len(value_list)))
        sizes = np.zeros(ncomp, dtype=np.int64)
        step = min(_REHASH_CHUNK, count)
        rows = np.empty(step, dtype=np.int32)
        for start in range(0, count, step):
            stop = min(start + step, count)
            chunk_rows = rows[: stop - start]
            np.floor_divide(mat[start:stop, 0], n, out=chunk_rows)
            node_masks = row_masks[chunk_rows]
            for p in range(1, n):
                np.floor_divide(mat[start:stop, p], n, out=chunk_rows)
                node_masks &= row_masks[chunk_rows]
            ids = comp_ids[start:stop]
            for p in range(n):
                missing[ids[(node_masks & (1 << p)) == 0]] |= 1 << p
            codes = input_codes[inputs[start:stop]]
            for code in range(len(value_list)):
                comp_bits[ids[codes == code]] |= 1 << code
            sizes += np.bincount(ids, minlength=ncomp)
        del row_masks, rows, inputs
        comp_masks = ~missing & full_mask(n)
        order = _MemberOrder(comp_ids, sizes.tolist())

        # Per-component values leave numpy once, as lists: a layer with
        # thousands of components must not pay a numpy scalar per
        # component.
        valences_of: dict[int, frozenset] = {0: frozenset()}
        depth = self.depth
        self.components = []
        components_append = self.components.append
        for cid, (bits, mask) in enumerate(
            zip(comp_bits.tolist(), comp_masks.tolist())
        ):
            valences = valences_of.get(bits)
            if valences is None:
                valences = valences_of[bits] = frozenset(
                    value_list[v] for v in range(len(value_list)) if bits >> v & 1
                )
            components_append(
                Component(
                    component_id=cid,
                    depth=depth,
                    member_indices=order,
                    valences=valences,
                    broadcast_mask=mask,
                    space=space,
                )
            )
        self.comp_ids = comp_ids
        self._order = order

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #

    def component_of(self, node: PrefixNode) -> Component:
        """The component containing a node of this layer."""
        return self.components[int(self.comp_ids[node.index])]

    def component_of_view(self, p: int, view_id: int) -> Component | None:
        """The component determined by process ``p`` holding ``view_id``.

        Every admissible prefix in which ``p`` has this view lies in the
        returned component (that is what indistinguishability means); `None`
        if the view does not occur at this depth.
        """
        n = self.space.adversary.n
        view_map = self._view_map
        if view_map is None:
            # Built on first use (the checker never calls this): every
            # prefix holding a view lies in one component, and a view's
            # owner is ``vid % n``, so the view id alone is the key.
            comp_ids = plain_ids(self.comp_ids)
            ids = plain_ids(self.space.layer_store(self.depth).levels.ids)
            view_map = self._view_map = {
                vid: comp_ids[cell // n] for cell, vid in enumerate(ids)
            }
        cid = view_map.get(view_id) if view_id % n == p else None
        return None if cid is None else self.components[cid]

    def bivalent_components(self) -> list[Component]:
        """Components whose members include at least two valences."""
        return [c for c in self.components if c.is_bivalent]

    def non_broadcastable_components(self) -> list[Component]:
        """Components with no common broadcaster."""
        return [c for c in self.components if not c.is_broadcastable]

    def valent_components(self) -> list[Component]:
        """Components containing at least one unanimous prefix."""
        return [c for c in self.components if c.valences]

    def summary(self) -> dict:
        """Aggregate statistics for reports and benchmarks."""
        return {
            "depth": self.depth,
            "prefixes": len(self.space.layer(self.depth)),
            "components": len(self.components),
            "bivalent": len(self.bivalent_components()),
            "non_broadcastable": len(self.non_broadcastable_components()),
            "largest": max((len(c) for c in self.components), default=0),
        }

    def __repr__(self) -> str:
        info = self.summary()
        return (
            f"ComponentAnalysis(depth={info['depth']}, "
            f"components={info['components']}, bivalent={info['bivalent']})"
        )
