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
exactly when they share a view id.  Two equivalent paths sit behind the
interner's ``layer_backend`` switch:

* ``"numpy"`` — connectivity is that of the layer's *view graph*, whose
  nodes are the layer's views and where each prefix joins its ``n`` views
  by ``n - 1`` edges (column 0 to column ``p``).  scipy's
  ``connected_components`` labels it when importable, a Shiloach–Vishkin
  loop in numpy otherwise; every temporary is sized by the prefix count,
  canonical ids come from a first-member pass, and the per-component
  masks/valences fold with ``reduceat``;
* ``"python"`` — the batched union-find pass over the flat column (one
  dict probe per cell on its view id, inlined union by size with path
  halving).

Both paths order components canonically by smallest member index, so
component ids, member order, and every downstream decision table are
identical regardless of backend.  :class:`Component` objects stay thin
wrappers; their member *lists* (and any
:class:`~repro.topology.prefixspace.PrefixNode`) materialize lazily.
"""

from __future__ import annotations

from array import array
from typing import Iterator

from repro.core.graphword import full_mask
from repro.core.views import numpy_module, plain_ids
from repro.errors import AnalysisError
from repro.topology.prefixspace import PrefixNode, PrefixSpace

__all__ = ["Component", "ComponentAnalysis", "UnionFind"]

#: Below this many (prefix, process) cells the vectorized component pass
#: is not worth its fixed overhead (sparse-matrix construction, unique
#: passes); small layers run the Python pass.  Crossover measured around
#: ~1.5-2.5k cells on the lossy-link spaces.
_COMPONENT_NUMPY_MIN_CELLS = 2048

#: The vectorized pass encodes valence sets as int64 bitmaps; spaces with
#: more distinct unanimity values run the Python pass instead.
_NUMPY_MAX_VALENCES = 62


def _scipy_csgraph():
    """scipy's sparse connected-components, when installed (else None).

    scipy is strictly optional (``dependencies = []`` holds): with it, the
    view graph solves in one C-level pass; without it the vectorized
    Shiloach–Vishkin fallback (:func:`_sv_labels`) runs.
    """
    try:
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import connected_components
    except ImportError:  # pragma: no cover - exercised where scipy is absent
        return None
    return csr_matrix, connected_components


def _view_nodes(np, mat):
    """Dense view-graph node ids for a layer's ``(count, n)`` view matrix.

    Returns ``(nodes, offset, node_count)``: cell ``(i, p)`` is node
    ``nodes[i, p] - offset``, and there are never more nodes than cells.
    A fresh interner allocates a layer's views consecutively, so shifting
    by the smallest view id is free and already dense.  An interner shared
    across a sweep shard interleaves many spaces' views, so the id range
    can run far past the layer; then the ids compact through one
    ``np.unique``.
    """
    lo = int(mat.min())
    span = int(mat.max()) - lo + 1
    if span <= mat.size:
        return mat, lo, span
    uniq, inverse = np.unique(mat, return_inverse=True)
    return inverse.reshape(mat.shape), 0, len(uniq)


def _scipy_labels(np, csgraph, nodes, offset: int, node_count: int):
    """Per-prefix component labels from scipy's ``connected_components``.

    The view graph goes in as a sparse matrix with one edge per (prefix,
    column ``p >= 1``) pair, from the prefix's column-0 view to its
    column-``p`` view; node ids narrow to int32 on the way in (scipy's
    own index width).  Returns ``(labels, bound)`` with every label in
    ``range(bound)``.
    """
    csr_matrix, connected_components = csgraph
    n = nodes.shape[1]
    heads = _node_column(np, nodes[:, 0], offset, node_count)
    if n == 1:
        return heads, node_count
    tails = _node_column(np, nodes[:, 1:], offset, node_count).reshape(-1)
    # float64 weights: the dtype csgraph converts to, so no second copy.
    graph = csr_matrix(
        (np.ones(len(tails)), (np.repeat(heads, n - 1), tails)),
        shape=(node_count, node_count),
    )
    del tails
    bound, node_labels = connected_components(graph, directed=False)
    del graph
    return node_labels[heads], bound


def _sv_labels(np, nodes, offset: int, node_count: int):
    """Shiloach–Vishkin connectivity over the view graph, in pure numpy.

    Per round, every column ``p >= 1`` hooks the larger of the two roots
    of each (column 0, column ``p``) edge onto the smaller
    (``np.minimum.at``), then parent pointers fully compress.  Hooking
    roots lets a whole tree adopt a better label at once, so rounds are
    logarithmic in component diameter; per round the temporaries are a
    few prefix-count columns.  Returns ``(labels, bound)``: the root of
    each prefix's column-0 view, all in ``range(bound)``.
    """
    heads = _node_column(np, nodes[:, 0], offset, node_count)
    parent = np.arange(node_count, dtype=heads.dtype)
    while True:
        before = parent.copy()
        for p in range(1, nodes.shape[1]):
            head_roots = parent[heads]
            tail_roots = parent[_node_column(np, nodes[:, p], offset, node_count)]
            low = np.minimum(head_roots, tail_roots)
            np.maximum(head_roots, tail_roots, out=head_roots)
            np.minimum.at(parent, head_roots, low)
        while True:
            compressed = parent[parent]
            if np.array_equal(compressed, parent):
                break
            parent = compressed
        if np.array_equal(parent, before):
            return parent[heads], node_count


def _node_column(np, cells, offset: int, node_count: int):
    """View-graph node ids of some cells, int32 whenever they fit."""
    width = np.int32 if node_count <= np.iinfo(np.int32).max else np.int64
    out = np.empty(cells.shape, dtype=width)
    np.subtract(cells, offset, out=out, casting="unsafe")
    return out


def _first_member_ids(np, labels, bound: int):
    """Renumber solver labels by each component's smallest member index.

    One ``np.minimum.at`` pass finds every label's first member; the
    prefixes that are their label's first member, in index order, then
    number the components.  Returns ``(comp_ids, component_count)`` —
    the Python pass's canonical order, whatever the solver's numbering.
    """
    count = len(labels)
    width = labels.dtype if count <= np.iinfo(labels.dtype).max else np.int64
    index = np.arange(count, dtype=width)
    first = np.full(bound, count, dtype=width)
    np.minimum.at(first, labels, index)
    leaders = labels[first[labels] == index]
    del first, index
    remap = np.empty(bound, dtype=np.int64)
    remap[leaders] = np.arange(len(leaders), dtype=np.int64)
    return remap[labels], len(leaders)


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


class Component:
    """One connected component of a depth-``t`` layer.

    Member indices are held as whatever column the analysis produced (an
    int64 numpy array on the vectorized path, a list on the Python path);
    :attr:`member_indices` materializes — and caches — the plain-int list
    on first access, so columnar consumers never pay for it.
    """

    __slots__ = (
        "id",
        "depth",
        "valences",
        "broadcast_mask",
        "_space",
        "_members",
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
        self._members = member_indices
        self.valences = valences
        self.broadcast_mask = broadcast_mask
        self._space = space

    # -- membership -----------------------------------------------------

    @property
    def member_indices(self) -> list[int]:
        """The member prefix indices as a plain list (lazily materialized)."""
        members = self._members
        if not isinstance(members, list):
            members = self._members = list(
                members.tolist() if hasattr(members, "tolist") else members
            )
        return members

    def member_input_indices(self) -> Iterator[int]:
        """Input-vector index of every member, without node wrappers."""
        input_idx = self._space.layer_store(self.depth).input_idx
        for i in self._members:
            yield int(input_idx[i])

    def members(self) -> Iterator[PrefixNode]:
        """Iterate over the member prefix nodes."""
        layer = self._space.layer(self.depth)
        return (layer[i] for i in self._members)

    def __len__(self) -> int:
        return len(self._members)

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
        store = self._space.layer_store(self.depth)
        input_idx = store.input_idx
        input_vectors = self._space.input_vectors
        values = {
            input_vectors[input_idx[i]][p] for i in self._members
        }
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
        Per-prefix component-id column (int64 numpy array on the
        vectorized path, list on the Python path) — the columnar handoff
        the decision-table builder consumes.

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
        # The vectorized pass folds valences as int64 bitmaps; instances
        # with more distinct unanimity values than fit take the Python
        # pass (arbitrary-precision sets).
        distinct_values = len(
            {v for v in space.unanimity_by_index if v is not None}
        )
        if (
            np is not None
            and interner.layer_backend == "numpy"
            and isinstance(interner._origin_mask, array)
            and distinct_values <= _NUMPY_MAX_VALENCES
            and count * n >= _COMPONENT_NUMPY_MIN_CELLS
        ):
            self._analyze_numpy(np, store, table, interner, n, count)
        else:
            self._analyze_python(store, table, interner, n, count)
        self._view_map: dict[tuple[int, int], int] | None = None

    # ------------------------------------------------------------------ #
    # The two component passes
    # ------------------------------------------------------------------ #

    def _analyze_python(self, store, table, interner, n: int, count: int) -> None:
        """Batched union-find over the flat layer column (pure Python)."""
        ids = plain_ids(table.ids)
        union_find = UnionFind(count)
        parent = union_find.parent
        size = union_find.size
        origin_masks = interner._origin_mask
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
                common &= origin_masks[vid]
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
        input_idx = store.input_idx
        members_of: dict[int, list[int]] = {}
        valences_of: dict[int, set] = {}
        mask_of: dict[int, int] = {}
        for index, common in enumerate(node_masks):
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
            value = unanimity[input_idx[index]]
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
        # view bucket -> first node index (the universal algorithm's
        # lookup); the (p, view) -> component map is built lazily because
        # the solvability checker never queries it.
        self._buckets = buckets

    def _analyze_numpy(self, np, store, table, interner, n: int, count: int) -> None:
        """Vectorized component pass over the layer's view graph.

        A prefix's component is that of its column-0 view in the view
        graph (see the module docstring); scipy labels the graph when
        importable, :func:`_sv_labels` otherwise.  Node masks fold column
        by column, so no ``(count, n)`` temporary is built, and labels are
        canonicalized by smallest member index (:func:`_first_member_ids`),
        matching the Python pass ordering exactly.
        """
        mat = table.array()
        nodes, offset, node_count = _view_nodes(np, mat)
        csgraph = _scipy_csgraph()
        if csgraph is not None:
            labels, bound = _scipy_labels(np, csgraph, nodes, offset, node_count)
        else:
            labels, bound = _sv_labels(np, nodes, offset, node_count)
        del nodes
        comp_ids, ncomp = _first_member_ids(np, labels, bound)
        del labels
        origin_masks = np.frombuffer(
            interner._origin_mask, dtype=interner._origin_mask.typecode
        )
        node_masks = origin_masks[mat[:, 0]]
        for p in range(1, n):
            node_masks &= origin_masks[mat[:, p]]
        del origin_masks
        member_order = np.argsort(comp_ids, kind="stable")
        comp_sizes = np.bincount(comp_ids, minlength=ncomp)
        comp_starts = np.zeros(ncomp, dtype=np.int64)
        np.cumsum(comp_sizes[:-1], out=comp_starts[1:])
        comp_masks = np.bitwise_and.reduceat(node_masks[member_order], comp_starts)
        del node_masks

        # Valence bitmaps: unanimity values code into one bit per distinct
        # value once per space, then fold per component with one reduceat.
        space = self.space
        value_list: list = []
        value_index: dict = {}
        input_bits = []
        for value in space.unanimity_by_index:
            if value is None:
                input_bits.append(0)
                continue
            code = value_index.get(value)
            if code is None:
                code = value_index[value] = len(value_list)
                value_list.append(value)
            input_bits.append(1 << code)
        node_bits = np.array(input_bits, dtype=np.int64)[store.input_array()]
        comp_bits = np.bitwise_or.reduceat(node_bits[member_order], comp_starts)

        members_split = np.split(member_order, comp_starts[1:].tolist())
        empty: frozenset = frozenset()
        depth = self.depth
        self.components = []
        components_append = self.components.append
        for cid in range(ncomp):
            bits = int(comp_bits[cid])
            if bits:
                valences = frozenset(
                    value_list[v] for v in range(len(value_list)) if bits >> v & 1
                )
            else:
                valences = empty
            components_append(
                Component(
                    component_id=cid,
                    depth=depth,
                    member_indices=members_split[cid],
                    valences=valences,
                    broadcast_mask=int(comp_masks[cid]),
                    space=space,
                )
            )
        self.comp_ids = comp_ids
        # The (p, view) -> component lookup recomputes its view index
        # lazily from the store (cold path; the checker never calls it).
        self._buckets = None

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
        view_map = self._view_map
        if view_map is None:
            comp_ids = self.comp_ids
            if self._buckets is not None:
                pid = self.space.interner.pid
                view_map = {
                    (pid(vid), vid): int(comp_ids[first])
                    for vid, first in self._buckets.items()
                }
            else:
                np = numpy_module()
                n = self.space.adversary.n
                mat = self.space.layer_store(self.depth).levels.array()
                views, first_cells = np.unique(mat.reshape(-1), return_index=True)
                view_map = {
                    (cell % n, vid): int(comp_ids[cell // n])
                    for vid, cell in zip(views.tolist(), first_cells.tolist())
                }
            self._view_map = view_map
        cid = view_map.get((p, view_id))
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
