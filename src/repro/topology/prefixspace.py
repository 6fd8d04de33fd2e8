"""Layered enumeration of the admissible prefix space of ``PS``.

The paper's characterizations reduce to questions about finite prefixes: the
ball ``B_{2^{-t}}(a)`` in the minimum topology is determined by the depth-t
views, and for compact adversaries Theorem 6.6 explicitly reduces consensus
solvability to ``t``-prefixes.  :class:`PrefixSpace` materializes, layer by
layer, every admissible pair (input assignment, graph word of length ``t``)
together with its interned views — the depth-``t`` skeleton of the space
``PS`` of admissible process-time graph sequences.

Each node keeps the adversary's reachable state set, so extension by one
round enumerates exactly the admissible continuations (including the
liveness pruning for non-compact adversaries: prefixes that could never be
completed to an admissible infinite sequence are not generated — they are
not prefixes of points of ``PS`` at all).

Storage layout
--------------
Layers are stored *columnar* (:class:`LayerStore`) and stay arrays end to
end: the view levels of a layer are one flat
:class:`~repro.core.views.LayerTable` column (``count * n`` interned view
ids), parent and input indices are machine-integer columns, and the
round-graph/state columns of single-alphabet layers are constant-width
tiles that never materialize per-child Python objects.  This is the
representation the hot analyses (components, decision tables,
ε-approximations) consume directly — the whole-layer extension kernel
produces it, the component analysis unions over it, and the decision-table
builder folds over it, so a solvability check never expands a layer into
per-prefix Python objects.  The :class:`PrefixNode` wrappers of the
original API are materialized lazily (and cached) when a consumer asks for
them, with full-history :class:`~repro.core.ptg.PTGPrefix` objects whose
construction is amortized O(1) per node through parent-history sharing.

Streaming and eviction
----------------------
Deep spaces are consumed frontier-by-frontier through
:meth:`PrefixSpace.iter_layers`, which constructs (and yields) one
:class:`LayerStore` at a time.  With the opt-in ``retain="frontier"``
eviction mode, only the newest layer keeps its heavy columns; as the
frontier advances, historical layers are *condensed* down to the columnar
history the layered analyses actually touch — parent links and input
indices.  The contract:

* ``parents``, ``input_idx``, and ``len(store)`` stay valid at every depth;
* ``levels``, ``graphs``, and ``states`` are only available on the frontier
  layer; touching them on a condensed layer raises
  :class:`~repro.errors.AnalysisError`;
* :class:`PrefixNode` / :class:`~repro.core.ptg.PTGPrefix` materialization
  needs the graph history of *every* ancestor layer, so it is unavailable
  in frontier mode altogether (it raises once any ancestor is condensed).

Depth-14+ frontier runs therefore hold the frontier plus the interner's
view tables and nothing else.

``retain="all"`` (the default) keeps every layer, exactly as before.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Iterator, Sequence

from repro.adversaries.base import MessageAdversary
from repro.core.inputs import (
    all_assignments,
    binary_domain,
    unanimity_value,
    validate_assignment,
)
from repro.core.ptg import PTGPrefix
from repro.core.views import (
    LayerTable,
    ViewInterner,
    int64_column,
    numpy_module,
)
from repro.errors import AnalysisError

__all__ = ["PrefixNode", "PrefixSpace", "LayerStore", "LayerView"]


class PrefixNode:
    """One admissible prefix: input assignment + graph word + views + states."""

    __slots__ = ("index", "parent", "input_index", "prefix", "states")

    def __init__(
        self,
        index: int,
        parent: int | None,
        input_index: int,
        prefix: PTGPrefix,
        states: frozenset,
    ) -> None:
        self.index = index
        self.parent = parent
        self.input_index = input_index
        self.prefix = prefix
        self.states = states

    @property
    def inputs(self) -> tuple:
        """The input assignment of this prefix."""
        return self.prefix.inputs

    @property
    def depth(self) -> int:
        """The number of completed rounds."""
        return self.prefix.depth

    @property
    def unanimous_value(self):
        """The common input value, or ``None`` for mixed assignments."""
        return self.prefix.unanimous_value

    def __repr__(self) -> str:
        return (
            f"PrefixNode(#{self.index}, inputs={self.inputs!r}, "
            f"depth={self.depth})"
        )


class _TiledColumn(Sequence):
    """A constant-tile column: ``pattern`` repeated ``repeats`` times.

    Single-alphabet layers repeat the same per-parent graph/state tile for
    every parent, so the column stores the tile once instead of one Python
    reference per child (at depth 14 that is the difference between a few
    dozen bytes and a 150 MB pointer list).  Reads behave exactly like the
    materialized list: ``column[i] == pattern[i % len(pattern)]``.
    """

    __slots__ = ("items", "repeats")

    def __init__(self, items: list, repeats: int) -> None:
        self.items = list(items)
        self.repeats = repeats

    def __len__(self) -> int:
        return len(self.items) * self.repeats

    def __getitem__(self, item):
        if isinstance(item, slice):
            return [self[i] for i in range(*item.indices(len(self)))]
        size = len(self)
        if item < 0:
            item += size
        if not 0 <= item < size:
            raise IndexError(item)
        return self.items[item % len(self.items)]

    def __iter__(self):
        items = self.items
        for _ in range(self.repeats):
            yield from items

    def __repr__(self) -> str:
        return f"_TiledColumn({self.items!r} x {self.repeats})"


class LayerStore:
    """Columnar storage of one layer: parallel per-prefix columns.

    Attributes
    ----------
    levels:
        The :class:`~repro.core.views.LayerTable` of this depth — one flat
        view-id column; ``levels[i]`` materializes the level tuple of
        prefix ``i`` on demand.
    parents:
        Per prefix, the index of its depth ``t - 1`` truncation (``-1`` on
        the root layer); an ``array('q')`` or int64 numpy column.
    input_idx:
        Per prefix, the index into ``space.input_vectors`` (same column
        kinds as ``parents``).
    graphs:
        Per prefix, the communication graph of the last round (``None`` on
        the root layer); a tiled column on single-alphabet layers.
    states:
        Per prefix, the adversary's reachable state set (tiled likewise).
    """

    __slots__ = ("levels", "parents", "input_idx", "graphs", "states", "nodes", "count")

    def __init__(self, levels, parents, input_idx, graphs, states) -> None:
        if not isinstance(levels, LayerTable) and levels is not None:
            levels = LayerTable.from_levels(
                len(levels[0]) if levels else 0, levels
            )
        self.levels: LayerTable | None = levels
        self.parents = parents
        self.input_idx = input_idx
        self.graphs = graphs
        self.states = states
        #: Lazy cache of materialized :class:`PrefixNode` wrappers (sparse:
        #: deep layers hold millions of prefixes, wrappers are rare).
        self.nodes: dict[int, PrefixNode] | None = {}
        #: Layer size; survives :meth:`condense`.
        self.count: int = len(levels) if levels is not None else 0

    def __len__(self) -> int:
        return self.count

    @property
    def condensed(self) -> bool:
        """Whether the heavy columns have been evicted (``retain="frontier"``)."""
        return self.levels is None

    def condense(self) -> None:
        """Drop the heavy columns, keeping parents/input indices and the size."""
        self.levels = None
        self.graphs = None
        self.states = None
        self.nodes = None

    def parent_array(self):
        """The parents column as an int64 numpy array (vectorized paths)."""
        return int64_column(self.parents)

    def input_array(self):
        """The input-index column as an int64 numpy array."""
        return int64_column(self.input_idx)


class LayerView(Sequence):
    """Sequence facade over one layer; nodes materialize on access."""

    __slots__ = ("_space", "_depth")

    def __init__(self, space: "PrefixSpace", depth: int) -> None:
        self._space = space
        self._depth = depth

    def __len__(self) -> int:
        return len(self._space._stores[self._depth])

    def __getitem__(self, item):
        if isinstance(item, slice):
            return [
                self._space._materialize(self._depth, i)
                for i in range(*item.indices(len(self)))
            ]
        size = len(self)
        if item < 0:
            item += size
        if not 0 <= item < size:
            raise IndexError(item)
        return self._space._materialize(self._depth, item)

    def __iter__(self) -> Iterator[PrefixNode]:
        materialize = self._space._materialize
        depth = self._depth
        for i in range(len(self)):
            yield materialize(depth, i)

    def __repr__(self) -> str:
        return f"LayerView(depth={self._depth}, size={len(self)})"


class PrefixSpace:
    """The admissible prefixes of ``PS`` up to a growing depth.

    Parameters
    ----------
    adversary:
        The message adversary generating the space.
    input_vectors:
        The input assignments to consider; defaults to all assignments over
        the binary domain ``{0, 1}``.  (The paper's ``PS`` ranges over all
        assignments of the input domain.)
    interner:
        Optionally share a view interner with other analyses.
    max_nodes:
        Safety valve: :meth:`extend` raises once a layer would exceed this
        many prefixes.
    retain:
        ``"all"`` (default) keeps every constructed layer; ``"frontier"``
        condenses historical layers to parents + input indices as the
        frontier advances (see module docstring for the eviction contract).
    layer_backend:
        Columnar-pipeline kernel backend (``"numpy"``/``"python"``/``None``
        for the import-time default) of the interner this space creates
        when none is shared in; ignored — the shared interner's own
        backend wins — when ``interner`` is given.  The same switch also
        selects the vectorized vs pure-Python paths of the component
        analysis and decision-table construction over this space's layers.
    plan_cache_size:
        Capacity of the created interner's per-alphabet extension-plan LRU
        (``None`` = library default; ignored when ``interner`` is given).
    extension_workers:
        Process count for the created interner's sharded whole-layer
        extension (``None``/``1`` = serial; ignored when ``interner`` is
        given — the shared interner's own knob wins).  Orthogonal to
        ``layer_backend``: only the numpy kernel shards, and results are
        bit-identical to the serial numpy kernel for any worker count.

    Examples
    --------
    >>> from repro.adversaries.lossylink import lossy_link_no_hub
    >>> space = PrefixSpace(lossy_link_no_hub())
    >>> space.ensure_depth(2)
    >>> len(space.layer(2))
    16
    """

    def __init__(
        self,
        adversary: MessageAdversary,
        input_vectors: Iterable[Sequence] | None = None,
        interner: ViewInterner | None = None,
        max_nodes: int = 2_000_000,
        retain: str = "all",
        layer_backend: str | None = None,
        plan_cache_size: int | None = None,
        extension_workers: int | None = None,
    ) -> None:
        self.adversary = adversary
        if retain not in ("all", "frontier"):
            raise AnalysisError(f"retain must be 'all' or 'frontier', got {retain!r}")
        self.retain = retain
        # Not ``interner or ...``: an empty interner is falsy via __len__
        # and must still be adopted (the sweep engine shares fresh ones).
        if interner is None:
            interner = ViewInterner(
                adversary.n,
                layer_backend=layer_backend,
                plan_cache_size=plan_cache_size,
                extension_workers=extension_workers,
            )
        self.interner = interner
        if self.interner.n != adversary.n:
            raise AnalysisError("interner and adversary disagree on n")
        if input_vectors is None:
            vectors = all_assignments(adversary.n, binary_domain)
        else:
            domain = {v for vec in input_vectors for v in vec}
            vectors = tuple(
                validate_assignment(vec, adversary.n, domain)
                for vec in input_vectors
            )
        if not vectors:
            raise AnalysisError("a prefix space needs at least one assignment")
        if len(set(vectors)) != len(vectors):
            raise AnalysisError("duplicate input assignments")
        self.input_vectors = vectors
        #: Unanimity value per input index (None for mixed assignments),
        #: precomputed so per-node valence queries are a tuple lookup.
        self.unanimity_by_index = tuple(unanimity_value(vec) for vec in vectors)
        self.max_nodes = max_nodes
        initial_states = frozenset(
            adversary.initial_states() & adversary.live_states()
        )
        if not initial_states:
            raise AnalysisError(
                f"adversary {adversary.name} admits no infinite sequences"
            )
        leaf_level = self.interner.leaf_level
        count = len(vectors)
        flat = array("q")
        for vec in vectors:
            flat.extend(leaf_level(vec))
        self._stores: list[LayerStore] = [
            LayerStore(
                levels=LayerTable(adversary.n, flat),
                parents=array("q", [-1]) * count,
                input_idx=array("q", range(count)),
                graphs=_TiledColumn([None], count),
                states=_TiledColumn([initial_states], count),
            )
        ]

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @property
    def depth(self) -> int:
        """The deepest fully constructed layer."""
        return len(self._stores) - 1

    def extend(self) -> None:
        """Construct the next layer (depth + 1).

        Parents are grouped by the adversary's reachable state set —
        oblivious adversaries collapse the whole layer into one group,
        stabilizing/eventually-forever adversaries into a few state-keyed
        groups — and each group's successor levels are interned by one
        whole-layer kernel call
        (:meth:`~repro.core.views.ViewInterner.extend_layer_table`), whose
        column output is interleaved straight into the child layer's flat
        columns.  Children are emitted in the same parent-major,
        alphabet-minor order as always, so layer indexing is unchanged.
        """
        current = self._stores[-1]
        if current.condensed:
            raise AnalysisError("cannot extend: the frontier layer was condensed")
        adversary = self.adversary
        extensions = adversary.admissible_extensions
        cur_table = current.levels
        cur_states = current.states
        count = len(current)
        # Group parent indices by state set (insertion order for
        # deterministic kernel-call order; state sets are cached frozensets
        # so grouping is dict probes on shared objects).  Tiled state
        # columns with one distinct tile — every oblivious layer — skip the
        # per-parent pass entirely.
        groups: dict[frozenset, list[int] | None]
        if isinstance(cur_states, _TiledColumn) and len(set(cur_states.items)) == 1:
            groups = {cur_states.items[0]: None}  # None = the whole layer
        else:
            groups = {}
            for i, node_states in enumerate(cur_states):
                members = groups.get(node_states)
                if members is None:
                    groups[node_states] = [i]
                else:
                    members.append(i)
        # The node budget is checkable before any interning happens: every
        # parent of a group contributes exactly one child per admissible
        # extension of its state set.
        child_count = sum(
            len(extensions(states))
            * (count if members is None else len(members))
            for states, members in groups.items()
        )
        if child_count > self.max_nodes:
            raise AnalysisError(
                f"prefix space exceeds max_nodes={self.max_nodes} at "
                f"depth {self.depth + 1}; reduce depth or inputs"
            )
        if child_count == 0:
            raise AnalysisError(
                f"{adversary.name}: no admissible extension at depth {self.depth}"
            )
        if len(groups) == 1 and next(iter(groups.values())) is None:
            store = self._extend_single_group(
                cur_table, current, next(iter(groups))
            )
        else:
            store = self._extend_grouped(cur_table, current, groups)
        self._stores.append(store)
        if self.retain == "frontier":
            self._stores[-2].condense()

    def _extend_single_group(
        self, cur_table: LayerTable, current: LayerStore, node_states
    ) -> LayerStore:
        """One kernel call over the whole layer; columns interleave flat."""
        adversary = self.adversary
        exts = adversary.admissible_extensions(node_states)
        alphabet = adversary.extension_alphabet(node_states)
        n = adversary.n
        count = len(cur_table)
        width = len(exts)
        tables = self.interner.extend_layer_table(cur_table, alphabet)
        child_table = _interleave_tables(n, count, tables)
        np = numpy_module()
        if np is not None and isinstance(child_table.ids, np.ndarray):
            parents = np.repeat(np.arange(count, dtype=np.int64), width)
            input_idx = np.repeat(current.input_array(), width)
        else:
            parents = array("q", bytes(8 * count * width))
            input_idx = array("q", bytes(8 * count * width))
            base = array("q", range(count))
            cur_inputs = current.input_idx
            if not isinstance(cur_inputs, array):
                cur_inputs = array("q", cur_inputs)
            for j in range(width):
                parents[j::width] = base
                input_idx[j::width] = cur_inputs
        return LayerStore(
            levels=child_table,
            parents=parents,
            input_idx=input_idx,
            graphs=_TiledColumn([graph for graph, _ in exts], count),
            states=_TiledColumn([nxt for _, nxt in exts], count),
        )

    def _extend_grouped(
        self, cur_table: LayerTable, current: LayerStore, groups: dict
    ) -> LayerStore:
        """One whole-layer kernel call per state group, merged parent-major."""
        adversary = self.adversary
        extensions = adversary.admissible_extensions
        alphabet_of = adversary.extension_alphabet
        interner = self.interner
        n = adversary.n
        count = len(cur_table)
        exts_of: list = [None] * count
        cols_of: list = [None] * count
        pos_of: list = [0] * count
        for node_states, members in groups.items():
            if members is None:
                members = range(count)
            exts = extensions(node_states)
            if not exts:
                continue
            sub = _gather_subtable(cur_table, members)
            group_cols = [
                t.ids
                for t in interner.extend_layer_table(sub, alphabet_of(node_states))
            ]
            for mi, i in enumerate(members):
                exts_of[i] = exts
                cols_of[i] = group_cols
                pos_of[i] = mi
        flat = array("q")
        parents = array("q")
        input_idx = array("q")
        graphs: list = []
        states_col: list = []
        parents_append = parents.append
        input_append = input_idx.append
        graphs_append = graphs.append
        states_append = states_col.append
        cur_inputs = current.input_idx
        for i, exts in enumerate(exts_of):
            if exts is None:
                continue
            inp = cur_inputs[i]
            group_cols = cols_of[i]
            base = pos_of[i] * n
            for (graph, nxt_states), column in zip(exts, group_cols):
                chunk = column[base : base + n]
                flat.extend(
                    chunk.tolist() if not isinstance(chunk, (array, list)) else chunk
                )
                parents_append(i)
                input_append(inp)
                graphs_append(graph)
                states_append(nxt_states)
        return LayerStore(
            levels=LayerTable(n, flat),
            parents=parents,
            input_idx=input_idx,
            graphs=graphs,
            states=states_col,
        )

    def ensure_depth(self, t: int) -> None:
        """Construct layers up to depth ``t``."""
        while self.depth < t:
            self.extend()

    def iter_layers(
        self, max_depth: int | None = None
    ) -> Iterator[tuple[int, LayerStore]]:
        """Stream ``(depth, LayerStore)`` pairs, constructing on demand.

        Yields layer 0, then extends one round at a time up to ``max_depth``
        (unbounded when ``None`` — the caller breaks out of the loop).
        Already-constructed layers are yielded first, so resuming iteration
        on a partially built space is cheap.  In ``retain="frontier"`` mode
        each yielded store is condensed as soon as the next layer is built,
        so consumers must finish with a layer before advancing — and
        re-iterating a space whose early layers were already condensed
        raises :class:`~repro.errors.AnalysisError` instead of silently
        yielding gutted stores.
        """
        t = 0
        while max_depth is None or t <= max_depth:
            if t > self.depth:
                self.extend()
            store = self._stores[t]
            if store.condensed:
                raise AnalysisError(
                    f"layer {t} was condensed (retain='frontier'); "
                    "iteration can only resume from the frontier layer "
                    f"(depth {self.depth})"
                )
            yield t, store
            t += 1

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #

    def layer_store(self, t: int) -> LayerStore:
        """The columnar data of layer ``t`` (constructing if needed).

        This is the fast-path API: analyses that only need view levels,
        input indices, or parent links should iterate the store's columns
        instead of materializing :class:`PrefixNode` objects.
        """
        self.ensure_depth(t)
        store = self._stores[t]
        if store.condensed:
            raise AnalysisError(
                f"layer {t} was condensed (retain='frontier'); only the "
                f"frontier layer (depth {self.depth}) retains its columns"
            )
        return store

    def layer(self, t: int) -> LayerView:
        """All admissible prefixes of depth ``t`` (constructing if needed)."""
        self.ensure_depth(t)
        return LayerView(self, t)

    def node(self, t: int, index: int) -> PrefixNode:
        """The ``index``-th node of layer ``t``."""
        self.ensure_depth(t)
        return self._materialize(t, index)

    def _materialize(self, t: int, index: int) -> PrefixNode:
        """Build (and cache) the node wrapper for one columnar entry."""
        store = self._stores[t]
        if store.condensed:
            raise AnalysisError(
                f"cannot materialize a node of condensed layer {t} "
                "(retain='frontier' drops levels/graphs below the frontier)"
            )
        index = int(index)
        node = store.nodes.get(index)
        if node is not None:
            return node
        input_index = int(store.input_idx[index])
        if t == 0:
            prefix = PTGPrefix._make(
                self.interner,
                self.input_vectors[input_index],
                (),
                (store.levels[index],),
            )
            node = PrefixNode(index, None, input_index, prefix, store.states[index])
        else:
            parent_index = int(store.parents[index])
            parent = self._materialize(t - 1, parent_index)
            parent_prefix = parent.prefix
            prefix = PTGPrefix._make(
                self.interner,
                parent_prefix.inputs,
                parent_prefix.graphs + (store.graphs[index],),
                parent_prefix._view_history + (store.levels[index],),
            )
            node = PrefixNode(
                index, parent_index, input_index, prefix, store.states[index]
            )
        store.nodes[index] = node
        return node

    def parent_of(self, t: int, index: int) -> PrefixNode | None:
        """The depth ``t - 1`` truncation of a node (None at the root)."""
        self.ensure_depth(t)
        parent = int(self._stores[t].parents[index])
        if parent < 0:
            return None
        return self._materialize(t - 1, parent)

    def unanimous_nodes(self, t: int) -> dict:
        """Map value -> list of unanimous (``v``-valent) nodes at depth ``t``."""
        store = self.layer_store(t)
        unanimity = self.unanimity_by_index
        result: dict = {}
        for index, inp in enumerate(store.input_idx):
            value = unanimity[inp]
            if value is not None:
                result.setdefault(value, []).append(self._materialize(t, index))
        return result

    def layer_sizes(self) -> list[int]:
        """Sizes of all constructed layers."""
        return [len(store) for store in self._stores]

    def find_node(self, t: int, inputs: Sequence, word) -> PrefixNode:
        """The node with the given inputs and graph word at depth ``t``."""
        inputs = tuple(inputs)
        graphs = tuple(word)
        for node in self.layer(t):
            if node.inputs == inputs and node.prefix.graphs == graphs:
                return node
        raise AnalysisError("no such admissible prefix")

    def __repr__(self) -> str:
        return (
            f"PrefixSpace({self.adversary.name}, depth={self.depth}, "
            f"sizes={self.layer_sizes()})"
        )


def _interleave_tables(n: int, count: int, tables: list[LayerTable]) -> LayerTable:
    """Merge per-graph layer tables parent-major into one flat column.

    ``tables[j][i]`` becomes child ``i * width + j`` — a stack/ravel on the
    numpy backend, strided array-slice assignment on pure Python; no
    per-child tuples either way.
    """
    width = len(tables)
    if width == 1:
        return LayerTable(n, tables[0].ids)
    np = numpy_module()
    if np is not None and isinstance(tables[0].ids, np.ndarray):
        stacked = np.stack([t.array() for t in tables], axis=1)
        return LayerTable(n, stacked.reshape(-1))
    flat = array("q", bytes(8 * count * width * n))
    stride = width * n
    for j, t in enumerate(tables):
        col = t.ids
        if not isinstance(col, array):
            col = array("q", col)
        for p in range(n):
            flat[j * n + p :: stride] = col[p::n]
    return LayerTable(n, flat)


def _gather_subtable(table: LayerTable, members) -> LayerTable:
    """The sub-table of the given parent indices (order-preserving)."""
    n = table.n
    if isinstance(members, range) and members == range(len(table)):
        return table
    ids = table.ids
    np = numpy_module()
    if np is not None and isinstance(ids, np.ndarray):
        return LayerTable(n, ids.reshape(-1, n)[list(members)].reshape(-1))
    flat = array("q")
    for i in members:
        chunk = ids[i * n : (i + 1) * n]
        flat.extend(chunk)
    return LayerTable(n, flat)
