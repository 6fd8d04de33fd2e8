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
:class:`~repro.core.views.LayerTable` column (``count * n`` interned int32
view ids), parent indices are int32 columns, input indices are as narrow as
the input palette allows, and the round-graph/state columns are coded —
a small palette plus one int code per prefix — so they never hold
per-child Python references.  A single-group layer (every layer of an
oblivious adversary) gives each parent the same number of children, so
four of its columns are pure functions of its shape and stay implicit:
the graph and state codes are a constant-width tile, and the parents
and input indices repeat each parent's entry (:class:`_RepeatedColumn`).
Such a layer stores only its view ids; its parents and inputs materialize,
at their own widths, when a consumer asks for a numpy column.  This is the
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
from itertools import chain, repeat
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
    _code_typecode,
    numpy_column,
    numpy_module,
    plain_ids,
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


class _CodedColumn(Sequence):
    """A column of few distinct objects: a palette plus one int code per row.

    Round-graph and state columns repeat a handful of objects across
    millions of prefixes, so a layer stores each object once in ``items``
    and one machine-int code per row in ``codes`` (an ``array`` or numpy
    column of the narrowest width the palette allows; see
    :func:`_code_typecode`) instead of one Python reference per child.
    Single-alphabet layers repeat the same per-parent tile for every
    parent, so their codes stay implicit: with ``codes=None`` the column
    is ``items`` repeated ``repeats`` times (at depth 14 that is a few
    dozen bytes against a 150 MB pointer list).  Reads behave exactly like
    the materialized list: ``column[i] == items[codes[i]]``.
    """

    __slots__ = ("items", "codes", "repeats")

    def __init__(self, items: list, codes=None, repeats: int = 1) -> None:
        self.items = list(items)
        self.codes = codes
        self.repeats = repeats

    def __len__(self) -> int:
        if self.codes is None:
            return len(self.items) * self.repeats
        return len(self.codes)

    def __getitem__(self, item):
        if isinstance(item, slice):
            return [self[i] for i in range(*item.indices(len(self)))]
        size = len(self)
        if item < 0:
            item += size
        if not 0 <= item < size:
            raise IndexError(item)
        if self.codes is None:
            return self.items[item % len(self.items)]
        return self.items[self.codes[item]]

    def __iter__(self):
        items = self.items
        if self.codes is None:
            for _ in range(self.repeats):
                yield from items
        else:
            yield from map(items.__getitem__, plain_ids(self.codes))

    def __eq__(self, other) -> bool:
        if isinstance(other, (_CodedColumn, list, tuple)):
            return len(self) == len(other) and list(self) == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def code_column(self, np=None):
        """The per-row codes, materializing implicit tile codes.

        An int numpy array when ``np`` is given, else an ``array``.
        """
        codes = self.codes
        if codes is None:
            typecode = _code_typecode(len(self.items))
            if np is not None:
                tile = np.arange(len(self.items), dtype=np.dtype(typecode))
                return np.tile(tile, self.repeats)
            return array(typecode, range(len(self.items))) * self.repeats
        if np is not None:
            return np.asarray(codes)
        return codes

    def __repr__(self) -> str:
        if self.codes is None:
            return f"_CodedColumn({self.items!r} x {self.repeats})"
        return f"_CodedColumn({self.items!r}, {len(self)} codes)"


class _RepeatedColumn(Sequence):
    """A per-prefix column that repeats each entry of ``base`` ``repeats`` times.

    A single-group layer gives every parent the same ``w`` children, so
    its parents column is ``i // w`` and its input-index column is the
    parent layer's ``input_idx[i // w]``: both are pure functions of the
    layer's shape and stay implicit, like the graph and state tiles.
    ``base`` is a ``range`` for a parents column and the parent layer's
    input column otherwise; a repeated base folds into one, repeats
    multiplied, so an oblivious layer's input column is the root layer's
    repeated ``w**t`` times.  Reads behave like the materialized column
    at ``typecode``: ``column[i] == base[i // repeats]``, and
    :meth:`LayerStore.parent_array` / :meth:`LayerStore.input_array`
    build it as numpy.
    """

    __slots__ = ("base", "repeats", "typecode")

    def __init__(self, base, repeats: int, typecode: str) -> None:
        if isinstance(base, _RepeatedColumn):
            base, repeats = base.base, base.repeats * repeats
        self.base = base
        self.repeats = repeats
        self.typecode = typecode

    @property
    def itemsize(self) -> int:
        """Bytes per entry of the materialized column."""
        return array(self.typecode).itemsize

    def __len__(self) -> int:
        return len(self.base) * self.repeats

    def __getitem__(self, item):
        if isinstance(item, slice):
            return [self[i] for i in range(*item.indices(len(self)))]
        size = len(self)
        if item < 0:
            item += size
        if not 0 <= item < size:
            raise IndexError(item)
        return self.base[item // self.repeats]

    def __iter__(self):
        base = self.base
        if not isinstance(base, range):
            base = plain_ids(base)
        return chain.from_iterable(map(repeat, base, repeat(self.repeats)))

    def __repr__(self) -> str:
        return f"_RepeatedColumn({self.base!r} x {self.repeats})"


def _parent_typecode(count: int) -> str:
    """The ``array`` typecode (also a numpy dtype) of a parents column.

    ``count`` is the size of the parent layer: int32 holds every index
    below 2**31, wider layers take int64.
    """
    return "i" if count <= 1 << 31 else "q"


class LayerStore:
    """Columnar storage of one layer: parallel per-prefix columns.

    Attributes
    ----------
    levels:
        The :class:`~repro.core.views.LayerTable` of this depth — one flat
        int32 view-id column; ``levels[i]`` materializes the level tuple of
        prefix ``i`` on demand.
    parents:
        Per prefix, the index of its depth ``t - 1`` truncation (``-1`` on
        the root layer); an int32 ``array('i')`` or numpy column (int64
        only past 2**31 parents, see :func:`_parent_typecode`) on a ragged
        layer, an implicit :class:`_RepeatedColumn` on a single-group one.
        Either indexes, iterates and reports ``itemsize``;
        :meth:`parent_array` is the numpy column.
    input_idx:
        Per prefix, the index into ``space.input_vectors``, at the palette
        width of the input vectors
        (:func:`~repro.core.views._code_typecode`: int8 up to 128
        assignments, int16 up to 32768): stored or implicit like
        ``parents``, and :meth:`input_array` is the numpy column.
    graphs:
        Per prefix, the communication graph of the last round (``None`` on
        the root layer); a coded column (palette plus int codes, a tile on
        single-alphabet layers).
    states:
        Per prefix, the adversary's reachable state set (coded likewise;
        :meth:`PrefixSpace.extend` groups parents from its codes).
    """

    __slots__ = ("levels", "parents", "input_idx", "graphs", "states", "nodes", "count")

    def __init__(self, levels: LayerTable, parents, input_idx, graphs, states) -> None:
        self.levels: LayerTable | None = levels
        self.parents = parents
        self.input_idx = input_idx
        self.graphs = graphs
        self.states = states
        #: Lazy cache of materialized :class:`PrefixNode` wrappers (sparse:
        #: deep layers hold millions of prefixes, wrappers are rare).
        self.nodes: dict[int, PrefixNode] | None = {}
        #: Layer size; survives :meth:`condense`.
        self.count: int = len(levels)

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
        """The parents column as a numpy array at its own (int32) width."""
        return _column_array(self.parents)

    def input_array(self, rows=None):
        """The input-index column as a numpy array at its own width.

        With ``rows`` (a numpy index array), only those prefixes' entries,
        gathered without materializing an implicit column.
        """
        column = self.input_idx
        if rows is None:
            return _column_array(column)
        if isinstance(column, _RepeatedColumn):
            column, rows = column.base, rows // column.repeats
        return numpy_column(column)[rows]


def _column_array(column, typecode: str | None = None):
    """A parents or input column as a numpy array at its own width.

    An implicit column materializes, and a ``range`` (the base of an
    implicit parents column) becomes an ``arange`` at ``typecode``.
    """
    if isinstance(column, _RepeatedColumn):
        return _column_array(column.base, column.typecode).repeat(column.repeats)
    if isinstance(column, range):
        np = numpy_module()
        if np is None:
            raise AnalysisError("a numpy column requires numpy")
        return np.arange(column.start, column.stop, dtype=typecode)
    return numpy_column(column)


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

    The layer kernel and this space's columns take their numpy paths
    where :func:`~repro.core.views.numpy_module` returns numpy.

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
    ) -> None:
        self.adversary = adversary
        if retain not in ("all", "frontier"):
            raise AnalysisError(f"retain must be 'all' or 'frontier', got {retain!r}")
        self.retain = retain
        # Not ``interner or ...``: an empty interner is falsy via __len__
        # and must still be adopted (the sweep engine passes fresh ones).
        if interner is None:
            interner = ViewInterner(adversary.n)
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
        #: Typecode of every layer's input-index column.
        self._input_typecode = _code_typecode(len(vectors))
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
        flat = array("i")
        for vec in vectors:
            flat.extend(leaf_level(vec))
        self._stores: list[LayerStore] = [
            LayerStore(
                levels=LayerTable(adversary.n, flat),
                parents=array(_parent_typecode(0), [-1]) * count,
                input_idx=array(self._input_typecode, range(count)),
                graphs=_CodedColumn([None], repeats=count),
                states=_CodedColumn([initial_states], repeats=count),
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

        Parents are grouped by the adversary's reachable state set, read
        off the layer's coded state column — oblivious adversaries
        collapse the whole layer into one group, stabilizing and
        eventually-forever adversaries into a few state-keyed groups — and
        one whole-layer kernel call
        (:meth:`~repro.core.views.ViewInterner.extend_layer_table`) interns
        every group's successors, each group extended by its own alphabet.
        The kernel returns the child layer's levels as stored: parent
        ``i``'s ``w_i`` children contiguous, in parent order, ``w_i`` the
        number of admissible extensions of its state set.  The parents
        and input-index columns repeat each parent's entry ``w_i`` times,
        and round graphs and next state sets code into per-layer palettes.
        A single group keeps all four implicit: its codes are a tile and
        its parents and inputs a :class:`_RepeatedColumn`.  A ragged
        layer's columns are numpy arrays only when the kernel returned
        one.
        """
        current = self._stores[-1]
        if current.condensed:
            raise AnalysisError("cannot extend: the frontier layer was condensed")
        adversary = self.adversary
        count = len(current)
        np = numpy_module()
        groups = _group_rows(current.states, np)
        members = list(groups.values())
        exts = [adversary.admissible_extensions(states) for states in groups]
        # The node budget is checkable before any interning happens: every
        # parent of a group contributes exactly one child per admissible
        # extension of its state set.
        child_count = sum(
            len(group_exts) * (count if rows is None else len(rows))
            for group_exts, rows in zip(exts, members)
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
        levels = self.interner.extend_layer_table(
            current.levels,
            [[graph for graph, _ in group_exts] for group_exts in exts],
            members,
        )
        if np is not None and not isinstance(levels.ids, np.ndarray):
            np = None
        if members[0] is None:
            (group_exts,) = exts
            widths = len(group_exts)
            graphs = _CodedColumn([graph for graph, _ in group_exts], repeats=count)
            states = _CodedColumn([nxt for _, nxt in group_exts], repeats=count)
        else:
            widths, graphs, states = _ragged_codes(np, count, exts, members)
        parent_code = _parent_typecode(count)
        self._stores.append(
            LayerStore(
                levels=levels,
                parents=_repeat_rows(np, range(count), widths, parent_code),
                input_idx=_repeat_rows(
                    np, current.input_idx, widths, self._input_typecode
                ),
                graphs=graphs,
                states=states,
            )
        )
        if self.retain == "frontier":
            self._stores[-2].condense()

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


def _repeat_rows(np, column, widths, typecode: str):
    """``column[i]`` repeated ``widths[i]`` times (``widths`` an int: for every row).

    ``column`` is a ``range`` (a parents column) or a stored column at
    ``typecode``.  A uniform width (a single-group layer) gives an
    implicit :class:`_RepeatedColumn`; ragged widths a numpy array with
    ``np``, otherwise an ``array`` at ``typecode``.
    """
    if isinstance(widths, int):
        return _RepeatedColumn(column, widths, typecode)
    if np is not None:
        return np.repeat(_column_array(column, typecode), widths)
    return array(typecode, chain.from_iterable(map(repeat, plain_ids(column), widths)))


def _ragged_codes(np, count: int, exts: list, members: list) -> tuple:
    """Per-parent widths and the coded graph and state columns of a ragged layer.

    Group ``g`` extends the parents ``members[g]`` by ``exts[g]``, its
    ``(graph, next states)`` pairs; graphs and state sets code into
    per-layer palettes.  With ``np`` each group writes its codes at its
    members' child offsets, one extension at a time; otherwise the code
    columns chain per-parent code tuples.
    """
    slots: tuple = ({}, {})
    codes = [
        [tuple(s.setdefault(x, len(s)) for s, x in zip(slots, ext)) for ext in e]
        for e in exts
    ]
    typecodes = [_code_typecode(len(s)) for s in slots]
    if np is not None:
        widths = np.zeros(count, dtype=np.int64)
        for e, rows in zip(exts, members):
            widths[rows] = len(e)
        offsets = np.cumsum(widths) - widths
        columns = [np.empty(int(widths.sum()), dtype=t) for t in typecodes]
        for group_codes, rows in zip(codes, members):
            first = offsets[rows]
            for j, pair in enumerate(group_codes):
                at = first + j
                for column, code in zip(columns, pair):
                    column[at] = code
    else:
        widths = [0] * count
        codes_of: list = [()] * count
        for group_codes, rows in zip(codes, members):
            for i in plain_ids(rows):
                widths[i] = len(group_codes)
                codes_of[i] = group_codes
        pairs = list(chain.from_iterable(codes_of))
        columns = [array(t, [pair[c] for pair in pairs]) for c, t in enumerate(typecodes)]
    return widths, *(_CodedColumn(list(s), c) for s, c in zip(slots, columns))


def _group_rows(column: _CodedColumn, np) -> dict:
    """Row indices per distinct object of a coded column.

    Returns ``{object: rows}`` in palette order, for the objects some row
    holds (the group order of the layer's kernel call).  ``rows`` is
    ``None`` when one object covers the whole column; otherwise an int64
    numpy array (one stable radix argsort of the codes) when ``np`` is
    given, else a list.  Palette entries that compare equal share one
    group.
    """
    slot_of: dict = {}
    slots = [slot_of.setdefault(item, len(slot_of)) for item in column.items]
    values = list(slot_of)
    if len(values) == 1:
        return {values[0]: None}
    codes = column.code_column(np)
    if np is not None:
        if slots != list(range(len(slots))):
            codes = np.asarray(slots, dtype=codes.dtype)[codes]
        order = np.argsort(codes, kind="stable")
        bounds = np.cumsum(np.bincount(codes, minlength=len(values)))
        rows = np.split(order, bounds[:-1].tolist())
    else:
        rows = [[] for _ in values]
        appends = [rows[slot].append for slot in slots]
        for i, code in enumerate(codes):
            appends[code](i)
    return {value: group for value, group in zip(values, rows) if len(group)}
