"""Decision tables: the executable form of the universal algorithm.

Theorem 5.5's universal algorithm decides as soon as the ``2^{-t}``-ball
around the sequences compatible with the local view is contained in one
decision set.  Once a certification depth ``t`` and a value assignment to
the depth-``t`` components are fixed, that rule becomes a pure lookup:

* a process's view at depth ``t`` determines the component of every
  compatible admissible prefix, hence the decision value;
* a view at an earlier depth ``s < t`` determines a *set* of reachable
  depth-``t`` components; when all of them carry the same value the ball is
  already contained in one decision set and the process may decide early —
  this is exactly the paper's decision rule, evaluated eagerly.

:class:`DecisionTable` materializes both maps and validates itself against
the prefix space (agreement, validity, termination by round ``t``).  Both
maps are :class:`DecisionMap` columns — a sorted int32 view-id column, one
narrow value code per view and the value palette — on both paths, so a
table costs about five bytes per decided view instead of a dict entry.

Columnar construction
---------------------
:func:`build_decision_table` folds directly over the layer columns: the
per-prefix component-id column of the
:class:`~repro.topology.components.ComponentAnalysis` becomes a per-prefix
value-bit column, the final map reads the depth-``t``
:class:`~repro.core.views.LayerTable` flat column, and the early map pushes
value bitmaps bottom-up through the parent-index columns — per layer one
scatter-OR into a per-view column when
:func:`~repro.core.views.numpy_module` returns numpy and the layer has at
least :data:`_DECISION_NUMPY_MIN_CELLS` cells, one flat loop on pure
Python otherwise.  No :class:`~repro.topology.prefixspace.PrefixNode` is ever
materialized except to format a validation error.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Mapping
from itertools import islice

from repro.consensus.spec import STRONG, ConsensusSpec
from repro.core.views import _code_typecode, numpy_module, plain_ids
from repro.errors import AnalysisError, CertificateError
from repro.topology.components import (
    ComponentAnalysis,
    _bits_dtype,
    _node_column,
    _view_nodes,
)
from repro.topology.prefixspace import PrefixSpace

__all__ = ["DecisionMap", "DecisionTable", "build_decision_table"]


#: Below this many (prefix, process) cells at the certification depth the
#: per-layer sort/reduceat folds (and the gather in ``validate``) lose to
#: the plain Python loops; both cross over between 128 and 256 cells on
#: random rooted n=4 spaces.
_DECISION_NUMPY_MIN_CELLS = 256

#: The vectorized folds encode value sets as bitmaps (uint8 up to 8
#: values, int64 beyond); instances with more distinct decision values
#: than this fall back to the Python maps (whose bitmaps are
#: arbitrary-precision ints).
_NUMPY_MAX_VALUES = 62


def _use_numpy_maps(store, value_count: int) -> bool:
    """Whether the vectorized decision folds should run for this layer."""
    return (
        numpy_module() is not None
        and value_count <= _NUMPY_MAX_VALUES
        and len(store) * store.levels.n >= _DECISION_NUMPY_MIN_CELLS
    )


class DecisionMap(Mapping):
    """A read-only view id -> decision value map held as three columns.

    ``ids`` is the ascending ``array('i')`` of decided view ids, ``codes``
    the value code of each (an ``array`` at the palette's code width: int8
    up to 128 values) and ``palette`` the tuple of values, so view
    ``ids[i]`` decides ``palette[codes[i]]``.  Lookups bisect the id
    column; iteration runs in id order.  Both paths build this one
    type, and :meth:`DecisionTable.validate` reads its columns directly.
    """

    __slots__ = ("ids", "codes", "palette")

    def __init__(self, ids: array, codes: array, palette) -> None:
        self.ids = ids
        self.codes = codes
        self.palette = tuple(palette)

    @classmethod
    def from_columns(cls, np, ids, codes, palette) -> "DecisionMap":
        """The map of ascending id and code numpy columns."""
        typecode = _code_typecode(len(palette))
        return cls(
            array("i", ids.astype(np.int32, copy=False).tobytes()),
            array(typecode, codes.astype(np.dtype(typecode), copy=False).tobytes()),
            palette,
        )

    def _index(self, view) -> int:
        """Position of ``view`` in the id column, or -1 when absent."""
        ids = self.ids
        i = bisect_left(ids, view)
        if i < len(ids) and ids[i] == view:
            return i
        return -1

    def __getitem__(self, view):
        i = self._index(view)
        if i < 0:
            raise KeyError(view)
        return self.palette[self.codes[i]]

    def get(self, view, default=None):
        i = self._index(view)
        return default if i < 0 else self.palette[self.codes[i]]

    def __contains__(self, view) -> bool:
        return self._index(view) >= 0

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self):
        return iter(self.ids)

    def __repr__(self) -> str:
        return f"DecisionMap({len(self)} views, palette={self.palette!r})"


class DecisionTable:
    """View-to-value decision maps certified at a given depth.

    Attributes
    ----------
    depth:
        The certification depth ``t`` (every process decides by round
        ``t``).
    assignment:
        Component id -> decision value at depth ``t``.
    final:
        View id (at depth ``t``) -> decision value, a read-only
        :class:`DecisionMap`.
    early:
        View id (any depth ``<= t``) -> decision value, present only when
        the value is already determined (the ε-ball rule); a read-only
        :class:`DecisionMap` over the same palette as ``final``.
    """

    __slots__ = ("space", "depth", "spec", "assignment", "final", "early")

    def __init__(
        self,
        space: PrefixSpace,
        depth: int,
        spec: ConsensusSpec,
        assignment: dict[int, object],
        final: DecisionMap,
        early: DecisionMap,
    ) -> None:
        self.space = space
        self.depth = depth
        self.spec = spec
        self.assignment = assignment
        self.final = final
        self.early = early

    # ------------------------------------------------------------------ #
    # Lookup interface (used by the universal algorithm)
    # ------------------------------------------------------------------ #

    def decision_for_view(self, view_id: int):
        """The decided value for a view, or None when not yet determined.

        Accepts views of any depth up to the certification depth; views at
        the certification depth always decide.
        """
        return self.early.get(view_id)

    def decided_values(self) -> frozenset:
        """All values the table can output."""
        return frozenset(self.assignment.values())

    # ------------------------------------------------------------------ #
    # Self-validation (executable Theorem 5.5 correctness argument)
    # ------------------------------------------------------------------ #

    def validate(self) -> None:
        """Check termination, agreement, and validity over the prefix space.

        Raises :class:`CertificateError` on any violation; passing is an
        end-to-end check of the universal construction at this depth.
        The early map's entries within the layer's view-id span ``lo ..
        hi`` first scatter into a code column over that span (one byte per
        id, offset by ``lo``, -1 = undecided), so its size follows the
        layer, not the largest id of a shared interner; the checks then
        run columnar on the numpy path
        (one gather over the layer's flat view column) with the flat
        Python loop as the fallback; nodes are only materialized to
        format a failure.
        """
        space = self.space
        store = space.layer_store(self.depth)
        table = store.levels
        early = self.early
        final = self.final
        value_count = len(self.decided_values())
        code_of = {value: i for i, value in enumerate(early.palette)}
        # Final codes translated into the early palette (-2 never matches).
        expected = [code_of.get(value, -2) for value in final.palette]
        numpy_path = _use_numpy_maps(store, value_count) and len(early) > 0
        if numpy_path:
            np = numpy_module()
            mat = table.array()
            lo, hi = int(mat.min()), int(mat.max())
        else:
            ids = plain_ids(table.ids)
            lo, hi = min(ids), max(ids)
        # Only the layer's views are looked up: scatter that slice of the
        # sorted early column, not the whole map.
        first = bisect_left(early.ids, lo)
        last = bisect_right(early.ids, hi)
        in_range = not len(final) or (lo <= final.ids[0] and final.ids[-1] <= hi)
        typecode = early.codes.typecode
        if numpy_path:
            vid_codes = np.full(hi - lo + 1, -1, dtype=typecode)
            vid_codes[np.frombuffer(early.ids, dtype=np.int32)[first:last] - lo] = (
                np.frombuffer(early.codes, dtype=typecode)[first:last]
            )
            self._validate_numpy(np, store, mat - lo, vid_codes, code_of)
            mismatch = not in_range or bool(
                (
                    vid_codes[np.frombuffer(final.ids, dtype=np.int32) - lo]
                    != np.array(expected, dtype=np.int64)[
                        np.frombuffer(final.codes, dtype=final.codes.typecode)
                    ]
                ).any()
            )
        else:
            vid_codes = array(typecode, [-1]) * (hi - lo + 1)
            for vid, code in zip(early.ids[first:last], early.codes[first:last]):
                vid_codes[vid - lo] = code
            self._validate_python(store, ids, table.n, lo, vid_codes)
            mismatch = not in_range or any(
                vid_codes[vid - lo] != expected[code]
                for vid, code in zip(final.ids, final.codes)
            )
        # Early decisions must be consistent with final ones.
        if mismatch:
            raise CertificateError("early/final decision mismatch")

    def _validate_python(self, store, ids, n: int, lo: int, vid_codes) -> None:
        space = self.space
        unanimity = space.unanimity_by_index
        input_vectors = space.input_vectors
        strong = self.spec.validity == "strong"
        palette = self.early.palette
        for index, input_index in enumerate(store.input_idx):
            base = index * n
            code = vid_codes[ids[base] - lo]
            for p in range(n):
                decided = vid_codes[ids[base + p] - lo]
                if decided < 0:
                    raise CertificateError(
                        f"termination violation: no decision for process {p} "
                        f"in {space.node(self.depth, index)!r}"
                    )
                if decided != code:
                    raise CertificateError(
                        f"agreement violation in "
                        f"{space.node(self.depth, index)!r}: "
                        f"{{{palette[code]!r}, {palette[decided]!r}}}"
                    )
            value = palette[code]
            unanimous = unanimity[input_index]
            if unanimous is not None and value != unanimous:
                raise CertificateError(
                    f"validity violation in {space.node(self.depth, index)!r}: "
                    f"decided {value!r}"
                )
            if strong and value not in input_vectors[input_index]:
                raise CertificateError(
                    f"strong validity violation in "
                    f"{space.node(self.depth, index)!r}: decided {value!r}"
                )

    def _validate_numpy(self, np, store, cells, vid_codes, code_of) -> None:
        """Columnar checks; ``cells`` is the layer matrix offset by ``lo``."""
        space = self.space
        value_list = self.early.palette
        codes = vid_codes[cells]
        undecided = codes < 0
        if undecided.any():
            index, p = np.argwhere(undecided)[0]
            raise CertificateError(
                f"termination violation: no decision for process {int(p)} "
                f"in {space.node(self.depth, int(index))!r}"
            )
        first = codes[:, :1]
        disagree = (codes != first).any(axis=1)
        if disagree.any():
            index = int(np.flatnonzero(disagree)[0])
            row = codes[index]
            raise CertificateError(
                f"agreement violation in "
                f"{space.node(self.depth, index)!r}: "
                f"{{{value_list[int(row[0])]!r}, "
                f"{value_list[int(row[row != row[0]][0])]!r}}}"
            )
        # int64 before the shift below: numpy wraps narrow shifts silently.
        node_codes = first.reshape(-1).astype(np.int64)
        del codes, first
        # Validity: unanimity forces the value; strong validity requires
        # membership in the member's input assignment.
        unanimity = space.unanimity_by_index
        unan_codes = np.array(
            [code_of.get(value, -1) if value is not None else -2 for value in unanimity],
            dtype=np.int64,
        )
        input_idx = store.input_array()
        expected = unan_codes[input_idx]
        bad = (expected != -2) & (expected != node_codes)
        if bad.any():
            index = int(np.flatnonzero(bad)[0])
            raise CertificateError(
                f"validity violation in {space.node(self.depth, index)!r}: "
                f"decided {value_list[int(node_codes[index])]!r}"
            )
        if self.spec.validity == "strong":
            input_vectors = space.input_vectors
            allowed_bits = np.array(
                [
                    sum(
                        1 << code_of[v]
                        for v in set(vec)
                        if v in code_of
                    )
                    for vec in input_vectors
                ],
                dtype=np.int64,
            )
            node_bits = np.left_shift(1, node_codes)
            bad = (allowed_bits[input_idx] & node_bits) == 0
            if bad.any():
                index = int(np.flatnonzero(bad)[0])
                raise CertificateError(
                    f"strong validity violation in "
                    f"{space.node(self.depth, index)!r}: decided "
                    f"{value_list[int(node_codes[index])]!r}"
                )

    def decision_round_for(self, node) -> int:
        """The earliest round at which all processes have decided in a prefix."""
        n = self.space.adversary.n
        last = 0
        for p in range(n):
            for s in range(self.depth + 1):
                if node.prefix.view(p, s) in self.early:
                    last = max(last, s)
                    break
            else:
                raise CertificateError("process never decides")
        return last

    def __repr__(self) -> str:
        return (
            f"DecisionTable(depth={self.depth}, components={len(self.assignment)}, "
            f"views={len(self.early)})"
        )


def build_decision_table(
    analysis: ComponentAnalysis, spec: ConsensusSpec
) -> DecisionTable:
    """Assign values to components and derive the view decision maps.

    Raises :class:`~repro.errors.AnalysisError` (via the spec) when some
    component admits no value — i.e. when consensus is not certified at
    this depth.
    """
    space = analysis.space
    depth = analysis.depth
    assignment = _assign_values(analysis, spec)
    # Value sets are encoded as bitmaps over the (small, finite) set of
    # assigned values; both paths share the coding.
    value_list = sorted(set(assignment.values()), key=repr)
    bit_of = {value: 1 << i for i, value in enumerate(value_list)}
    if _use_numpy_maps(space.layer_store(depth), len(value_list)):
        final, early = _decision_maps_numpy(
            numpy_module(), space, depth, analysis, assignment, value_list, bit_of
        )
    else:
        final, early = _decision_maps_python(
            space, depth, analysis, assignment, value_list, bit_of
        )
    table = DecisionTable(space, depth, spec, assignment, final, early)
    table.validate()
    return table


def _assign_values(analysis: ComponentAnalysis, spec: ConsensusSpec) -> dict:
    """Value per component id, columnar when the spec allows it.

    The vectorized pass below reproduces :meth:`ConsensusSpec.pick_value`
    for the library spec; subclasses overriding ``pick_value`` or
    ``allowed_values`` keep the per-component calls (their overrides must
    observe every component).  The columnar pass also needs the domain
    to fit the int64 value bitmaps and the vectorized component analysis
    to have run: its member order and component offsets, sorted on this
    first read, are the grouping the pass folds over.
    """
    np = numpy_module()
    if (
        np is None
        or type(spec).pick_value is not ConsensusSpec.pick_value
        or type(spec).allowed_values is not ConsensusSpec.allowed_values
        or len(spec.domain) > _NUMPY_MAX_VALUES
        or analysis.member_order is None
    ):
        return {
            component.id: spec.pick_value(component)
            for component in analysis.components
        }
    return _assign_values_numpy(np, analysis, spec)


#: Distinct-from-everything marker for the vectorized tie-break (``None``
#: is a legitimate input value, so it cannot signal "nothing chosen yet").
_NO_VALUE = object()


def _assign_values_numpy(np, analysis: ComponentAnalysis, spec: ConsensusSpec) -> dict:
    """Whole-layer value assignment: forced valences + broadcaster pass.

    The component analysis already grouped the layer's prefixes by
    component (its member order and component offsets); ``reduceat``
    folds over that grouping answer, per component, everything
    :meth:`ConsensusSpec.pick_value` asks member-by-member: the
    strong-validity allowed sets (AND of per-input-vector value bitmaps)
    and each broadcaster's input value (min/max folds over per-process
    value codes, equal iff constant — the Theorem 5.9 check).  Preference
    order, raised errors, and chosen values match the scalar path
    exactly; only components whose allowed set stays ambiguous take the
    (cheap) per-component tie-break loop.
    """
    space = analysis.space
    store = space.layer_store(analysis.depth)
    components = analysis.components
    ncomp = len(components)
    comp_starts = analysis.comp_starts
    member_inputs = store.input_array()[analysis.member_order]
    input_vectors = space.input_vectors
    domain = spec.domain
    code_of = {value: i for i, value in enumerate(domain)}
    assignment: dict = {}
    allowed_sets: dict[int, frozenset] = {}
    pending: list[int] = []
    if spec.validity == STRONG:
        vec_bits = np.fromiter(
            (
                sum(1 << code_of[v] for v in set(vec) if v in code_of)
                for vec in input_vectors
            ),
            dtype=np.int64,
            count=len(input_vectors),
        )
        allowed_bits = np.bitwise_and.reduceat(
            vec_bits[member_inputs], comp_starts
        )
        for cid in range(ncomp):
            bits = int(allowed_bits[cid])
            component = components[cid]
            if not bits:
                raise AnalysisError(
                    f"component {component.id} admits no decision value "
                    f"(valences {set(component.valences)})"
                )
            if bits & (bits - 1) == 0:
                assignment[component.id] = domain[bits.bit_length() - 1]
            else:
                allowed_sets[cid] = frozenset(
                    value for i, value in enumerate(domain) if bits >> i & 1
                )
                pending.append(cid)
    else:
        full = frozenset(domain)
        for cid in range(ncomp):
            component = components[cid]
            valences = component.valences
            if not valences:
                allowed_sets[cid] = full
                pending.append(cid)
            elif len(valences) == 1:
                assignment[component.id] = next(iter(valences))
            else:
                raise AnalysisError(
                    f"component {component.id} admits no decision value "
                    f"(valences {set(valences)})"
                )
    if pending:
        # Per-process broadcaster folds, computed lazily (at most n of
        # them) and shared by every pending component.
        stats_cache: dict[int, tuple] = {}

        def broadcaster_stats(p: int) -> tuple:
            stats = stats_cache.get(p)
            if stats is None:
                codes = np.empty(len(input_vectors), dtype=np.int64)
                index_of: dict = {}
                uniq_values: list = []
                for i, vec in enumerate(input_vectors):
                    value = vec[p]
                    code = index_of.get(value)
                    if code is None:
                        code = index_of[value] = len(uniq_values)
                        uniq_values.append(value)
                    codes[i] = code
                member_codes = codes[member_inputs]
                stats = stats_cache[p] = (
                    uniq_values,
                    np.minimum.reduceat(member_codes, comp_starts),
                    np.maximum.reduceat(member_codes, comp_starts),
                )
            return stats

        for cid in pending:
            component = components[cid]
            allowed = allowed_sets[cid]
            chosen = _NO_VALUE
            for p in sorted(component.broadcasters):
                uniq_values, lo, hi = broadcaster_stats(p)
                if lo[cid] != hi[cid]:
                    # Non-constant broadcaster: delegate to the member
                    # scan for the exact Theorem 5.9 violation error.
                    component.broadcaster_value(p)
                value = uniq_values[int(lo[cid])]
                if value in allowed:
                    chosen = value
                    break
            if chosen is _NO_VALUE:
                for value in domain:
                    if value in allowed:
                        chosen = value
                        break
            assignment[component.id] = chosen
    return assignment


def _decision_maps_python(
    space, depth, analysis, assignment, value_list, bit_of
) -> tuple[DecisionMap, DecisionMap]:
    """Bottom-up decision maps over the flat layer columns (pure Python).

    The value set of a node is the union over its depth-``t`` descendants,
    pushed through the parent-index columns layer by layer, so the whole
    map costs O(total views) instead of O(nodes * depth).  A single-bit
    value set's bit index is the view's code into ``value_list``.
    """
    n = space.layer_store(depth).levels.n
    comp_bits = [bit_of[assignment[c.id]] for c in analysis.components]
    value_bits = [comp_bits[cid] for cid in analysis.comp_ids]
    possible: dict[int, int] = {}
    possible_get = possible.get
    final_count = 0
    for s in range(depth, -1, -1):
        level_store = space.layer_store(s)
        ids = plain_ids(level_store.levels.ids)
        base = 0
        for bits in value_bits:
            for vid in ids[base : base + n]:
                possible[vid] = possible_get(vid, 0) | bits
            base += n
        if s == depth:
            # Views of different depths are distinct, so the keys so far
            # are the depth-t views: single-valued, and the final map.
            final_count = len(possible)
        if s:
            parent_bits = [0] * len(space.layer_store(s - 1))
            for parent, bits in zip(level_store.parents, value_bits):
                parent_bits[parent] |= bits
            value_bits = parent_bits
    early = {
        view: bits.bit_length() - 1
        for view, bits in possible.items()
        if bits and bits & (bits - 1) == 0
    }
    typecode = _code_typecode(len(value_list))
    final_ids = sorted(islice(possible, final_count))
    final_codes = [possible[view].bit_length() - 1 for view in final_ids]
    early_ids = sorted(early)
    return (
        DecisionMap(array("i", final_ids), array(typecode, final_codes), value_list),
        DecisionMap(
            array("i", early_ids),
            array(typecode, map(early.__getitem__, early_ids)),
            value_list,
        ),
    )


def _decision_maps_numpy(
    np, space, depth, analysis, assignment, value_list, bit_of
) -> tuple[DecisionMap, DecisionMap]:
    """Vectorized decision maps: per layer one scatter-OR over its view ids.

    Each layer's cells OR their prefix's value bits straight into a
    per-view bitmap column over the layer's view-id span, one view column
    at a time (the id minus the smallest lands in one reused int32
    buffer), so no per-cell sort and no cell-sized bit column is built.
    When the span exceeds the layer's cell count — an interner shared
    across spaces — the ids compact through ``np.unique`` first, the rule
    of :func:`~repro.topology.components._view_nodes`.  A layer's decided
    views come out ascending, and views of different depths have distinct
    ids, so the layers concatenate into the early map, sorted once only
    when the runs interleave.  The parent push is a segment OR over the
    (parent-major) parent column.  Bitmaps are uint8 up to 8 values.
    """
    store = space.layer_store(depth)
    bits_dtype = _bits_dtype(np, len(value_list))
    comp_bits = np.array(
        [bit_of[assignment[c.id]] for c in analysis.components], dtype=bits_dtype
    )
    comp_ids = analysis.comp_ids
    if not isinstance(comp_ids, np.ndarray):
        comp_ids = np.array(comp_ids, dtype=np.int64)
    value_bits = comp_bits[comp_ids]
    n = store.levels.n
    final = None
    all_vids: list = []
    all_codes: list = []
    for s in range(depth, -1, -1):
        level_store = space.layer_store(s)
        mat = level_store.levels.array()
        nodes, offset, node_count, node_views = _view_nodes(np, mat)
        view_bits = np.zeros(node_count, dtype=bits_dtype)
        column = np.empty(len(mat), dtype=np.int32)
        for p in range(n):
            np.bitwise_or.at(
                view_bits, _node_column(np, nodes[:, p], offset, column), value_bits
            )
        del nodes, column
        # Single-bit AND nonzero: a view reachable only through dead-end
        # prefixes (a state group with no admissible extensions)
        # accumulates bits 0 and must stay undecided, exactly as on the
        # Python path.
        decided = np.flatnonzero(
            (view_bits != 0) & ((view_bits & (view_bits - 1)) == 0)
        )
        codes = _bit_codes(np, view_bits[decided])
        del view_bits
        if node_views is None:
            decided_vids = (decided + offset).astype(np.int32)
        else:
            decided_vids = node_views[decided].astype(np.int32, copy=False)
        del decided, node_views
        if s == depth:
            # The depth-t views are single-valued by construction; they
            # are exactly the final map.
            final = DecisionMap.from_columns(np, decided_vids, codes, value_list)
        all_vids.append(decided_vids)
        all_codes.append(codes)
        if s:
            parents = level_store.parent_array()
            prev_count = len(space.layer_store(s - 1))
            seg_boundary = np.empty(len(parents), dtype=bool)
            seg_boundary[0] = True
            np.not_equal(parents[1:], parents[:-1], out=seg_boundary[1:])
            seg_starts = np.flatnonzero(seg_boundary)
            seg_parents = parents[seg_starts]
            parent_bits = np.zeros(prev_count, dtype=bits_dtype)
            parent_bits[seg_parents] = np.bitwise_or.reduceat(
                value_bits, seg_starts
            )
            value_bits = parent_bits
    # Shallow layers first: a fresh interner allocates rows depth by
    # depth, so the runs are usually ascending already.
    vids = np.concatenate(all_vids[::-1])
    codes = np.concatenate(all_codes[::-1])
    del all_vids, all_codes
    if len(vids) > 1 and not bool((vids[1:] > vids[:-1]).all()):
        order = np.argsort(vids, kind="stable")
        vids = vids[order]
        codes = codes[order]
        del order
    early = DecisionMap.from_columns(np, vids, codes, value_list)
    return final, early


def _bit_codes(np, bits):
    """Index of the highest set bit per entry, int8 (entries are single-bit)."""
    codes = np.zeros(len(bits), dtype=np.int8)
    shifted = bits >> 1
    while shifted.any():
        nonzero = shifted > 0
        codes[nonzero] += 1
        shifted = shifted >> 1
    return codes
