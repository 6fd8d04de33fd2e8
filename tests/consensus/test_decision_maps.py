"""Columnar decision maps against the per-view dict loop they replaced.

``DecisionTable.final`` and ``.early`` used to be dicts filled view by view;
both backends now build one read-only ``DecisionMap`` (a sorted int32 id
column, narrow value codes and the value palette).  The old loop is kept
below as the reference.  For every named family on both backends, at
every depth up to a size cap, the maps must hold exactly the reference's
entries — under the checker's own assignment where a table certifies,
and under a synthetic two-valued assignment everywhere else, so families
without a decision table still exercise the bottom-up fold.  Absent ids
(negative, past the interner's slot range, gap slots and interned but
undecided views) must miss through ``get``, ``in``, ``[]`` and
``decision_for_view``.
"""

from __future__ import annotations

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from kernels import BACKENDS

import repro.consensus.decision as decision_module
from repro.adversaries import random_oblivious_adversary, santoro_widmayer_family
from repro.adversaries.generators import random_rooted_family
from repro.consensus.decision import (
    DecisionMap,
    DecisionTable,
    _decision_maps_numpy,
    _decision_maps_python,
    build_decision_table,
)
from repro.consensus.spec import ConsensusSpec
from repro.core.inputs import all_assignments
from repro.core.views import ViewInterner, numpy_available, numpy_module, plain_ids
from repro.errors import AnalysisError, CertificateError
from repro.specs import NAMED_ADVERSARIES
from repro.topology.components import ComponentAnalysis
from repro.topology.prefixspace import PrefixSpace

#: Depths stop once a layer holds this many (prefix, process) cells.
MAX_CELLS = 20_000


def reference_maps(space, depth, analysis, assignment):
    """The old per-view loop: ``final`` and ``early`` as plain dicts."""
    value_list = sorted(set(assignment.values()), key=repr)
    bit_of = {value: 1 << i for i, value in enumerate(value_list)}
    store = space.layer_store(depth)
    n = store.levels.n
    comp_bits = [bit_of[assignment[c.id]] for c in analysis.components]
    value_bits = [comp_bits[cid] for cid in plain_ids(analysis.comp_ids)]
    final = {}
    ids = plain_ids(store.levels.ids)
    for index, bits in enumerate(value_bits):
        for vid in ids[index * n : (index + 1) * n]:
            final[vid] = value_list[bits.bit_length() - 1]
    possible: dict[int, int] = {}
    for s in range(depth, -1, -1):
        level_store = space.layer_store(s)
        ids = plain_ids(level_store.levels.ids)
        for index, bits in enumerate(value_bits):
            for vid in ids[index * n : (index + 1) * n]:
                possible[vid] = possible.get(vid, 0) | bits
        if s:
            parents = plain_ids(level_store.parents)
            parent_bits = [0] * len(space.layer_store(s - 1))
            for index, bits in enumerate(value_bits):
                parent_bits[parents[index]] |= bits
            value_bits = parent_bits
    early = {
        view: value_list[bits.bit_length() - 1]
        for view, bits in possible.items()
        if bits and bits & (bits - 1) == 0
    }
    return final, early, value_list, bit_of


def build_maps(backend, space, depth, analysis, assignment):
    """Both maps from the given backend's builder, plus the reference."""
    final, early, value_list, bit_of = reference_maps(
        space, depth, analysis, assignment
    )
    args = (space, depth, analysis, assignment, value_list, bit_of)
    if backend == "numpy":
        maps = _decision_maps_numpy(numpy_module(), *args)
    else:
        maps = _decision_maps_python(*args)
    return maps, (final, early)


def assert_map_matches(got, expected) -> None:
    assert isinstance(got, DecisionMap)
    assert got.ids.typecode == "i" and got.codes.typecode == "b"
    assert list(got.ids) == sorted(expected)
    assert dict(got.items()) == expected
    assert list(got) == sorted(expected)
    assert list(got.values()) == [expected[v] for v in sorted(expected)]
    assert got == expected and len(got) == len(expected)
    for vid, value in list(expected.items())[:200]:
        assert vid in got and got[vid] == value and got.get(vid) == value
    with pytest.raises(TypeError):
        got[next(iter(expected), 0)] = None  # read-only


def assert_misses(table, space) -> None:
    """Ids past the slot range, gap slots and undecided views all miss.

    View ids are ``(row, owner)`` slots, so the id range is ``rows * n``
    and holds gaps (owners a row has no view for), not ``len(interner)``.
    """
    interner = space.interner
    n = interner.n
    bound = interner._row_count * n
    undecided = [v for v in range(bound) if v not in table.early]
    gaps = [v for v in undecided if not interner._row_owners[v // n] >> v % n & 1]
    views = [v for v in undecided if interner._row_owners[v // n] >> v % n & 1]
    for vid in [-1, bound, bound + 1000, 2**40] + gaps[:25] + views[:25]:
        for mapping in (table.final, table.early):
            assert vid not in mapping
            assert mapping.get(vid) is None
            assert mapping.get(vid, "default") == "default"
            with pytest.raises(KeyError):
                mapping[vid]
        assert table.decision_for_view(vid) is None


def check_space(space, backend, depths, spec) -> int:
    """Compare every depth's maps with the reference; count real tables."""
    certified = 0
    for depth in depths:
        try:
            analysis = ComponentAnalysis(space, depth)
        except AnalysisError:
            break
        # Synthetic two-valued assignment: any assignment has well-defined
        # maps, certified or not.
        synthetic = {c.id: c.id % 2 for c in analysis.components}
        (final, early), (ref_final, ref_early) = build_maps(
            backend, space, depth, analysis, synthetic
        )
        assert_map_matches(final, ref_final)
        assert_map_matches(early, ref_early)
        table = DecisionTable(space, depth, spec, synthetic, final, early)
        assert_misses(table, space)
        if all(spec.allowed_values(c) for c in analysis.components):
            table = build_decision_table(analysis, spec)
            ref_final, ref_early, _, _ = reference_maps(
                space, depth, analysis, table.assignment
            )
            assert_map_matches(table.final, ref_final)
            assert_map_matches(table.early, ref_early)
            for vid, value in list(ref_early.items())[:200]:
                assert table.decision_for_view(vid) == value
            assert_misses(table, space)
            certified += 1
        if len(space.layer_store(depth)) * space.adversary.n > MAX_CELLS:
            break
    return certified


@pytest.fixture(autouse=True)
def vectorized_small_layers(monkeypatch):
    """Let the numpy maps run (and validate) on test-sized layers."""
    import repro.consensus.decision as decision_module

    monkeypatch.setattr(decision_module, "_DECISION_NUMPY_MIN_CELLS", 0)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(NAMED_ADVERSARIES))
def test_named_family_maps_match_reference(name, backend):
    space = PrefixSpace(NAMED_ADVERSARIES[name]())
    check_space(space, backend, range(8), ConsensusSpec())


@pytest.mark.parametrize("backend", BACKENDS)
def test_certified_families_build_tables(backend):
    """The solvable named families certify and match through the builder."""
    certified = {
        name: check_space(
            PrefixSpace(NAMED_ADVERSARIES[name]()),
            backend,
            range(6),
            ConsensusSpec(),
        )
        for name in ("no-hub", "to-and-both", "only-to", "eventually-to")
    }
    assert all(certified.values()), certified


@pytest.mark.parametrize("backend", BACKENDS)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    n=st.integers(min_value=2, max_value=3),
    size=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=20, deadline=None)
def test_random_oblivious_maps_match_reference(backend, seed, n, size):
    adversary = random_oblivious_adversary(random.Random(seed), n, size)
    space = PrefixSpace(adversary)
    check_space(space, backend, range(4 if n == 2 else 3), ConsensusSpec())


@pytest.mark.parametrize("backend", BACKENDS)
def test_validate_reads_the_map_columns(backend):
    """A tampered column fails validation on the backend's own path."""
    space = PrefixSpace(NAMED_ADVERSARIES["no-hub"]())
    table = build_decision_table(ComponentAnalysis(space, 3), ConsensusSpec())
    final, early = table.final, table.early

    def tampered(final=final, early=early):
        return DecisionTable(
            space, table.depth, table.spec, table.assignment, final, early
        )

    flipped = DecisionMap(final.ids, final.codes[:], final.palette)
    flipped.codes[0] = 1 - flipped.codes[0]
    with pytest.raises(CertificateError, match="early/final"):
        tampered(final=flipped).validate()
    dropped = DecisionMap(early.ids[:], early.codes[:], early.palette)
    index = early.ids.index(final.ids[0])
    del dropped.ids[index], dropped.codes[index]
    with pytest.raises(CertificateError, match="termination"):
        tampered(early=dropped).validate()
    tampered().validate()


@pytest.mark.skipif(not numpy_available(), reason="the np.unique path is numpy's")
def test_shared_interner_maps_compact_spread_ids(monkeypatch):
    """A sweep shard's later spaces hold ids spread over every earlier
    space's rows: layers whose id span passes their cell count compact
    through ``np.unique`` before the scatter-OR, and still match the
    reference."""
    family = random_rooted_family(random.Random(3), 4, 12)
    interner = ViewInterner(4)
    for adversary in family[:-1]:
        PrefixSpace(adversary, interner=interner).ensure_depth(3)
    space = PrefixSpace(family[-1], interner=interner)
    seen = []
    view_nodes = decision_module._view_nodes

    def spy(np, mat):
        nodes, offset, node_count, node_views = view_nodes(np, mat)
        span = int(mat.max()) - int(mat.min()) + 1
        seen.append((mat.size, span, node_views is not None))
        return nodes, offset, node_count, node_views

    monkeypatch.setattr(decision_module, "_view_nodes", spy)
    check_space(space, "numpy", range(4), ConsensusSpec())
    assert any(compacted for _, _, compacted in seen)
    assert all(compacted == (span > cells) for cells, span, compacted in seen)


def test_validate_allocates_by_the_layer_not_the_largest_id():
    """Validation scatters early decisions over the layer's id span only.

    After a 547,614-view SW(3,2) space on a shared interner, a 216-cell
    n=3 layer of fresh views sits at ids past 700,000; a code column
    sized by the largest id would take about 0.7 MB.
    """
    interner = ViewInterner(3)
    PrefixSpace(
        santoro_widmayer_family(3, 2), interner=interner, retain="frontier"
    ).ensure_depth(4)
    assert len(interner) == 547_614
    space = PrefixSpace(
        NAMED_ADVERSARIES["stars-n3"](),
        interner=interner,
        input_vectors=all_assignments(3, (2, 3)),
    )
    table = build_decision_table(ComponentAnalysis(space, 2), ConsensusSpec())
    ids = plain_ids(space.layer_store(2).levels.ids)
    assert len(ids) == 216 and min(ids) > 500_000
    tracemalloc.start()
    try:
        table.validate()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 24 * 1024
