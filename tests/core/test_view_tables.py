"""Randomized equivalence: array-backed view tables vs the dict interner.

The array-backed :class:`~repro.core.views.ViewInterner` (per-row columns,
interned child-row table, ``(row, owner)`` slot ids) replaced the original
dict-of-tuples storage.  These property tests pin the tables to a
self-contained reimplementation of the dict interner that numbers views
the same way — every leaf its own row, every distinct child set one row,
in first-use order, and a view's id its slot ``rid * n + p`` — checking
identical ids, owners, depths, origin masks, origin values, children, and
stats on randomized construction sequences, plus the table-geometry
stats.  A second property drives leaves, ``node()``, ``extend_level`` and
both layer kernels in random interleavings on one interner against a
structural dict reference, and checks that gap slots (owners a row holds
no view for) are refused by every accessor.
"""

import random
import sys
from contextlib import nullcontext
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from kernels import BACKENDS, without_numpy

import repro.core.views as views_module
from repro.adversaries import lossy_link_full
from repro.core.digraph import Digraph
from repro.core.views import LayerTable, ViewInterner, plain_ids
from repro.errors import AnalysisError
from repro.topology.prefixspace import PrefixSpace

# --------------------------------------------------------------------- #
# Reference implementation: the original dict-keyed interner (tuple-keyed
# table, payload column, eager leaf storage), numbering views by
# (row, owner) slot.  Ids have gaps, so per-view data sits in dicts.
# --------------------------------------------------------------------- #


class DictInterner:
    def __init__(self, n):
        self.n = n
        self._table = {}
        self._rows = {}
        self._row_count = 0
        self._pid = {}
        self._depth = {}
        self._payload = {}
        self._origin_mask = {}
        self._origin_values = {}
        self._leaf_count = 0

    def leaf(self, p, value):
        key = (p, value)
        vid = self._table.get(key)
        if vid is None:
            rid = self._new_row()
            vid = self._store(key, rid, p, 0, value, 1 << p, ((p, value),))
            self._leaf_count += 1
        return vid

    def node(self, p, children):
        kids = tuple(sorted(set(children)))
        key = (~p, kids)
        vid = self._table.get(key)
        if vid is not None:
            return vid
        rid = self._rows.get(kids)
        if rid is None:
            rid = self._rows[kids] = self._new_row()
        depth = self._depth[kids[0]] + 1
        mask = 0
        values = {}
        for c in kids:
            mask |= self._origin_mask[c]
            for q, value in self.origins(c):
                values.setdefault(q, value)
        return self._store(
            key, rid, p, depth, kids, mask,
            tuple(sorted(values.items(), key=lambda kv: kv[0])),
        )

    def leaf_level(self, inputs):
        return tuple(self.leaf(p, value) for p, value in enumerate(inputs))

    def extend_level(self, level, graph):
        out = []
        for p, in_list in enumerate(graph.in_neighbor_lists):
            out.append(self.node(p, [level[q] for q in in_list]))
        return tuple(out)

    def extend_layer(self, levels, graphs):
        return [[self.extend_level(level, g) for level in levels] for g in graphs]

    def origins(self, vid):
        return self._origin_values[vid]

    def _new_row(self):
        self._row_count += 1
        return self._row_count - 1

    def _store(self, key, rid, pid, depth, payload, mask, values):
        vid = rid * self.n + pid
        self._table[key] = vid
        self._pid[vid] = pid
        self._depth[vid] = depth
        self._payload[vid] = payload
        self._origin_mask[vid] = mask
        self._origin_values[vid] = values
        return vid

    def children(self, vid):
        if self._depth[vid] == 0:
            return frozenset()
        return frozenset(self._payload[vid])


# --------------------------------------------------------------------- #
# Strategies: a construction *script* of levels and random extensions
# --------------------------------------------------------------------- #


@st.composite
def construction_scripts(draw, max_n=4):
    n = draw(st.integers(min_value=1, max_value=max_n))
    domain = draw(st.sampled_from([(0, 1), (0, 1, 2), ("a", "b")]))
    vectors = draw(
        st.lists(
            st.tuples(*[st.sampled_from(domain)] * n),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rounds = draw(st.integers(min_value=0, max_value=4))
    alphabet_size = draw(st.integers(min_value=1, max_value=3))
    return n, vectors, seed, rounds, alphabet_size


def _random_graphs(rng, n, count):
    graphs = []
    for _ in range(count):
        edges = [
            (u, v)
            for u in range(n)
            for v in range(n)
            if u != v and rng.random() < 0.5
        ]
        graphs.append(Digraph(n, edges))
    return graphs


def _run_script(interner, script):
    """Drive one interner through a script, returning all produced ids."""
    n, vectors, seed, rounds, alphabet_size = script
    rng = random.Random(seed)
    produced = []
    levels = [interner.leaf_level(vec) for vec in vectors]
    produced.extend(vid for level in levels for vid in level)
    for _ in range(rounds):
        alphabet = _random_graphs(rng, n, alphabet_size)
        nxt = [interner.extend_level(level, g) for level in levels for g in alphabet]
        # The whole-layer path resolves to the same (already interned) views.
        by_graph = interner.extend_layer(levels, alphabet)
        assert [by_graph[j][i] for i in range(len(levels)) for j in range(len(alphabet))] == nxt
        levels = nxt
        produced.extend(vid for level in levels for vid in level)
    return produced


@settings(max_examples=120, deadline=None)
@given(construction_scripts())
def test_ids_and_columns_match_dict_reference(script):
    n = script[0]
    table = ViewInterner(n)
    reference = DictInterner(n)
    got = _run_script(table, script)
    expected = _run_script(reference, script)
    assert got == expected
    assert len(table) == len(reference._pid)
    for vid in sorted(reference._pid):
        assert table.pid(vid) == reference._pid[vid] == vid % n
        assert table.depth(vid) == reference._depth[vid]
        assert table.origin_mask(vid) == reference._origin_mask[vid]
        assert table.children(vid) == reference.children(vid)
        assert table.origins(vid) == reference._origin_values[vid]
    stats = table.stats()
    assert stats.total == len(reference._pid)
    assert stats.leaves == reference._leaf_count
    assert stats.max_depth == max(reference._depth.values(), default=0)
    assert stats.rows == reference._row_count - reference._leaf_count


@settings(max_examples=60, deadline=None)
@given(construction_scripts(), st.integers(min_value=0, max_value=5))
def test_node_api_matches_reference(script, subset_seed):
    """Manual node() construction from level subsets allocates identically."""
    n = script[0]
    table = ViewInterner(n)
    reference = DictInterner(n)
    _run_script(table, script)
    _run_script(reference, script)
    rng = random.Random(subset_seed)
    # Group ids by depth so children share a depth (an interner invariant).
    by_depth = {}
    for vid in sorted(reference._pid):
        by_depth.setdefault(table.depth(vid), []).append(vid)
    for depth, vids in sorted(by_depth.items()):
        # Build a value-consistent child sample (the interner rejects
        # children that disagree on some process's input).
        pool = vids[:]
        rng.shuffle(pool)
        sample: list[int] = []
        merged: dict[int, object] = {}
        for vid in pool:
            origins = dict(table.origins(vid))
            if all(merged.get(q, value) == value for q, value in origins.items()):
                merged.update(origins)
                sample.append(vid)
            if len(sample) >= n:
                break
        p = rng.randrange(n)
        assert table.node(p, sample) == reference.node(p, sample)
        assert len(table) == len(reference._pid)


# --------------------------------------------------------------------- #
# Table-specific behavior
# --------------------------------------------------------------------- #


def test_child_rows_are_interned_once():
    interner = ViewInterner(3)
    level = interner.leaf_level((0, 1, 0))
    complete = Digraph.complete(3)
    a = interner.extend_level(level, complete)
    # All three views of the complete round share one child row.
    rows = {interner.child_row(vid) for vid in a}
    assert len(rows) == 1
    assert interner.stats().rows == 1
    with pytest.raises(AnalysisError):
        interner.child_row(level[0])


def test_stats_report_table_geometry():
    interner = ViewInterner(2)
    stats = interner.stats()
    assert stats.total == stats.leaves == stats.rows == 0
    assert stats.approx_bytes > 0
    level = interner.leaf_level((0, 1))
    interner.extend_level(level, Digraph(2, [(0, 1)]))
    grown = interner.stats()
    assert grown.total == 4
    assert grown.leaves == 2
    assert grown.rows == 2
    assert grown.approx_bytes > stats.approx_bytes


#: Ceiling on ``approx_bytes / total`` for a lossy-full depth-9 space, per
#: kernel backend (per-row columns only: int32 offsets, depths and slots,
#: 32-bit row keys, int8 owner and origin masks, sparse origin values):
#: measured 18.6 B on numpy, 22.5 B on python.
BYTES_PER_VIEW = {"numpy": 23, "python": 28}


@pytest.mark.parametrize("backend", BACKENDS)
def test_views_cost_few_bytes_each(backend):
    space = PrefixSpace(lossy_link_full())
    space.ensure_depth(9)
    interner = space.interner
    stats = interner.stats()
    assert stats.approx_bytes / stats.total < BYTES_PER_VIEW[backend]
    # Kernel-created views hold no origin values until something asks;
    # forced values are held, and the estimate counts them.
    held = len(interner._origin_values)
    assert held == stats.leaves
    for vid in plain_ids(space.layer_store(9).levels.ids)[:64]:
        interner.origins(vid)
    forced = len(interner._origin_values) - held
    assert forced > 64
    grown = interner.stats().approx_bytes - stats.approx_bytes
    assert grown >= forced * sys.getsizeof(())


def test_rejected_node_leaves_no_phantom_row():
    """A node() call that fails validation must not grow the tables."""
    interner = ViewInterner(2)
    level = interner.leaf_level((0, 1))
    deeper = interner.extend_level(level, Digraph(2, [(0, 1)]))
    before = interner.stats()
    with pytest.raises(AnalysisError):
        interner.node(0, [level[0], deeper[0]])  # mixed depths
    with pytest.raises(AnalysisError):
        interner.node(0, [level[0], interner.leaf(0, "other")])  # value clash
    after = interner.stats()
    assert after.rows == before.rows
    assert after.total == before.total + 1  # only the explicit extra leaf


def test_empty_interner_is_falsy_but_adoptable():
    """Regression: PrefixSpace must adopt a shared *empty* interner."""
    from repro.adversaries.lossylink import lossy_link_no_hub
    from repro.topology.prefixspace import PrefixSpace

    interner = ViewInterner(2)
    assert len(interner) == 0 and not interner
    space = PrefixSpace(lossy_link_no_hub(), interner=interner)
    assert space.interner is interner
    space.ensure_depth(2)
    assert len(interner) > 0


# --------------------------------------------------------------------- #
# Slot ids under random interleavings of every interning path
# --------------------------------------------------------------------- #

#: The interning paths a script step can take: a leaf, a node, one level,
#: or one layer-kernel call on each kernel this platform runs.
STEPS = ("leaf", "node", "level") + tuple(BACKENDS)


@st.composite
def interleavings(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    steps = draw(st.lists(st.sampled_from(STEPS), min_size=1, max_size=12))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    return n, steps, seed


class StructuralReference:
    """What each view id must denote, by construction: owner and children.

    Every id any path returns is recorded as ``(owner, frozenset of
    child ids)``, a leaf as ``(owner, ("leaf", value))``; one id per
    structure, one structure per id.  Origins and cones follow
    recursively.
    """

    def __init__(self, n):
        self.n = n
        self.of_vid = {}
        self.vid_of = {}

    def record(self, vid, key):
        assert self.of_vid.setdefault(vid, key) == key
        assert self.vid_of.setdefault(key, vid) == vid

    def depth(self, vid):
        _, kids = self.of_vid[vid]
        return 0 if _is_leaf(kids) else 1 + self.depth(next(iter(kids)))

    def origins(self, vid):
        p, kids = self.of_vid[vid]
        if _is_leaf(kids):
            return ((p, kids[1]),)
        merged = {}
        for child in kids:
            merged.update(self.origins(child))
        return tuple(sorted(merged.items()))

    def cone(self, vid):
        p, kids = self.of_vid[vid]
        depth = self.depth(vid)
        nodes, edges = {(p, depth)}, set()
        if not _is_leaf(kids):
            for child in kids:
                edges.add(((self.of_vid[child][0], depth - 1), (p, depth)))
                child_nodes, child_edges = self.cone(child)
                nodes |= child_nodes
                edges |= child_edges
        return nodes, edges


def _is_leaf(kids):
    return isinstance(kids, tuple)


def _consistent_sample(interner, rng, pool, size):
    """Up to ``size`` same-depth views that agree on every input value."""
    pool = pool[:]
    rng.shuffle(pool)
    sample, merged = [], {}
    for vid in pool:
        origins = dict(interner.origins(vid))
        if all(merged.get(q, value) == value for q, value in origins.items()):
            merged.update(origins)
            sample.append(vid)
        if len(sample) >= size:
            break
    return sample


@settings(max_examples=80, deadline=None)
@given(interleavings())
def test_slot_ids_under_random_interleavings(script):
    n, steps, seed = script
    rng = random.Random(seed)
    interner = ViewInterner(n)
    reference = StructuralReference(n)
    values = (0, 1, "x")
    inputs = [rng.choice(values) for _ in range(n)]
    levels = {0: [interner.leaf_level(inputs)]}
    for p, vid in enumerate(levels[0][0]):
        reference.record(vid, (p, ("leaf", inputs[p])))
    with mock.patch.object(views_module, "_NUMPY_MIN_CELLS", 0):
        for step in steps:
            depth = rng.choice(sorted(levels))
            if step == "leaf":
                p, value = rng.randrange(n), rng.choice(values)
                reference.record(interner.leaf(p, value), (p, ("leaf", value)))
            elif step == "node":
                views = sorted({v for level in levels[depth] for v in level})
                kids = _consistent_sample(interner, rng, views, rng.randint(1, n))
                p = rng.randrange(n)
                reference.record(interner.node(p, kids), (p, frozenset(kids)))
            else:
                parents = rng.sample(levels[depth], min(len(levels[depth]), 3))
                graphs = _random_graphs(rng, n, rng.randint(1, 3))
                if step == "level":
                    children = [
                        interner.extend_level(level, g)
                        for level in parents for g in graphs
                    ]
                else:
                    with without_numpy() if step == "python" else nullcontext():
                        children = list(interner.extend_layer_table(
                            LayerTable.from_levels(n, parents), graphs
                        ))
                it = iter(children)
                for level in parents:
                    for graph in graphs:
                        child = next(it)
                        for p, in_list in enumerate(graph.in_neighbor_lists):
                            kids = frozenset(level[q] for q in in_list)
                            reference.record(child[p], (p, kids))
                levels.setdefault(depth + 1, []).extend(children)
    slots = interner._row_count * n
    owners = interner._row_owners
    views = [v for v in range(slots) if owners[v // n] >> v % n & 1]
    assert len(interner) == len(views) == sum(bin(o).count("1") for o in owners)
    assert sorted(reference.of_vid) == [v for v in views if v in reference.of_vid]
    for vid, (p, kids) in reference.of_vid.items():
        assert interner.pid(vid) == vid % n == p
        assert interner.depth(vid) == reference.depth(vid)
        if _is_leaf(kids):
            assert interner.children(vid) == frozenset()
            assert interner.leaf_value(vid) == kids[1]
        else:
            assert interner.children(vid) == kids
        assert interner.origins(vid) == reference.origins(vid)
        assert interner.cone(vid) == reference.cone(vid)
    # Gap slots and ids outside the slot range name no view: every
    # accessor refuses them instead of answering for another owner.
    gaps = [v for v in range(slots) if v not in set(views)]
    for vid in gaps[:20] + [-1, slots, slots + n]:
        for accessor in (
            interner.pid,
            interner.depth,
            interner.children,
            interner.origin_mask,
            interner.origins,
            interner.cone,
        ):
            with pytest.raises(AnalysisError, match="no view"):
                accessor(vid)
