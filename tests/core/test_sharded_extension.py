"""Row partitioning never changes the serial numpy kernel's output.

The sharded shared-memory extension path is gone, but the property that
made it bit-identical to the serial kernel is still what fixes view-id
numbering: ``_unique_rows`` returns distinct candidate rows in
*lexicographic* order, an order that depends only on the row set.  So
deduplicating any row partition shard by shard and then re-uniquing the
union of the per-shard distinct rows — the old map/merge dedup — must give
the very same rows and inverse as one dedup of the whole layer, and a
prefix space built through that map/merge must match the serial build
bit for bit: same view ids, same row arena, same hashes, for any shard
count.  These tests run that map/merge in process (:class:`ShardedDedup`
stands in for ``_unique_rows``), and pin what the removal left behind:
legacy ``extension_workers`` keys load and change nothing, and the kernel
fails loudly, without a fallback path.

Layers in these tests are tiny, so the fixture drops the batching floors;
every sharded build asserts that the map/merge split at least one layer,
so a dedup that never ran cannot fake a pass.
"""

import multiprocessing
import random
import warnings
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from kernels import without_numpy

import repro.core.views as views_module
from repro.adversaries import (
    ObliviousAdversary,
    lossy_link_full,
    lossy_link_no_hub,
    lossy_link_with_silence,
    out_star_set,
    random_oblivious_adversary,
    santoro_widmayer_family,
)
from repro.adversaries.stabilizing import StabilizingAdversary
from repro.consensus.solvability import (
    CheckOptions,
    check_consensus_with_options,
)
from repro.core.digraph import arrow
from repro.core.views import ViewInterner, numpy_available, numpy_module
from repro.errors import AnalysisError
from repro.topology.prefixspace import PrefixSpace

pytestmark = pytest.mark.skipif(
    not numpy_available(), reason="the numpy layer kernel requires numpy"
)

#: The interner columns that define its complete extension state, with
#: the bytes per element each is stored at.  View ids are ``(row, owner)``
#: slots, so every column is per row: owner and origin masks int8 (the
#: n <= 7 spaces here), depths, ids and offsets int32, row keys 32-bit.
STATE_COLUMNS = {
    "_row_owners": 1,
    "_row_depth": 4,
    "_row_masks": 1,
    "_row_data": 4,
    "_row_starts": 4,
    "_row_hashes": 4,
}

#: The environment cap that bounded the removed extension workers.
WORKER_CAP_ENV = "REPRO_MAX_EXTENSION_WORKERS"

#: The kernel's own dedup, captured before any test patches it.
SERIAL_UNIQUE_ROWS = views_module._unique_rows

np = numpy_module()


@pytest.fixture(autouse=True)
def shard_even_tiny_layers(monkeypatch):
    """Drop the numpy floor so test-sized layers take the numpy kernel."""
    monkeypatch.setattr(views_module, "_NUMPY_MIN_CELLS", 0)


class ShardedDedup:
    """``_unique_rows`` as a map/merge over ``workers`` contiguous row shards.

    Each shard is deduplicated on its own, the union of the per-shard
    distinct rows is deduplicated again, and each shard's inverse is
    composed through the union's inverse.  ``sharded`` counts the calls
    that really split the rows into more than one shard.
    """

    def __init__(self, workers):
        self.workers = workers
        self.calls = 0
        self.sharded = 0

    def __call__(self, np, cand):
        self.calls += 1
        shards = [s for s in np.array_split(cand, self.workers) if len(s)]
        if len(shards) > 1:
            self.sharded += 1
        parts = [SERIAL_UNIQUE_ROWS(np, np.ascontiguousarray(s)) for s in shards]
        union = np.ascontiguousarray(np.concatenate([uniq for uniq, _ in parts]))
        uniq, union_inv = SERIAL_UNIQUE_ROWS(np, union)
        union_inv = union_inv.reshape(-1)
        inverses, offset = [], 0
        for part_uniq, part_inv in parts:
            inverses.append(union_inv[offset + part_inv.reshape(-1)])
            offset += len(part_uniq)
        return uniq, np.concatenate(inverses)


def interner_state(interner):
    """Every state column by value, widths checked on the way.

    Plain ints compare equal whatever width held them, so two states match
    exactly when an int64 copy of every column would.
    """
    state = {}
    for name, width in STATE_COLUMNS.items():
        column = getattr(interner, name)
        assert column.itemsize == width, name
        state[name] = list(column)
    return state


def layer_ids(space, depth):
    return [list(space.layer_store(d).levels.ids) for d in range(depth + 1)]


def build_space(adversary, workers, depth, **kwargs):
    """Build to ``depth`` on the numpy kernel; ``workers > 1`` runs every
    layer's dedup through a :class:`ShardedDedup` of that many shards."""
    dedup = ShardedDedup(workers)
    with mock.patch.object(views_module, "_unique_rows", dedup):
        space = PrefixSpace(adversary, **kwargs)
        space.ensure_depth(depth)
    return space, dedup


def build_serial(adversary, depth, **kwargs):
    space = PrefixSpace(adversary, **kwargs)
    space.ensure_depth(depth)
    return space


FAMILIES = [
    ("lossy-link-full", lossy_link_full, 6),
    ("lossy-link-no-hub", lossy_link_no_hub, 6),
    ("lossy-link-silence", lossy_link_with_silence, 5),
    ("santoro-widmayer", lambda: santoro_widmayer_family(3, 1), 4),
    (
        "oblivious-stars",
        lambda: ObliviousAdversary(3, out_star_set(3)),
        4,
    ),
]


@pytest.mark.parametrize("workers", [2, 4])
@pytest.mark.parametrize(
    "family", [f[0] for f in FAMILIES], ids=[f[0] for f in FAMILIES]
)
def test_sharded_is_bit_identical_to_serial(family, workers):
    name, factory, depth = next(f for f in FAMILIES if f[0] == family)
    serial = build_serial(factory(), depth)
    sharded, dedup = build_space(factory(), workers, depth)
    assert dedup.sharded > 0
    assert interner_state(sharded.interner) == interner_state(serial.interner)
    assert layer_ids(sharded, depth) == layer_ids(serial, depth)


def test_merge_determinism_across_shard_counts():
    # Same layers, different shard counts -> identical interner state.
    states = {1: interner_state(build_serial(lossy_link_full(), 6).interner)}
    for workers in (2, 3, 4):
        space, dedup = build_space(lossy_link_full(), workers, 6)
        assert dedup.sharded > 0
        states[workers] = interner_state(space.interner)
    assert states[1] == states[2] == states[3] == states[4]


def test_sharded_multi_state_grouped_layers():
    # Stabilizing adversaries extend grouped sub-layers; the map/merge
    # must compose with the grouped path too.
    TO, FRO = arrow("->"), arrow("<-")
    factory = lambda: StabilizingAdversary(2, (TO, FRO), window=2)
    serial = build_serial(factory(), 5)
    sharded, dedup = build_space(factory(), 3, 5)
    assert dedup.sharded > 0
    assert interner_state(sharded.interner) == interner_state(serial.interner)


def test_sharded_frontier_retention():
    serial = build_serial(lossy_link_full(), 6, retain="frontier")
    sharded, dedup = build_space(lossy_link_full(), 4, 6, retain="frontier")
    assert dedup.sharded > 0
    assert list(sharded.layer_store(6).levels.ids) == list(
        serial.layer_store(6).levels.ids
    )
    # Condensed layers keep int32 parents and int8 input indices (n=2 has
    # four assignments), equal by value to an int64 reference.
    full = build_serial(lossy_link_full(), 6)
    for t in range(7):
        kept = sharded._stores[t]
        assert kept.condensed == (t < 6)
        reference = full.layer_store(t)
        for name, width in (("parents", 4), ("input_idx", 1)):
            column = getattr(kept, name)
            assert column.itemsize == width, (t, name)
            expected = np.asarray(getattr(reference, name), dtype=np.int64)
            assert np.array_equal(np.asarray(column, dtype=np.int64), expected)
        assert kept.parent_array().dtype == np.int32
        assert kept.input_array().dtype == np.int8


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    size=st.integers(min_value=1, max_value=4),
    workers=st.sampled_from([2, 3, 4]),
)
def test_sharded_matches_serial_on_random_oblivious(seed, size, workers):
    rng = random.Random(seed)
    adversary = random_oblivious_adversary(rng, 3, size=size)
    serial = build_serial(adversary, 4)
    sharded, _ = build_space(adversary, workers, 4)
    assert interner_state(sharded.interner) == interner_state(serial.interner)
    assert list(sharded.layer_store(4).levels.ids) == list(
        serial.layer_store(4).levels.ids
    )


def canonical_level(interner, vid, cache):
    """Structural identity of a view, independent of id numbering."""
    known = cache.get(vid)
    if known is not None:
        return known
    if interner.depth(vid) == 0:
        result = (interner.pid(vid), ("leaf", interner.leaf_value(vid)))
    else:
        result = (
            interner.pid(vid),
            tuple(
                sorted(
                    canonical_level(interner, kid, cache)
                    for kid in interner.children(vid)
                )
            ),
        )
    cache[vid] = result
    return result


def test_sharded_structurally_matches_python_backend():
    depth = 5
    sharded, dedup = build_space(lossy_link_no_hub(), 4, depth)
    with without_numpy():
        python_space = PrefixSpace(lossy_link_no_hub())
        python_space.ensure_depth(depth)
    assert dedup.sharded > 0
    cache_a, cache_b = {}, {}
    for d in range(depth + 1):
        level_a = [
            canonical_level(sharded.interner, int(vid), cache_a)
            for vid in sharded.layer_store(d).levels.ids
        ]
        level_b = [
            canonical_level(python_space.interner, int(vid), cache_b)
            for vid in python_space.layer_store(d).levels.ids
        ]
        assert level_a == level_b


@pytest.mark.parametrize("workers", [2, 4])
def test_decision_tables_identical_under_sharding(workers):
    # A request that still names the removed knob runs the same check.
    options = CheckOptions(max_depth=5, use_impossibility_provers=False)
    legacy = CheckOptions.from_dict(
        dict(options.to_dict(), extension_workers=workers)
    )
    assert legacy == options
    serial = check_consensus_with_options(
        santoro_widmayer_family(3, 1), options
    )
    dedup = ShardedDedup(workers)
    with mock.patch.object(views_module, "_unique_rows", dedup):
        sharded = check_consensus_with_options(
            santoro_widmayer_family(3, 1), legacy
        )
    assert dedup.sharded > 0
    assert sharded.status == serial.status
    assert sharded.certified_depth == serial.certified_depth
    if serial.decision_table is not None:
        assert sharded.decision_table.assignment == serial.decision_table.assignment
        assert sharded.decision_table.final == serial.decision_table.final
        assert sharded.decision_table.early == serial.decision_table.early


# --------------------------------------------------------------------- #
# The map/merge identity on the dedup primitive itself
# --------------------------------------------------------------------- #


def test_map_layer_shards_matches_serial_dedup():
    rng = np.random.default_rng(7)
    # (rows, width, id bound): one-column keys, packed int64 keys, and
    # rows too wide to pack, which dedup through np.unique(axis=0).
    for count, k, bound in ((64, 1, 50), (1000, 4, 50), (333, 2, 50), (500, 4, 2**20)):
        matrix = rng.integers(0, bound, size=(count, k), dtype=np.int64)
        matrix.sort(axis=1)
        matrix = np.ascontiguousarray(matrix)
        ref_uniq, ref_inv = SERIAL_UNIQUE_ROWS(np, matrix)
        rows = [tuple(row) for row in ref_uniq.tolist()]
        assert rows == sorted(set(rows))
        assert (ref_uniq[ref_inv.reshape(-1)] == matrix).all()
        for workers in (2, 3, 7):
            dedup = ShardedDedup(workers)
            uniq, inv = dedup(np, matrix)
            assert dedup.sharded == 1
            assert (uniq == ref_uniq).all()
            assert (inv == ref_inv.reshape(-1)).all()


# --------------------------------------------------------------------- #
# What the removed knob and its guards leave behind
# --------------------------------------------------------------------- #


def test_worker_knob_validation():
    with pytest.raises(AnalysisError):
        CheckOptions.from_dict({"extension_workers": 0})
    with pytest.raises(AnalysisError):
        CheckOptions.from_dict({"extension_workers": "2"})
    assert CheckOptions.from_dict({"extension_workers": 2}) == CheckOptions()
    with pytest.raises(TypeError):
        ViewInterner(2, extension_workers=2)


def test_env_cap_clamps_to_serial(monkeypatch):
    # The kernel reads no worker cap: with the old variable set, a build
    # is literally the serial build, and nothing forks.
    monkeypatch.setenv(WORKER_CAP_ENV, "1")
    space = build_serial(lossy_link_full(), 5)
    assert multiprocessing.active_children() == []
    monkeypatch.delenv(WORKER_CAP_ENV)
    serial = build_serial(lossy_link_full(), 5)
    assert interner_state(space.interner) == interner_state(serial.interner)


def test_env_cap_ignores_garbage(monkeypatch):
    monkeypatch.setenv(WORKER_CAP_ENV, "not-a-number")
    sharded, dedup = build_space(lossy_link_full(), 2, 5)
    assert dedup.sharded > 0
    monkeypatch.delenv(WORKER_CAP_ENV)
    serial = build_serial(lossy_link_full(), 5)
    assert interner_state(sharded.interner) == interner_state(serial.interner)


def test_cells_floor_falls_back_to_serial(monkeypatch):
    # Below the numpy floor, layers take the batched pure-Python path:
    # the numpy dedup never runs, and the views are the same structure.
    monkeypatch.setattr(views_module, "_NUMPY_MIN_CELLS", 10**9)
    space, dedup = build_space(lossy_link_full(), 4, 5)
    assert dedup.calls == 0
    monkeypatch.setattr(views_module, "_NUMPY_MIN_CELLS", 0)
    serial = build_serial(lossy_link_full(), 5)
    assert len(space.interner) == len(serial.interner)
    cache_a, cache_b = {}, {}
    for d in range(6):
        assert [
            canonical_level(space.interner, int(vid), cache_a)
            for vid in space.layer_store(d).levels.ids
        ] == [
            canonical_level(serial.interner, int(vid), cache_b)
            for vid in serial.layer_store(d).levels.ids
        ]


def test_workers_flow_through_check_options():
    # Manifests written while the field existed load to the same options.
    options = CheckOptions.from_dict({"max_depth": 4, "extension_workers": 3})
    assert options == CheckOptions(max_depth=4)
    assert "extension_workers" not in options.to_dict()
    assert CheckOptions.from_dict(options.to_dict()) == options


def test_serial_worker_count_never_dispatches():
    space, dedup = build_space(lossy_link_full(), 1, 6)
    assert dedup.calls > 0
    assert dedup.sharded == 0
    assert multiprocessing.active_children() == []
    serial = build_serial(lossy_link_full(), 6)
    assert interner_state(space.interner) == interner_state(serial.interner)


def test_poisoned_pool_falls_back_loudly_and_correctly():
    # There is no fallback path left to hide a failure: an error in the
    # dedup step surfaces as itself, without a warning, and a fresh build
    # afterwards is the exact serial build.
    def poisoned(np, cand):
        raise RuntimeError("dedup lost (injected)")

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with mock.patch.object(views_module, "_unique_rows", poisoned):
            with pytest.raises(RuntimeError, match="dedup lost"):
                build_serial(lossy_link_full(), 5)
    again = build_serial(lossy_link_full(), 5)
    serial = build_serial(lossy_link_full(), 5)
    assert interner_state(again.interner) == interner_state(serial.interner)
    assert layer_ids(again, 5) == layer_ids(serial, 5)


def test_healthy_run_reports_zero_fallbacks():
    space = build_serial(lossy_link_full(), 5)
    stats = space.interner.stats()
    assert stats.total == len(space.interner)
    assert not hasattr(stats, "mp_fallbacks")
    assert "mp_fallbacks" not in repr(stats)
