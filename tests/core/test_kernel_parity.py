"""What fixes the layer kernels' output, pinned directly.

Three properties that outlived the sharded extension path:

* both kernels intern the same views: every layer of every family has the
  same structure, and the interners the same view and row counts, whatever
  ids each kernel hands out;
* the numpy kernel's numbering is fixed by ``_unique_rows``, which returns
  the distinct candidate rows in lexicographic order — an order of the row
  set alone — and the kernel interns each in-neighborhood's fresh rows in
  exactly that order, so two numpy builds agree column for column;
* the removed ``extension_workers`` knob still loads from old options and
  its environment cap is ignored: neither changes a build or a verdict.

Layers in these tests are tiny, so the fixture drops the batching floors.
"""

import pytest
from kernels import without_numpy

import repro.core.views as views_module
from repro.adversaries import (
    ObliviousAdversary,
    lossy_link_full,
    lossy_link_no_hub,
    lossy_link_with_silence,
    out_star_set,
    santoro_widmayer_family,
)
from repro.adversaries.stabilizing import StabilizingAdversary
from repro.consensus.solvability import CheckOptions, check_consensus_with_options
from repro.core.digraph import arrow
from repro.core.views import ViewInterner, numpy_available, numpy_module
from repro.errors import AnalysisError
from repro.specs import NAMED_ADVERSARIES
from repro.topology.prefixspace import PrefixSpace

needs_numpy = pytest.mark.skipif(not numpy_available(), reason="needs numpy")

FAMILIES = {
    "lossy-link-full": (lossy_link_full, 6),
    "lossy-link-no-hub": (lossy_link_no_hub, 6),
    "lossy-link-silence": (lossy_link_with_silence, 5),
    "santoro-widmayer": (lambda: santoro_widmayer_family(3, 1), 4),
    "oblivious-stars": (lambda: ObliviousAdversary(3, out_star_set(3)), 4),
    "stabilizing": (
        lambda: StabilizingAdversary(2, (arrow("->"), arrow("<-")), window=2),
        5,
    ),
    # Several state groups per layer, each with its own alphabet: one
    # ragged kernel call per depth.
    "eventually-to-full-base": (NAMED_ADVERSARIES["eventually-to-full-base"], 6),
}

#: Every column of an interner's state.
STATE_COLUMNS = (
    "_row_owners",
    "_row_depth",
    "_row_masks",
    "_row_data",
    "_row_starts",
    "_row_hashes",
    "_row_slots",
)


@pytest.fixture(autouse=True)
def kernels_on_tiny_layers(monkeypatch):
    monkeypatch.setattr(views_module, "_NUMPY_MIN_CELLS", 0)


def structure(interner, vid, cache):
    """A view as its owner plus its children's structures (or its input)."""
    known = cache.get(vid)
    if known is None:
        if interner.depth(vid) == 0:
            known = (interner.pid(vid), ("leaf", interner.leaf_value(vid)))
        else:
            kids = interner.children(vid)
            known = (
                interner.pid(vid),
                tuple(sorted(structure(interner, k, cache) for k in kids)),
            )
        cache[vid] = known
    return known


def layer_structures(space, depth):
    cache = {}
    return [
        [structure(space.interner, int(vid), cache) for vid in layer_ids(space, t)]
        for t in range(depth + 1)
    ]


def layer_ids(space, t):
    return list(space.layer_store(t).levels.ids)


def state(interner):
    return {name: list(getattr(interner, name)) for name in STATE_COLUMNS}


@needs_numpy
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_backends_build_the_same_view_structure(family):
    factory, depth = FAMILIES[family]
    with without_numpy():
        python = PrefixSpace(factory())
        python.ensure_depth(depth)
    numpy = PrefixSpace(factory())
    numpy.ensure_depth(depth)
    assert layer_structures(python, depth) == layer_structures(numpy, depth)
    assert len(python.interner) == len(numpy.interner)
    assert python.interner.stats().rows == numpy.interner.stats().rows


@needs_numpy
def test_unique_rows_returns_lexicographic_rows():
    np = numpy_module()
    rng = np.random.default_rng(7)
    # (rows, width, id bound): one-column keys, packed int64 keys, and
    # rows too wide to pack, which dedup through np.unique(axis=0).
    for count, k, bound in ((64, 1, 50), (1000, 4, 50), (333, 2, 50), (500, 4, 2**20)):
        matrix = rng.integers(0, bound, size=(count, k), dtype=np.int64)
        matrix.sort(axis=1)
        uniq, inv = views_module._unique_rows(np, np.ascontiguousarray(matrix))
        rows = [tuple(row) for row in uniq.tolist()]
        assert rows == sorted(set(map(tuple, matrix.tolist())))
        assert (uniq[inv.reshape(-1)] == matrix).all()


@needs_numpy
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_numpy_kernel_interns_fresh_rows_in_lexicographic_order(family):
    """Each in-neighborhood's fresh rows get consecutive ids in
    ``_unique_rows`` order, so the numbering depends on the row sets only:
    a second build matches the first column for column."""
    factory, depth = FAMILIES[family]
    fresh_counts = []
    intern = views_module.ViewInterner._intern_rows_numpy

    def logged(self, np, uniq, hashes, k, row_depth, probe):
        before = self._row_count
        rids = intern(self, np, uniq, hashes, k, row_depth, probe)
        rows = uniq.tolist()
        assert rows == sorted(rows)  # _unique_rows order
        fresh = [rid for rid in rids.tolist() if rid >= before]
        assert fresh == list(range(before, self._row_count))
        fresh_counts.append(len(fresh))
        return rids

    spaces = []
    for _ in range(2):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(views_module.ViewInterner, "_intern_rows_numpy", logged)
            space = PrefixSpace(factory())
            space.ensure_depth(depth)
        spaces.append(space)
    assert max(fresh_counts) > 1
    first, second = spaces
    assert state(first.interner) == state(second.interner)
    for t in range(depth + 1):
        assert layer_ids(first, t) == layer_ids(second, t)


def test_legacy_extension_workers_keys_load_and_change_nothing(monkeypatch):
    for workers in (1, 2, 3):
        legacy = CheckOptions.from_dict({"max_depth": 5, "extension_workers": workers})
        assert legacy == CheckOptions(max_depth=5)
        assert "extension_workers" not in legacy.to_dict()
    for bad in (0, "2"):
        with pytest.raises(AnalysisError):
            CheckOptions.from_dict({"extension_workers": bad})
    with pytest.raises(TypeError):
        ViewInterner(2, extension_workers=2)
    options = CheckOptions(max_depth=5, use_impossibility_provers=False)
    plain = check_consensus_with_options(santoro_widmayer_family(3, 1), options)
    # The old environment cap is not read: same build, same verdict.
    monkeypatch.setenv("REPRO_MAX_EXTENSION_WORKERS", "not-a-number")
    legacy = CheckOptions.from_dict(dict(options.to_dict(), extension_workers=4))
    again = check_consensus_with_options(santoro_widmayer_family(3, 1), legacy)
    assert (again.status, again.certified_depth) == (plain.status, plain.certified_depth)
    if plain.decision_table is not None:
        assert again.decision_table.assignment == plain.decision_table.assignment
        assert again.decision_table.final == plain.decision_table.final
        assert again.decision_table.early == plain.decision_table.early
    space = PrefixSpace(lossy_link_full())
    space.ensure_depth(5)
    monkeypatch.delenv("REPRO_MAX_EXTENSION_WORKERS")
    fresh = PrefixSpace(lossy_link_full())
    fresh.ensure_depth(5)
    assert state(space.interner) == state(fresh.interner)
