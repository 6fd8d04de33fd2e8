"""The bounded per-alphabet extension-plan LRU.

Plans are pure functions of the graphs-tuple, so the cap must be purely a
memory/speed trade: evicting and recomputing a plan can never change which
views are interned or in what order.  These tests pin that invariant, the
LRU mechanics (recency, eviction, stats reporting), and that the cap
reaches every interner a ``Session`` or ``PrefixSpace`` creates.  The
capacity is the module constant ``DEFAULT_PLAN_CACHE_SIZE``, read at
eviction time, so the tests shrink it with ``monkeypatch``; the removed
``plan_cache_size`` knob survives only as a legacy options key.
"""

import pytest

import repro.core.views as views_module
from repro.adversaries.lossylink import (
    lossy_link_full,
    lossy_link_no_hub,
    lossy_link_with_silence,
)
from repro.api import CheckOptions, Session
from repro.core.digraph import Digraph
from repro.core.views import (
    DEFAULT_PLAN_CACHE_SIZE,
    ViewInterner,
)
from repro.errors import AnalysisError
from repro.topology.prefixspace import PrefixSpace


def _alphabets(n, count):
    """``count`` distinct small alphabets over ``n`` processes."""
    graphs = []
    for u in range(n):
        for v in range(n):
            if u != v:
                graphs.append(Digraph(n, [(u, v)]))
    complete = Digraph.complete(n)
    alphabets = []
    for i in range(count):
        alphabets.append((graphs[i % len(graphs)], complete))
    # Vary lengths so the tuples are genuinely distinct keys.
    return [tuple(alpha[: 1 + i % 2]) for i, alpha in enumerate(alphabets)]


def _cap(monkeypatch, size):
    monkeypatch.setattr(views_module, "DEFAULT_PLAN_CACHE_SIZE", size)


class TestPlanCacheLRU:
    def test_default_capacity_and_validation(self):
        assert DEFAULT_PLAN_CACHE_SIZE == 128
        assert not hasattr(ViewInterner(2), "plan_cache_size")
        # The removed knob's key still loads from old options documents,
        # range-checked as before and then dropped.
        assert CheckOptions.from_dict({"plan_cache_size": 7}) == CheckOptions()
        with pytest.raises(AnalysisError):
            CheckOptions.from_dict({"plan_cache_size": 0})

    def test_cache_is_bounded_and_reported(self, monkeypatch):
        _cap(monkeypatch, 4)
        interner = ViewInterner(3)
        level = interner.leaf_level((0, 1, 0))
        for alphabet in _alphabets(3, 10):
            interner.extend_layer([level], alphabet)
        assert interner.stats().cached_plans <= 4

    def test_eviction_preserves_results(self, monkeypatch):
        """Interning through a 1-entry cache matches an unbounded run."""
        alphabets = _alphabets(3, 8)
        schedule = alphabets + alphabets[::-1] + alphabets  # force thrash
        big = ViewInterner(3)
        level_big = big.leaf_level((0, 1, 1))
        out_big = [big.extend_layer([level_big], a) for a in schedule]
        _cap(monkeypatch, 1)
        tiny = ViewInterner(3)
        level_tiny = tiny.leaf_level((0, 1, 1))
        out_tiny = [tiny.extend_layer([level_tiny], a) for a in schedule]
        assert out_tiny == out_big
        assert len(tiny) == len(big)
        assert tiny.stats().rows == big.stats().rows
        assert tiny.stats().cached_plans == 1
        assert big.stats().cached_plans == len(set(alphabets))

    def test_recency_order(self, monkeypatch):
        """A touched entry survives the eviction of a colder one."""
        _cap(monkeypatch, 2)
        interner = ViewInterner(2)
        level = interner.leaf_level((0, 1))
        a = tuple(lossy_link_full().alphabet())
        b = a[:2]
        c = a[:1]
        interner.extend_layer([level], a)
        interner.extend_layer([level], b)
        interner.extend_layer([level], a)  # touch a: b is now coldest
        interner.extend_layer([level], c)  # evicts b
        assert set(interner._plan_cache) == {a, c}

    def test_layer_path_respects_cap(self, monkeypatch):
        _cap(monkeypatch, 1)
        interner = ViewInterner(2)
        space = PrefixSpace(lossy_link_full(), interner=interner)
        space.ensure_depth(4)
        assert interner.stats().cached_plans == 1


class TestPlanCacheThreading:
    def test_check_options_field_round_trips(self):
        # Options documents written while the knob existed still load, to
        # the options they would have without it.
        options = CheckOptions.from_dict({"max_depth": 3, "plan_cache_size": 7})
        assert options == CheckOptions(max_depth=3)
        assert "plan_cache_size" not in options.to_dict()
        assert CheckOptions.from_dict(options.to_dict()) == options
        assert CheckOptions.from_dict({"plan_cache_size": None}) == CheckOptions()

    def test_session_threads_the_knob(self, monkeypatch):
        # Checks of different alphabets share the session's interner, so
        # its plan LRU fills up to the cap and no further.
        options = CheckOptions.from_dict(
            {
                "max_depth": 3,
                "use_impossibility_provers": False,
                "use_broadcaster_certificate": False,
                "plan_cache_size": 5,
            }
        )

        def cached_plans():
            session = Session(options)
            for factory in (lossy_link_full, lossy_link_no_hub, lossy_link_with_silence):
                session.check(factory())
            return session.interner(2).stats().cached_plans

        assert cached_plans() == 3
        _cap(monkeypatch, 2)
        assert cached_plans() == 2
        result = Session(CheckOptions(max_depth=3)).check(lossy_link_full())
        assert result.status.name == "IMPOSSIBLE"

    def test_prefixspace_threads_the_knob(self, monkeypatch):
        _cap(monkeypatch, 1)
        space = PrefixSpace(lossy_link_full())
        space.ensure_depth(3)
        assert space.interner.stats().cached_plans == 1
        # A shared interner is used as given, under the same cap.
        shared = space.interner
        space = PrefixSpace(lossy_link_no_hub(), interner=shared)
        space.ensure_depth(3)
        assert space.interner is shared
        assert shared.stats().cached_plans == 1
