"""The bounded per-alphabet extension-plan LRU.

Plans are pure functions of the graphs-tuple, so the cap must be purely a
memory/speed trade: evicting and recomputing a plan can never change which
views are interned or in what order.  These tests pin that invariant, the
LRU mechanics (recency, eviction, stats reporting), and the
``CheckOptions``/``Session``/``PrefixSpace`` threading of the knob.
"""

import pytest

from repro.adversaries.lossylink import lossy_link_full
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


class TestPlanCacheLRU:
    def test_default_capacity_and_validation(self):
        assert ViewInterner(2).plan_cache_size == DEFAULT_PLAN_CACHE_SIZE
        assert ViewInterner(2, plan_cache_size=3).plan_cache_size == 3
        with pytest.raises(AnalysisError):
            ViewInterner(2, plan_cache_size=0)

    def test_cache_is_bounded_and_reported(self):
        interner = ViewInterner(3, plan_cache_size=4)
        level = interner.leaf_level((0, 1, 0))
        for alphabet in _alphabets(3, 10):
            interner.extend_layer([level], alphabet)
        assert interner.stats().cached_plans <= 4

    def test_eviction_preserves_results(self):
        """Interning through a 1-entry cache matches an unbounded run."""
        alphabets = _alphabets(3, 8)
        schedule = alphabets + alphabets[::-1] + alphabets  # force thrash
        tiny = ViewInterner(3, plan_cache_size=1)
        big = ViewInterner(3, plan_cache_size=1000)
        level_tiny = tiny.leaf_level((0, 1, 1))
        level_big = big.leaf_level((0, 1, 1))
        out_tiny = [tiny.extend_layer([level_tiny], a) for a in schedule]
        out_big = [big.extend_layer([level_big], a) for a in schedule]
        assert out_tiny == out_big
        assert len(tiny) == len(big)
        assert tiny.stats().rows == big.stats().rows
        assert tiny.stats().cached_plans == 1

    def test_recency_order(self):
        """A touched entry survives the eviction of a colder one."""
        interner = ViewInterner(2, plan_cache_size=2)
        level = interner.leaf_level((0, 1))
        a = tuple(lossy_link_full().alphabet())
        b = a[:2]
        c = a[:1]
        interner.extend_layer([level], a)
        interner.extend_layer([level], b)
        interner.extend_layer([level], a)  # touch a: b is now coldest
        interner.extend_layer([level], c)  # evicts b
        assert set(interner._plan_cache) == {a, c}

    def test_layer_path_respects_cap(self):
        interner = ViewInterner(2, plan_cache_size=1)
        space = PrefixSpace(lossy_link_full(), interner=interner)
        space.ensure_depth(4)
        assert interner.stats().cached_plans == 1


class TestPlanCacheThreading:
    def test_check_options_field_round_trips(self):
        options = CheckOptions(plan_cache_size=7)
        assert CheckOptions.from_dict(options.to_dict()).plan_cache_size == 7
        assert CheckOptions.from_dict({}).plan_cache_size is None

    def test_session_threads_the_knob(self):
        session = Session(CheckOptions(max_depth=3, plan_cache_size=5))
        assert session.interner(2).plan_cache_size == 5
        result = session.check(lossy_link_full())
        assert result.status.name == "IMPOSSIBLE"

    def test_prefixspace_threads_the_knob(self):
        space = PrefixSpace(lossy_link_full(), plan_cache_size=2)
        assert space.interner.plan_cache_size == 2
        # A shared interner's own setting wins (knob ignored).
        shared = ViewInterner(2, plan_cache_size=9)
        space = PrefixSpace(lossy_link_full(), interner=shared, plan_cache_size=2)
        assert space.interner.plan_cache_size == 9
