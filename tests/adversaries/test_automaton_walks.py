"""The automaton walks against a transitive-closure reference.

Every search over an adversary automaton runs on ``reachable`` and
``labelled_path`` (:mod:`repro.adversaries.base`).  Here random Büchi
automata, dead and unreachable states included, check the state sets, the
live states and lasso admission against a Warshall closure built over the
state graph and over the ``(state, cycle position)`` product, and the lasso
prover's witnesses against the definition of avoiding a broadcast.
"""

from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversaries.base import labelled_path
from repro.adversaries.buchi import BuchiAdversary
from repro.consensus.provers import find_lasso_avoiding_broadcast_by
from repro.core.digraph import arrow
from repro.core.graphword import GraphWord

GRAPHS2 = tuple(arrow(name) for name in ("->", "<-", "<->", "none"))

#: Stems of length <= 1 and cycles of length <= 2 over GRAPHS2.
STEMS = [()] + [(g,) for g in GRAPHS2]
CYCLES = [(g,) for g in GRAPHS2] + list(product(GRAPHS2, repeat=2))


@st.composite
def buchi_adversaries(draw):
    """A two-process Büchi automaton on up to 5 states and its state list."""
    states = list(range(draw(st.integers(1, 5))))
    subsets = st.lists(st.sampled_from(states), unique=True)
    table = {s: {g: draw(subsets) for g in GRAPHS2} for s in states}
    initial = draw(st.lists(st.sampled_from(states), min_size=1, unique=True))
    return BuchiAdversary(2, initial, table, draw(subsets)), states


def closure(nodes, edge):
    """Warshall: ``reach[u][v]`` iff a path of one or more edges leads from u to v."""
    reach = {u: {v: edge(u, v) for v in nodes} for u in nodes}
    for w in nodes:
        for u in nodes:
            if reach[u][w]:
                for v in nodes:
                    reach[u][v] = reach[u][v] or reach[w][v]
    return reach


def lasso_reference(adversary, states, stem, cycle):
    """Whether ``stem · cycle^ω`` is admitted, by closure over (state, position)."""
    current = set(adversary.initial_states())
    for g in stem:
        current = {t for s in current for t in adversary.transitions(s).get(g, ())}
    period = len(cycle)
    nodes = [(s, pos) for s in states for pos in range(period)]

    def edge(u, v):
        (s, pos), (t, nxt) = u, v
        return nxt == (pos + 1) % period and t in adversary.transitions(s).get(cycle[pos], ())

    reach = closure(nodes, edge)
    accepting = adversary.accepting_states()
    return any(
        v[0] in accepting and reach[v][v] and (u == v or reach[u][v])
        for u in [(s, 0) for s in current]
        for v in nodes
    )


@given(buchi_adversaries())
@settings(max_examples=120, deadline=None)
def test_walks_match_a_transitive_closure(drawn):
    adversary, states = drawn
    reach = closure(
        states,
        lambda u, v: any(v in nexts for nexts in adversary.transitions(u).values()),
    )
    initial = adversary.initial_states()
    reached = {v for v in states if v in initial or any(reach[u][v] for u in initial)}
    assert adversary.all_states() == reached
    cycling = {a for a in adversary.accepting_states() & reached if reach[a][a]}
    live = {s for s in reached if any(s == a or reach[s][a] for a in cycling)}
    assert adversary.live_states() == live

    admitted = []
    for stem, cycle in product(STEMS, CYCLES):
        words = GraphWord(stem, n=2), GraphWord(cycle, n=2)
        expected = lasso_reference(adversary, states, stem, cycle)
        assert adversary.admits_lasso(*words) == expected, (stem, cycle)
        if expected:
            admitted.append(words)

    for p in range(2):
        lasso = find_lasso_avoiding_broadcast_by(adversary, p)
        if lasso is None:
            # The search is exact: every admitted lasso broadcasts p.
            avoiding = [(stem, cycle) for stem, cycle in admitted
                        if _unrolled(stem, cycle).broadcast_complete_round(p) is None]
            assert avoiding == [], p
            continue
        stem, cycle = lasso
        assert adversary.admits_lasso(stem, cycle)
        assert _unrolled(stem, cycle).broadcast_complete_round(p) is None


def _unrolled(stem, cycle):
    """Far enough for two processes' heard-of masks to stop changing."""
    return GraphWord(stem.graphs + cycle.graphs * 6, n=2)


def test_labelled_path_stops_at_the_first_edge_into_the_target():
    edges = {"a": [("x", "b"), ("y", "c")], "b": [("z", "a")], "c": [("w", "b")]}
    assert labelled_path(edges, {"a"}, "a") == []
    # The walk pops "c" first and marks "b" when it pushes it from "a".
    assert labelled_path(edges, {"a"}, "a", strict=True) == ["x", "z"]
    assert labelled_path(edges, {"c"}, "a") == ["w", "z"]
    assert labelled_path(edges, {"a"}, "d") is None
