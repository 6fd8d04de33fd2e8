"""Generators for communication-graph families and standard adversaries.

These feed the census tooling and the benchmark harnesses: enumerating every
digraph (or every rooted digraph) on small ``n``, the Santoro–Widmayer
bounded-loss families [21, 22], out-star collections, and random rooted
graphs.
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import Iterator

from repro.adversaries.oblivious import ObliviousAdversary
from repro.core.digraph import Digraph
from repro.errors import AdversaryError

__all__ = [
    "all_digraphs",
    "all_rooted_digraphs",
    "all_possible_edges",
    "santoro_widmayer_family",
    "out_star_set",
    "random_rooted_digraph",
    "random_oblivious_adversary",
    "two_process_oblivious_family",
    "random_rooted_family",
]


def all_possible_edges(n: int) -> tuple[tuple[int, int], ...]:
    """All ``n(n-1)`` directed non-self edges, in deterministic order."""
    return tuple((u, v) for u in range(n) for v in range(n) if u != v)


def all_digraphs(n: int) -> Iterator[Digraph]:
    """All ``2^{n(n-1)}`` digraphs on ``n`` nodes (deterministic order).

    Intended for small ``n`` (the count is 2 for n=1, 4 for n=2, 64 for
    n=3, 4096 for n=4); raises for ``n > 4`` to avoid accidental blowups.

    Graphs are built directly from their packed bitmask keys, so the
    enumeration does per-graph O(1) work beyond interning.
    """
    if n > 4:
        raise AdversaryError(f"refusing to enumerate 2^{n * (n - 1)} digraphs")
    bit_positions = tuple(1 << (u * n + v) for u, v in all_possible_edges(n))
    from_key = Digraph._from_key
    for mask in range(1 << len(bit_positions)):
        key = 0
        rest = mask
        while rest:
            low = rest & -rest
            key |= bit_positions[low.bit_length() - 1]
            rest ^= low
        yield from_key(n, key)


def all_rooted_digraphs(n: int) -> Iterator[Digraph]:
    """All digraphs on ``n`` nodes with a unique root component."""
    for g in all_digraphs(n):
        if g.is_rooted:
            yield g


def santoro_widmayer_family(n: int, losses: int) -> ObliviousAdversary:
    """The Santoro–Widmayer oblivious adversary: up to ``losses`` lost messages.

    In every round the adversary starts from the complete graph and may
    suppress up to ``losses`` of the ``n(n-1)`` messages.  [21] proves
    consensus impossible when ``losses >= n - 1``; [22] sharpens the
    solvable/unsolvable frontier for structured loss patterns.  ``losses``
    must lie in ``0 .. n(n-1)``: a larger bound names the same adversary
    as ``n(n-1)``, so it is refused rather than clamped.
    """
    edges = all_possible_edges(n)
    if not 0 <= losses <= len(edges):
        raise AdversaryError(
            f"losses must be in 0..{len(edges)} (the n(n-1) messages), got {losses}"
        )
    full_key = 0
    for u, v in edges:
        full_key |= 1 << (u * n + v)
    from_key = Digraph._from_key
    graphs = []
    for k in range(losses + 1):
        for missing in combinations(edges, k):
            key = full_key
            for u, v in missing:
                key &= ~(1 << (u * n + v))
            graphs.append(from_key(n, key))
    return ObliviousAdversary(
        n, graphs, name=f"SantoroWidmayer(n={n}, losses={losses})"
    )


def out_star_set(n: int) -> tuple[Digraph, ...]:
    """The ``n`` out-stars: in each graph one process reaches everyone."""
    return tuple(Digraph.star_out(n, center) for center in range(n))


def _random_graph(rng: random.Random, n: int, p: float) -> Digraph:
    """A random digraph with independent edge probability ``p`` (bitmask)."""
    key = 0
    random_value = rng.random
    for u, v in all_possible_edges(n):
        if random_value() < p:
            key |= 1 << (u * n + v)
    return Digraph._from_key(n, key)


def random_rooted_digraph(rng: random.Random, n: int, p: float = 0.4) -> Digraph:
    """A random digraph conditioned (by rejection) on having a unique root."""
    for _ in range(10_000):
        g = _random_graph(rng, n, p)
        if g.is_rooted:
            return g
    raise AdversaryError("rejection sampling failed to find a rooted digraph")


def two_process_oblivious_family() -> tuple[ObliviousAdversary, ...]:
    """All 15 nonempty two-process oblivious adversaries, in canonical order.

    The subsets of ``{→, ←, ↔, ∅}`` ordered by size then by the enumeration
    order of :func:`itertools.combinations` — the fixed row order of the
    census and of the sweep CLI's ``two-process`` family.
    """
    graphs = [
        Digraph.from_arrow("->"),
        Digraph.from_arrow("<-"),
        Digraph.from_arrow("<->"),
        Digraph.from_arrow("none"),
    ]
    return tuple(
        ObliviousAdversary(2, subset)
        for size in range(1, len(graphs) + 1)
        for subset in combinations(graphs, size)
    )


def random_rooted_family(
    rng: random.Random,
    n: int,
    samples: int,
    sizes: tuple[int, ...] = (1, 2, 3),
    p: float = 0.4,
) -> tuple[ObliviousAdversary, ...]:
    """``samples`` random rooted oblivious adversaries on ``n`` processes.

    All randomness is drawn from the explicit ``rng``; the family is fully
    determined by the seed, so sweep shards can be regenerated and compared
    across runs.
    """
    sizes = tuple(sizes)
    return tuple(
        random_oblivious_adversary(
            rng, n, size=rng.choice(sizes), rooted_only=True, p=p
        )
        for _ in range(samples)
    )


def random_oblivious_adversary(
    rng: random.Random, n: int, size: int, rooted_only: bool = False, p: float = 0.4
) -> ObliviousAdversary:
    """A random oblivious adversary with ``size`` distinct graphs."""
    chosen: set[Digraph] = set()
    attempts = 0
    while len(chosen) < size:
        attempts += 1
        if attempts > 100_000:
            raise AdversaryError("could not sample enough distinct graphs")
        if rooted_only:
            chosen.add(random_rooted_digraph(rng, n, p))
        else:
            chosen.add(_random_graph(rng, n, p))
    return ObliviousAdversary(n, chosen)
