"""The message-adversary abstraction.

A *message adversary* (Section 2) is a set of infinite sequences of
communication graphs.  Finitely representable adversaries — which cover every
example in the paper — are modeled as (nondeterministic) ω-automata over the
alphabet of communication graphs:

* the *safety* part is the automaton structure: a graph word is an admissible
  prefix iff some run of the automaton reads it;
* the *liveness* part is a Büchi acceptance condition: an infinite sequence
  is admissible iff some run visits accepting states infinitely often.

Compact (limit-closed) adversaries in the paper's sense are exactly those
whose admissible sequences form a safety property; they are represented by
automata in which every state is accepting and every reachable state is live
(:class:`repro.adversaries.safety.SafetyAdversary`,
:class:`repro.adversaries.oblivious.ObliviousAdversary`).  Non-compact
adversaries, like the eventually stabilizing families of Section 6.3, use
genuine Büchi acceptance.

Subclasses implement four methods (:meth:`MessageAdversary.alphabet`,
:meth:`~MessageAdversary.initial_states`,
:meth:`~MessageAdversary.transitions`,
:meth:`~MessageAdversary.accepting_states`); everything else — prefix
admissibility, enumeration, sampling, lasso (ultimately periodic word)
acceptance, liveness analysis — is derived here.

Every search over an automaton, or over a product of one with other
finite data, is one of two walks: :func:`reachable`, the nodes a
depth-first walk reaches, and :func:`labelled_path`, the edge labels of
the first depth-first path to a node.  The reachable states, the live
states, lasso admission, the stabilizing adversaries' table and the lasso
provers of :mod:`repro.consensus.provers` are all built on them.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Any, Callable, Collection, Hashable, Iterable, Iterator, Mapping, Sequence

from repro.core.digraph import Digraph
from repro.core.graphword import GraphWord
from repro.errors import AdversaryError, InadmissibleWordError

__all__ = ["MessageAdversary", "State", "reachable", "labelled_path"]

#: Automaton states may be any hashable value.
State = Hashable


def reachable(starts: Iterable[Any], successors: Callable[[Any], Iterable[Any]]) -> set[Any]:
    """The nodes a depth-first walk from ``starts`` reaches, ``starts`` included.

    A node is marked when it is pushed, and ``successors(node)`` is called
    once for each reached node as it is popped, so a caller may record
    what it returns during the walk.
    """
    seen = set(starts)
    stack = list(seen)
    while stack:
        for nxt in successors(stack.pop()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def labelled_path(
    edges: Mapping[Any, Sequence[tuple[Any, Any]]],
    sources: Collection[Any],
    target: Any,
    strict: bool = False,
) -> list[Any] | None:
    """The edge labels of the first depth-first path from ``sources`` to ``target``.

    ``edges[node]`` lists the ``(label, successor)`` edges of ``node`` in
    walk order.  The walk marks a node when it pushes it and stops at the
    first edge into ``target``.  A ``target`` among the ``sources`` gives
    ``[]``, unless ``strict`` asks for at least one edge: with ``sources ==
    {target}`` the path is then a cycle through ``target``.  Returns
    ``None`` when no such path exists.
    """
    if not strict and target in sources:
        return []
    # A source maps to None, a reached node to its (parent, label) edge.
    back: dict = dict.fromkeys(sources)
    stack = list(back)
    while stack:
        node = stack.pop()
        for label, nxt in edges.get(node, ()):
            if nxt == target:
                labels = [label]
                while back[node] is not None:
                    node, label = back[node]
                    labels.append(label)
                return labels[::-1]
            if nxt not in back:
                back[nxt] = (node, label)
                stack.append(nxt)
    return None


class MessageAdversary(ABC):
    """Base class of all message adversaries.

    The class implements the derived queries shared by every finitely
    represented adversary; subclasses provide the automaton.
    """

    def __init__(self, n: int, name: str | None = None) -> None:
        if n <= 0:
            raise AdversaryError("an adversary needs n >= 1 processes")
        self.n = n
        self.name = name or type(self).__name__
        self._live_cache: frozenset | None = None
        self._state_cache: frozenset | None = None
        self._extensions_cache: dict[frozenset, tuple] = {}

    # ------------------------------------------------------------------ #
    # Automaton interface (to be provided by subclasses)
    # ------------------------------------------------------------------ #

    @abstractmethod
    def alphabet(self) -> tuple[Digraph, ...]:
        """All communication graphs that may ever occur (sorted)."""

    @abstractmethod
    def initial_states(self) -> frozenset:
        """The automaton's initial states."""

    @abstractmethod
    def transitions(self, state: State) -> Mapping[Digraph, frozenset]:
        """Letter-indexed successor sets of ``state``.

        Only letters with a nonempty successor set need to be present.
        """

    def accepting_states(self) -> frozenset:
        """Büchi acceptance set; defaults to "every state" (pure safety)."""
        return self.all_states()

    def is_limit_closed(self) -> bool:
        """Whether the adversary is compact (a safety property).

        The default implementation answers ``True`` exactly when every
        reachable state is accepting, which is a *sufficient* condition for
        limit-closedness of the represented language.  Subclasses with
        genuine liveness return ``False``.
        """
        return self.accepting_states() >= self.all_states()

    # ------------------------------------------------------------------ #
    # Derived state-space queries
    # ------------------------------------------------------------------ #

    def all_states(self) -> frozenset:
        """All states reachable from the initial states."""
        if self._state_cache is None:
            self._state_cache = frozenset(reachable(self.initial_states(), self._successors))
        return self._state_cache

    def _successors(self, state: State) -> list[State]:
        """The successors of ``state`` under every letter, in table order."""
        return [nxt for nexts in self.transitions(state).values() for nxt in nexts]

    def live_states(self) -> frozenset:
        """States from which some infinite *accepting* run exists.

        A state is live iff it reaches an accepting state that reaches
        itself.  One forward :func:`reachable` per accepting state finds
        those on a cycle; one backward :func:`reachable` over the
        predecessor map finds every state that reaches them.  Prefixes whose
        reachable state set contains a live state are exactly the prefixes
        of admissible infinite sequences.
        """
        if self._live_cache is None:
            states = self.all_states()
            succ = {s: self._successors(s) for s in states}
            pred: dict = {s: set() for s in states}
            for s, nexts in succ.items():
                for nxt in nexts:
                    pred[nxt].add(s)
            cycling = [
                s
                for s in self.accepting_states() & states
                if s in reachable(succ[s], succ.__getitem__)
            ]
            self._live_cache = frozenset(reachable(cycling, pred.__getitem__))
        return self._live_cache

    # ------------------------------------------------------------------ #
    # Prefix-level queries
    # ------------------------------------------------------------------ #

    def step(self, states: frozenset, graph: Digraph) -> frozenset:
        """The set of states reachable from ``states`` by reading ``graph``."""
        result: set = set()
        for state in states:
            result.update(self.transitions(state).get(graph, frozenset()))
        return frozenset(result)

    def run_prefix(self, word: Iterable[Digraph]) -> frozenset:
        """Reachable state set after reading ``word`` (empty if inadmissible)."""
        states = self.initial_states()
        for graph in word:
            states = self.step(states, graph)
            if not states:
                return frozenset()
        return states

    def admits_prefix(self, word: Iterable[Digraph]) -> bool:
        """Whether ``word`` is the prefix of some admissible sequence.

        This checks both the safety part (some run reads the word) and the
        liveness part (some reached state is live).
        """
        states = self.run_prefix(word)
        return bool(states & self.live_states())

    def admissible_extensions(
        self, states: frozenset
    ) -> tuple[tuple[Digraph, frozenset], ...]:
        """Graphs extending an admissible prefix, with their new state sets.

        Only extensions that remain prefixes of admissible infinite
        sequences (i.e. keep a live state reachable) are returned.  Results
        are cached per state set (the automaton is static), which makes the
        per-prefix cost of layer construction a single dict lookup; the
        tuple return type keeps the shared cache immutable for callers.
        """
        states = frozenset(states)
        cached = self._extensions_cache.get(states)
        if cached is not None:
            return cached
        live = self.live_states()
        result = []
        for graph in self.alphabet():
            nxt = self.step(states, graph) & live
            if nxt:
                result.append((graph, nxt))
        result = tuple(result)
        self._extensions_cache[states] = result
        return result

    def extension_alphabet(self, states: frozenset) -> tuple[Digraph, ...]:
        """The graphs of :meth:`admissible_extensions`, in the same order."""
        return tuple(graph for graph, _ in self.admissible_extensions(states))

    # ------------------------------------------------------------------ #
    # Word enumeration / sampling
    # ------------------------------------------------------------------ #

    def iter_words(self, t: int) -> Iterator[GraphWord]:
        """All admissible words of length ``t``, in deterministic order."""
        initial = frozenset(self.initial_states() & self.live_states())

        def recurse(word: tuple, states: frozenset) -> Iterator[GraphWord]:
            if len(word) == t:
                yield GraphWord(word, n=self.n)
                return
            for graph, nxt in self.admissible_extensions(states):
                yield from recurse(word + (graph,), nxt)

        if initial:
            yield from recurse((), initial)

    def count_words(self, t: int) -> int:
        """Number of admissible words of length ``t`` (via dynamic program)."""
        counts: dict[frozenset, int] = {}
        initial = frozenset(self.initial_states() & self.live_states())
        if not initial:
            return 0
        counts[initial] = 1
        for _ in range(t):
            nxt_counts: dict[frozenset, int] = {}
            for states, count in counts.items():
                for _, nxt in self.admissible_extensions(states):
                    nxt_counts[nxt] = nxt_counts.get(nxt, 0) + count
            counts = nxt_counts
        return sum(counts.values())

    def sample_word(self, rng: random.Random, t: int) -> GraphWord:
        """A uniformly branch-random admissible word of length ``t``."""
        states = frozenset(self.initial_states() & self.live_states())
        if not states:
            raise InadmissibleWordError(f"{self.name} admits no sequences")
        word: list[Digraph] = []
        for _ in range(t):
            options = self.admissible_extensions(states)
            if not options:
                raise InadmissibleWordError(
                    f"{self.name}: admissible prefix with no admissible extension"
                )
            graph, states = rng.choice(options)
            word.append(graph)
        return GraphWord(word, n=self.n)

    # ------------------------------------------------------------------ #
    # Lasso (ultimately periodic sequence) acceptance
    # ------------------------------------------------------------------ #

    def admits_lasso(self, stem: GraphWord, cycle: GraphWord) -> bool:
        """Whether the ultimately periodic sequence ``stem · cycle^ω`` is admissible.

        The walk runs over the product of states and cycle positions: node
        ``(state, pos)`` steps by the letter ``cycle[pos]`` to position
        ``pos + 1`` modulo the period.  The lasso is admitted iff some node
        that :func:`reachable` finds from the states after the stem, at
        position 0, is accepting and reaches itself (every cycle of the
        product reads whole periods, so positions wrap consistently).
        """
        if len(cycle) == 0:
            raise AdversaryError("lasso cycle must be nonempty")
        period = len(cycle)
        accepting = self.accepting_states()

        def successors(node: tuple) -> list[tuple]:
            state, pos = node
            nxt_pos = (pos + 1) % period
            return [(s, nxt_pos) for s in self.transitions(state).get(cycle[pos], ())]

        nodes = reachable([(s, 0) for s in self.run_prefix(stem)], successors)
        return any(
            node[0] in accepting and node in reachable(successors(node), successors)
            for node in nodes
        )

    # ------------------------------------------------------------------ #
    # Misc
    # ------------------------------------------------------------------ #

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n}, name={self.name!r})"
