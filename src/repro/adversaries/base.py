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
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Hashable, Iterable, Iterator, Mapping

from repro.core.digraph import Digraph
from repro.core.graphword import GraphWord
from repro.errors import AdversaryError, InadmissibleWordError

__all__ = ["MessageAdversary", "State"]

#: Automaton states may be any hashable value.
State = Hashable


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
            seen: set = set(self.initial_states())
            stack = list(seen)
            while stack:
                state = stack.pop()
                for successors in self.transitions(state).values():
                    for nxt in successors:
                        if nxt not in seen:
                            seen.add(nxt)
                            stack.append(nxt)
            self._state_cache = frozenset(seen)
        return self._state_cache

    def live_states(self) -> frozenset:
        """States from which some infinite *accepting* run exists.

        A state is live iff it reaches a cycle through an accepting state.
        Prefixes whose reachable state set contains a live state are exactly
        the prefixes of admissible infinite sequences.
        """
        if self._live_cache is not None:
            return self._live_cache
        states = self.all_states()
        accepting = self.accepting_states() & states
        # Successor adjacency ignoring letters.
        succ: dict = {
            s: sorted(
                {nxt for nexts in self.transitions(s).values() for nxt in nexts},
                key=repr,
            )
            for s in states
        }
        # A state lies on an accepting cycle iff it is accepting and can
        # reach itself.  Compute states that can reach an accepting cycle.
        on_cycle = {
            s for s in accepting if self._reaches(succ, s, target=s, strict=True)
        }
        live = set(on_cycle)
        changed = True
        while changed:
            changed = False
            for s in states:
                if s not in live and any(nxt in live for nxt in succ[s]):
                    live.add(s)
                    changed = True
        self._live_cache = frozenset(live)
        return self._live_cache

    @staticmethod
    def _reaches(succ: Mapping, start, target, strict: bool) -> bool:
        seen: set = set()
        stack = list(succ[start]) if strict else [start]
        while stack:
            s = stack.pop()
            if s == target:
                return True
            if s in seen:
                continue
            seen.add(s)
            stack.extend(succ[s])
        return False

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

        Uses the standard product construction: a run is accepting iff in
        the graph over (state, cycle position) nodes some cycle through an
        accepting state is reachable from the states after the stem.
        """
        if len(cycle) == 0:
            raise AdversaryError("lasso cycle must be nonempty")
        start_states = self.run_prefix(stem)
        if not start_states:
            return False
        period = len(cycle)
        accepting = self.accepting_states()

        # Build reachable subgraph over (state, pos).
        edges: dict[tuple, set[tuple]] = {}
        stack = [(s, 0) for s in start_states]
        seen = set(stack)
        while stack:
            state, pos = stack.pop()
            nxt_states = self.transitions(state).get(cycle[pos], frozenset())
            nxt_pos = (pos + 1) % period
            targets = {(s, nxt_pos) for s in nxt_states}
            edges[(state, pos)] = targets
            for node in targets:
                if node not in seen:
                    seen.add(node)
                    stack.append(node)

        # A lasso is accepted iff some accepting node lies on a cycle of
        # this graph (every cycle has length a multiple of the period, so
        # positions wrap consistently).
        for node in seen:
            state, _ = node
            if state in accepting and self._node_on_cycle(edges, node):
                return True
        return False

    @staticmethod
    def _node_on_cycle(edges: Mapping[tuple, set], node: tuple) -> bool:
        seen: set = set()
        stack = list(edges.get(node, ()))
        while stack:
            current = stack.pop()
            if current == node:
                return True
            if current in seen:
                continue
            seen.add(current)
            stack.extend(edges.get(current, ()))
        return False

    # ------------------------------------------------------------------ #
    # Misc
    # ------------------------------------------------------------------ #

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n}, name={self.name!r})"
