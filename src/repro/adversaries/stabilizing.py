"""Non-compact, eventually stabilizing message adversaries (Section 6.3).

Two families are provided, both with genuine Büchi liveness (so they are
*not* limit-closed and hence non-compact in the paper's sense):

* :class:`EventuallyForeverAdversary` — sequences over a base set ``B`` of
  graphs that eventually stay inside a set ``E`` forever (``B^* E^ω``).
  With ``B = {←, →}`` and ``E = {→}`` this is the two-process example behind
  Figure 5: decision sets come arbitrarily close (distance 0) but the
  connecting "unfair" limit sequences are excluded.

* :class:`StabilizingAdversary` — a simplified vertex-stable source
  component (VSSC) adversary in the spirit of [6, 23]: all graphs are taken
  from a given set, and the adversary guarantees *some* window of ``window``
  consecutive rounds whose graphs all have the same (unique) root component.
  After the window, behaviour is unconstrained again.  Solvability depends
  on the window length exactly as in [23]: long-enough windows let the root
  members broadcast; too-short windows leave non-broadcastable components.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.adversaries.base import MessageAdversary, reachable
from repro.core.digraph import Digraph
from repro.errors import AdversaryError

__all__ = ["EventuallyForeverAdversary", "StabilizingAdversary"]


class EventuallyForeverAdversary(MessageAdversary):
    """Sequences from ``base`` that are eventually in ``eventual`` forever.

    Parameters
    ----------
    n:
        Number of processes.
    base:
        Graphs allowed before stabilization (the transient alphabet).
    eventual:
        Graphs allowed after stabilization.  Need not be a subset of
        ``base``; the full alphabet is the union.

    Examples
    --------
    >>> from repro.core.digraph import arrow
    >>> adversary = EventuallyForeverAdversary(
    ...     2, [arrow("->"), arrow("<-")], [arrow("->")]
    ... )
    >>> adversary.is_limit_closed()
    False
    """

    #: Transient automaton state: still reading base graphs.
    TRANSIENT = "transient"
    #: Stabilized automaton state: committed to the eventual set.
    STABLE = "stable"

    def __init__(
        self,
        n: int,
        base: Iterable[Digraph],
        eventual: Iterable[Digraph],
        name: str | None = None,
    ) -> None:
        base_set = frozenset(base)
        eventual_set = frozenset(eventual)
        if not eventual_set:
            raise AdversaryError("the eventual graph set must be nonempty")
        for g in base_set | eventual_set:
            if g.n != n:
                raise AdversaryError("alphabet graph has wrong n")
        if name is None and n == 2:
            b = ",".join(g.name for g in sorted(base_set))
            e = ",".join(g.name for g in sorted(eventual_set))
            name = f"Eventually{{{e}}}After{{{b}}}"
        super().__init__(n, name or "EventuallyForeverAdversary")
        self.base = base_set
        self.eventual = eventual_set
        self._alphabet = tuple(sorted(base_set | eventual_set))
        transient_row: dict[Digraph, frozenset] = {}
        for g in base_set:
            successors = {self.TRANSIENT}
            if g in eventual_set:
                successors.add(self.STABLE)
            transient_row[g] = frozenset(successors)
        for g in eventual_set - base_set:
            # Graphs only allowed after stabilization: taking one commits.
            transient_row[g] = frozenset({self.STABLE})
        self._table = {
            self.TRANSIENT: transient_row,
            self.STABLE: {g: frozenset({self.STABLE}) for g in eventual_set},
        }

    def alphabet(self) -> tuple[Digraph, ...]:
        return self._alphabet

    def initial_states(self) -> frozenset:
        return frozenset({self.TRANSIENT})

    def transitions(self, state) -> Mapping[Digraph, frozenset]:
        try:
            return self._table[state]
        except KeyError:
            raise AdversaryError(f"unknown state {state!r}") from None

    def accepting_states(self) -> frozenset:
        return frozenset({self.STABLE})

    def is_limit_closed(self) -> bool:
        # The language is base^* eventual^ω; unless base ⊆ eventual (when it
        # degenerates to a safety property) limits of admissible sequences
        # that never stabilize are excluded.
        return self.base <= self.eventual


class StabilizingAdversary(MessageAdversary):
    """Rooted graphs with a guaranteed stable-root window (VSSC-style, [23]).

    The adversary draws graphs from ``graphs`` (all of which must be rooted
    unless ``require_rooted=False``) and guarantees that in every admissible
    sequence there is some interval of ``window`` consecutive rounds whose
    graphs all have the *same* root component.  Before and after that
    interval the sequence is unconstrained (within ``graphs``).

    This is the simplified form of the ``(D+1)``-vertex-stable root
    component adversaries of [6, 23]: the root member set is what must stay
    stable, while the rest of the graph may keep changing.

    Parameters
    ----------
    n:
        Number of processes.
    graphs:
        The allowed communication graphs.
    window:
        Required length of the stable-root interval (``>= 1``).
    require_rooted:
        If true (default), reject alphabet graphs without a unique root
        component, matching the setting of [23].
    """

    #: Satisfied absorbing state: the stability window has occurred.
    SATISFIED = "satisfied"
    #: Initial state: no window in progress.
    SEARCHING = "searching"

    def __init__(
        self,
        n: int,
        graphs: Iterable[Digraph],
        window: int,
        require_rooted: bool = True,
        name: str | None = None,
    ) -> None:
        graph_set = frozenset(graphs)
        if not graph_set:
            raise AdversaryError("a stabilizing adversary needs graphs")
        if window < 1:
            raise AdversaryError("window must be >= 1")
        for g in graph_set:
            if g.n != n:
                raise AdversaryError("alphabet graph has wrong n")
            if require_rooted and not g.is_rooted:
                raise AdversaryError(
                    f"graph {g!r} is not rooted; pass require_rooted=False to allow"
                )
        super().__init__(
            n, name or f"Stabilizing(window={window}, |D|={len(graph_set)})"
        )
        self.graphs = graph_set
        self.window = window
        self._alphabet = tuple(sorted(graph_set))
        self._table = self._build_table()

    @staticmethod
    def _stable_root(graph: Digraph) -> frozenset[int] | None:
        """The unique root component of ``graph`` (None if not rooted)."""
        if graph.is_rooted:
            return graph.root_components[0]
        return None

    def _build_table(self) -> dict:
        """The row of every state a walk from ``SEARCHING`` and ``SATISFIED`` reaches."""
        table: dict = {}

        def successors(state) -> list:
            table[state] = self._row(state)
            return [nxt for nexts in table[state].values() for nxt in nexts]

        reachable((self.SEARCHING, self.SATISFIED), successors)
        return table

    def _row(self, state) -> dict[Digraph, frozenset]:
        """The successors of ``state`` under each alphabet graph.

        ``SATISFIED`` is absorbing.  From any other state every graph may
        be read while searching.  A rooted graph also starts a window on its
        root and extends the window ``("window", root, count)`` in progress
        when the roots agree; ``SEARCHING`` is the state with no window.
        """
        if state == self.SATISFIED:
            return {g: frozenset({self.SATISFIED}) for g in self._alphabet}
        root, count = (None, 0) if state == self.SEARCHING else state[1:]
        row: dict[Digraph, frozenset] = {}
        for g in self._alphabet:
            successors = {self.SEARCHING}
            g_root = self._stable_root(g)
            if g_root is not None:
                if g_root == root:
                    successors.add(self._window(g_root, count + 1))
                successors.add(self._window(g_root, 1))
            row[g] = frozenset(successors)
        return row

    def _window(self, root: frozenset[int], count: int):
        """The state after ``count`` consecutive rounds rooted at ``root``."""
        return self.SATISFIED if count >= self.window else ("window", root, count)

    def alphabet(self) -> tuple[Digraph, ...]:
        return self._alphabet

    def initial_states(self) -> frozenset:
        return frozenset({self.SEARCHING})

    def transitions(self, state) -> Mapping[Digraph, frozenset]:
        try:
            return self._table[state]
        except KeyError:
            raise AdversaryError(f"unknown state {state!r}") from None

    def accepting_states(self) -> frozenset:
        return frozenset({self.SATISFIED})

    def is_limit_closed(self) -> bool:
        # With a one-round window (and rooted alphabet graphs) every
        # sequence is admissible, so the language is a safety property.
        # The same happens when all alphabet graphs share one root
        # component: any window-length prefix is already stable.
        if self.window == 1 and all(g.is_rooted for g in self.graphs):
            return True
        roots = {self._stable_root(g) for g in self.graphs}
        return len(roots) == 1 and None not in roots
