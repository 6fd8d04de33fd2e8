"""Process-time graph prefixes (Section 3 of the paper).

A :class:`PTGPrefix` is the finite, depth-``t`` analogue of an element of
``PT^ω``: an input assignment together with a graph word ``(G_1, ..., G_t)``.
It materializes the per-round views of every process (via a shared
:class:`~repro.core.views.ViewInterner`) so that

* the view history ``V_{p}(a^s)`` for ``0 <= s <= t`` is available in O(1),
* extending a prefix by one round costs ``O(n * deg)`` interner operations,
* two prefixes built on the same interner compare views by integer equality.

The prefix also exposes the explicit node/edge representation of the
process-time graph used by Figure 2 of the paper.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.digraph import Digraph
from repro.core.graphword import GraphWord
from repro.core.inputs import unanimity_value
from repro.core.views import ViewInterner
from repro.errors import AnalysisError, InvalidInputError

__all__ = ["PTGPrefix"]


class PTGPrefix:
    """A finite prefix of a process-time graph sequence.

    Parameters
    ----------
    interner:
        The shared view store.  Prefixes are only comparable (and only
        cheaply so) when they share an interner.
    inputs:
        The input assignment ``x``; one value per process.
    graphs:
        The communication graphs ``(G_1, ..., G_t)``; may be empty (t = 0).

    Examples
    --------
    >>> from repro.core.digraph import arrow
    >>> interner = ViewInterner(2)
    >>> a = PTGPrefix(interner, (0, 1), [arrow("->")])
    >>> interner.pid(a.view(1))
    1
    """

    __slots__ = ("interner", "inputs", "graphs", "_view_history")

    def __init__(
        self,
        interner: ViewInterner,
        inputs: Sequence,
        graphs: Iterable[Digraph] = (),
        _history: tuple[tuple[int, ...], ...] | None = None,
    ) -> None:
        inputs = tuple(inputs)
        if len(inputs) != interner.n:
            raise InvalidInputError(
                f"assignment {inputs!r} has length {len(inputs)}, expected {interner.n}"
            )
        graphs = tuple(graphs)
        for g in graphs:
            if g.n != interner.n:
                raise AnalysisError("graph size does not match interner size")
        object.__setattr__(self, "interner", interner)
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "graphs", graphs)
        if _history is None:
            _history = self._build_history(interner, inputs, graphs)
        object.__setattr__(self, "_view_history", _history)

    @classmethod
    def _make(
        cls,
        interner: ViewInterner,
        inputs: tuple,
        graphs: tuple[Digraph, ...],
        history: tuple[tuple[int, ...], ...],
    ) -> "PTGPrefix":
        """Internal unchecked constructor (inputs/graphs already validated)."""
        self = object.__new__(cls)
        sset = object.__setattr__
        sset(self, "interner", interner)
        sset(self, "inputs", inputs)
        sset(self, "graphs", graphs)
        sset(self, "_view_history", history)
        return self

    @staticmethod
    def _build_history(
        interner: ViewInterner, inputs: tuple, graphs: tuple[Digraph, ...]
    ) -> tuple[tuple[int, ...], ...]:
        level = interner.leaf_level(inputs)
        history = [level]
        for g in graphs:
            level = interner.extend_level(level, g)
            history.append(level)
        return tuple(history)

    # ------------------------------------------------------------------ #
    # Structure
    # ------------------------------------------------------------------ #

    @property
    def n(self) -> int:
        """Number of processes."""
        return self.interner.n

    @property
    def depth(self) -> int:
        """The prefix length ``t`` (number of completed rounds)."""
        return len(self.graphs)

    @property
    def word(self) -> GraphWord:
        """The underlying graph word."""
        return GraphWord(self.graphs, n=self.n)

    @property
    def unanimous_value(self):
        """The common input value if the assignment is unanimous, else None.

        Unanimous prefixes are the ``v``-valent elements ``z_v`` of the
        paper's Section 5.1.
        """
        return unanimity_value(self.inputs)

    def extended(self, graph: Digraph) -> "PTGPrefix":
        """The prefix with one more round appended (shares the history)."""
        history = self._view_history
        level = self.interner.extend_level(history[-1], graph)
        return PTGPrefix._make(
            self.interner,
            self.inputs,
            self.graphs + (graph,),
            history + (level,),
        )

    def truncated(self, t: int) -> "PTGPrefix":
        """The depth-``t`` prefix of this prefix."""
        if not 0 <= t <= self.depth:
            raise AnalysisError(f"cannot truncate depth-{self.depth} prefix to {t}")
        return PTGPrefix._make(
            self.interner,
            self.inputs,
            self.graphs[:t],
            self._view_history[: t + 1],
        )

    # ------------------------------------------------------------------ #
    # Views
    # ------------------------------------------------------------------ #

    def view(self, p: int, t: int | None = None) -> int:
        """The interned view id of process ``p`` at time ``t`` (default: now)."""
        if t is None:
            t = self.depth
        if not 0 <= t <= self.depth:
            raise AnalysisError(f"time {t} outside prefix of depth {self.depth}")
        return self._view_history[t][p]

    def views(self, t: int | None = None) -> tuple[int, ...]:
        """All processes' view ids at time ``t`` (default: current depth)."""
        if t is None:
            t = self.depth
        if not 0 <= t <= self.depth:
            raise AnalysisError(f"time {t} outside prefix of depth {self.depth}")
        return self._view_history[t]

    def view_history(self) -> tuple[tuple[int, ...], ...]:
        """The full ``(t+1) x n`` table of view ids."""
        return self._view_history

    def knows_input_of(self, observer: int, source: int, t: int | None = None) -> bool:
        """Whether ``observer``'s view at ``t`` contains ``(source, 0, x)``."""
        return self.interner.knows_input_of(self.view(observer, t), source)

    def heard_by_all_mask(self, t: int | None = None) -> int:
        """Bitmask of processes whose input every process knows at time ``t``.

        A process ``p`` with its bit set has *broadcast* by round ``t`` in
        the sense of Definition 5.8.
        """
        views = self.views(t)
        n = self.interner.n
        masks = self.interner._row_masks
        mask = (1 << n) - 1
        for vid in views:
            mask &= masks[vid // n]
        return mask

    def broadcasters(self, t: int | None = None) -> frozenset[int]:
        """The processes that have broadcast by round ``t``."""
        mask = self.heard_by_all_mask(t)
        return frozenset(p for p in range(self.n) if mask >> p & 1)

    # ------------------------------------------------------------------ #
    # Explicit process-time graph (Figure 2)
    # ------------------------------------------------------------------ #

    def ptg_nodes(self) -> list:
        """All process-time nodes: ``(p, 0, x_p)`` then ``(p, t)`` per round."""
        nodes: list = [(p, 0, self.inputs[p]) for p in range(self.n)]
        for t in range(1, self.depth + 1):
            nodes.extend((p, t) for p in range(self.n))
        return nodes

    def ptg_edges(self, include_self_loops: bool = True) -> list:
        """Edges ``((p, t-1), (q, t))`` for ``(p, q)`` in ``G_t``.

        The paper draws only the explicit communication edges; the
        self-transfer edges ``(p, t-1) -> (p, t)`` that make a process
        remember its own state are included by default and can be switched
        off to match the figure exactly.
        """
        edges = []
        for t in range(1, self.depth + 1):
            g = self.graphs[t - 1]
            for u, v in sorted(g.edges):
                edges.append(((u, t - 1), (v, t)))
            if include_self_loops:
                edges.extend(((p, t - 1), (p, t)) for p in range(self.n))
        return edges

    def cone(self, p: int, t: int | None = None) -> tuple[set, set]:
        """The causal past of ``(p, t)`` as explicit nodes/edges."""
        return self.interner.cone(self.view(p, t))

    # ------------------------------------------------------------------ #
    # Dunder protocol
    # ------------------------------------------------------------------ #

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PTGPrefix):
            return NotImplemented
        return (
            self.interner is other.interner
            and self.inputs == other.inputs
            and self.graphs == other.graphs
        )

    def __hash__(self) -> int:
        return hash((id(self.interner), self.inputs, self.graphs))

    def __repr__(self) -> str:
        return f"PTGPrefix(inputs={self.inputs!r}, depth={self.depth})"

    def __setattr__(self, key: str, value: object) -> None:
        raise AttributeError("PTGPrefix is immutable")
