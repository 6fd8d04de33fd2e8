"""Compactness (limit-closure) analysis of message adversaries.

Section 6.2/6.3 of the paper split the characterization by whether the
adversary is *limit-closed*: every convergent sequence of admissible
sequences has its limit admissible.  For ω-automaton adversaries:

* :func:`limit_closure` builds the closure — the safety adversary with the
  same transition structure but trivial acceptance.  Its admissible
  sequences are exactly the limits of the original adversary's prefixes.
* :func:`find_limit_violation` searches for a *witness of non-compactness*:
  an ultimately periodic sequence ``u · v^ω`` all of whose prefixes are
  admissible but which is itself not admissible (it fails the liveness
  condition).  For the eventually-stabilizing families these witnesses are
  precisely the excluded "unfair" limits of Figure 5.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator

from repro.adversaries.base import MessageAdversary
from repro.adversaries.safety import SafetyAdversary
from repro.core.graphword import GraphWord

__all__ = ["limit_closure", "find_limit_violation", "LimitViolation"]


class LimitViolation:
    """A lasso witnessing non-compactness: admissible prefixes, excluded limit."""

    __slots__ = ("stem", "cycle")

    def __init__(self, stem: GraphWord, cycle: GraphWord) -> None:
        self.stem = stem
        self.cycle = cycle

    def __repr__(self) -> str:
        return f"LimitViolation(stem={self.stem!r}, cycle={self.cycle!r})"


def limit_closure(adversary: MessageAdversary) -> SafetyAdversary:
    """The topological closure of ``adversary`` as a safety adversary.

    The closure keeps the transition structure (restricted to states that
    admit *some* infinite run, accepting or not) and drops the acceptance
    condition.  Its ω-language is the set of all sequence limits of the
    original adversary's admissible prefixes.
    """
    live = adversary.live_states()
    table: dict = {}
    for state in adversary.all_states() & live:
        row: dict = {}
        for graph, successors in adversary.transitions(state).items():
            kept = frozenset(successors) & live
            if kept:
                row[graph] = kept
        table[state] = row
    closure = SafetyAdversary(
        adversary.n,
        adversary.initial_states() & live,
        table,
        name=f"Closure({adversary.name})",
    )
    return closure


def _lassos(
    adversary: MessageAdversary, max_stem: int, max_cycle: int
) -> Iterator[tuple[GraphWord, GraphWord]]:
    alphabet = adversary.alphabet()
    for stem_len in range(max_stem + 1):
        for stem in product(alphabet, repeat=stem_len):
            for cycle_len in range(1, max_cycle + 1):
                for cycle in product(alphabet, repeat=cycle_len):
                    yield (
                        GraphWord(stem, n=adversary.n),
                        GraphWord(cycle, n=adversary.n),
                    )


def find_limit_violation(
    adversary: MessageAdversary, max_stem: int = 2, max_cycle: int = 2
) -> LimitViolation | None:
    """Search for an ultimately periodic excluded limit.

    Returns a :class:`LimitViolation` whose lasso has all prefixes
    admissible for ``adversary`` (it is admissible for the closure) yet is
    not itself admissible, or ``None`` when no witness exists within the
    stem/cycle bounds.  A non-``None`` result proves the adversary is not
    limit-closed; ``None`` is inconclusive in general (but for the built-in
    families small bounds suffice).
    """
    closure = limit_closure(adversary)
    for stem, cycle in _lassos(adversary, max_stem, max_cycle):
        if not closure.admits_lasso(stem, cycle):
            continue
        if not adversary.admits_lasso(stem, cycle):
            return LimitViolation(stem, cycle)
    return None
