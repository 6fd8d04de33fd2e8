"""Exception hierarchy for the :mod:`repro` library.

All library-specific errors derive from :class:`ReproError` so that callers
can catch every failure mode of the library with a single ``except`` clause
while still being able to distinguish configuration problems from analysis
problems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of all errors raised by the :mod:`repro` library."""


class InvalidGraphError(ReproError):
    """A communication graph was constructed with out-of-range nodes."""


class InvalidInputError(ReproError):
    """An input assignment does not match the system size or input domain."""


class AdversaryError(ReproError):
    """A message adversary was queried inconsistently (bad state, bad word)."""


class InadmissibleWordError(AdversaryError):
    """A graph word is not admissible (no safety-automaton run accepts it)."""


class AnalysisError(ReproError):
    """A topological analysis was invoked with inconsistent arguments."""


class CapacityError(ReproError):
    """A view interner would pass the ids its int32 columns can hold.

    Deliberately not an :class:`AnalysisError`: the checker's depth loop
    turns those into an UNDECIDED verdict, which a result store would
    cache as if more depth had been tried.
    """


class CertificateError(ReproError):
    """A solvability certificate failed validation."""


class SimulationError(ReproError):
    """The lock-step simulator detected a protocol violation."""
