"""Topological characterization of consensus under general message adversaries.

An executable reproduction of Nowak, Schmid, Winkler (PODC 2019,
arXiv:1905.09590).  The library provides:

* :mod:`repro.core` — communication graphs, process-time graphs, interned
  full-information views, and the paper's distance functions ``d_P``,
  ``d_min``, ``d_max`` (Sections 2-4);
* :mod:`repro.adversaries` — message adversaries: oblivious sets, safety
  automata (the compact/limit-closed class), and non-compact eventually
  stabilizing families (Section 6);
* :mod:`repro.topology` — prefix spaces, indistinguishability components,
  ε-approximations (Definition 6.2), set distances and fair/unfair limits
  (Definition 5.16);
* :mod:`repro.consensus` — the solvability checker implementing
  Theorems 5.5/5.11/6.6/6.7, broadcastability analysis, decision-table
  universal algorithms, impossibility provers and literature baselines;
* :mod:`repro.simulation` — a synchronous lock-step simulator that runs the
  universal algorithm (and others) against admissible graph sequences;
* :mod:`repro.api` — the stable experiment surface: serializable
  :class:`~repro.specs.AdversarySpec` scenario descriptions,
  :class:`~repro.consensus.solvability.CheckOptions`,
  :class:`~repro.api.Session`, pluggable sweep backends
  (:mod:`repro.backends`), the unified :class:`~repro.records.RunRecord`
  schema, and the :mod:`repro.analysis` report layer.

Quickstart
----------
>>> from repro import arrow, ObliviousAdversary, check_consensus
>>> solvable = check_consensus(ObliviousAdversary(2, [arrow("->"), arrow("<-")]))
>>> solvable.status.name
'SOLVABLE'

Or, through the session API:

>>> from repro import AdversarySpec, CheckOptions, Session
>>> session = Session(CheckOptions(max_depth=6))
>>> session.check(AdversarySpec("oblivious", {"n": 2, "graphs": [2, 4]})).solvable
True
"""

from repro._version import __version__
from repro.core import (
    Digraph,
    GraphWord,
    PTGPrefix,
    ViewInterner,
    all_assignments,
    arrow,
    d_max,
    d_min,
    d_p,
    d_view,
    unanimous,
)

__all__ = [
    "AdversarySpec",
    "CheckOptions",
    "Digraph",
    "GraphWord",
    "PTGPrefix",
    "RunRecord",
    "Session",
    "ViewInterner",
    "all_assignments",
    "arrow",
    "d_max",
    "d_min",
    "d_p",
    "d_view",
    "unanimous",
    "__version__",
]

#: Names lazily re-exported from the high-level API (avoids import cycles
#: and keeps ``import repro`` light).
_API_NAMES = {
    "AdversarySpec",
    "CheckOptions",
    "Session",
    "RunRecord",
    "SweepJob",
    "SweepBackend",
    "SerialBackend",
    "ProcessBackend",
    "FleetBackend",
    "run_sweep",
    "jobs_for",
    "retry_jobs",
    "read_jsonl",
    "write_jsonl",
    "register_family",
    "families",
    "summarize",
    "render_report",
}


def __getattr__(name: str):
    """Lazily re-export the high-level API to avoid import cycles."""
    if name in {"ObliviousAdversary", "SafetyAdversary", "MessageAdversary"}:
        import repro.adversaries as _adv

        return getattr(_adv, name)
    if name in {"check_consensus", "SolvabilityStatus"}:
        import repro.consensus as _cons

        return getattr(_cons, name)
    if name in _API_NAMES:
        import repro.api as _api

        return getattr(_api, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
