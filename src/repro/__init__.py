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
  :class:`~repro.options.CheckOptions`,
  :class:`~repro.api.Session`, pluggable sweep backends
  (:mod:`repro.backends`), the unified :class:`~repro.records.RunRecord`
  schema, and the :mod:`repro.analysis` report layer.

The names this package exports resolve on first use (PEP 562):
``import repro`` loads no layer until one of them is read, and
``repro.core``, ``repro.store`` and ``repro.api`` re-export the same way.

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

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports
from repro._version import __version__

if TYPE_CHECKING:
    from repro.adversaries.base import MessageAdversary
    from repro.adversaries.oblivious import ObliviousAdversary
    from repro.adversaries.safety import SafetyAdversary
    from repro.analysis import render_report, summarize
    from repro.api import Session, run_sweep
    from repro.backends import (
        ProcessBackend,
        SerialBackend,
        SweepBackend,
        SweepJob,
        jobs_for,
        retry_jobs,
    )
    from repro.consensus.solvability import SolvabilityStatus, check_consensus
    from repro.core.digraph import Digraph, arrow
    from repro.core.distances import d_max, d_min, d_p, d_view
    from repro.core.graphword import GraphWord
    from repro.core.inputs import all_assignments, unanimous
    from repro.core.ptg import PTGPrefix
    from repro.core.views import ViewInterner
    from repro.fleet import FleetBackend
    from repro.options import CheckOptions
    from repro.records import RunRecord, read_jsonl, write_jsonl
    from repro.specs import AdversarySpec, families, register_family

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

# The names of __all__, plus the adversary, checker and sweep entry points
# the quickstart reaches for.
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "MessageAdversary": "repro.adversaries.base",
        "ObliviousAdversary": "repro.adversaries.oblivious",
        "SafetyAdversary": "repro.adversaries.safety",
        "render_report": "repro.analysis",
        "summarize": "repro.analysis",
        "Session": "repro.api",
        "run_sweep": "repro.api",
        "ProcessBackend": "repro.backends",
        "SerialBackend": "repro.backends",
        "SweepBackend": "repro.backends",
        "SweepJob": "repro.backends",
        "jobs_for": "repro.backends",
        "retry_jobs": "repro.backends",
        "SolvabilityStatus": "repro.consensus.solvability",
        "check_consensus": "repro.consensus.solvability",
        "Digraph": "repro.core.digraph",
        "arrow": "repro.core.digraph",
        "d_max": "repro.core.distances",
        "d_min": "repro.core.distances",
        "d_p": "repro.core.distances",
        "d_view": "repro.core.distances",
        "GraphWord": "repro.core.graphword",
        "all_assignments": "repro.core.inputs",
        "unanimous": "repro.core.inputs",
        "PTGPrefix": "repro.core.ptg",
        "ViewInterner": "repro.core.views",
        "FleetBackend": "repro.fleet",
        "CheckOptions": "repro.options",
        "RunRecord": "repro.records",
        "read_jsonl": "repro.records",
        "write_jsonl": "repro.records",
        "AdversarySpec": "repro.specs",
        "families": "repro.specs",
        "register_family": "repro.specs",
    },
)
