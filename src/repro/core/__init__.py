"""Core substrate: communication graphs, process-time graphs, views, distances.

This subpackage contains the model layer of the reproduction (Sections 2-4 of
the paper): immutable communication graphs, graph words with heard-of
dynamics, input assignments, interned full-information views, process-time
graph prefixes, and the paper's three families of distance functions.

The names this package exports resolve on first use (PEP 562), so
importing one module of the layer (``repro.core.digraph``, say, as every
adversary does) does not load the interned view tables of
:mod:`repro.core.views`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.core.digraph import ARROW_NAMES_N2, Digraph, arrow
    from repro.core.distances import (
        d_max,
        d_min,
        d_p,
        d_view,
        diameter,
        distance_value,
        divergence_time,
        equality_profile,
        set_distance,
    )
    from repro.core.graphword import GraphWord, full_mask, heard_of_step
    from repro.core.inputs import (
        all_assignments,
        binary_domain,
        unanimity_value,
        unanimous,
        validate_assignment,
    )
    from repro.core.ptg import PTGPrefix
    from repro.core.views import LayerTable, ViewInterner, ViewStats

__all__ = [
    "ARROW_NAMES_N2",
    "Digraph",
    "GraphWord",
    "LayerTable",
    "PTGPrefix",
    "ViewInterner",
    "ViewStats",
    "all_assignments",
    "arrow",
    "binary_domain",
    "d_max",
    "d_min",
    "d_p",
    "d_view",
    "diameter",
    "distance_value",
    "divergence_time",
    "equality_profile",
    "full_mask",
    "heard_of_step",
    "set_distance",
    "unanimity_value",
    "unanimous",
    "validate_assignment",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "ARROW_NAMES_N2": "repro.core.digraph",
        "Digraph": "repro.core.digraph",
        "arrow": "repro.core.digraph",
        "d_max": "repro.core.distances",
        "d_min": "repro.core.distances",
        "d_p": "repro.core.distances",
        "d_view": "repro.core.distances",
        "diameter": "repro.core.distances",
        "distance_value": "repro.core.distances",
        "divergence_time": "repro.core.distances",
        "equality_profile": "repro.core.distances",
        "set_distance": "repro.core.distances",
        "GraphWord": "repro.core.graphword",
        "full_mask": "repro.core.graphword",
        "heard_of_step": "repro.core.graphword",
        "all_assignments": "repro.core.inputs",
        "binary_domain": "repro.core.inputs",
        "unanimity_value": "repro.core.inputs",
        "unanimous": "repro.core.inputs",
        "validate_assignment": "repro.core.inputs",
        "PTGPrefix": "repro.core.ptg",
        "LayerTable": "repro.core.views",
        "ViewInterner": "repro.core.views",
        "ViewStats": "repro.core.views",
    },
)
