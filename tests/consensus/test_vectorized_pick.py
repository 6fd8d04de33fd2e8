"""The columnar component-value assignment, pinned to scalar pick_value.

``build_decision_table`` assigns a value to every component; on the numpy
pipeline that now runs as one whole-layer pass (forced valences /
strong-validity allowed bitmaps via ``reduceat`` folds, broadcaster
values via per-process min/max folds).  The pass must reproduce
:meth:`ConsensusSpec.pick_value` exactly — same values, same preference
order, same errors — and must step aside for spec subclasses that
override the per-component hooks.
"""

import pytest
from kernels import without_numpy

from repro.adversaries import (
    ObliviousAdversary,
    lossy_link_full,
    lossy_link_no_hub,
    lossy_link_with_silence,
    out_star_set,
    santoro_widmayer_family,
)
from repro.consensus.decision import _assign_values, _assign_values_numpy
from repro.consensus.spec import ConsensusSpec
from repro.consensus.solvability import CheckOptions, check_consensus_with_options
from repro.core.views import numpy_available, numpy_module
from repro.errors import AnalysisError
from repro.topology.components import ComponentAnalysis
from repro.topology.prefixspace import PrefixSpace

pytestmark = pytest.mark.skipif(
    not numpy_available(), reason="the columnar assignment requires numpy"
)


@pytest.fixture(autouse=True)
def vectorize_even_tiny_layers(monkeypatch):
    import repro.topology.components as components_module

    monkeypatch.setattr(components_module, "_COMPONENT_NUMPY_MIN_CELLS", 1)


def scalar_assignment(analysis, spec):
    return {c.id: spec.pick_value(c) for c in analysis.components}


FAMILIES = [
    lossy_link_full,
    lossy_link_no_hub,
    lossy_link_with_silence,
    lambda: santoro_widmayer_family(3, 1),
    lambda: ObliviousAdversary(3, out_star_set(3)),
]


@pytest.mark.parametrize("factory", FAMILIES, ids=lambda f: f.__name__)
@pytest.mark.parametrize("validity", ["weak", "strong"])
def test_vectorized_assignment_matches_scalar(factory, validity):
    np = numpy_module()
    spec = ConsensusSpec(validity=validity)
    space = PrefixSpace(factory())
    layers_checked = 0
    for depth in range(0, 5):
        space.ensure_depth(depth)
        analysis = ComponentAnalysis(space, depth)
        if not isinstance(analysis.comp_ids, np.ndarray):
            continue
        try:
            expected = scalar_assignment(analysis, spec)
        except AnalysisError as error:
            with pytest.raises(AnalysisError) as caught:
                _assign_values_numpy(np, analysis, spec)
            assert str(caught.value) == str(error)
        else:
            assert _assign_values_numpy(np, analysis, spec) == expected
        layers_checked += 1
    assert layers_checked > 0


def test_bivalent_component_raises_identical_error():
    np = numpy_module()
    spec = ConsensusSpec()
    # Full lossy link stays bivalent with the provers disabled: its deep
    # layers exercise the empty-allowed error path on both code paths.
    space = PrefixSpace(lossy_link_full())
    space.ensure_depth(3)
    analysis = ComponentAnalysis(space, 3)
    assert isinstance(analysis.comp_ids, np.ndarray)
    with pytest.raises(AnalysisError) as scalar_error:
        scalar_assignment(analysis, spec)
    with pytest.raises(AnalysisError) as columnar_error:
        _assign_values_numpy(np, analysis, spec)
    assert str(columnar_error.value) == str(scalar_error.value)
    assert "admits no decision value" in str(columnar_error.value)


def test_custom_spec_subclass_falls_back_to_per_component_calls():
    calls = []

    class CountingSpec(ConsensusSpec):
        def pick_value(self, component):
            calls.append(component.id)
            return super().pick_value(component)

    spec = CountingSpec()
    space = PrefixSpace(santoro_widmayer_family(3, 1))
    space.ensure_depth(2)
    analysis = ComponentAnalysis(space, 2)
    assignment = _assign_values(analysis, spec)
    assert sorted(calls) == sorted(c.id for c in analysis.components)
    assert assignment == {
        c.id: ConsensusSpec().pick_value(c) for c in analysis.components
    }


def test_library_spec_takes_the_columnar_path():
    class Probe(ConsensusSpec):
        pass

    # The gate keys on the class attributes, not the instance: the plain
    # library spec (and trivial subclasses that override nothing) must
    # route through the columnar pass without per-component calls.
    space = PrefixSpace(santoro_widmayer_family(3, 1))
    space.ensure_depth(2)
    analysis = ComponentAnalysis(space, 2)
    expected = scalar_assignment(analysis, ConsensusSpec())
    assert _assign_values(analysis, Probe()) == expected


def test_checker_results_unchanged_by_the_columnar_pass():
    for validity in ("weak", "strong"):
        options = CheckOptions(max_depth=4, use_impossibility_provers=False)
        result = check_consensus_with_options(
            santoro_widmayer_family(3, 1),
            options,
            spec=ConsensusSpec(validity=validity),
        )
        with without_numpy():
            python_result = check_consensus_with_options(
                santoro_widmayer_family(3, 1),
                options,
                spec=ConsensusSpec(validity=validity),
            )
        assert result.status == python_result.status
        assert result.certified_depth == python_result.certified_depth
        if result.decision_table is not None:
            assert (
                result.decision_table.assignment
                == python_result.decision_table.assignment
            )
