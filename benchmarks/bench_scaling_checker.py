"""Scaling study: checker cost vs depth, alphabet size, and process count.

Not a figure of the paper, but the data a downstream user needs: how the
prefix space, the component analysis, and the full solvability check scale.
Workload sizes are chosen to finish in seconds while exposing the
exponential layer growth ``|V|^n · |D|^t``.
"""

import random

import pytest
from conftest import emit

from repro.adversaries import (
    ObliviousAdversary,
    lossy_link_full,
    lossy_link_no_hub,
    out_star_set,
    random_oblivious_adversary,
    santoro_widmayer_family,
)
from repro.consensus import check_consensus
from repro.consensus.decision import build_decision_table
from repro.consensus.solvability import (
    CheckOptions,
    check_consensus_with_options,
)
from repro.consensus.spec import ConsensusSpec
from repro.core.views import numpy_available
from repro.specs import NAMED_ADVERSARIES
from repro.topology.components import ComponentAnalysis
from repro.topology.prefixspace import PrefixSpace

#: Layer-kernel backends measurable in this environment; the numpy leg is
#: skipped (not failed) where numpy is absent.
KERNEL_BACKENDS = [
    "python",
    pytest.param(
        "numpy",
        marks=pytest.mark.skipif(
            not numpy_available(), reason="numpy not installed"
        ),
    ),
]


@pytest.mark.parametrize("depth", [2, 4, 6])
def test_scaling_layer_construction_depth(benchmark, depth):
    def kernel():
        space = PrefixSpace(lossy_link_full())
        space.ensure_depth(depth)
        return len(space.layer(depth))

    size = benchmark(kernel)
    emit(
        benchmark,
        f"scaling: layer construction, depth={depth}",
        [f"|layer {depth}| = {size} prefixes (4 * 3^{depth})"],
    )
    assert size == 4 * 3**depth


@pytest.mark.parametrize("depth", [2, 4, 6])
def test_scaling_component_analysis(benchmark, depth):
    space = PrefixSpace(lossy_link_no_hub())
    space.ensure_depth(depth)

    analysis = benchmark(lambda: ComponentAnalysis(space, depth))
    emit(
        benchmark,
        f"scaling: component analysis, depth={depth}",
        [repr(analysis.summary())],
    )


@pytest.mark.parametrize(
    "label, factory",
    [
        ("n=2 |D|=2", lossy_link_no_hub),
        ("n=2 |D|=3", lossy_link_full),
        ("n=3 |D|=3", lambda: ObliviousAdversary(3, out_star_set(3))),
        ("n=3 |D|=7", lambda: santoro_widmayer_family(3, 1)),
        ("n=4 |D|=13", lambda: santoro_widmayer_family(4, 1)),
        ("n=4 |D|=299", lambda: santoro_widmayer_family(4, 3)),
    ],
)
def test_scaling_full_check(benchmark, label, factory):
    result = benchmark(lambda: check_consensus(factory(), max_depth=4))
    emit(
        benchmark,
        f"scaling: full check, {label}",
        [f"{result.status.name}, certified depth {result.certified_depth}"],
    )


def test_scaling_view_interning(benchmark):
    """Throughput of the hash-consing view store on a deep layer.

    The kernel builds the whole space (interner included) from scratch, so
    every round measures the same full workload.
    """

    def kernel():
        space = PrefixSpace(lossy_link_no_hub())
        space.ensure_depth(9)
        return space.interner.stats()

    stats = benchmark(kernel)
    emit(
        benchmark,
        "scaling: view interning",
        [
            f"interned views after depth-9 space: {stats.total}",
            f"table geometry: {stats.rows} child rows, "
            f"~{stats.approx_bytes / 1024:.0f} KiB resident",
        ],
    )


# --------------------------------------------------------------------- #
# Scenarios unlocked by the bitmask kernel (impractical on the seed)
# --------------------------------------------------------------------- #


@pytest.mark.bench_deep
def test_scaling_layer_construction_deep(benchmark):
    """Depth-8 sweep of the full lossy link: 4 * 3^8 = 26244 prefixes."""

    def kernel():
        space = PrefixSpace(lossy_link_full())
        space.ensure_depth(8)
        return len(space.layer(8))

    size = benchmark.pedantic(kernel, rounds=3, iterations=1)
    emit(
        benchmark,
        "scaling: layer construction, depth=8 (new scenario)",
        [f"|layer 8| = {size} prefixes (4 * 3^8)"],
    )
    assert size == 4 * 3**8


@pytest.mark.bench_deep
def test_scaling_full_check_n5_sw(benchmark):
    """Full check of the n=5 Santoro-Widmayer family with one loss.

    |D| = 21 rooted graphs over 32 input assignments; certification at
    depth 2 walks a layer of 32 * 21^2 = 14112 five-process prefixes.  On
    the seed representation this ran for ~0.4 s per round — far outside the
    suite's per-round budget; the bitmask kernel brings it into range.
    """
    result = benchmark.pedantic(
        lambda: check_consensus(santoro_widmayer_family(5, 1), max_depth=3),
        rounds=3,
        iterations=1,
    )
    emit(
        benchmark,
        "scaling: full check, n=5 |D|=21 (new scenario)",
        [f"{result.status.name}, certified depth {result.certified_depth}"],
    )


@pytest.mark.bench_deep
def test_scaling_layer_construction_depth10_streaming(benchmark):
    """Depth-10 lossy link streamed frontier-by-frontier: 4 * 3^10 prefixes.

    ``retain="frontier"`` evicts historical layers as ``iter_layers``
    advances, so the run holds one 236k-prefix frontier plus the interner —
    the scenario the array-backed view tables and the streaming engine were
    built for (impractical before: the seed representation held every layer
    and every PrefixNode wrapper).
    """

    def kernel():
        space = PrefixSpace(lossy_link_full(), retain="frontier")
        for depth, store in space.iter_layers(max_depth=10):
            pass
        return len(store), space.interner.stats()

    size, stats = benchmark.pedantic(kernel, rounds=3, iterations=1)
    emit(
        benchmark,
        "scaling: streaming layer construction, depth=10 (new scenario)",
        [
            f"|layer 10| = {size} prefixes (4 * 3^10)",
            f"interner: {stats.total} views, {stats.rows} child rows, "
            f"~{stats.approx_bytes / 1e6:.1f} MB resident",
        ],
    )
    assert size == 4 * 3**10


@pytest.mark.bench_deep
def test_scaling_full_check_n6_sw(benchmark):
    """Full check of the n=6 Santoro-Widmayer family with one loss.

    |D| = 31 rooted graphs over 64 input assignments; certification at
    depth 2 walks a layer of 64 * 31^2 = 61504 six-process prefixes.  The
    first n=6 scenario inside the suite's budget.
    """
    result = benchmark.pedantic(
        lambda: check_consensus(santoro_widmayer_family(6, 1), max_depth=2),
        rounds=3,
        iterations=1,
    )
    emit(
        benchmark,
        "scaling: full check, n=6 |D|=31 (new scenario)",
        [f"{result.status.name}, certified depth {result.certified_depth}"],
    )
    assert result.status.name == "SOLVABLE"


# --------------------------------------------------------------------- #
# Whole-layer extension kernel scenarios (PR 4)
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("backend", KERNEL_BACKENDS)
def test_scaling_layer_kernel_quick(benchmark, backend):
    """Smoke-gate kernel scenario: depth-6 streaming on each backend.

    Small enough for the CI quick run, large enough that the whole-layer
    batch (not per-call overhead) dominates — this is the entry that keeps
    both kernel backends honest between full re-recordings.
    """

    def kernel():
        space = PrefixSpace(lossy_link_full(), retain="frontier")
        for depth, store in space.iter_layers(max_depth=6):
            pass
        return len(store)

    size = benchmark(kernel)
    emit(
        benchmark,
        f"scaling: layer kernel smoke, depth=6, backend={backend}",
        [f"|layer 6| = {size} prefixes (4 * 3^6)"],
    )
    assert size == 4 * 3**6


@pytest.mark.bench_deep
@pytest.mark.parametrize("backend", KERNEL_BACKENDS)
def test_scaling_layer_construction_depth12_streaming(benchmark, backend):
    """Depth-12 lossy link streamed: 4 * 3^12 = 2125764 prefixes.

    The scenario the whole-layer kernel was built for — one layer beyond
    the PR-2/PR-3 interactive ceiling (the per-parent path needed ~13 s
    here; see ``pr3_mean_s`` in the committed baseline).  ``max_nodes`` is
    raised above the 2M default, which the final layer alone exceeds.
    """

    def kernel():
        space = PrefixSpace(
            lossy_link_full(),
            retain="frontier",
            max_nodes=4_000_000,
        )
        for depth, store in space.iter_layers(max_depth=12):
            pass
        return len(store), space.interner.stats()

    size, stats = benchmark.pedantic(kernel, rounds=2, iterations=1)
    emit(
        benchmark,
        f"scaling: streaming layer construction, depth=12, backend={backend}",
        [
            f"|layer 12| = {size} prefixes (4 * 3^12)",
            f"interner: {stats.total} views, {stats.rows} child rows, "
            f"~{stats.approx_bytes / 1e6:.1f} MB resident",
        ],
    )
    assert size == 4 * 3**12


@pytest.mark.bench_deep
@pytest.mark.parametrize("backend", KERNEL_BACKENDS)
def test_scaling_n7_rooted_space(benchmark, backend):
    """Depth-3 streaming space of a random rooted n=7 oblivious adversary.

    128 input assignments x |D|=8 rooted graphs: 65536 seven-process
    prefixes at depth 3 — the first n=7 layer workload inside the suite's
    budget (recorded on both kernel backends).
    """
    rng = random.Random(2026)
    adversary = random_oblivious_adversary(rng, 7, size=8, rooted_only=True)

    def kernel():
        space = PrefixSpace(adversary, retain="frontier")
        space.ensure_depth(3)
        return len(space.layer_store(3)), space.interner.stats()

    size, stats = benchmark.pedantic(kernel, rounds=3, iterations=1)
    emit(
        benchmark,
        f"scaling: n=7 rooted |D|=8 depth-3 space, backend={backend}",
        [
            f"|layer 3| = {size} prefixes (128 * 8^3)",
            f"interner: {stats.total} views interned",
        ],
    )
    assert size == 128 * 8**3


@pytest.mark.bench_deep
def test_scaling_full_check_n7_sw(benchmark):
    """Full check of the n=7 Santoro-Widmayer family with one loss.

    |D| = 43 rooted graphs over 128 input assignments, certified at depth
    2 through a layer of 128 * 43^2 = 236672 seven-process prefixes — the
    first full n=7 classification inside the suite's budget.
    """
    result = benchmark.pedantic(
        lambda: check_consensus(santoro_widmayer_family(7, 1), max_depth=2),
        rounds=3,
        iterations=1,
    )
    emit(
        benchmark,
        "scaling: full check, n=7 |D|=43 (new scenario)",
        [f"{result.status.name}, certified depth {result.certified_depth}"],
    )
    assert result.status.name == "SOLVABLE"


# --------------------------------------------------------------------- #
# Columnar-pipeline scenarios (PR 5)
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("backend", KERNEL_BACKENDS)
def test_scaling_components_quick(benchmark, backend):
    """Smoke-gate columnar-components scenario: depth-6 layer, each backend.

    Small enough for the CI quick run on both the with-numpy and the
    without-numpy leg (the numpy param skips there), large enough that the
    component pass — not fixture setup — dominates; this is the entry
    that keeps the columnar ``ComponentAnalysis`` honest between full
    re-recordings.
    """
    space = PrefixSpace(lossy_link_full())
    space.ensure_depth(6)

    analysis = benchmark(lambda: ComponentAnalysis(space, 6))
    emit(
        benchmark,
        f"scaling: columnar components, depth=6, backend={backend}",
        [repr(analysis.summary())],
    )
    assert len(analysis.components) == 1


@pytest.mark.parametrize("backend", KERNEL_BACKENDS)
def test_scaling_stateful_check_quick(benchmark, backend):
    """Smoke-gate stateful scenario: full check of eventually-to-full-base.

    The eventually-forever adversary splits every layer into state-keyed
    groups, so each extension runs one kernel call per group and the
    grouped merge scatters their columns into the child layer; the check
    walks every depth through the 78,732-prefix depth-9 layer (components
    at each depth) before the broadcaster certificate answers.  The
    impossibility provers are off: with them on, the checker certifies
    the adversary's limit closure impossible and skips the deepening, so
    the row would time the provers instead.  Small enough for the CI
    quick run on both legs; this is the entry that keeps the grouped
    merge honest between full re-recordings.
    """
    options = CheckOptions(max_depth=9, use_impossibility_provers=False)
    result = benchmark.pedantic(
        lambda: check_consensus_with_options(
            NAMED_ADVERSARIES["eventually-to-full-base"](), options
        ),
        rounds=5,
        iterations=1,
        warmup_rounds=1,
    )
    emit(
        benchmark,
        f"scaling: stateful full check, depth=9, backend={backend}",
        [f"{result.status.name}; |layer 9| = {result.history[-1].prefixes}"],
    )
    assert result.status.name == "SOLVABLE"
    assert result.history[-1].prefixes == 4 * 3**9


@pytest.mark.bench_deep
@pytest.mark.parametrize("backend", KERNEL_BACKENDS)
def test_scaling_checker_pipeline_depth10(benchmark, backend):
    """Full ``check_consensus`` walking every depth through 10.

    Impossibility provers and the broadcaster certificate are disabled, so
    the checker runs the whole columnar pipeline — layer extension plus
    component analysis — on every layer of the full lossy link up to the
    236k-prefix depth-10 layer before returning UNDECIDED.  This is the
    depth-10 acceptance scenario of the columnar refactor.
    """
    options = CheckOptions(
        max_depth=10,
        use_impossibility_provers=False,
        use_broadcaster_certificate=False,
    )
    result = benchmark.pedantic(
        lambda: check_consensus_with_options(lossy_link_full(), options),
        rounds=3,
        iterations=1,
    )
    emit(
        benchmark,
        f"scaling: checker pipeline, depth=10, backend={backend}",
        [f"{result.status.name} after exploring depth {result.history[-1].depth}"],
    )
    assert result.status.name == "UNDECIDED"
    assert result.history[-1].prefixes == 4 * 3**10


@pytest.mark.bench_deep
@pytest.mark.parametrize("backend", KERNEL_BACKENDS)
def test_scaling_checker_pipeline_depth12(benchmark, backend):
    """Full ``check_consensus`` through the 2.1M-prefix depth-12 layer.

    The depth-12 acceptance scenario: extension + components at every
    depth, retained columnar layers throughout (``max_nodes`` raised above
    the final layer's size).
    """
    options = CheckOptions(
        max_depth=12,
        max_nodes=8_000_000,
        use_impossibility_provers=False,
        use_broadcaster_certificate=False,
    )
    result = benchmark.pedantic(
        lambda: check_consensus_with_options(lossy_link_full(), options),
        rounds=2,
        iterations=1,
    )
    emit(
        benchmark,
        f"scaling: checker pipeline, depth=12, backend={backend}",
        [f"{result.status.name} after exploring depth {result.history[-1].depth}"],
    )
    assert result.history[-1].prefixes == 4 * 3**12


@pytest.mark.bench_deep
@pytest.mark.parametrize("backend", KERNEL_BACKENDS)
def test_scaling_decision_pipeline_n3(benchmark, backend):
    """Components + decision table at depth 8 of the n=3 out-star space.

    52488 three-process prefixes; building (and validating) the decision
    table at depth 8 exercises the columnar final/early-map folds over
    all nine layers — the decision-stage workload of the pipeline.
    """

    def kernel():
        adversary = ObliviousAdversary(3, out_star_set(3))
        space = PrefixSpace(adversary)
        space.ensure_depth(8)
        analysis = ComponentAnalysis(space, 8)
        return build_decision_table(analysis, ConsensusSpec())

    table = benchmark.pedantic(kernel, rounds=3, iterations=1)
    emit(
        benchmark,
        f"scaling: decision pipeline, n=3 depth=8, backend={backend}",
        [f"decision table over {len(table.assignment)} components, "
         f"{len(table.early)} decided views"],
    )


@pytest.mark.bench_deep
@pytest.mark.parametrize("backend", KERNEL_BACKENDS)
def test_scaling_layer_construction_depth14_streaming(benchmark, backend):
    """Depth-14 lossy link streamed: 4 * 3^14 = 19131876 prefixes.

    The scenario the array-native layer format was built for — two layers
    beyond the PR-4 ceiling.  One frontier of 19.1M prefixes is a flat
    306MB id column (plus the interner's arena); the per-child tuple
    representation it replaced held this layer in tens of GB of Python
    objects.  Recorded on both backends, one round (the run is minutes of
    work on the pure-Python kernel).
    """

    def kernel():
        space = PrefixSpace(
            lossy_link_full(),
            retain="frontier",
            max_nodes=20_000_000,
        )
        for depth, store in space.iter_layers(max_depth=14):
            pass
        return len(store), space.interner.stats()

    size, stats = benchmark.pedantic(kernel, rounds=1, iterations=1)
    emit(
        benchmark,
        f"scaling: streaming layer construction, depth=14, backend={backend}",
        [
            f"|layer 14| = {size} prefixes (4 * 3^14)",
            f"interner: {stats.total} views, {stats.rows} child rows, "
            f"~{stats.approx_bytes / 1e6:.0f} MB resident",
        ],
    )
    assert size == 4 * 3**14


@pytest.mark.bench_deep
@pytest.mark.parametrize("backend", KERNEL_BACKENDS)
def test_scaling_n7_rooted_space_depth4(benchmark, backend):
    """Depth-4 streaming space of a random rooted n=7 oblivious adversary.

    128 input assignments x |D|=8 rooted graphs: 524288 seven-process
    prefixes at depth 4 — one layer deeper than the PR-4 n=7 scenario,
    recorded on both kernel backends.
    """
    rng = random.Random(2026)
    adversary = random_oblivious_adversary(rng, 7, size=8, rooted_only=True)

    def kernel():
        space = PrefixSpace(adversary, retain="frontier")
        space.ensure_depth(4)
        return len(space.layer_store(4)), space.interner.stats()

    size, stats = benchmark.pedantic(kernel, rounds=2, iterations=1)
    emit(
        benchmark,
        f"scaling: n=7 rooted |D|=8 depth-4 space, backend={backend}",
        [
            f"|layer 4| = {size} prefixes (128 * 8^4)",
            f"interner: {stats.total} views interned",
        ],
    )
    assert size == 128 * 8**4


@pytest.mark.bench_deep
def test_scaling_full_check_n5_rooted(benchmark):
    """Iterative deepening over a random rooted oblivious adversary on n=5."""
    rng = random.Random(2026)
    adversary = random_oblivious_adversary(rng, 5, size=4, rooted_only=True)

    result = benchmark.pedantic(
        lambda: check_consensus(adversary, max_depth=3), rounds=3, iterations=1
    )
    emit(
        benchmark,
        "scaling: full check, n=5 |D|=4 rooted (new scenario)",
        [f"{result.status.name}, certified depth {result.certified_depth}"],
    )


@pytest.mark.bench_deep
@pytest.mark.parametrize("backend", KERNEL_BACKENDS)
def test_scaling_n9_rooted_space(benchmark, backend):
    """Depth-3 streaming space of a random rooted n=9 oblivious adversary.

    512 input assignments x |D|=8 rooted graphs: 262144 nine-process
    prefixes at depth 3 — the first workload past the old ``n <= 8``
    interning wall, recorded on both the lifted-cap numpy kernel and the
    pure-Python reference path.
    """
    rng = random.Random(2026)
    adversary = random_oblivious_adversary(rng, 9, size=8, rooted_only=True)

    def kernel():
        space = PrefixSpace(adversary, retain="frontier")
        space.ensure_depth(3)
        return len(space.layer_store(3)), space.interner.stats()

    size, stats = benchmark.pedantic(kernel, rounds=2, iterations=1)
    emit(
        benchmark,
        f"scaling: n=9 rooted |D|=8 depth-3 space, backend={backend}",
        [
            f"|layer 3| = {size} prefixes (512 * 8^3)",
            f"interner: {stats.total} views interned",
        ],
    )
    assert size == 512 * 8**3
