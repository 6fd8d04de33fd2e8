"""Figure 2: the process-time graph at time 2 with n = 3, x = (1, 0, 1).

Regenerates the figure's object — a two-round process-time graph with
process 1's view (here process 0 after renumbering to 0-based ids)
highlighted — and benchmarks PTG construction with view interning.

The primary kernel constructs the prefix against a *shared* interner, which
is the library's intended usage (all prefixes of one analysis share one
interner; repeated constructions hit the hash-consing tables).  The cold
kernel keeps the old fresh-interner-per-construction measurement for
comparison.
"""

from conftest import emit

from repro.core.digraph import Digraph
from repro.core.ptg import PTGPrefix
from repro.core.views import ViewInterner
from repro.viz import render_ptg

G1 = Digraph(3, [(0, 1), (2, 1)])
G2 = Digraph(3, [(1, 0)])
INPUTS = (1, 0, 1)

#: The shared interner of the primary kernel (one per analysis, as in
#: :class:`repro.topology.prefixspace.PrefixSpace`).
SHARED_INTERNER = ViewInterner(3)


def build_prefix(interner: ViewInterner | None = None) -> PTGPrefix:
    # Not ``interner or ...``: a fresh interner is empty, hence falsy.
    if interner is None:
        interner = SHARED_INTERNER
    return PTGPrefix(interner, INPUTS, [G1, G2])


def test_fig2_process_time_graph(benchmark):
    prefix = benchmark(build_prefix)

    nodes = prefix.ptg_nodes()
    edges = prefix.ptg_edges(include_self_loops=False)
    cone_nodes, cone_edges = prefix.cone(0)
    lines = [
        render_ptg(prefix, highlight_process=0),
        "",
        f"nodes: {len(nodes)} (paper: 3 initial + 2x3 round nodes = 9)",
        f"communication edges: {sorted(edges)}",
        f"|view of process 0| = {len(cone_nodes)} nodes, {len(cone_edges)} edges",
        f"origins in the view: {prefix.interner.origins(prefix.view(0))}",
    ]
    emit(benchmark, "Figure 2 (process-time graph, t=2, x=(1,0,1))", lines)

    assert len(nodes) == 9
    assert len(edges) == 3
    # Process 0's causal past contains every initial node (heard 1, who
    # heard 0 and 2) — matching the bold-green subgraph of the figure.
    assert {(q, 0) for q in range(3)} <= cone_nodes


def test_fig2_process_time_graph_cold(benchmark):
    """The same construction paying for a fresh interner every round."""
    prefix = benchmark(lambda: build_prefix(ViewInterner(3)))
    assert prefix.depth == 2
    assert len(prefix.ptg_nodes()) == 9
