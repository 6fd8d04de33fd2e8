#!/usr/bin/env python3
"""Regenerate docs/API.md from the package's ``__all__`` exports."""

import importlib
import inspect
import pathlib

MODULES = [
    "repro", "repro.errors", "repro.theorems",
    "repro.core.digraph", "repro.core.graphword", "repro.core.inputs",
    "repro.core.views", "repro.core.ptg", "repro.core.distances",
    "repro.adversaries.base", "repro.adversaries.oblivious",
    "repro.adversaries.safety", "repro.adversaries.buchi",
    "repro.adversaries.stabilizing", "repro.adversaries.lossylink",
    "repro.adversaries.heardof", "repro.adversaries.generators",
    "repro.adversaries.combinators", "repro.adversaries.compactness",
    "repro.topology.prefixspace", "repro.topology.components",
    "repro.topology.approximation", "repro.topology.separation",
    "repro.topology.limits",
    "repro.consensus.spec", "repro.consensus.solvability",
    "repro.consensus.decision", "repro.consensus.provers",
    "repro.consensus.broadcastability", "repro.consensus.bivalence",
    "repro.consensus.fairsequences", "repro.consensus.baselines",
    "repro.consensus.kset", "repro.consensus.decision_times",
    "repro.consensus.census",
    "repro.simulation.algorithms", "repro.simulation.twoprocess",
    "repro.simulation.runner", "repro.simulation.drivers",
    "repro.simulation.traces",
    "repro.viz.ascii", "repro.cli",
    "repro.api", "repro.options", "repro.specs", "repro.records", "repro.backends",
    "repro.fleet", "repro.store", "repro.service", "repro.io",
    "repro.analysis",
]


def main() -> None:
    lines = [
        "# API reference",
        "",
        "Public objects per module (`__all__`), with the first line of each",
        "docstring.  Generated by `scripts/generate_api_docs.py`; rerun it",
        "whenever the API changes.",
        "",
    ]
    for name in MODULES:
        module = importlib.import_module(name)
        doc = (inspect.getdoc(module) or "").splitlines()
        lines.append(f"## `{name}`")
        lines.append("")
        if doc:
            lines.append(doc[0])
            lines.append("")
        exported = getattr(module, "__all__", None)
        if not exported:
            lines.append("(no public exports)")
            lines.append("")
            continue
        for item_name in exported:
            item = getattr(module, item_name)
            item_doc = (inspect.getdoc(item) or "").splitlines()
            summary = item_doc[0] if item_doc else ""
            kind = (
                "class"
                if inspect.isclass(item)
                else "function"
                if callable(item)
                else "constant"
            )
            lines.append(f"* **`{item_name}`** ({kind}) — {summary}")
        lines.append("")
    target = pathlib.Path(__file__).resolve().parent.parent / "docs" / "API.md"
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text("\n".join(lines))
    print(f"wrote {target}: {len(lines)} lines")


if __name__ == "__main__":
    main()
