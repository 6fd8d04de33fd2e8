"""Shared helpers for the benchmark harness.

Each ``bench_*`` module regenerates one artifact of the paper (a figure, a
worked example, or a claim) and times its computational kernel with
pytest-benchmark.  The regenerated artifact is printed through
:func:`emit`, so running ``pytest benchmarks/ --benchmark-only -s`` shows
the reproduced figures next to the timings, and is also attached to the
benchmark's ``extra_info`` so it lands in JSON exports.

A benchmark parametrized over ``backend`` (the ``KERNEL_BACKENDS`` rows of
``bench_scaling_checker.py``) times its ``"python"`` rows on the platform
without numpy, emulated in process: :func:`kernel_platform` patches
``repro.core.views._np`` — the import gate every columnar stage reads
through ``numpy_module()`` — to ``None``.
"""

from __future__ import annotations

import pytest

import repro.core.views as views


@pytest.fixture(autouse=True)
def kernel_platform(request, monkeypatch):
    """Hide numpy from a benchmark whose ``backend`` parameter is ``"python"``."""
    callspec = getattr(request.node, "callspec", None)
    if callspec is not None and callspec.params.get("backend") == "python":
        monkeypatch.setattr(views, "_np", None)


def emit(benchmark, title: str, lines) -> None:
    """Print an artifact block and attach it to the benchmark record."""
    text = "\n".join(lines) if not isinstance(lines, str) else lines
    print(f"\n----- {title} -----")
    print(text)
    if benchmark is not None:
        benchmark.extra_info["artifact"] = text
