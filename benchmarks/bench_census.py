"""Census benchmarks: the exhaustive two-process table and engine sweeps.

Section 6.1/6.2's two-process discussion is exhaustively checkable: 15
nonempty oblivious adversaries over {→, ←, ↔, ∅}.  The harness regenerates
the full classification table with certificates and cross-checks every row
against the exact literature oracle ([21], [8], [9]) and the CGP
reconstruction.

The sweep-engine entries measure the sharded execution paths added for the
oblivious-adversary studies (Winkler et al., arXiv:2202.12397): the serial
engine path (a fresh interner per job) and the 4-worker process fan-out.  The two-process family itself finishes in a few
milliseconds, so process fan-out can only lose there — the multi-core win
is measured on the heavier random rooted n=5 family, and the "parallel
beats serial" assertion is gated on the machine actually having multiple
cores (the committed baseline may have been recorded on a 1-core CI box).
"""

import os
import random
import time

import pytest
from conftest import emit

from repro.adversaries import random_rooted_family, two_process_oblivious_family
from repro.analysis import render_report, summarize
from repro.api import jobs_for, run_sweep
from repro.backends import SerialBackend, _run_jobs
from repro.consensus.census import two_process_census
from repro.viz import render_census


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def test_two_process_census_table(benchmark):
    rows = benchmark(lambda: two_process_census(max_depth=6))

    lines = [render_census(rows)]
    solvable = sum(1 for row in rows if row.checker_solvable)
    lines.append(
        f"totals: {solvable} solvable, {len(rows) - solvable} impossible; "
        "oracle and CGP agree on every row"
    )
    # Census rows are RunRecord-backed, so the sweep report layer renders
    # them directly.
    lines.append("")
    lines.append(render_report(summarize([row.record for row in rows])))
    emit(benchmark, "two-process census (exhaustive)", lines)

    assert len(rows) == 15
    assert solvable == 6
    for row in rows:
        assert row.oracle_agrees is True
        assert row.cgp_agrees is True


def test_backend_dispatch_overhead(benchmark):
    """Backend-layer dispatch vs the bare shard executor.

    The API redesign routes ``run_sweep`` through a pluggable
    :class:`~repro.backends.SweepBackend`; this entry records what the
    dispatch layer (job validation, backend object, index sort) costs on
    top of the raw ``_run_jobs`` loop — the engine shape of the previous
    revision.  The workload is the full two-process family, so the ratio
    is measured against real checker work, not an empty loop.
    """
    jobs = jobs_for(two_process_oblivious_family(), max_depth=6)
    bare_elapsed = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        bare_records = _run_jobs(0, jobs)
        bare_elapsed = min(bare_elapsed, time.perf_counter() - start)

    records = benchmark(lambda: run_sweep(jobs, backend=SerialBackend()))
    assert [(r.index, r.status) for r in records] == [
        (r.index, r.status) for r in bare_records
    ]
    dispatched = benchmark.stats.stats.min
    emit(
        benchmark,
        "backend dispatch overhead (serial, two-process family)",
        [
            f"bare _run_jobs best {bare_elapsed * 1e3:.2f} ms vs dispatched "
            f"best {dispatched * 1e3:.2f} ms "
            f"({dispatched / bare_elapsed:.2f}x)",
        ],
    )


@pytest.mark.bench_deep
def test_two_process_census_sweep_workers(benchmark):
    """The exhaustive census through the engine with 4 workers.

    Verifies the sharded path reproduces the table verbatim and records its
    wall-clock next to the serial baseline above; at ~3 ms of checker work
    the pool startup dominates, so this entry documents the engine overhead
    floor rather than a speedup.
    """
    rows = benchmark.pedantic(
        lambda: two_process_census(max_depth=6, workers=4), rounds=3, iterations=1
    )
    assert len(rows) == 15
    assert all(row.oracle_agrees for row in rows)
    emit(
        benchmark,
        "two-process census via sweep engine (4 workers)",
        ["verdicts identical to the serial table; see rooted-family entries "
         "for the multi-core comparison"],
    )


def _rooted_jobs():
    rng = random.Random(2026)
    return jobs_for(random_rooted_family(rng, 5, 32, sizes=(3, 4)), max_depth=3)


@pytest.mark.bench_deep
def test_rooted_census_sweep_serial(benchmark):
    """Engine serial path on the rooted n=5 family (one interner per job)."""
    jobs = _rooted_jobs()
    records = benchmark.pedantic(lambda: run_sweep(jobs, workers=1), rounds=3, iterations=1)
    statuses = {record.status for record in records}
    emit(
        benchmark,
        "rooted n=5 census, sweep engine serial",
        [f"32 adversaries, statuses {sorted(statuses)}"],
    )
    assert len(records) == 32


@pytest.mark.bench_deep
def test_rooted_census_sweep_parallel(benchmark):
    """Engine 4-worker path on the rooted n=5 family.

    On a machine with at least as many cores as workers this must beat the
    serial engine wall-clock; on smaller or 1-core runners the assertion
    is skipped (with fewer cores than workers the comparison is
    legitimately unstable) — the
    fan-out still runs and its records must match the serial ones.
    """
    jobs = _rooted_jobs()
    serial_elapsed = float("inf")
    for _ in range(3):
        serial_start = time.perf_counter()
        serial_records = run_sweep(jobs, workers=1)
        serial_elapsed = min(serial_elapsed, time.perf_counter() - serial_start)

    records = benchmark.pedantic(lambda: run_sweep(jobs, workers=4), rounds=3, iterations=1)

    assert [(r.index, r.status, r.certificate) for r in records] == [
        (r.index, r.status, r.certificate) for r in serial_records
    ]
    assert {record.shard for record in records} == {0, 1, 2, 3}
    parallel_min = benchmark.stats.stats.min
    cpus = _cpus()
    emit(
        benchmark,
        "rooted n=5 census, sweep engine 4 workers",
        [
            f"serial {serial_elapsed * 1e3:.1f} ms vs parallel best "
            f"{parallel_min * 1e3:.1f} ms on {cpus} core(s)",
        ],
    )
    if cpus >= 4:
        # 5% headroom tolerates boundary measurement noise; a genuine
        # parallel win is 2-3x, so real regressions still fail.
        assert parallel_min < serial_elapsed * 1.05, (
            f"4-worker sweep ({parallel_min:.3f}s) did not beat serial "
            f"({serial_elapsed:.3f}s) on {cpus} cores"
        )
