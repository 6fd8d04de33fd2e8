"""The deep-check and census-sweep workloads, and what every workload shares.

Each workload function takes a :class:`Context` and ``traced`` and returns
an :class:`Outcome`: the gated end-to-end metrics, the named metrics of
its entry point, the measured window (for selecting trace spans), and the
correctness failures found.
"""

from __future__ import annotations

import gc
import json
import random
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any

from gate import DEFAULT_SEED, check_digest, recheck, verdict_digest
from stats import median, peak_rss_mb

#: Setup repetitions per run; ``setup_s`` is their median.
SETUP_REPS = 5
#: Seconds a set-up process may take before it is killed.
SETUP_TIMEOUT = 120


class Context:
    """Paths and arguments of one benchmark run."""

    def __init__(self, root: Path, seed: int, seconds: float, record_digests: bool = False) -> None:
        self.root = root
        self.src = root / "src"
        self.bench = Path(__file__).resolve().parent
        self.work = root / ".perfbench_work"
        self.trace_dir = self.work / "trace"
        self.seed = seed
        self.seconds = seconds
        self.record_digests = record_digests
        self._serial = 0

    def fresh_dir(self, name: str) -> Path:
        self._serial += 1
        path = self.work / f"{name}-{self._serial}"
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path


class Outcome:
    def __init__(self) -> None:
        #: Gated end-to-end metrics (names in BENCHMARK.json), unit implied.
        self.metrics: dict[str, float] = {}
        #: The entry point's own named metrics: name -> (value, unit).
        self.named: dict[str, tuple[float, str]] = {}
        #: Service-only per-layer metrics: name -> (value, unit).
        self.service: dict[str, tuple[float, str]] = {}
        self.samples: dict[str, int] = {}
        self.attempted = 0
        self.failures: list[str] = []
        #: (start, end) perf_counter window of the measured phase, and
        #: the work units in it (per-layer metrics are per unit).
        self.window: tuple[float, float] = (0.0, 0.0)
        self.units = 1
        self.digest: str | None = None

    def fail(self, message: str) -> None:
        self.failures.append(message)


def measure_setup(ctx: Context, reps: int = SETUP_REPS) -> float:
    """Median wall time of fresh ``launcher.py setup`` processes.

    The wait blocks; a timeout on it would poll, and see the exit up to
    50 ms late.  A timer kills a process that hangs instead.
    """
    times = []
    for _ in range(reps):
        store = ctx.fresh_dir("setup-store")
        command = [sys.executable, str(ctx.bench / "launcher.py"), "setup",
                   "--src", str(ctx.src), "--store", str(store)]
        began = time.perf_counter()
        process = subprocess.Popen(command, cwd=ctx.root)
        watchdog = threading.Timer(SETUP_TIMEOUT, process.kill)
        watchdog.start()
        try:
            code = process.wait()
        finally:
            watchdog.cancel()
        times.append(time.perf_counter() - began)
        if code != 0:
            raise subprocess.CalledProcessError(code, command)
    return median(times)


def _digest_gate(ctx: Context, out: Outcome, workload: str, records: list[dict[str, Any]]) -> None:
    out.digest = verdict_digest(records)
    problem = check_digest(workload, out.digest)
    if problem is not None and not ctx.record_digests:
        out.fail(problem)


# --------------------------------------------------------------------- #
# deep-check
# --------------------------------------------------------------------- #

#: (named metric, spec, options): an oblivious single-group walk, the
#: stateful grouped-merge path, and a wide seven-process decision table.
SCENARIOS = (
    ("oblivious_check_s", {"family": "named", "params": {"name": "lossy-full"}, "seed": None},
     {"max_depth": 11, "use_impossibility_provers": False, "use_broadcaster_certificate": False}),
    ("stateful_check_s", {"family": "named", "params": {"name": "eventually-to-full-base"}, "seed": None},
     {"max_depth": 11}),
    ("wide_check_s", {"family": "santoro-widmayer", "params": {"n": 7, "losses": 1}, "seed": None},
     {"max_depth": 4}),
)


def deep_check(ctx: Context, traced: bool) -> Outcome:
    from repro.api import AdversarySpec, CheckOptions, Session

    out = Outcome()
    out.metrics["setup_s"] = measure_setup(ctx, 1 if traced else SETUP_REPS)
    cold: dict[str, list[float]] = {name: [] for name, _, _ in SCENARIOS}
    first: dict[int, dict[str, Any]] = {}
    start = time.perf_counter()
    rounds = 0
    while True:
        for i in range(len(SCENARIOS)):
            name, spec_dict, options_dict = SCENARIOS[i]
            spec = AdversarySpec.from_dict(spec_dict)
            options = CheckOptions.from_dict(options_dict)
            session = Session(store=ctx.fresh_dir("deep-store"))
            began = time.perf_counter()
            record = session.check_record(spec, options).to_dict()
            cold[name].append(time.perf_counter() - began)
            out.attempted += 2
            if session.check_record(spec, options).to_dict() != record:
                out.fail(f"{name}: store hit differs from the cold record")
            if first.setdefault(i, record) != record:
                out.fail(f"{name}: round {rounds} record differs from round 0")
            del session
            gc.collect()
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds > ctx.seconds:
            break
    out.window = (start, time.perf_counter())
    out.units = rounds
    out.named = {name: (median(times), "s") for name, times in cold.items()}
    out.samples = {"rounds": rounds}

    # The scenarios do not depend on the seed, so the digest always applies;
    # the seed picks which one is re-checked independently.
    _digest_gate(ctx, out, "deep-check", list(first.values()))
    cases = [(SCENARIOS[i][2], record) for i, record in first.items()]
    for problem in recheck(cases, 1, random.Random(ctx.seed)):
        out.fail(problem)
    return out


# --------------------------------------------------------------------- #
# census-sweep
# --------------------------------------------------------------------- #

CENSUS_SAMPLES = 1000
CENSUS_DEPTH = 6
SWEEP_WORKERS = 2


def census_specs(seed: int) -> list[Any]:
    from repro.specs import NAMED_ADVERSARIES, AdversarySpec, random_rooted_specs

    named = [AdversarySpec("named", {"name": name}) for name in sorted(NAMED_ADVERSARIES)]
    return random_rooted_specs(seed, 4, CENSUS_SAMPLES) + named


def _records_without_shard(path: Path) -> list[dict[str, Any]]:
    """A JSONL file's records with ``shard`` cleared.

    A cold pass stamps each record with the worker shard that computed
    it; the store keeps records normalized to shard 0, so hits carry 0.
    Every other byte of the two passes must agree.
    """
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    records = [json.loads(line) for line in lines]
    for record in records:
        record["shard"] = 0
    return records


def census_sweep(ctx: Context, traced: bool) -> Outcome:
    from repro.api import CheckOptions, ProcessBackend, Session

    out = Outcome()
    out.metrics["setup_s"] = measure_setup(ctx, 1 if traced else SETUP_REPS)
    specs = census_specs(ctx.seed)
    options = CheckOptions(max_depth=CENSUS_DEPTH)
    jobs = len(specs)
    cold_times, hot_times = [], []
    reference: list[dict[str, Any]] | None = None
    start = time.perf_counter()
    cycles = 0
    while True:
        store = ctx.fresh_dir("census-store")
        session = Session(options)
        began = time.perf_counter()
        session.sweep(specs, backend=ProcessBackend(SWEEP_WORKERS, record_timing=False),
                      store=store, jsonl_path=store / "cold.jsonl")
        cold_times.append(time.perf_counter() - began)
        cold_records = _records_without_shard(store / "cold.jsonl")
        began = time.perf_counter()
        session.sweep(specs, backend=ProcessBackend(SWEEP_WORKERS, record_timing=False),
                      store=store, jsonl_path=store / "hot.jsonl")
        hot_times.append(time.perf_counter() - began)
        if _records_without_shard(store / "hot.jsonl") != cold_records:
            out.fail("census repeat pass differs from the cold pass")
        out.attempted += 2 * jobs
        if len(cold_records) != jobs:
            out.fail(f"census wrote {len(cold_records)} records for {jobs} jobs")
        if reference is None:
            reference = cold_records
        elif cold_records != reference:
            out.fail(f"census cycle {cycles} differs from cycle 0")
        shutil.rmtree(store)
        cycles += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / cycles > ctx.seconds:
            break
    out.window = (start, time.perf_counter())
    out.units = cycles
    # The sweep's own process (store, JSONL, records), read before the
    # re-checks below run checks in it.  The fork workers' peak follows
    # how many heavy jobs (undecided |D| = 3 walks, ~45k views each) the
    # seed puts in a shard: 121 to 193 MB over 30 seeds, too wide to gate.
    out.metrics["peak_rss_mb"] = peak_rss_mb(children=False)
    out.named = {
        "sweep_jobs_per_s": (jobs / median(cold_times), "1/s"),
        "hot_sweep_jobs_per_s": (jobs / median(hot_times), "1/s"),
        "worker_peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    out.samples = {"cycles": cycles, "jobs": jobs}

    assert reference is not None
    if ctx.seed == DEFAULT_SEED:
        _digest_gate(ctx, out, "census-sweep", reference)
    options_dict = options.to_dict()
    for problem in recheck([(options_dict, r) for r in reference], 16, random.Random(ctx.seed)):
        out.fail(problem)
    return out
