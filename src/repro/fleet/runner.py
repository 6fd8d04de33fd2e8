"""The fleet coordinator: reap, validate, merge, poison — one step at a time.

:class:`FleetRunner` is deliberately a *steppable* state machine:
:meth:`FleetRunner.step` performs one full pass of coordinator duties —
repair the journal, validate done markers, merge good attempts, reap
expired leases, apply backoff, quarantine exhausted shards, rebuild the
merged output — and returns a status snapshot.  ``run``/``resume`` just
loop ``step`` around a pool of worker subprocesses; the tests instead
call ``step`` directly with explicit ``now`` values, so every lease
expiry, zombie rejection, and crash-resume scenario is deterministic and
sleep-free.

Crash-safety ordering inside a step (each line is atomic or append-only):

* merge:   journal append  →  ledger bump  →  lease removal  →  merged
  rebuild.  Dying between any two is recoverable: a journaled shard is
  simply skipped (its leftover lease swept) and the rebuild is
  idempotent.  The bump mirrors the fail path so attempt numbers are
  single-use across success too — a claim raced into the removal window
  carries a stale attempt and is swept, never rerun over merged output.
* fail:    ledger bump (attempt += 1)  →  lease removal.
  The bump first means a zombie holder's next renewal sees the moved
  ledger and stops; a lease recreated in the unlucky window carries the
  old attempt number and is swept as stale on the next step.

:class:`FleetBackend` plugs the whole machine into the
:class:`~repro.backends.SweepBackend` protocol, so
``Session.sweep(..., backend=FleetBackend(...))`` transparently gets the
fault tolerance — and with ``record_timing=False`` its merged records
are byte-identical to :class:`~repro.backends.SerialBackend` output.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path
from typing import Any, Sequence

from repro.backends import SweepJob, _validate_jobs
from repro.errors import AnalysisError
from repro.fleet import state
from repro.fleet.chaos import ChaosSpec
from repro.fleet.clock import sleep, wall_now
from repro.fleet.state import FleetConfig, FleetPaths
from repro.io import atomic
from repro.options import CheckOptions
from repro.records import RunRecord

__all__ = ["FleetRunner", "FleetBackend"]


def _worker_env() -> dict[str, str]:
    """Environment for ``fleet work`` subprocesses.

    Workers import repro via ``-m repro.cli``, so the package that spawned
    them is put on ``PYTHONPATH`` (a source tree need not be installed).
    """
    import repro

    package_root = str(Path(repro.__file__).resolve().parents[1])
    env = os.environ.copy()
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        package_root if not existing else package_root + os.pathsep + existing
    )
    return env


class FleetRunner:
    """Coordinator for one fleet directory (see the module docstring)."""

    def __init__(self, root: str | Path, python: str | None = None) -> None:
        self.paths = FleetPaths(root)
        self.python = python or sys.executable
        self._expected: dict[int, set[int]] = {}

    # ------------------------------------------------------------------ #
    # Setup
    # ------------------------------------------------------------------ #

    def initialize(
        self,
        jobs: Sequence[SweepJob],
        options: CheckOptions | None = None,
        config: FleetConfig | None = None,
    ) -> FleetConfig:
        """Lay out the fleet directory for these jobs (fresh runs only)."""
        jobs = _validate_jobs(jobs)
        return state.init_fleet(
            self.paths.root, jobs, options, config or FleetConfig()
        )

    @property
    def config(self) -> FleetConfig:
        return state.load_config(self.paths.root)

    def expected_indices(self, shard: int) -> set[int]:
        """The job indices a valid attempt for this shard must produce."""
        cached = self._expected.get(shard)
        if cached is None:
            jobs, _, _ = state.load_shard_jobs(self.paths.root, shard)
            cached = self._expected[shard] = {job.index for job in jobs}
        return cached

    # ------------------------------------------------------------------ #
    # The coordinator step
    # ------------------------------------------------------------------ #

    def _fail_attempt(
        self,
        ledger: dict[str, Any],
        poisoned: dict[str, Any],
        config: FleetConfig,
        shard: int,
        reason: str,
        now: float,
    ) -> None:
        """Record a failed attempt: backoff and retry, or quarantine.

        Writes the ledger (or poison list) *before* the caller removes
        the lease — the ordering that turns a still-running holder into a
        self-silencing zombie (see the module docstring).
        """
        entry = ledger[str(shard)]
        failures = entry["failures"] + 1
        reasons = list(entry.get("reasons", []))[-4:] + [
            f"attempt {entry['attempt']}: {reason}"
        ]
        if failures >= config.max_attempts:
            poisoned[str(shard)] = {"failures": failures, "reasons": reasons}
            state.write_poison(self.paths.root, poisoned)
            # The ledger entry still advances: any zombie of the final
            # attempt must also see itself superseded.
        entry["attempt"] += 1
        entry["failures"] = failures
        entry["reasons"] = reasons
        entry["next_eligible"] = now + state.backoff_delay(config, shard, failures)
        state.write_attempts(self.paths.root, ledger)

    def step(self, now: float | None = None) -> dict[str, Any]:
        """One coordinator pass; returns the post-step status snapshot."""
        now = wall_now() if now is None else now
        root = self.paths.root
        state.repair_journal(root)
        config = state.load_config(root)
        journaled = {entry["shard"] for entry in state.read_journal(root)}
        poisoned = state.read_poison(root)
        ledger = state.read_attempts(root)
        merged_any = False
        for shard in range(config.shards):
            if shard in journaled:
                # Sweep the lease a crash may have stranded between the
                # journal append and the removal.
                state.release_lease(root, shard)
                continue
            if str(shard) in poisoned:
                state.release_lease(root, shard)
                continue
            current = ledger[str(shard)]["attempt"]
            lease = state.read_lease(root, shard)
            if lease is not None and lease["attempt"] < current:
                # A zombie resurrected its reaped lease in the bump/remove
                # window; the stale attempt number gives it away.
                state.release_lease(root, shard)
                lease = None
            records, reason = state.validate_attempt(
                root, shard, current, self.expected_indices(shard)
            )
            if records is not None:
                out = self.paths.attempt_out(shard, current)
                state.append_merge(
                    root,
                    {
                        "shard": shard,
                        "attempt": current,
                        "digest": atomic.sha256_file(out),
                        "records": len(records),
                    },
                )
                # Bump before the lease removal, mirroring the fail path:
                # a zombie holder's next renewal sees the moved ledger and
                # stops, and any claim raced in after the removal carries
                # a stale attempt number instead of this one.
                ledger[str(shard)]["attempt"] = current + 1
                state.write_attempts(root, ledger)
                state.release_lease(root, shard)
                journaled.add(shard)
                merged_any = True
                continue
            if self.paths.attempt_done(shard, current).exists():
                # The attempt claims completion but failed validation
                # (torn tail, corruption, digest or index mismatch):
                # a finished-and-bad attempt fails immediately.
                self._fail_attempt(ledger, poisoned, config, shard, reason, now)
                state.release_lease(root, shard)
                continue
            if lease is not None and state.lease_expired(lease, now):
                cause = (
                    "holder died"
                    if not state.pid_alive(lease["pid"])
                    else "heartbeat stalled past the deadline"
                )
                self._fail_attempt(
                    ledger, poisoned, config, shard,
                    f"lease expired ({cause})", now,
                )
                state.release_lease(root, shard)
        if merged_any:
            state.rebuild_merged(root)
        return state.snapshot(root, now=now)

    def done(self, snapshot: dict[str, Any] | None = None) -> bool:
        if snapshot is None:
            snapshot = state.snapshot(self.paths.root)
        return bool(snapshot["done"])

    # ------------------------------------------------------------------ #
    # Driving a live run (worker subprocesses)
    # ------------------------------------------------------------------ #

    def _spawn_worker(self, worker: str, env: dict[str, str]) -> subprocess.Popen:
        return subprocess.Popen(
            [
                self.python, "-m", "repro.cli", "fleet", "work",
                "--dir", str(self.paths.root), "--worker", worker,
            ],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            env=env,
        )

    def drive(
        self, workers: int, timeout_s: float | None = None
    ) -> list[RunRecord]:
        """Run the coordinator loop over a pool of worker subprocesses.

        Workers that die — chaos or otherwise — are respawned under a
        budget derived from the retry budget (a runaway crash loop must
        not spin forever); the loop ends when every shard is journaled or
        poisoned.  Returns the merged records, or raises with the poison
        report when any shard exhausted its attempts (the partial merge
        stays on disk for inspection/resume).
        """
        if workers < 1:
            raise AnalysisError("a fleet drive needs workers >= 1")
        config = self.config
        env = _worker_env()
        procs: dict[str, subprocess.Popen] = {}
        spawned = 0
        respawn_budget = config.shards * config.max_attempts + 2 * workers
        started = wall_now()
        try:
            while True:
                snapshot = self.step()
                if snapshot["done"]:
                    break
                if timeout_s is not None and wall_now() - started > timeout_s:
                    raise AnalysisError(
                        f"fleet run exceeded {timeout_s}s "
                        f"(snapshot: {snapshot['counts']})"
                    )
                for index in range(workers):
                    worker = f"w{index}"
                    proc = procs.get(worker)
                    if proc is not None and proc.poll() is None:
                        continue
                    if spawned >= respawn_budget:
                        raise AnalysisError(
                            "fleet worker respawn budget exhausted — workers "
                            "are crash-looping outside the chaos schedule"
                        )
                    procs[worker] = self._spawn_worker(worker, env)
                    spawned += 1
                sleep(config.poll_s)
            records = state.rebuild_merged(self.paths.root)
        finally:
            for proc in procs.values():
                if proc.poll() is None:
                    proc.terminate()
            for proc in procs.values():
                try:
                    proc.wait(timeout=5)
                except (subprocess.TimeoutExpired, OSError):
                    proc.kill()
        poisoned = state.read_poison(self.paths.root)
        if poisoned:
            details = "; ".join(
                f"shard {shard}: {entry['reasons'][-1]}"
                for shard, entry in sorted(poisoned.items(), key=lambda kv: int(kv[0]))
            )
            raise AnalysisError(
                f"fleet run quarantined {len(poisoned)} shard(s) after "
                f"exhausting retries ({details}); partial merge kept at "
                f"{self.paths.merged}"
            )
        return records

    def run(
        self,
        jobs: Sequence[SweepJob],
        options: CheckOptions | None = None,
        config: FleetConfig | None = None,
        workers: int = 2,
        timeout_s: float | None = None,
    ) -> list[RunRecord]:
        """Initialize a fresh fleet directory and drive it to completion."""
        self.initialize(jobs, options, config)
        return self.drive(workers, timeout_s=timeout_s)

    def resume(
        self, workers: int = 2, timeout_s: float | None = None
    ) -> list[RunRecord]:
        """Continue an interrupted run from its surviving state files.

        Nothing special happens here by design: the first ``step`` of the
        drive repairs a torn journal, sweeps stranded leases, reaps dead
        claims, and the merge rebuild is idempotent — resuming *is* the
        normal code path.
        """
        state.load_config(self.paths.root)  # fail early on a non-fleet dir
        return self.drive(workers, timeout_s=timeout_s)


class FleetBackend:
    """The fault-tolerant entry in the ``SweepBackend`` protocol.

    Shards run as ``fleet work`` subprocesses with the crash-safety of
    the fleet directory underneath.  Parameters map
    onto :class:`~repro.fleet.state.FleetConfig`; ``workers`` is the live
    subprocess pool size and ``shards`` the queue granularity (more
    shards than workers keeps the pool busy when one shard is slow and
    bounds the work lost to one crash).
    """

    def __init__(
        self,
        workdir: str | Path,
        shards: int = 4,
        workers: int = 2,
        record_timing: bool = True,
        chaos: ChaosSpec | None = None,
        lease_ttl_s: float = 15.0,
        heartbeat_s: float = 3.0,
        max_attempts: int = 4,
        backoff_base_s: float = 0.25,
        backoff_cap_s: float = 5.0,
        poll_s: float = 0.2,
        seed: int = 0,
        python: str | None = None,
        timeout_s: float | None = None,
    ) -> None:
        self.workdir = Path(workdir)
        self.workers = workers
        self.timeout_s = timeout_s
        self.python = python
        self.config = FleetConfig(
            shards=shards,
            record_timing=record_timing,
            lease_ttl_s=lease_ttl_s,
            heartbeat_s=heartbeat_s,
            max_attempts=max_attempts,
            backoff_base_s=backoff_base_s,
            backoff_cap_s=backoff_cap_s,
            poll_s=poll_s,
            seed=seed,
            chaos=chaos,
        )

    def run(
        self,
        jobs: Sequence[SweepJob],
        options: CheckOptions | None = None,
    ) -> list[RunRecord]:
        runner = FleetRunner(self.workdir, python=self.python)
        return runner.run(
            jobs,
            options,
            config=self.config,
            workers=self.workers,
            timeout_s=self.timeout_s,
        )
