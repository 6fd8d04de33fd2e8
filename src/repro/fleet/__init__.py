"""Fault-tolerant fleet runner: leased shards, heartbeats, resumable merges.

This is the library's distributed sweep backend.  Shard execution is a
file protocol — a shard manifest in (:func:`~repro.backends.write_manifest`),
JSONL out — run by ``repro-consensus fleet work`` subprocesses under a
crash-safe coordinator, built for censuses where worker death, stalls,
and partial output are normal events.

All coordination is plain files in one *fleet directory*, written
exclusively through the atomic primitives of :mod:`repro.io.atomic`, so
any participant can be SIGKILLed at any instant and the run resumes from
the surviving state:

* :mod:`repro.fleet.state` — the ``repro.fleet-state/1`` documents: run
  config, shard leases (claimed by atomic link, heartbeated by atomic
  replace), the coordinator's attempt/backoff ledger, the poison list,
  and the append-only merge journal;
* :mod:`repro.fleet.worker` — the worker loop: claim a shard, stream
  records to an attempt file, renew the lease, publish a digest-carrying
  done marker;
* :mod:`repro.fleet.runner` — the coordinator state machine
  (:class:`~repro.fleet.runner.FleetRunner`) and the
  :class:`~repro.fleet.runner.FleetBackend` that plugs it into the
  :class:`~repro.backends.SweepBackend` protocol;
* :mod:`repro.fleet.chaos` — the deterministic fault-injection harness
  behind ``repro-consensus fleet run --chaos`` and the test suite.

The correctness contract: for any fault schedule, a completed fleet run
merges exactly one record per job, byte-identical (with
``record_timing=False``) to a :class:`~repro.backends.SerialBackend` run
of the same specs.
"""

from __future__ import annotations

from repro.fleet.chaos import ChaosPlan, ChaosSpec
from repro.fleet.runner import FleetBackend, FleetRunner
from repro.fleet.state import FleetConfig
from repro.fleet.worker import SimulatedCrash, run_worker

__all__ = [
    "ChaosPlan",
    "ChaosSpec",
    "FleetBackend",
    "FleetConfig",
    "FleetRunner",
    "SimulatedCrash",
    "run_worker",
]
