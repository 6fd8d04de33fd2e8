"""Command-line interface: ``repro-consensus`` (the ``pyproject.toml`` entry point).

Subcommands:

* ``check`` — run the solvability checker on a named adversary;
* ``census`` — classify two-process (or random rooted) oblivious adversaries;
* ``sweep`` — fan a family of check jobs across a serial or process-pool
  backend (JSONL out); ``--retry records.jsonl --max-depth +2`` re-queues
  only the undecided records of an earlier sweep at a deeper budget;
* ``fleet`` — fault-tolerant distributed sweep over a shared state
  directory: ``fleet run`` initializes the leased shard queue and drives
  worker subprocesses to completion (``--chaos`` injects deterministic
  faults), ``fleet status --json`` snapshots a live run (with an embedded
  sweep report over the merged-so-far records), ``fleet resume`` picks up
  after any crash, and ``fleet work`` is the spawned worker loop;
* ``report`` — render status/certificate histograms and pivot tables from
  a sweep JSONL file (old headerless or new versioned format); ``--json``
  emits the machine-readable ``repro.sweep-report/1`` document instead
  (incl. the CGP/oracle cross-validation sections) for CI artifacts and
  dashboards;
* ``cache`` — inspect and maintain a content-addressed result store:
  ``cache stats``, ``cache gc`` (stale-object sweep + optional
  ``--max-objects``/``--max-bytes`` budget), ``cache verify`` (re-hash
  every object against its canonical payload);
* ``serve`` — the asyncio consensus-query service over a result store:
  hot queries are O(1) store lookups, cold queries queue onto a bounded
  worker pool with status polling and streamed progress;
* ``load-test`` — drive thousands of concurrent mixed hot/cold queries
  at a (self-hosted or remote) query service and audit that no response
  is lost or duplicated;
* ``simulate`` — run the universal algorithm against sampled sequences;
* ``ptg`` — print the Figure 2 process-time graph.

All randomized subcommands take an explicit ``--seed`` and thread a local
``random.Random`` through — nothing mutates the global ``random`` state.

Named adversaries (``--adversary``, the ``named`` spec family):
``lossy-full``, ``no-hub``, ``silence``, ``to-and-both``, ``only-to``,
``eventually-to``, ``eventually-to-full-base``, ``sw-n3-1``, ``sw-n3-2``,
``stars-n3``, ``stabilizing-w2``.
"""

from __future__ import annotations

import argparse
import random
import sys
from collections import Counter
from typing import Callable

from repro.core.digraph import Digraph
from repro.specs import NAMED_ADVERSARIES


def _resolve(name: str):
    try:
        return NAMED_ADVERSARIES[name]()
    except KeyError:
        raise SystemExit(
            f"unknown adversary {name!r}; choose from {sorted(NAMED_ADVERSARIES)}"
        )


def _int_in(floor: int, ceiling: int | None = None) -> Callable[[str], int]:
    """The argparse type of a numeric argument: an int in ``[floor, ceiling]``.

    Any other value is a usage error (exit 2) that names the argument.
    """

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < floor:
            raise argparse.ArgumentTypeError(f"must be >= {floor}, got {value}")
        if ceiling is not None and value > ceiling:
            raise argparse.ArgumentTypeError(f"must be <= {ceiling}, got {value}")
        return value

    return parse


#: Depth budgets and budgets where 0 means "none" (``--top``, gc limits).
_depth = _int_in(0)
#: Counts of things to do or to run on: processes, samples, workers, rounds.
_count = _int_in(1)


def _sweep_depth(text: str) -> str:
    """argparse type of ``sweep --max-depth``: ``+N`` (checked by
    :func:`_parse_sweep_depth`) or an absolute :func:`_depth`."""
    if not text.strip().startswith("+"):
        _depth(text)
    return text


def cmd_check(args: argparse.Namespace) -> int:
    from repro.consensus import check_consensus
    from repro.core.views import ViewInterner

    adversary = _resolve(args.adversary)
    interner = ViewInterner(adversary.n) if args.stats else None
    result = check_consensus(
        adversary, max_depth=args.max_depth, interner=interner
    )
    print(result.explain())
    if interner is not None:
        print(f"  view tables: {interner.stats()!r}")
    return 0


def cmd_census(args: argparse.Namespace) -> int:
    from repro.consensus.census import random_rooted_census, two_process_census
    from repro.viz import render_census

    if args.rooted:
        rng = random.Random(args.seed)
        rows = random_rooted_census(
            rng,
            n=args.n,
            samples=args.samples,
            max_depth=args.max_depth,
            workers=args.workers,
        )
        print(render_census(rows))
        disagreements = sum(1 for row in rows if row.cgp_agrees is False)
        print(
            f"{len(rows)} random rooted adversaries (n={args.n}, "
            f"seed={args.seed}); CGP heuristic disagrees on {disagreements}"
        )
        return 0
    rows = two_process_census(max_depth=args.max_depth, workers=args.workers)
    print(render_census(rows))
    agreements = sum(1 for row in rows if row.oracle_agrees)
    print(f"{agreements}/{len(rows)} rows agree with the literature oracle: "
          f"{'True' if agreements == len(rows) else 'False'}")
    return 0 if agreements == len(rows) else 1


def _add_family_arguments(parser: argparse.ArgumentParser) -> None:
    """Scenario-family options shared by ``sweep`` and ``fleet run``."""
    parser.add_argument("--family", choices=["two-process", "rooted", "sw"],
                        default=None,
                        help="scenario family (default two-process)")
    parser.add_argument("--seed", type=int, default=0,
                        help="PRNG seed for sampled families")
    parser.add_argument("--n", type=_count, default=3,
                        help="processes for rooted/sw families")
    parser.add_argument("--samples", type=_count, default=25,
                        help="sample count for the rooted family")
    parser.add_argument("--sizes", type=_count, nargs="+", default=[1, 2, 3],
                        help="alphabet sizes for the rooted family")
    parser.add_argument("--losses", type=_count, default=1,
                        help="max losses for the Santoro-Widmayer family")


def _sweep_specs(args: argparse.Namespace) -> list:
    """The CLI family as serializable specs (manifest-ready jobs)."""
    from repro.adversaries import two_process_oblivious_family
    from repro.specs import AdversarySpec, random_rooted_specs

    family = args.family or "two-process"
    if family == "two-process":
        return [
            AdversarySpec("two-process", {"index": index})
            for index in range(len(two_process_oblivious_family()))
        ]
    if family == "rooted":
        return random_rooted_specs(
            args.seed, args.n, args.samples, sizes=tuple(args.sizes)
        )
    # sw
    return [
        AdversarySpec("santoro-widmayer", {"n": args.n, "losses": losses})
        for losses in range(1, args.losses + 1)
    ]


def _sweep_backend(args: argparse.Namespace):
    """Resolve --backend/--workers into a backend (None = worker default)."""
    from repro.backends import ProcessBackend, SerialBackend

    record_timing = not args.no_timing
    if args.backend == "serial":
        return SerialBackend(record_timing=record_timing)
    if args.backend == "process":
        return ProcessBackend(args.workers, record_timing=record_timing)
    if args.no_timing:
        # No explicit backend: mirror run_sweep's worker-count default but
        # thread record_timing through, which run_sweep cannot do itself.
        if args.workers <= 1:
            return SerialBackend(record_timing=False)
        return ProcessBackend(args.workers, record_timing=False)
    return None


def _parse_sweep_depth(args: argparse.Namespace) -> tuple[int | None, int | None]:
    """Resolve ``--max-depth`` into ``(absolute, extra)``.

    A leading ``+`` means "deepen relative to each retried record's old
    budget" and is only meaningful with ``--retry``; a bare integer is an
    absolute budget.  Defaults: 6 for fresh sweeps, ``+2`` for retries.
    """
    value = args.max_depth
    if value is None:
        return (6, None) if not args.retry else (None, 2)
    value = value.strip()
    if value.startswith("+"):
        if not args.retry:
            raise SystemExit("--max-depth +N is only valid with --retry")
        try:
            extra = int(value[1:])
        except ValueError:
            raise SystemExit(f"invalid --max-depth {value!r}")
        if extra <= 0:
            raise SystemExit("--max-depth +N must deepen the budget (N >= 1)")
        return None, extra
    return int(value), None


def _print_sweep_records(records, workers: int, out) -> None:
    """The sweep subcommand's classification table + summary footer."""
    header = (
        f"{'#':>3s} {'adversary':32s} {'status':11s} {'certificate':28s} "
        f"{'time':>9s} {'shard':>5s}"
    )
    print(header)
    print("-" * len(header))
    for record in records:
        print(
            f"{record.index:>3d} {record.adversary:32s} "
            f"{record.status.upper():11s} {record.certificate:28s} "
            f"{record.elapsed_s * 1e3:>7.1f}ms {record.shard:>5d}"
        )
    by_status = Counter(record.status for record in records)
    summary = ", ".join(
        f"{count} {status}" for status, count in sorted(by_status.items())
    )
    workers = max(1, min(workers, len(records)))
    print("-" * len(header))
    print(
        f"{len(records)} jobs on {workers} worker(s): {summary}; "
        f"total checker time {sum(r.elapsed_s for r in records):.3f}s"
    )
    if out:
        print(f"records written to {out}")


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.api import jobs_for, run_sweep

    absolute, extra = _parse_sweep_depth(args)
    if args.retry:
        # Re-queue the undecided frontier of an earlier sweep at a deeper
        # budget; everything decided stays decided and is not re-run.
        from repro.api import read_jsonl, retry_jobs

        if args.family is not None:
            # The retried records define the family; a combined
            # --family/--retry invocation would silently drop one of them.
            raise SystemExit(
                "--retry re-runs the records' own specs; "
                "it cannot be combined with --family"
            )
        try:
            jobs, skipped = retry_jobs(
                read_jsonl(args.retry), extra_depth=extra, max_depth=absolute
            )
        except (OSError, ValueError) as exc:  # an unreadable or malformed records file
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if skipped:
            print(
                f"note: {len(skipped)} undecided record(s) skipped "
                "(no serialized spec, a new budget that is not deeper "
                "than the original, or no finite decision table at any "
                "depth)"
            )
        if not jobs:
            print(f"{args.retry}: no undecided records to retry")
            return 0
    else:
        jobs = jobs_for(
            _sweep_specs(args),
            max_depth=absolute,
            tags={"family": args.family or "two-process", "seed": args.seed},
        )
    records = run_sweep(
        jobs,
        workers=args.workers,
        jsonl_path=args.out,
        backend=_sweep_backend(args),
        store=args.store,
    )
    _print_sweep_records(records, args.workers, args.out)
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    import json

    from repro.errors import ReproError
    from repro.store import ResultStore

    store = ResultStore(args.store)
    try:
        if args.cache_command == "stats":
            report = store.stats()
        elif args.cache_command == "verify":
            report = store.verify()
        else:
            report = store.gc(
                max_objects=args.max_objects, max_bytes=args.max_bytes
            )
    except ReproError as exc:
        print(f"cache {args.cache_command} failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report, indent=2, sort_keys=True))
    if args.cache_command == "verify" and not report["ok"]:
        return 1
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service import QueryService
    from repro.store import ResultStore

    async def _serve() -> None:
        service = QueryService(
            ResultStore(args.store),
            workers=args.workers,
            queue_limit=args.queue_limit,
        )
        host, port = await service.start(args.host, args.port)
        # The ready line the smoke tests and orchestrators wait for.
        print(f"repro-consensus serving on {host}:{port}", flush=True)
        try:
            await service.serve_forever()
        finally:
            await service.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("repro-consensus serve: shut down")
    return 0


def cmd_load_test(args: argparse.Namespace) -> int:
    import asyncio
    import json

    from repro.options import CheckOptions
    from repro.service import QueryService, run_load_test
    from repro.store import ResultStore

    if (args.store is None) == (args.connect is None):
        print("load-test needs exactly one of --store or --connect",
              file=sys.stderr)
        return 2
    options = CheckOptions(max_depth=args.max_depth)

    async def _run() -> dict:
        if args.connect:
            host, _, port = args.connect.rpartition(":")
            report = await run_load_test(
                host or "127.0.0.1",
                int(port),
                total=args.total,
                cold_stride=args.cold_stride,
                connections=args.connections,
                options=options,
            )
            return report.to_dict()
        # Self-hosted mode: spin a server over the given store in this
        # process, on an ephemeral port, and drive it.
        service = QueryService(
            ResultStore(args.store),
            workers=args.workers,
            queue_limit=args.queue_limit,
        )
        host, port = await service.start()
        try:
            report = await run_load_test(
                host,
                port,
                total=args.total,
                cold_stride=args.cold_stride,
                connections=args.connections,
                options=options,
            )
            result = report.to_dict()
            result["server_stats"] = service.stats()
            return result
        finally:
            await service.stop()

    result = asyncio.run(_run())
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0 if result["ok"] else 1


def _fleet_config(args: argparse.Namespace):
    from repro.fleet import ChaosSpec, FleetConfig

    chaos = ChaosSpec.parse(args.chaos) if args.chaos else None
    return FleetConfig(
        shards=args.shards,
        record_timing=not args.no_timing,
        lease_ttl_s=args.lease_ttl,
        heartbeat_s=args.heartbeat,
        max_attempts=args.max_attempts,
        backoff_base_s=args.backoff_base,
        backoff_cap_s=args.backoff_cap,
        poll_s=args.poll,
        seed=args.seed,
        chaos=chaos,
    )


def cmd_fleet_run(args: argparse.Namespace) -> int:
    from repro.backends import jobs_for
    from repro.errors import AnalysisError
    from repro.fleet import FleetRunner
    from repro.records import write_jsonl

    jobs = jobs_for(
        _sweep_specs(args),
        max_depth=args.max_depth,
        tags={"family": args.family or "two-process", "seed": args.seed},
    )
    runner = FleetRunner(args.dir)
    try:
        records = runner.run(
            jobs,
            config=_fleet_config(args),
            workers=args.workers,
            timeout_s=args.timeout,
        )
    except AnalysisError as exc:
        print(f"fleet run failed: {exc}", file=sys.stderr)
        return 1
    if args.out:
        write_jsonl(records, args.out)
    _print_sweep_records(records, args.workers, args.out)
    print(f"fleet state in {args.dir} (merged.jsonl is the record of truth)")
    return 0


def cmd_fleet_status(args: argparse.Namespace) -> int:
    import json

    from repro.analysis import json_report_jsonl
    from repro.errors import AnalysisError
    from repro.fleet.state import FleetPaths, snapshot

    try:
        snap = snapshot(args.dir)
    except AnalysisError as exc:
        print(f"fleet status failed: {exc}", file=sys.stderr)
        return 1
    if args.json:
        merged = FleetPaths(args.dir).merged
        if snap["counts"]["merged"] > 0 and merged.is_file():
            # Live mid-run reporting: the merged file only ever holds
            # validated whole shards, so the sweep report over it is
            # always well-formed — just partial until the fleet is done.
            snap["report"] = json.loads(json_report_jsonl(merged, top=args.top))
        print(json.dumps(snap, indent=2, sort_keys=True))
        return 0
    counts = snap["counts"]
    print(
        f"fleet {args.dir}: {counts['merged']}/{counts['shards']} shards "
        f"merged ({snap['records_merged']}/{snap['jobs']} records), "
        f"{counts['leased']} leased, {counts['pending']} pending, "
        f"{counts['poisoned']} poisoned"
    )
    for lease in snap["leases"]:
        holder = "alive" if lease["holder_alive"] else "DEAD"
        print(
            f"  shard {lease['shard']}: leased by {lease['worker']} "
            f"(attempt {lease['attempt']}, {holder}, "
            f"expires in {lease['expires_in_s']:.1f}s)"
        )
    for shard in snap["poisoned"]:
        print(f"  shard {shard}: POISONED")
    print("done" if snap["done"] else "in progress")
    return 0


def cmd_fleet_resume(args: argparse.Namespace) -> int:
    from repro.errors import AnalysisError
    from repro.fleet import FleetRunner
    from repro.records import write_jsonl

    runner = FleetRunner(args.dir)
    try:
        records = runner.resume(workers=args.workers, timeout_s=args.timeout)
    except AnalysisError as exc:
        print(f"fleet resume failed: {exc}", file=sys.stderr)
        return 1
    if args.out:
        write_jsonl(records, args.out)
    _print_sweep_records(records, args.workers, args.out)
    return 0


def cmd_fleet_work(args: argparse.Namespace) -> int:
    from repro.fleet import run_worker

    return run_worker(args.dir, args.worker)


def cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis import json_report_jsonl, report_jsonl

    render = json_report_jsonl if args.json else report_jsonl
    try:
        text = render(args.records, top=args.top)
    except (OSError, ValueError) as exc:  # an unreadable or malformed records file
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(text)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    from repro.consensus import check_consensus
    from repro.simulation import run_many

    adversary = _resolve(args.adversary)
    result = check_consensus(adversary, max_depth=args.max_depth)
    if not result.solvable:
        print(f"{adversary.name}: {result.status.name}; nothing to simulate")
        return 1
    algorithm = result.algorithm()
    rounds = (
        max(args.rounds, result.certified_depth)
        if result.certified_depth is not None
        else args.rounds
    )
    rng = random.Random(args.seed)
    stats = run_many(algorithm, adversary, rng, trials=args.trials, rounds=rounds)
    print(
        f"{adversary.name} x {algorithm.name}: {stats.runs} runs, "
        f"{stats.decided} decided, agreement failures "
        f"{stats.agreement_failures}, max decision round {stats.max_round}"
    )
    return 0


def cmd_kset(args: argparse.Namespace) -> int:
    from repro.consensus import check_kset_by_depth
    from repro.consensus.spec import ConsensusSpec

    adversary = _resolve(args.adversary)
    spec = ConsensusSpec(domain=tuple(range(args.values)))
    for depth in range(args.max_depth + 1):
        table = check_kset_by_depth(adversary, args.k, depth, spec=spec)
        if table is not None:
            print(
                f"{adversary.name}: {args.k}-set agreement solvable with "
                f"decisions by round {depth} ({len(table.assignment)} views)"
            )
            return 0
    print(
        f"{adversary.name}: no {args.k}-set certificate up to depth "
        f"{args.max_depth}"
    )
    return 1


def cmd_heardof(args: argparse.Namespace) -> int:
    from repro.adversaries.heardof import (
        min_degree_adversary,
        no_split_adversary,
        nonempty_kernel_adversary,
        rooted_adversary,
    )
    from repro.consensus import check_consensus

    factories = {
        "kernel": nonempty_kernel_adversary,
        "no-split": no_split_adversary,
        "rooted": rooted_adversary,
    }
    print(f"{'predicate':12s} {'|D|':>5s} {'verdict':11s}")
    for label, factory in factories.items():
        adversary = factory(args.n)
        result = check_consensus(adversary, max_depth=args.max_depth)
        print(f"{label:12s} {len(adversary.graphs):>5d} {result.status.name:11s}")
    complete = min_degree_adversary(args.n, args.n)
    result = check_consensus(complete, max_depth=args.max_depth)
    print(f"{'complete':12s} {len(complete.graphs):>5d} {result.status.name:11s}")
    return 0


def cmd_fair(args: argparse.Namespace) -> int:
    from repro.consensus import fair_sequence_candidates
    from repro.viz import render_word

    adversary = _resolve(args.adversary)
    candidates = fair_sequence_candidates(
        adversary, verify_depth=args.depth, limit=args.limit
    )
    if not candidates:
        print(
            f"{adversary.name}: no fair-sequence candidate survives depth "
            f"{args.depth} (evidence of solvability)"
        )
        return 0
    print(f"{adversary.name}: {len(candidates)} candidate(s) bivalent through depth {args.depth}")
    for candidate in candidates:
        sequence = candidate.sequence
        print(
            f"  inputs {sequence.inputs}, cycle [{render_word(sequence.cycle)}], "
            f"component sizes {candidate.component_sizes}"
        )
    return 0


def cmd_ptg(args: argparse.Namespace) -> int:
    from repro.core.ptg import PTGPrefix
    from repro.core.views import ViewInterner
    from repro.viz import render_ptg

    g1 = Digraph(3, [(0, 1), (2, 1)])
    g2 = Digraph(3, [(1, 0)])
    prefix = PTGPrefix(ViewInterner(3), (1, 0, 1), [g1, g2])
    print("Figure 2: process-time graph at t=2, n=3, x=(1,0,1)")
    print(render_ptg(prefix, highlight_process=args.process))
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(
        prog="repro-consensus",
        description="Consensus under general message adversaries (PODC 2019 reproduction)",
        epilog=(
            "Installed as `repro-consensus` (see [project.scripts] in "
            "pyproject.toml); `python -m repro.cli` works from a source tree."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run the solvability checker")
    check.add_argument("--adversary", required=True)
    check.add_argument("--max-depth", type=_depth, default=8)
    check.add_argument(
        "--stats", action="store_true",
        help="also print the view-table statistics of the run",
    )
    check.set_defaults(func=cmd_check)

    census = sub.add_parser("census", help="oblivious adversary census")
    census.add_argument("--max-depth", type=_depth, default=6)
    census.add_argument("--workers", type=_count, default=1,
                        help="fan checker jobs across this many processes")
    census.add_argument("--rooted", action="store_true",
                        help="census random rooted adversaries instead of the "
                             "exhaustive two-process family")
    census.add_argument("--n", type=_count, default=3, help="processes (--rooted)")
    census.add_argument("--samples", type=_count, default=25,
                        help="sample count (--rooted)")
    census.add_argument("--seed", type=int, default=0,
                        help="PRNG seed for --rooted sampling")
    census.set_defaults(func=cmd_census)

    sweep = sub.add_parser(
        "sweep", help="sharded (adversary, depth) sweep with JSONL output"
    )
    _add_family_arguments(sweep)
    sweep.add_argument("--workers", type=_count, default=1,
                       help="process-pool size (ignored with --backend "
                            "serial); use `fleet run` for crash-tolerant "
                            "subprocess shards")
    sweep.add_argument("--backend", choices=["serial", "process"],
                       help="sweep backend (default: serial for --workers 1, "
                            "process pool otherwise)")
    sweep.add_argument("--retry", metavar="RECORDS_JSONL",
                       help="re-queue only the undecided records of an "
                            "earlier sweep's JSONL at a deeper budget")
    sweep.add_argument("--max-depth", type=_sweep_depth, default=None,
                       help="depth budget: an integer (default 6), or +N "
                            "with --retry to deepen each retried record's "
                            "old budget by N (default +2)")
    sweep.add_argument("--out", help="write one JSON record per job to this file")
    sweep.add_argument("--no-timing", action="store_true",
                       help="zero the timing/observability fields so equal "
                            "sweeps are byte-identical across backends")
    sweep.add_argument("--store", metavar="DIR",
                       help="content-addressed result store: serve cached "
                            "verdicts as O(1) lookups and write computed "
                            "ones back (hits have zeroed timing)")
    sweep.set_defaults(func=cmd_sweep)

    cache = sub.add_parser(
        "cache", help="inspect/maintain a content-addressed result store"
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    for name, help_text in (
        ("stats", "session-independent store counters, object count, bytes"),
        ("gc", "drop stale objects, optionally trim to a budget"),
        ("verify", "re-hash every object against its canonical payload"),
    ):
        cache_cmd = cache_sub.add_parser(name, help=help_text)
        cache_cmd.add_argument("--store", metavar="DIR", required=True,
                               help="store root directory")
        if name == "gc":
            cache_cmd.add_argument("--max-objects", type=_depth, default=None,
                                   help="keep at most this many objects "
                                        "(least recently put evicted first)")
            cache_cmd.add_argument("--max-bytes", type=_depth, default=None,
                                   help="trim the object payload to at most "
                                        "this many bytes")
        cache_cmd.set_defaults(func=cmd_cache)

    serve = sub.add_parser(
        "serve", help="asyncio consensus-query service over a result store"
    )
    serve.add_argument("--store", metavar="DIR", required=True,
                       help="result store backing the service")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=_int_in(0, 65535), default=0,
                       help="TCP port (0 = ephemeral, printed on the "
                            "ready line)")
    serve.add_argument("--workers", type=_count, default=2,
                       help="cold-query worker threads")
    serve.add_argument("--queue-limit", type=_count, default=64,
                       help="max queued cold queries before rejection")
    serve.set_defaults(func=cmd_serve)

    load_test = sub.add_parser(
        "load-test",
        help="drive concurrent mixed hot/cold queries at a query service",
    )
    load_test.add_argument("--store", metavar="DIR",
                           help="self-host a server over this store on an "
                                "ephemeral port (default mode)")
    load_test.add_argument("--connect", metavar="HOST:PORT",
                           help="target an already-running server instead")
    load_test.add_argument("--total", type=_count, default=1000,
                           help="total queries to issue")
    load_test.add_argument("--cold-stride", type=_count, default=10,
                           help="every Nth query is cold (10 = 90/10 mix)")
    load_test.add_argument("--connections", type=_count, default=50,
                           help="concurrent client connections")
    load_test.add_argument("--max-depth", type=_depth, default=2,
                           help="depth budget of the load-test queries")
    load_test.add_argument("--workers", type=_count, default=2,
                           help="server worker threads (self-hosted mode)")
    load_test.add_argument("--queue-limit", type=_count, default=256,
                           help="server queue limit (self-hosted mode)")
    load_test.set_defaults(func=cmd_load_test)

    fleet = sub.add_parser(
        "fleet",
        help="fault-tolerant distributed sweep (leases, retries, resume)",
    )
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)

    fleet_run = fleet_sub.add_parser(
        "run", help="initialize a fleet directory and drive workers to done"
    )
    fleet_run.add_argument("--dir", required=True,
                           help="fleet state directory (must not already "
                                "hold a fleet)")
    _add_family_arguments(fleet_run)
    fleet_run.add_argument("--max-depth", type=_depth, default=6)
    fleet_run.add_argument("--shards", type=_count, default=4,
                           help="work-queue shards (capped at the job count)")
    fleet_run.add_argument("--workers", type=_count, default=2,
                           help="worker subprocesses to keep alive")
    fleet_run.add_argument("--chaos", default=None,
                           help="fault-injection schedule: inline JSON "
                                '{"events": [...]} or a path to one')
    fleet_run.add_argument("--no-timing", action="store_true",
                           help="zero timing fields (byte-identical to a "
                                "serial --no-timing sweep)")
    fleet_run.add_argument("--lease-ttl", type=float, default=15.0,
                           help="seconds before an unrenewed lease expires")
    fleet_run.add_argument("--heartbeat", type=float, default=3.0,
                           help="worker lease-renewal cadence in seconds")
    fleet_run.add_argument("--max-attempts", type=_count, default=4,
                           help="attempts per shard before poisoning it")
    fleet_run.add_argument("--backoff-base", type=float, default=0.25,
                           help="base retry delay (doubles per failure)")
    fleet_run.add_argument("--backoff-cap", type=float, default=5.0,
                           help="retry delay ceiling in seconds")
    fleet_run.add_argument("--poll", type=float, default=0.2,
                           help="coordinator/worker poll interval in seconds")
    fleet_run.add_argument("--timeout", type=float, default=None,
                           help="abort the drive loop after this many seconds")
    fleet_run.add_argument("--out",
                           help="also copy the merged records to this file")
    fleet_run.set_defaults(func=cmd_fleet_run)

    fleet_status = fleet_sub.add_parser(
        "status", help="snapshot a fleet directory (live or finished)"
    )
    fleet_status.add_argument("--dir", required=True)
    fleet_status.add_argument("--json", action="store_true",
                              help="emit the repro.fleet-state/1 status "
                                   "document with an embedded sweep report "
                                   "over the merged-so-far records")
    fleet_status.add_argument("--top", type=_depth, default=5,
                              help="slowest-job count for the embedded report")
    fleet_status.set_defaults(func=cmd_fleet_status)

    fleet_resume = fleet_sub.add_parser(
        "resume", help="pick up an interrupted fleet exactly where it died"
    )
    fleet_resume.add_argument("--dir", required=True)
    fleet_resume.add_argument("--workers", type=_count, default=2)
    fleet_resume.add_argument("--timeout", type=float, default=None)
    fleet_resume.add_argument("--out",
                              help="also copy the merged records to this file")
    fleet_resume.set_defaults(func=cmd_fleet_resume)

    fleet_work = fleet_sub.add_parser(
        "work", help="worker main loop (spawned by `fleet run`)"
    )
    fleet_work.add_argument("--dir", required=True)
    fleet_work.add_argument("--worker", required=True,
                            help="worker id stamped into leases and markers")
    fleet_work.set_defaults(func=cmd_fleet_work)

    report = sub.add_parser(
        "report", help="aggregate a sweep JSONL file into histograms/tables"
    )
    report.add_argument("records", help="sweep JSONL file (v1 or v2 schema)")
    report.add_argument("--top", type=_depth, default=5,
                        help="how many slowest jobs to list")
    report.add_argument("--json", action="store_true",
                        help="emit the machine-readable JSON report "
                             "(schema repro.sweep-report/1, incl. the "
                             "cross-validation sections) instead of text")
    report.set_defaults(func=cmd_report)

    simulate = sub.add_parser("simulate", help="simulate the certified algorithm")
    simulate.add_argument("--adversary", required=True)
    simulate.add_argument("--trials", type=_count, default=50)
    simulate.add_argument("--rounds", type=_count, default=8)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--max-depth", type=_depth, default=8)
    simulate.set_defaults(func=cmd_simulate)

    ptg = sub.add_parser("ptg", help="print the Figure 2 process-time graph")
    ptg.add_argument("--process", type=_int_in(0, 2), default=0,
                     help="process to highlight (0-2)")
    ptg.set_defaults(func=cmd_ptg)

    kset = sub.add_parser("kset", help="k-set agreement depth sweep")
    kset.add_argument("--adversary", required=True)
    kset.add_argument("--k", type=_count, default=2)
    kset.add_argument("--values", type=_int_in(2), default=2)
    kset.add_argument("--max-depth", type=_depth, default=3)
    kset.set_defaults(func=cmd_kset)

    heardof = sub.add_parser("heardof", help="classify Heard-Of predicate families")
    heardof.add_argument("--n", type=_count, default=3)
    heardof.add_argument("--max-depth", type=_depth, default=3)
    heardof.set_defaults(func=cmd_heardof)

    fair = sub.add_parser("fair", help="extract fair-sequence candidates")
    fair.add_argument("--adversary", required=True)
    fair.add_argument("--depth", type=_count, default=4)
    fair.add_argument("--limit", type=_count, default=5)
    fair.set_defaults(func=cmd_fair)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
