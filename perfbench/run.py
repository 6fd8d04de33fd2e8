"""Repository benchmark: deep-check, census-sweep and service-mix.

Usage (from the repository root):

    python3 perfbench/run.py --workload deep-check --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the workload runs untraced and the last stdout line
holds the gated end-to-end metrics.  With ``--trace 1`` it runs once
untraced and once traced; the last line holds the per-layer metrics and
the line before it the tracing overhead (traced minus untraced) of every
end-to-end metric.  In both modes the line before the last is a JSON
report with the workload's named metrics, sample counts and any
correctness failures.  The exit code is 0 only when every output
checked is correct.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path
from typing import Any

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def metric_units(key: str) -> dict[str, str]:
    """name -> unit of BENCHMARK.json's ``end_to_end`` or ``per_layer`` list.

    The per-layer list holds the layers every workload's path crosses;
    ``records.write_s`` (no JSONL on the check or query path) and the
    service's own figures appear in the report line only.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[key]}


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Run one workload of the repository benchmark.")
    parser.add_argument("--workload", required=True,
                        choices=("deep-check", "census-sweep", "service-mix"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="store this run's verdict digest as the committed "
                             "one (default seed only)")
    return parser.parse_args(argv)


def _e2e_report(out: Any, gated: dict[str, str]) -> dict[str, Any]:
    """Every end-to-end metric of a run: gated, named, and failed share."""
    report = {name: {"value": out.metrics[name], "unit": unit} for name, unit in gated.items()}
    for name, (value, unit) in out.named.items():
        report[name] = {"value": value, "unit": unit}
    failed = len(out.failures)
    report["failed_share"] = {"value": failed / max(1, out.attempted), "unit": "ratio"}
    return report


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {ROOT / 'src' / 'repro'}; nothing to measure",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from gate import DEFAULT_SEED, record_digest
    from service_mix import service_mix
    from stats import peak_rss_mb
    from tracing import Recorder, install, layer_metrics, read_spans, within
    from workloads import Context, census_sweep, deep_check

    workload = {"deep-check": deep_check, "census-sweep": census_sweep,
                "service-mix": service_mix}[args.workload]
    ctx = Context(ROOT, args.seed, args.seconds, args.record_digests)
    shutil.rmtree(ctx.work, ignore_errors=True)
    try:
        out = workload(ctx, traced=False)
        out.metrics.setdefault("peak_rss_mb", peak_rss_mb())
        gated = metric_units("end_to_end")
        report: dict[str, Any] = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "end_to_end": _e2e_report(out, gated),
            "samples": out.samples, "failures": out.failures[:20],
        }
        failures = list(out.failures)
        attempted = out.attempted
        metrics = {name: report["end_to_end"][name] for name in gated}
        if args.trace:
            ctx.trace_dir.mkdir(parents=True, exist_ok=True)
            recorder = Recorder(ctx.trace_dir)
            uninstall = install(recorder)
            try:
                traced = workload(ctx, traced=True)
            finally:
                uninstall()
            traced.metrics.setdefault("peak_rss_mb", peak_rss_mb())
            spans = recorder.spans + read_spans(sorted(ctx.trace_dir.glob("spans-*.json")))
            layers = layer_metrics(within(spans, *traced.window), traced.units)
            plain_e2e = report["end_to_end"]
            traced_e2e = _e2e_report(traced, gated)
            report["tracing_overhead"] = {
                name: {"value": traced_e2e[name]["value"] - plain_e2e[name]["value"],
                       "unit": plain_e2e[name]["unit"]}
                for name in plain_e2e
            }
            units = metric_units("per_layer")
            layer_units = {**units, "records.write_s": "s"}
            report["per_layer"] = {
                name: {"value": value, "unit": layer_units[name]}
                for name, value in layers.items()
            }
            report["per_layer"].update(
                {name: {"value": value, "unit": unit}
                 for name, (value, unit) in traced.service.items()})
            report["spans"] = len(spans)
            failures += traced.failures
            attempted += traced.attempted
            report["failures"] = failures[:20]
            metrics = {name: report["per_layer"][name] for name in units}
            out = traced
        if args.record_digests and args.seed == DEFAULT_SEED and out.digest is not None:
            record_digest(args.workload, out.digest)
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
