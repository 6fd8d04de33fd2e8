"""Tests of the benchmark's own code (tracing arithmetic, statistics, request mix, gate)."""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from gate import check_digest, record_digest, recheck, verdict_digest  # noqa: E402
from service_mix import TWIN_SHARE, Mix  # noqa: E402
from stats import due_latencies, percentile, samples_beyond, tail  # noqa: E402
from tracing import Recorder, dispatch, install, layer_metrics, self_times  # noqa: E402


def span(sid, name, start, end, parent=None, pid=1, counts=None):
    return (sid, name, start, end, parent, None, pid, counts)


# --------------------------------------------------------------------- #
# Self time
# --------------------------------------------------------------------- #


def test_self_time_subtracts_nested_children():
    spans = [
        span("a", "solvability.check", 0.0, 10.0),
        span("b", "prefixspace.extend", 1.0, 4.0, "a"),
        span("c", "components.analysis", 5.0, 7.0, "a"),
        span("d", "views.extend_layer_table", 2.0, 3.0, "b"),
    ]
    selfs = self_times(spans)
    assert selfs == pytest.approx({"a": 5.0, "b": 2.0, "c": 2.0, "d": 1.0})


def test_self_time_counts_overlapping_children_once():
    # Two forked shards of one backend run overlap in [2, 6].
    spans = [
        span("r", "backends.process_run", 0.0, 10.0),
        span("s1", "backends.shard", 1.0, 6.0, "r", pid=2),
        span("s2", "backends.shard", 2.0, 8.0, "r", pid=3),
    ]
    assert self_times(spans)["r"] == pytest.approx(3.0)


def test_layer_metrics_sum_self_time_and_counts_per_unit():
    spans = [
        span("a", "prefixspace.extend", 0.0, 4.0, counts={"prefixspace.prefixes": 8}),
        span("b", "views.extend_layer_table", 1.0, 2.0, "a", counts={"views.interned": 6}),
        span("c", "store.get", 5.0, 5.5, counts={"store.hits": 1}),
        span("d", "store.key", 5.1, 5.3, "c"),
        span("e", "store.get", 6.0, 6.5, counts={"store.misses": 1}),
    ]
    metrics = layer_metrics(spans, units=2)
    assert metrics["prefixspace.extend_self_s"] == pytest.approx(1.5)
    assert metrics["views.kernel_s"] == pytest.approx(0.5)
    assert metrics["views.interned"] == 3
    assert metrics["prefixspace.prefixes"] == 4
    assert metrics["store.key_s"] == pytest.approx(0.1)
    assert metrics["store.get_s"] == pytest.approx((0.3 + 0.5) / 2)
    assert metrics["store.hit_ratio"] == pytest.approx(0.5)


def test_dispatch_is_run_minus_slowest_shard_check_time():
    spans = [
        span("r", "backends.process_run", 0.0, 10.0),
        span("s1", "backends.shard", 0.5, 9.0, "r", pid=2),
        span("c1", "solvability.check", 1.0, 3.0, "s1", pid=2),
        span("c2", "solvability.check", 3.0, 5.0, "s1", pid=2),
        span("s2", "backends.shard", 0.5, 8.0, "r", pid=3),
        span("c3", "solvability.check", 1.0, 4.0, "s2", pid=3),
    ]
    seconds, skew = dispatch(spans, self_times(spans))
    assert seconds == pytest.approx(10.0 - 4.0)
    assert skew == pytest.approx(4.0 / 3.5)


def test_recorder_nests_spans_and_carries_the_request():
    rec = Recorder()
    outer = rec.begin("named:x")
    inner = rec.begin()
    rec.end("inner", inner, {"store.puts": 1})
    rec.end("outer", outer)
    (i_sid, i_name, _, _, i_parent, i_req, _, i_counts), (o_sid, *_rest) = rec.spans
    assert (i_name, i_parent, i_req, i_counts) == ("inner", o_sid, "named:x", {"store.puts": 1})


def test_install_records_every_layer_and_uninstall_restores(tmp_path):
    from repro.api import AdversarySpec, CheckOptions, Session
    from repro.core.views import ViewInterner
    from repro.store.cache import ResultStore

    originals = (ViewInterner.__dict__["extend_layer_table"], ResultStore.__dict__["get"])
    rec = Recorder()
    uninstall = install(rec)
    try:
        session = Session(store=tmp_path / "store")
        spec = AdversarySpec("santoro-widmayer", {"n": 3, "losses": 1})
        session.check_record(spec, CheckOptions(max_depth=3))
        session.check_record(spec, CheckOptions(max_depth=3))
    finally:
        uninstall()
    assert (ViewInterner.__dict__["extend_layer_table"], ResultStore.__dict__["get"]) == originals
    names = {s[1] for s in rec.spans}
    assert {"session.check_record", "solvability.check", "prefixspace.extend",
            "components.analysis", "decision.build_table", "specs.build",
            "store.key", "store.get", "store.put"} <= names
    assert all(value >= -1e-9 for value in self_times(rec.spans).values())
    metrics = layer_metrics(rec.spans)
    assert metrics["store.puts"] == 1 and metrics["store.hit_ratio"] == 0.5
    assert metrics["views.interned"] > 0 and metrics["components.count"] > 0


# --------------------------------------------------------------------- #
# Percentiles and open-loop latency
# --------------------------------------------------------------------- #


def test_percentile_needs_ten_samples_beyond():
    samples = [float(i) for i in range(1000)]
    assert samples_beyond(1000, 99) == 10
    assert tail(samples, 99) == 989.0
    assert tail(samples[:999], 99) is None  # only 9 samples beyond
    assert tail(samples[:100], 90) == 89.0
    assert tail(samples[:99], 90) is None
    assert tail(samples[:15], 50) is None  # 7 beyond the median
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0


def test_open_loop_latency_runs_from_the_due_time():
    # Requests due every 1 ms; the generator stalls and sends the second
    # and third 4 and 3 ms late; the server answers each in 1 ms.
    due = [0.000, 0.001, 0.002]
    sent = [0.000, 0.005, 0.005]
    done = [s + 0.001 for s in sent]
    assert due_latencies(due, done) == pytest.approx([0.001, 0.005, 0.004])
    assert due_latencies(sent, done) == pytest.approx([0.001, 0.001, 0.001])


def test_mix_twins_follow_their_cold_query():
    mix = Mix(7)
    draws = [mix.draw() for _ in range(20000)]
    colds = [index for kind, index in draws if kind == "cold"]
    assert colds == list(range(len(colds)))  # every cold spec is fresh
    twins = 0
    for (kind, index), (prev_kind, prev_index) in zip(draws[1:], draws):
        if kind == "twin":
            twins += 1
            assert (prev_kind, prev_index) == ("cold", index)
    assert twins == pytest.approx(TWIN_SHARE * len(colds), rel=0.2)


# --------------------------------------------------------------------- #
# Correctness gate
# --------------------------------------------------------------------- #


def _records():
    return [
        {"spec": {"family": "random-rooted", "params": {"n": 4}, "seed": seed},
         "adversary": f"A{seed}", "n": 4, "alphabet": 2, "max_depth": 6,
         "status": "solvable", "certified_depth": 2, "certificate": "decision-table@2",
         "index": seed, "elapsed_s": 0.1 * seed}
        for seed in range(5)
    ]


def test_digest_ignores_order_and_run_metadata():
    records = _records()
    shuffled = list(reversed(records))
    retimed = [dict(r, elapsed_s=9.0, index=0) for r in records]
    assert verdict_digest(records) == verdict_digest(shuffled) == verdict_digest(retimed)


def test_digest_gate_catches_one_flipped_verdict(tmp_path):
    path = tmp_path / "digests.json"
    records = _records()
    record_digest("census-sweep", verdict_digest(records), path)
    assert check_digest("census-sweep", verdict_digest(records), path) is None
    flipped = [dict(r) for r in records]
    flipped[3]["status"] = "impossible"
    problem = check_digest("census-sweep", verdict_digest(flipped), path)
    assert problem is not None and "digest" in problem
    assert check_digest("deep-check", verdict_digest(records), path) is not None


def test_recheck_catches_a_flipped_verdict():
    from repro.api import AdversarySpec, CheckOptions, check_consensus_with_options
    from repro.records import certificate_summary

    spec = AdversarySpec("oblivious", {"n": 2, "graphs": [2, 4]})
    options = CheckOptions(max_depth=4).to_dict()
    adversary = spec.build()
    result = check_consensus_with_options(adversary, CheckOptions.from_dict(options))
    record = {"spec": spec.to_dict(), "adversary": adversary.name, "n": 2,
              "alphabet": len(adversary.alphabet()), "max_depth": 4,
              "status": result.status.value, "certified_depth": result.certified_depth,
              "certificate": certificate_summary(result)}
    assert recheck([(options, record)], 1, random.Random(0)) == []
    flipped = dict(record, status="impossible")
    assert len(recheck([(options, flipped)], 1, random.Random(0))) == 1
