"""Traced-run recorder: spans around calls into the program's layers.

Nothing under ``src/`` is edited.  :func:`install` swaps each public
function or method the per-layer metrics need for a timing wrapper (in
every ``repro`` module that holds a reference to it) and returns a
callable that puts the originals back.  Spans stay in memory as tuples

    (span_id, name, start, end, parent_id, request_id, pid, counts)

and are written out when the run ends.  ``counts`` holds the counters the
call produced (views interned, store hits, ...), so a time window selects
counts and times alike.  Span ids carry the pid, so spans from forked
sweep workers and from the server process merge into one tree: a worker
forked inside ``ProcessBackend.run`` inherits the open span stack, so its
shard spans name that run as their parent.  ``perf_counter`` reads
CLOCK_MONOTONIC on Linux, so times compare across processes.

A *request* is the spec being worked on: a call that receives a spec (or
a store key) makes it the thread's current request, and so does
``AdversarySpec.build``; spans without one inherit the current request.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from itertools import count
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

Span = tuple  # (span_id, name, start, end, parent_id, request_id, pid, counts)

#: Per-layer metric names, in report order.
LAYER_METRICS = (
    "views.kernel_s",
    "views.interned",
    "prefixspace.extend_self_s",
    "prefixspace.prefixes",
    "components.self_s",
    "components.count",
    "decision.s",
    "provers.s",
    "provers.decided_ratio",
    "solvability.self_s",
    "specs.build_s",
    "records.write_s",
    "backends.dispatch_s",
    "backends.shard_skew",
    "store.key_s",
    "store.get_s",
    "store.put_s",
    "store.puts",
    "store.hit_ratio",
)

#: Span name -> per-layer metric that sums the span's self time.
SELF_TIME_METRICS = {
    "views.extend_layer_table": "views.kernel_s",
    "views.extend_layer": "views.kernel_s",
    "prefixspace.extend": "prefixspace.extend_self_s",
    "components.analysis": "components.self_s",
    "components.summary": "components.self_s",
    "decision.build_table": "decision.s",
    "provers.lasso": "provers.s",
    "provers.induction": "provers.s",
    "provers.broadcaster": "provers.s",
    "solvability.check": "solvability.self_s",
    "specs.build": "specs.build_s",
    "records.write_jsonl": "records.write_s",
    "store.key": "store.key_s",
    "store.get": "store.get_s",
    "store.get_by_key": "store.get_s",
    "store.put": "store.put_s",
}

#: Spans of one dispatch of checker work to shards.
BACKEND_RUNS = ("backends.serial_run", "backends.process_run")


class Recorder:
    """Process-local span store.

    ``trace_dir`` is where forked workers flush their spans (see
    :meth:`flush_child`); the process that created the recorder keeps its
    spans in :attr:`spans` until the run writes or analyses them.
    """

    def __init__(self, trace_dir: str | Path | None = None) -> None:
        self.trace_dir = None if trace_dir is None else Path(trace_dir)
        self.origin_pid = os.getpid()
        self.pid = self.origin_pid
        self.spans: list[Span] = []
        self._ids = count()
        self._local = threading.local()

    def adopt_process(self) -> None:
        """In a forked child, drop the parent's spans but keep the stack.

        The inherited stack is what links worker spans to the parent's
        ``ProcessBackend.run`` span.
        """
        pid = os.getpid()
        if pid != self.pid:
            self.pid = pid
            self.spans = []
            self._ids = count()

    def _stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, request: str | None = None) -> tuple[str, str | None, str | None, float]:
        if request is None:
            request = getattr(self._local, "request", None)
        else:
            self._local.request = request
        stack = self._stack()
        sid = f"{self.pid}:{next(self._ids)}"
        parent = stack[-1] if stack else None
        stack.append(sid)
        return sid, parent, request, time.perf_counter()

    def end(self, name: str, token: tuple[str, str | None, str | None, float],
            counts: dict[str, float] | None = None) -> None:
        end = time.perf_counter()
        sid, parent, request, start = token
        self._stack().pop()
        self.spans.append((sid, name, start, end, parent, request, self.pid, counts))

    def flush_child(self) -> None:
        """Write a forked worker's spans to ``trace_dir`` and clear them."""
        if self.pid == self.origin_pid or self.trace_dir is None:
            return
        write_spans(self.trace_dir / f"spans-{self.pid}-{next(self._ids)}.json", self.spans)
        self.spans = []


def write_spans(path: Path, spans: list[Span]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps([list(s) for s in spans]), encoding="utf-8")
    os.replace(tmp, path)


def read_spans(paths: Iterable[Path]) -> list[Span]:
    spans: list[Span] = []
    for path in paths:
        spans.extend(tuple(s) for s in json.loads(Path(path).read_text(encoding="utf-8")))
    return spans


# --------------------------------------------------------------------- #
# Wrappers
# --------------------------------------------------------------------- #


def spec_label(spec: Any) -> str:
    """Request id of a spec: family and seed (or params when unseeded)."""
    if spec.seed is not None:
        return f"{spec.family}:{spec.seed}"
    return f"{spec.family}:{json.dumps(spec.params, sort_keys=True)}"


def _timed(rec: Recorder, name: str, fn: Callable,
           counts: Callable[[Any, tuple], dict] | None = None,
           request: Callable[[tuple], str] | None = None) -> Callable:
    """Wrap ``fn`` in a span; ``counts(result, args)`` gives its counters."""

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        token = rec.begin(request(args) if request is not None else None)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            rec.end(name, token)
            raise
        rec.end(name, token, counts(result, args) if counts is not None else None)
        return result

    return functools.update_wrapper(wrapper, fn)


def _patch_everywhere(original: Any, replacement: Any, undo: list) -> None:
    """Rebind every ``repro`` module global that refers to ``original``."""
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        if name != "repro" and not name.startswith("repro."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))


def _patch_method(cls: type, attr: str, replacement: Any, undo: list) -> None:
    undo.append((cls, attr, cls.__dict__[attr]))
    setattr(cls, attr, replacement)


def install(rec: Recorder) -> Callable[[], None]:
    """Wrap every layer entry point; returns the uninstall callable."""
    import repro.service.server  # noqa: F401  (load every module patched below)
    from repro.api import Session
    from repro.backends import ProcessBackend, SerialBackend, iter_job_records
    from repro.consensus import provers
    from repro.consensus.decision import build_decision_table
    from repro.consensus.solvability import check_consensus_with_options
    from repro.core.views import ViewInterner
    from repro.records import write_jsonl
    from repro.specs import AdversarySpec
    from repro.store.cache import ResultStore
    from repro.store.keys import cache_key
    from repro.topology.components import ComponentAnalysis
    from repro.topology.prefixspace import PrefixSpace

    undo: list = []

    # views: the whole-layer kernel, counting the views it interns.
    for attr in ("extend_layer_table", "extend_layer"):
        def kernel(self: Any, *args: Any, _fn: Callable = ViewInterner.__dict__[attr],
                   _name: str = f"views.{attr}", **kwargs: Any) -> Any:
            before = len(self)
            token = rec.begin()
            try:
                return _fn(self, *args, **kwargs)
            finally:
                rec.end(_name, token, {"views.interned": len(self) - before})

        _patch_method(ViewInterner, attr, kernel, undo)

    # prefixspace: one layer construction (the group merge around the kernel).
    _patch_method(PrefixSpace, "extend", _timed(
        rec, "prefixspace.extend", PrefixSpace.__dict__["extend"],
        counts=lambda _r, a: {"prefixspace.prefixes": a[0].layer_sizes()[-1]},
    ), undo)

    # components: construction (nested extends are children) and summary.
    _patch_method(ComponentAnalysis, "__init__", _timed(
        rec, "components.analysis", ComponentAnalysis.__dict__["__init__"],
        counts=lambda _r, a: {"components.count": len(a[0].components)},
    ), undo)
    _patch_method(ComponentAnalysis, "summary", _timed(
        rec, "components.summary", ComponentAnalysis.__dict__["summary"]), undo)

    _patch_everywhere(build_decision_table, _timed(
        rec, "decision.build_table", build_decision_table), undo)

    # provers: each call is an attempt; a certificate is a decided one.
    def attempt(decided: bool) -> dict[str, float]:
        return {"provers.calls": 1, "provers.decided": 1 if decided else 0}

    _patch_everywhere(provers.find_nonbroadcastable_lasso, _timed(
        rec, "provers.lasso", provers.find_nonbroadcastable_lasso,
        counts=lambda r, _a: attempt(r is not None)), undo)
    _patch_everywhere(provers.find_guaranteed_broadcaster, _timed(
        rec, "provers.broadcaster", provers.find_guaranteed_broadcaster,
        counts=lambda r, _a: attempt(r is not None)), undo)
    _patch_method(provers.SingleComponentInduction, "__init__", _timed(
        rec, "provers.induction", provers.SingleComponentInduction.__dict__["__init__"],
        counts=lambda _r, a: attempt(a[0].applies)), undo)

    _patch_everywhere(check_consensus_with_options, _timed(
        rec, "solvability.check", check_consensus_with_options), undo)

    _patch_method(AdversarySpec, "build", _timed(
        rec, "specs.build", AdversarySpec.__dict__["build"],
        request=lambda a: spec_label(a[0])), undo)

    _patch_everywhere(write_jsonl, _timed(rec, "records.write_jsonl", write_jsonl), undo)

    # backends: a run, its shards (maybe in forked workers), and the
    # single-check dispatch through Session.check_record.
    for cls, name in ((SerialBackend, "backends.serial_run"),
                      (ProcessBackend, "backends.process_run")):
        _patch_method(cls, "run", _timed(rec, name, cls.__dict__["run"]), undo)
    _patch_method(Session, "check_record", _timed(
        rec, "session.check_record", Session.__dict__["check_record"],
        request=lambda a: spec_label(a[1])), undo)

    def shard(*args: Any, **kwargs: Any) -> Iterator[Any]:
        rec.adopt_process()
        token = rec.begin()
        try:
            yield from iter_job_records(*args, **kwargs)
        finally:
            rec.end("backends.shard", token)
            rec.flush_child()

    _patch_everywhere(iter_job_records, shard, undo)

    # store: key derivation, probe + decode, and put.
    def lookup(result: Any, _args: tuple) -> dict[str, float]:
        return {"store.hits" if result is not None else "store.misses": 1}

    _patch_everywhere(cache_key, _timed(
        rec, "store.key", cache_key, request=lambda a: spec_label(a[0])), undo)
    _patch_method(ResultStore, "get", _timed(
        rec, "store.get", ResultStore.__dict__["get"], counts=lookup,
        request=lambda a: spec_label(a[1])), undo)
    _patch_method(ResultStore, "get_by_key", _timed(
        rec, "store.get_by_key", ResultStore.__dict__["get_by_key"], counts=lookup,
        request=lambda a: f"key:{a[1][:12]}"), undo)
    _patch_method(ResultStore, "put", _timed(
        rec, "store.put", ResultStore.__dict__["put"],
        counts=lambda _r, _a: {"store.puts": 1},
        request=lambda a: spec_label(a[1])), undo)

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
        undo.clear()

    return uninstall


# --------------------------------------------------------------------- #
# Analysis
# --------------------------------------------------------------------- #


def covered(start: float, end: float, intervals: Iterable[tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        hi = min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Each span's duration minus the part its child spans cover.

    Children may run concurrently (forked shards of one backend run), so
    the covered part is the union of the child intervals, not their sum.
    """
    children: dict[str, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[4] is not None:
            children[span[4]].append((span[2], span[3]))
    return {
        sid: (end - start) - covered(start, end, children.get(sid, ()))
        for sid, _name, start, end, *_ in spans
    }


def within(spans: list[Span], start: float, end: float) -> list[Span]:
    """The spans that began inside the window ``[start, end]``."""
    return [s for s in spans if start <= s[2] <= end]


def _children(spans: list[Span]) -> dict[str, list[Span]]:
    by_parent: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        if span[4] is not None:
            by_parent[span[4]].append(span)
    return by_parent


def _check_time(root: str, by_parent: dict[str, list[Span]]) -> float:
    """Total ``solvability.check`` time in the subtree below ``root``."""
    total = 0.0
    todo = [root]
    while todo:
        for child in by_parent.get(todo.pop(), ()):
            if child[1] == "solvability.check":
                total += child[3] - child[2]
            else:
                todo.append(child[0])
    return total


def dispatch(spans: list[Span], selfs: dict[str, float]) -> tuple[float, float]:
    """(dispatch seconds, mean shard skew) over every dispatch in ``spans``.

    A backend run's dispatch cost is its duration minus its slowest
    shard's check time; its skew is slowest over mean shard check time.
    ``Session.check_record`` dispatches one check inline: its dispatch
    cost is its self time (store, spec build and check are children), and
    a single shard has skew 1.
    """
    by_parent = _children(spans)
    total = 0.0
    skews: list[float] = []
    for sid, name, start, end, *_ in spans:
        if name == "session.check_record":
            total += selfs[sid]
        elif name in BACKEND_RUNS:
            shards = [
                _check_time(child[0], by_parent)
                for child in by_parent.get(sid, ())
                if child[1] == "backends.shard"
            ]
            slowest = max(shards, default=0.0)
            total += (end - start) - slowest
            mean = sum(shards) / len(shards) if shards else 0.0
            skews.append(slowest / mean if mean > 0 else 1.0)
    return total, (sum(skews) / len(skews) if skews else 1.0)


def layer_metrics(spans: list[Span], units: float = 1.0) -> dict[str, float]:
    """Per-layer metrics of one traced window, divided by ``units``.

    Times and counts are per unit of the workload's work (a round, a
    sweep cycle, or one open-loop phase); ratios are not divided.
    """
    selfs = self_times(spans)
    sums: dict[str, float] = defaultdict(float)
    for span in spans:
        metric = SELF_TIME_METRICS.get(span[1])
        if metric is not None:
            sums[metric] += selfs[span[0]]
        for key, amount in (span[7] or {}).items():
            sums[key] += amount
    dispatch_s, skew = dispatch(spans, selfs)
    calls = sums["provers.calls"]
    lookups = sums["store.hits"] + sums["store.misses"]
    per_unit = (
        "views.kernel_s", "views.interned", "prefixspace.extend_self_s",
        "prefixspace.prefixes", "components.self_s", "components.count",
        "decision.s", "provers.s", "solvability.self_s", "specs.build_s",
        "records.write_s", "store.key_s", "store.get_s", "store.put_s", "store.puts",
    )
    metrics = {name: sums[name] / units for name in per_unit}
    metrics["provers.decided_ratio"] = sums["provers.decided"] / calls if calls else 0.0
    metrics["backends.dispatch_s"] = dispatch_s / units
    metrics["backends.shard_skew"] = skew
    metrics["store.hit_ratio"] = sums["store.hits"] / lookups if lookups else 0.0
    return {name: metrics[name] for name in LAYER_METRICS}
