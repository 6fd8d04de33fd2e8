"""The caching sweep backend: hot sweeps do zero checker work.

The acceptance property of the result store: repeating an identical
sweep (or session check) against a warm store reaches no backend, grows
no interner, and still returns records byte-identical to a cold
``record_timing=False`` serial run.
"""

from repro.api import Session, run_sweep
from repro.adversaries import two_process_oblivious_family
from repro.backends import SerialBackend, jobs_for
from repro.consensus.census import two_process_census
from repro.consensus.solvability import CheckOptions
from repro.records import write_jsonl
from repro.specs import AdversarySpec
from repro.store import CachedBackend, ResultStore

OPTIONS = CheckOptions(max_depth=3)


def specs_for(count: int) -> list[AdversarySpec]:
    return [
        AdversarySpec("random-oblivious", {"n": 2, "size": 2}, seed=seed)
        for seed in range(count)
    ]


class CountingBackend:
    """Serial backend that records how many jobs ever reach it."""

    def __init__(self) -> None:
        self.jobs_run = 0
        self._inner = SerialBackend(record_timing=False)

    def run(self, jobs, options=None):
        self.jobs_run += len(jobs)
        return self._inner.run(jobs, options)


def test_second_identical_sweep_reaches_no_backend(tmp_path):
    inner = CountingBackend()
    backend = CachedBackend(ResultStore(tmp_path), inner)
    cold = backend.run(jobs_for(specs_for(4), max_depth=3), OPTIONS)
    assert inner.jobs_run == 4
    hot = backend.run(jobs_for(specs_for(4), max_depth=3), OPTIONS)
    assert inner.jobs_run == 4  # zero checker work the second time
    assert [r.to_dict() for r in hot] == [r.to_dict() for r in cold]
    assert backend.store.hits == 4


def test_hits_byte_identical_to_serial_no_timing_run(tmp_path):
    store = ResultStore(tmp_path)
    cached = CachedBackend(store)
    cached.run(jobs_for(specs_for(3), max_depth=3), OPTIONS)
    hot = cached.run(jobs_for(specs_for(3), max_depth=3), OPTIONS)
    serial = SerialBackend(record_timing=False).run(
        jobs_for(specs_for(3), max_depth=3), OPTIONS
    )
    hot_path, serial_path = tmp_path / "hot.jsonl", tmp_path / "serial.jsonl"
    write_jsonl(hot, hot_path)
    write_jsonl(serial, serial_path)
    assert hot_path.read_bytes() == serial_path.read_bytes()


def test_partial_warm_sweep_mixes_hits_and_misses(tmp_path):
    inner = CountingBackend()
    backend = CachedBackend(ResultStore(tmp_path), inner)
    backend.run(jobs_for(specs_for(2), max_depth=3), OPTIONS)
    records = backend.run(jobs_for(specs_for(5), max_depth=3), OPTIONS)
    assert inner.jobs_run == 2 + 3  # only the three new specs computed
    assert [r.index for r in records] == [0, 1, 2, 3, 4]
    assert backend.store.hits == 2 and backend.store.puts == 5


def test_job_index_and_tags_are_request_scoped(tmp_path):
    backend = CachedBackend(ResultStore(tmp_path))
    [spec] = specs_for(1)
    backend.run(jobs_for([spec], max_depth=3, tags={"run": "cold"}), OPTIONS)
    jobs = jobs_for([spec], max_depth=3, tags={"run": "hot"})
    jobs[0].index = 42
    [record] = backend.run(jobs, OPTIONS)
    assert record.index == 42
    assert record.tags == {"run": "hot"}


def test_per_job_depth_budgets_key_separately(tmp_path):
    backend = CachedBackend(ResultStore(tmp_path))
    [spec] = specs_for(1)
    shallow = jobs_for([spec], max_depth=2)
    deep = jobs_for([spec], max_depth=4)
    backend.run(shallow, OPTIONS.replace(max_depth=2))
    backend.run(deep, OPTIONS.replace(max_depth=4))
    # Different depth budgets are different cache entries, never aliased.
    assert backend.store.puts == 2 and backend.store.hits == 0
    [hot] = backend.run(jobs_for([spec], max_depth=4), OPTIONS.replace(max_depth=4))
    assert backend.store.hits == 1 and hot.max_depth == 4


def test_uncacheable_live_adversaries_pass_through(tmp_path):
    from repro.adversaries import lossy_link_full, lossy_link_no_hub
    from repro.adversaries.combinators import UnionAdversary

    # Combinator adversaries have no canonical spec serialization.
    live = UnionAdversary(lossy_link_full(), lossy_link_no_hub())
    inner = CountingBackend()
    backend = CachedBackend(ResultStore(tmp_path), inner)
    records = backend.run(jobs_for([live], max_depth=2), OPTIONS)
    assert len(records) == 1
    assert backend.uncacheable == 1
    assert backend.store.puts == 0  # nothing cacheable was written
    backend.run(jobs_for([live], max_depth=2), OPTIONS)
    assert inner.jobs_run == 2  # recomputed both times, never served


def test_run_sweep_store_parameter(tmp_path):
    jobs = lambda: jobs_for(specs_for(3), max_depth=3)  # noqa: E731
    backend = lambda: SerialBackend(record_timing=False)  # noqa: E731
    first = run_sweep(
        jobs(), options=OPTIONS, backend=backend(), store=tmp_path / "store"
    )
    second = run_sweep(
        jobs(), options=OPTIONS, backend=backend(), store=tmp_path / "store"
    )
    assert [r.to_dict() for r in first] == [r.to_dict() for r in second]
    assert (tmp_path / "store" / "objects").is_dir()


def test_run_sweep_store_with_timing_zeroes_only_hits(tmp_path):
    # With the default (timing-on) backend, cold records keep real
    # timings and served hits are zeroed — visible and deliberate.
    cold = run_sweep(jobs_for(specs_for(1), max_depth=3), options=OPTIONS,
                     store=tmp_path / "store")
    hot = run_sweep(jobs_for(specs_for(1), max_depth=3), options=OPTIONS,
                    store=tmp_path / "store")
    assert cold[0].elapsed_s > 0.0
    assert hot[0].elapsed_s == 0.0
    cold[0].elapsed_s, cold[0].views_interned = 0.0, 0
    assert hot[0].to_dict() == cold[0].to_dict()


def test_session_check_record_zero_work_on_second_call(tmp_path):
    session = Session(OPTIONS, store=tmp_path)
    [spec] = specs_for(1)
    cold = session.check_record(spec)
    stats_after_cold = repr(session.stats())
    hot = session.check_record(spec)
    # The session's interners were not even consulted, let alone grown.
    assert repr(session.stats()) == stats_after_cold
    assert session.store.hits == 1
    assert hot.to_dict() == cold.to_dict()
    assert hot.elapsed_s == 0.0 and hot.views_interned == 0


def test_session_check_record_cold_matches_backend_record(tmp_path):
    [spec] = specs_for(1)
    session = Session(OPTIONS, store=tmp_path / "a")
    via_session = session.check_record(spec)
    [via_backend] = CachedBackend(ResultStore(tmp_path / "b")).run(
        jobs_for([spec], max_depth=3), OPTIONS
    )
    assert via_session.to_dict() == via_backend.to_dict()


def test_session_sweep_uses_the_session_store(tmp_path):
    session = Session(OPTIONS, store=tmp_path)
    session.sweep(specs_for(3))
    assert session.store.puts == 3
    session.sweep(specs_for(3))
    assert session.store.hits == 3


def test_census_with_store_is_hot_on_repeat(tmp_path):
    cold = two_process_census(max_depth=4, store=tmp_path)
    store = ResultStore(tmp_path)
    hot = two_process_census(max_depth=4, store=store)
    assert store.hits == len(two_process_oblivious_family())
    for row in cold:  # hot rows serve zeroed timing; normalize to compare
        row.record.elapsed_s, row.record.views_interned = 0.0, 0
    assert [row.record.to_dict() for row in hot] == [
        row.record.to_dict() for row in cold
    ]
    # Oracle/CGP verdicts are census-attached, never cache-served.
    assert all(row.oracle is not None for row in hot)
