"""Tests for the public experiment API: specs, options, sessions, shims."""

import gc
import json
import re
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from kernels import without_numpy

import repro.specs as specs_module
import repro.topology.prefixspace as prefixspace_module
from repro import AdversarySpec, CheckOptions, Session
from repro.adversaries import (
    SafetyAdversary,
    lossy_link_full,
    lossy_link_no_hub,
)
from repro.adversaries.generators import (
    all_digraphs,
    santoro_widmayer_family,
    two_process_oblivious_family,
)
from repro.adversaries.stabilizing import (
    EventuallyForeverAdversary,
    StabilizingAdversary,
)
from repro.consensus.solvability import (
    check_consensus,
    check_consensus_with_options,
)
from repro.core.digraph import arrow
from repro.core.views import ViewInterner, numpy_available
from repro.errors import AdversaryError, AnalysisError
from repro.records import certificate_summary
from repro.specs import (
    NAMED_ADVERSARIES,
    families,
    random_rooted_specs,
    register_family,
)

N2_KEYS = sorted(g.key for g in all_digraphs(2))
N3_ROOTED_KEYS = sorted(g.key for g in all_digraphs(3) if g.is_rooted)


def _nonempty_subset(values):
    return st.sets(st.sampled_from(values), min_size=1, max_size=4).map(sorted)


#: One strategy of valid (params, seed) pairs per registered family.
FAMILY_STRATEGIES = {
    "oblivious": st.tuples(
        st.fixed_dictionaries(
            {"n": st.just(2), "graphs": _nonempty_subset(N2_KEYS)}
        ),
        st.none(),
    ),
    "two-process": st.tuples(
        st.fixed_dictionaries({"index": st.integers(0, 14)}), st.none()
    ),
    "santoro-widmayer": st.tuples(
        st.fixed_dictionaries(
            {"n": st.integers(2, 3), "losses": st.integers(0, 2)}
        ),
        st.none(),
    ),
    "heard-of": st.tuples(
        st.one_of(
            st.fixed_dictionaries(
                {
                    "n": st.integers(2, 3),
                    "predicate": st.sampled_from(["kernel", "no-split", "rooted"]),
                }
            ),
            st.fixed_dictionaries(
                {
                    "n": st.just(3),
                    "predicate": st.just("min-degree"),
                    "k": st.integers(1, 3),
                }
            ),
        ),
        st.none(),
    ),
    "named": st.tuples(
        st.fixed_dictionaries({"name": st.sampled_from(sorted(NAMED_ADVERSARIES))}),
        st.none(),
    ),
    "eventually-forever": st.tuples(
        st.fixed_dictionaries(
            {
                "n": st.just(2),
                "base": _nonempty_subset(N2_KEYS),
                "eventual": _nonempty_subset(N2_KEYS),
            }
        ),
        st.none(),
    ),
    "stabilizing": st.tuples(
        st.fixed_dictionaries(
            {
                "n": st.just(3),
                "graphs": _nonempty_subset(N3_ROOTED_KEYS),
                "window": st.integers(1, 3),
            }
        ),
        st.none(),
    ),
    "random-rooted": st.tuples(
        st.fixed_dictionaries(
            {"n": st.integers(2, 3), "size": st.integers(1, 3)}
        ),
        st.integers(0, 2**63 - 1),
    ),
    "random-oblivious": st.tuples(
        st.fixed_dictionaries(
            {
                "n": st.integers(2, 3),
                "size": st.integers(1, 3),
                "rooted_only": st.booleans(),
            }
        ),
        st.integers(0, 2**63 - 1),
    ),
}


def _equivalent(a, b) -> bool:
    """Structural equality of two built adversaries."""
    return (
        type(a) is type(b)
        and a.n == b.n
        and a.name == b.name
        and a.alphabet() == b.alphabet()
        and a.initial_states() == b.initial_states()
        and a.accepting_states() == b.accepting_states()
    )


class TestAdversarySpecRoundTrip:
    def test_every_registered_family_has_a_strategy(self):
        assert set(FAMILY_STRATEGIES) == set(families())

    @pytest.mark.parametrize("family", sorted(FAMILY_STRATEGIES))
    def test_round_trip(self, family):
        @settings(max_examples=25, deadline=None)
        @given(FAMILY_STRATEGIES[family])
        def run(params_seed):
            params, seed = params_seed
            spec = AdversarySpec(family, params, seed=seed)
            # Dict round-trip through actual JSON text is exact.
            wire = json.loads(json.dumps(spec.to_dict()))
            rebuilt = AdversarySpec.from_dict(wire)
            assert rebuilt == spec
            assert rebuilt.to_dict() == spec.to_dict()
            # Building from the original and the rebuilt spec yields the
            # same adversary — on this or any other worker.
            assert _equivalent(spec.build(), rebuilt.build())

        run()

    def test_seeded_family_build_is_deterministic(self):
        spec = AdversarySpec("random-rooted", {"n": 3, "size": 2}, seed=99)
        assert spec.build().graphs == spec.build().graphs
        assert spec.build().graphs == AdversarySpec.from_dict(spec.to_dict()).build().graphs

    def test_different_seeds_generally_differ(self):
        graphs = {
            AdversarySpec("random-rooted", {"n": 3, "size": 3}, seed=s).build().graphs
            for s in range(8)
        }
        assert len(graphs) > 1

    def test_unknown_family_rejected(self):
        with pytest.raises(AdversaryError, match="unknown adversary family"):
            AdversarySpec("no-such-family", {})

    def test_seed_required_for_sampling_families(self):
        with pytest.raises(AdversaryError, match="requires a seed"):
            AdversarySpec("random-rooted", {"n": 3, "size": 1})

    def test_non_json_params_rejected(self):
        with pytest.raises(AdversaryError, match="not JSON-serializable"):
            AdversarySpec("oblivious", {"n": 2, "graphs": [arrow("->")]})

    @pytest.mark.parametrize(
        "bad",
        [
            None,
            ["oblivious"],
            {},
            {"params": {"n": 2}},
            {"family": ["oblivious"]},
            {"family": 7},
            {"family": "oblivious", "params": "abc"},
            {"family": "oblivious", "params": [1, 2]},
        ],
        ids=repr,
    )
    def test_malformed_dicts_rejected(self, bad):
        # Each of these used to escape as KeyError/TypeError/ValueError,
        # which the query service does not answer.
        with pytest.raises(AdversaryError):
            AdversarySpec.from_dict(bad)

    @pytest.mark.parametrize(
        "data, message",
        [
            # Each of these used to decode: the first two under a cache key
            # of their own for the plain lossy-full verdict, the last two
            # only to fail with a KeyError inside the build.
            (
                {"family": "named", "params": {"name": "lossy-full", "extra": 1}},
                "unknown param",
            ),
            (
                {"family": "named", "params": {"name": "lossy-full"}, "seed": 7},
                "takes no seed",
            ),
            ({"family": "two-process", "params": {"graphs": ["a"]}}, "unknown param"),
            ({"family": "oblivious", "params": {"n": 2}}, "needs param"),
        ],
        ids=["unknown-name", "unused-seed", "wrong-name", "missing-name"],
    )
    def test_declared_families_refuse_names_and_seeds_they_ignore(
        self, data, message
    ):
        with pytest.raises(AdversaryError, match=message):
            AdversarySpec.from_dict(data)

    @pytest.mark.parametrize(
        "data, param",
        [
            # Each of these used to decode and fail only in the build, with
            # "needs at least one graph", InvalidGraphError and a bare
            # TypeError.
            ({"family": "oblivious", "params": {"n": "x", "graphs": []}}, "n"),
            ({"family": "santoro-widmayer", "params": {"n": -1, "losses": 1}}, "n"),
            ({"family": "two-process", "params": {"index": 1.5}}, "index"),
            ({"family": "two-process", "params": {"index": True}}, "index"),
        ],
        ids=["oblivious-n-str", "sw-n-negative", "two-process-float", "two-process-bool"],
    )
    def test_integer_params_are_checked_at_decode(self, data, param):
        message = f"family {data['family']!r} needs param {param!r} to be an int"
        with pytest.raises(AdversaryError, match=message):
            AdversarySpec.from_dict(data)

    def test_two_process_index_range_is_the_family(self):
        last = len(two_process_oblivious_family()) - 1
        assert AdversarySpec("two-process", {"index": last}).build() == (
            two_process_oblivious_family()[last]
        )
        with pytest.raises(AdversaryError, match=f"in 0..{last}, got {last + 1}"):
            AdversarySpec("two-process", {"index": last + 1})

    @pytest.mark.parametrize(
        "family, params, message",
        [
            # Each of these used to decode and fail only in a worker's
            # build: InvalidGraphError for the first four, a bare TypeError
            # for "x", and "needs at least one graph" for the empty lists.
            ("oblivious", {"n": 2, "graphs": [1]},
             "param 'graphs' holds key 1, which sets the self-loop bit of node 0"),
            ("oblivious", {"n": 2, "graphs": [16]},
             "param 'graphs' holds key 16, outside 0 .. 2**4 - 1 for n=2"),
            ("oblivious", {"n": 2, "graphs": [-2]},
             "param 'graphs' holds key -2, outside 0 .. 2**4 - 1 for n=2"),
            ("stabilizing", {"n": 2, "graphs": [2, 8], "window": 1},
             "param 'graphs' holds key 8, which sets the self-loop bit of node 1"),
            ("oblivious", {"n": 2, "graphs": "x"},
             "needs param 'graphs' to be a list of graph keys, got 'x'"),
            ("oblivious", {"n": 2, "graphs": [2, True]},
             "param 'graphs' holds key True, which is not an int"),
            ("oblivious", {"n": 2, "graphs": []},
             "needs param 'graphs' to hold at least one graph key"),
            ("eventually-forever", {"n": 2, "base": [2], "eventual": []},
             "needs param 'eventual' to hold at least one graph key"),
            ("eventually-forever", {"n": 2, "base": [16], "eventual": [2]},
             "param 'base' holds key 16, outside 0 .. 2**4 - 1 for n=2"),
        ],
        ids=["self-loop", "too-large", "negative", "stabilizing-self-loop",
             "not-a-list", "bool-key", "empty-graphs", "empty-eventual", "base-range"],
    )
    def test_graph_keys_are_checked_against_n_at_decode(self, family, params, message):
        with pytest.raises(AdversaryError, match=re.escape(f"family {family!r} ")):
            AdversarySpec(family, params)
        with pytest.raises(AdversaryError, match=re.escape(message)):
            AdversarySpec.from_dict({"family": family, "params": params})

    @pytest.mark.parametrize(
        "params, message",
        [
            # Each of these used to decode: the first failed in a worker's
            # build with a bare KeyError, the next three with an
            # AdversaryError raised only there, and the last built the
            # adversary of the spec without "k" under another cache key.
            ({"n": 3, "predicate": "min-degree"},
             "needs param 'k' with predicate 'min-degree'"),
            ({"n": 3, "predicate": "bogus"},
             "needs param 'predicate' to be one of kernel, no-split, rooted, "
             "min-degree, got 'bogus'"),
            ({"n": 3, "predicate": 7},
             "needs param 'predicate' to be one of kernel, no-split, rooted, "
             "min-degree, got 7"),
            ({"n": 3, "predicate": "min-degree", "k": 9},
             "needs param 'k' to be in 1..n = 1..3, got 9"),
            ({"n": 3, "predicate": "kernel", "k": 5},
             "takes param 'k' only with predicate 'min-degree', not 'kernel'"),
        ],
        ids=["min-degree-without-k", "unknown-predicate", "non-string-predicate",
             "k-above-n", "k-without-min-degree"],
    )
    def test_heard_of_params_are_checked_at_decode(self, params, message):
        with pytest.raises(AdversaryError, match=re.escape("family 'heard-of' ")):
            AdversarySpec("heard-of", params)
        with pytest.raises(AdversaryError, match=re.escape(message)):
            AdversarySpec.from_dict({"family": "heard-of", "params": params})

    def test_an_empty_base_stays_valid(self):
        spec = AdversarySpec("eventually-forever", {"n": 2, "base": [], "eventual": [2]})
        assert spec.build().n == 2

    def test_santoro_widmayer_losses_are_bounded_by_the_messages(self):
        most = AdversarySpec("santoro-widmayer", {"n": 2, "losses": 2})
        assert most.build().name == "SantoroWidmayer(n=2, losses=2)"
        message = "family 'santoro-widmayer' needs param 'losses' to be at most n(n-1) = 2, got 5"
        with pytest.raises(AdversaryError, match=re.escape(message)):
            AdversarySpec("santoro-widmayer", {"n": 2, "losses": 5})
        with pytest.raises(AdversaryError, match="losses must be in 0..2"):
            santoro_widmayer_family(2, 3)

    def test_families_without_declared_names_accept_any_params(self, monkeypatch):
        monkeypatch.setattr(specs_module, "_REGISTRY", dict(specs_module._REGISTRY))
        register_family("undeclared", lambda params, rng: lossy_link_full())
        spec = AdversarySpec("undeclared", {"anything": 1}, seed=7)
        assert spec.build().name == lossy_link_full().name


class TestSpecDerivation:
    def test_oblivious_derives_and_rebuilds(self):
        adversary = lossy_link_full()
        spec = AdversarySpec.from_adversary(adversary)
        rebuilt = spec.build()
        assert rebuilt.graphs == adversary.graphs
        assert rebuilt.name == adversary.name
        # Deriving again from the rebuilt adversary is a fixed point.
        assert AdversarySpec.from_adversary(rebuilt) == spec

    def test_eventually_forever_derives(self):
        adversary = EventuallyForeverAdversary(
            2, [arrow("<-"), arrow("->")], [arrow("->")]
        )
        rebuilt = AdversarySpec.from_adversary(adversary).build()
        assert rebuilt.base == adversary.base
        assert rebuilt.eventual == adversary.eventual
        assert rebuilt.name == adversary.name

    def test_stabilizing_derives(self):
        adversary = StabilizingAdversary(2, [arrow("<-"), arrow("->")], window=2)
        rebuilt = AdversarySpec.from_adversary(adversary).build()
        assert rebuilt.graphs == adversary.graphs
        assert rebuilt.window == adversary.window

    def test_underivable_type_raises(self):
        table = {"a": {arrow("->"): ["a"]}}
        adversary = SafetyAdversary(2, ["a"], table)
        with pytest.raises(AdversaryError, match="cannot derive"):
            AdversarySpec.from_adversary(adversary)


class TestCheckOptions:
    def test_dict_round_trip(self):
        options = CheckOptions(max_depth=4, use_broadcaster_certificate=False)
        assert CheckOptions.from_dict(options.to_dict()) == options

    @pytest.mark.parametrize(
        "bad",
        [
            {"max_depth": -1},
            {"max_depth": True},
            {"max_depth": "3"},
            {"max_nodes": 0},
            {"use_impossibility_provers": "no"},
            {"use_broadcaster_certificate": 1},
        ],
        ids=repr,
    )
    def test_construction_and_replace_check_every_field(self, bad):
        # These used to construct: `check --max-depth -1` printed SOLVABLE
        # and a sweep stored records keyed by "max_depth": -1.
        with pytest.raises(AnalysisError, match="CheckOptions"):
            CheckOptions(**bad)
        with pytest.raises(AnalysisError, match="CheckOptions"):
            CheckOptions().replace(**bad)

    @pytest.mark.parametrize("legacy", [True, False, None])
    def test_legacy_memo_extensions_key_is_dropped(self, legacy):
        # Manifests, fleet directories, and client requests written before
        # the extension memo was removed still carry the key.
        data = dict(CheckOptions(max_depth=4).to_dict(), memo_extensions=legacy)
        assert CheckOptions.from_dict(data) == CheckOptions(max_depth=4)

    def test_removed_knob_keys_are_dropped_under_the_same_key(self):
        # Old manifests, fleet directories, and client requests carry the
        # sharded-extension and plan-cache knobs; both load and key alike.
        from repro.specs import AdversarySpec
        from repro.store import cache_key

        data = CheckOptions(max_depth=4).to_dict()
        legacy = dict(data, extension_workers=4, plan_cache_size=7)
        assert CheckOptions.from_dict(legacy) == CheckOptions.from_dict(data)
        spec = AdversarySpec("named", {"name": "lossy-full"})
        assert cache_key(spec, CheckOptions.from_dict(legacy)) == cache_key(
            spec, CheckOptions.from_dict(data)
        )

    @pytest.mark.parametrize("bad", [None, [], "max_depth=3", 7])
    def test_non_mapping_rejected(self, bad):
        with pytest.raises(AnalysisError, match="mapping"):
            CheckOptions.from_dict(bad)

    def test_unknown_fields_rejected(self):
        with pytest.raises(AnalysisError, match="unknown CheckOptions"):
            CheckOptions.from_dict({"max_depth": 3, "bogus": 1})

    @pytest.mark.parametrize(
        "bad",
        [
            {"max_depth": "abc"},
            {"max_depth": "3"},
            {"max_depth": -5},
            {"max_depth": True},
            {"max_depth": 3.0},
            {"max_depth": None},
            {"max_nodes": 0},
            {"max_nodes": False},
            {"extension_workers": "x"},
            {"extension_workers": 0},
            {"plan_cache_size": 0},
            {"plan_cache_size": "7"},
            {"use_impossibility_provers": 1},
            {"use_broadcaster_certificate": "yes"},
            {"layer_backend": "gpu"},
            {"layer_backend": ["numpy"]},
        ],
        ids=repr,
    )
    def test_malformed_values_rejected(self, bad):
        # Each of these used to decode into options that ran (and cached
        # a verdict under a junk key) instead of failing the request.
        with pytest.raises(AnalysisError, match="CheckOptions"):
            CheckOptions.from_dict(bad)

    def test_boundary_values_accepted(self):
        options = CheckOptions.from_dict(
            {
                "max_depth": 0,
                "max_nodes": 1,
                "extension_workers": 1,
                "plan_cache_size": None,
                "layer_backend": None,
                "use_impossibility_provers": False,
            }
        )
        assert options == CheckOptions(
            max_depth=0, max_nodes=1, use_impossibility_provers=False
        )
        assert CheckOptions.from_dict({"plan_cache_size": 1}) == CheckOptions()
        assert CheckOptions.from_dict({"layer_backend": "python"}) == CheckOptions()

    def test_wrapper_matches_options_core(self):
        adversary = lossy_link_no_hub()
        via_kwargs = check_consensus(adversary, max_depth=4)
        via_options = check_consensus_with_options(
            adversary, CheckOptions(max_depth=4)
        )
        assert via_kwargs.status == via_options.status
        assert via_kwargs.certified_depth == via_options.certified_depth

    def test_explicit_kwargs_override_options(self):
        adversary = lossy_link_full()
        result = check_consensus(
            adversary,
            options=CheckOptions(use_impossibility_provers=True, max_depth=3),
            use_impossibility_provers=False,
        )
        # The override disabled the provers, so the impossible adversary
        # comes back undecided rather than certified IMPOSSIBLE.
        assert result.status.value == "undecided"
        assert result.max_depth == 3


class TestUndecidedCertificate:
    def test_summary_reports_deepest_depth(self):
        result = check_consensus(
            lossy_link_full(),
            max_depth=4,
            use_impossibility_provers=False,
            use_broadcaster_certificate=False,
        )
        assert result.status.value == "undecided"
        assert certificate_summary(result) == "undecided@4"

    def test_undecided_depth_lands_in_records(self):
        from repro.api import jobs_for, run_sweep

        options = CheckOptions(
            use_impossibility_provers=False, use_broadcaster_certificate=False
        )
        [record] = run_sweep(
            jobs_for([lossy_link_full()], max_depth=3), options=options
        )
        assert record.status == "undecided"
        assert record.certificate == "undecided@3"


class TestSession:
    def test_check_accepts_specs_and_adversaries(self):
        session = Session(CheckOptions(max_depth=5))
        by_spec = session.check(AdversarySpec("named", {"name": "no-hub"}))
        by_adversary = session.check(lossy_link_no_hub())
        assert by_spec.status == by_adversary.status

    def test_sweep_uses_session_depth_and_writes_jsonl(self, tmp_path):
        from repro.records import read_jsonl

        session = Session(CheckOptions(max_depth=5))
        path = tmp_path / "session.jsonl"
        records = session.sweep(
            [AdversarySpec("two-process", {"index": i}) for i in range(4)],
            jsonl_path=path,
        )
        assert [r.max_depth for r in records] == [5] * 4
        assert [r.index for r in read_jsonl(path)] == [0, 1, 2, 3]


class TestDeprecationShims:
    def test_sweepjob_legacy_positional_construction(self):
        from repro.backends import SweepJob

        job = SweepJob(3, lossy_link_no_hub(), 7, {"k": "v"})
        assert job.index == 3
        assert job.adversary.name == "LossyLink{<-,->}"
        assert job.max_depth == 7
        assert job.tags == {"k": "v"}

    def test_sweepjob_requires_adversary_or_spec(self):
        from repro.backends import SweepJob

        with pytest.raises(AnalysisError):
            SweepJob(0)

    def test_headerless_v1_jsonl_still_loads(self, tmp_path):
        from repro.records import read_jsonl

        v1_line = {
            "index": 0, "adversary": "X", "n": 2, "alphabet": 1,
            "max_depth": 3, "status": "solvable", "certified_depth": 1,
            "certificate": "decision-table@1", "elapsed_s": 0.1,
            "views_interned": 7, "shard": 0, "tags": {"family": "legacy"},
        }
        path = tmp_path / "old.jsonl"
        path.write_text(json.dumps(v1_line) + "\n")
        [record] = list(read_jsonl(path))
        assert record.adversary == "X"
        assert record.solvable is True
        # Post-v1 fields default rather than KeyError.
        assert record.family is None and record.spec is None
        assert record.family_label == "legacy"

    def test_unknown_schema_rejected(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text(json.dumps({"schema": "repro.run-record/99"}) + "\n")
        from repro.records import read_jsonl

        with pytest.raises(ValueError, match="unsupported record schema"):
            list(read_jsonl(path))


class TestRandomRootedSpecs:
    def test_pure_function_of_master_seed(self):
        a = random_rooted_specs(5, 3, 6)
        b = random_rooted_specs(5, 3, 6)
        assert a == b
        assert [s.seed for s in a] == [s.seed for s in b]
        assert random_rooted_specs(6, 3, 6) != a

    def test_specs_build_without_replaying_the_stream(self):
        specs = random_rooted_specs(11, 3, 4)
        # Building out of order (or on another worker) gives the same
        # family as building in order: each spec owns its sub-seed.
        reversed_graphs = [s.build().graphs for s in reversed(specs)]
        in_order_graphs = [s.build().graphs for s in specs]
        assert list(reversed(reversed_graphs)) == in_order_graphs


ONLY_TO = AdversarySpec("named", {"name": "only-to"})


def _check_interner(session, options=None):
    """The interner of a table-certified session check."""
    result = session.check(ONLY_TO, options=options)
    assert result.decision_table is not None
    return result.decision_table.space.interner


def _numpy_kernel_calls(monkeypatch):
    """Log every numpy layer-kernel call, with the cell floor at 0."""
    import repro.core.views as views_module

    calls = []
    numpy_kernel = ViewInterner._extend_layer_numpy

    def logged(self, *args):
        calls.append(len(args[0]))
        return numpy_kernel(self, *args)

    monkeypatch.setattr(views_module, "_NUMPY_MIN_CELLS", 0)
    monkeypatch.setattr(ViewInterner, "_extend_layer_numpy", logged)
    return calls


class TestLayerBackendOption:
    """The removed ``layer_backend`` option: the platform picks the
    kernel, and the key of an old options document loads and is dropped."""

    def test_roundtrips_and_reaches_session_interners(self):
        options = CheckOptions.from_dict({"max_depth": 4, "layer_backend": "python"})
        assert options == CheckOptions(max_depth=4)
        assert "layer_backend" not in options.to_dict()
        assert CheckOptions.from_dict(options.to_dict()) == options
        with pytest.raises(TypeError):
            CheckOptions(max_depth=4, layer_backend="python")
        assert Session(options).check(ONLY_TO).certified_depth == 1

    def test_default_follows_import_time_selection(self, monkeypatch):
        calls = _numpy_kernel_calls(monkeypatch)
        _check_interner(Session(CheckOptions(max_depth=4)))
        assert bool(calls) == numpy_available()

    @pytest.mark.skipif(not numpy_available(), reason="needs the numpy backend")
    def test_per_call_backend_overrides_the_session_default(self, monkeypatch):
        # Per-call options still override the session's, but the backend
        # an old document names does not: the depth-1 layer runs numpy.
        calls = _numpy_kernel_calls(monkeypatch)
        session = Session(CheckOptions.from_dict({"max_depth": 0, "layer_backend": "numpy"}))
        options = CheckOptions.from_dict({"max_depth": 4, "layer_backend": "python"})
        assert session.check(ONLY_TO).certified_depth is None
        assert calls == []
        assert session.check(ONLY_TO, options=options).certified_depth == 1
        assert calls == [4]

    def test_finished_check_releases_its_interner(self, monkeypatch):
        # ViewInterner's slots leave out __weakref__; a subclass adds it.
        class Tracked(ViewInterner):
            __slots__ = ("__weakref__",)

        monkeypatch.setattr(prefixspace_module, "ViewInterner", Tracked)
        session = Session(CheckOptions(max_depth=4))
        interner = _check_interner(session)
        assert isinstance(interner, Tracked)
        ref = weakref.ref(interner)
        del interner
        gc.collect()
        assert ref() is None

    def test_manifest_carries_the_backend_to_shard_runners(self, tmp_path):
        # A manifest written while the option existed still loads, to
        # options without it.
        from repro.backends import load_manifest, write_manifest
        from repro.api import jobs_for

        spec = AdversarySpec("two-process", {"index": 3})
        path = tmp_path / "shard.json"
        write_manifest(
            jobs_for([spec], max_depth=3), path, options=CheckOptions(max_depth=3)
        )
        document = json.loads(path.read_text())
        document["options"]["layer_backend"] = "python"
        path.write_text(json.dumps(document))
        assert load_manifest(path)["options"] == CheckOptions(max_depth=3)

    def test_backend_choice_does_not_change_verdicts(self):
        from repro.adversaries import two_process_oblivious_family
        from repro.api import jobs_for

        def fingerprint():
            session = Session(CheckOptions(max_depth=5))
            return [
                (r.status, r.certificate, r.certified_depth)
                for r in session.sweep(
                    jobs_for(two_process_oblivious_family(), max_depth=5)
                )
            ]

        with without_numpy():
            python = fingerprint()
        assert fingerprint() == python
