"""Tests for the public experiment API: specs, options, sessions, shims."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import AdversarySpec, CheckOptions, Session
from repro.adversaries import (
    ObliviousAdversary,
    SafetyAdversary,
    lossy_link_full,
    lossy_link_no_hub,
)
from repro.adversaries.generators import all_digraphs
from repro.adversaries.stabilizing import (
    EventuallyForeverAdversary,
    StabilizingAdversary,
)
from repro.consensus.solvability import (
    check_consensus,
    check_consensus_with_options,
)
from repro.core.digraph import arrow
from repro.errors import AdversaryError, AnalysisError
from repro.records import certificate_summary
from repro.specs import NAMED_ADVERSARIES, families, random_rooted_specs

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

    @pytest.mark.parametrize("legacy", [True, False, None])
    def test_legacy_memo_extensions_key_is_dropped(self, legacy):
        # Manifests, fleet directories, and client requests written before
        # the extension memo was removed still carry the key.
        data = dict(CheckOptions(max_depth=4).to_dict(), memo_extensions=legacy)
        assert CheckOptions.from_dict(data) == CheckOptions(max_depth=4)

    def test_unknown_fields_rejected(self):
        with pytest.raises(AnalysisError, match="unknown CheckOptions"):
            CheckOptions.from_dict({"max_depth": 3, "bogus": 1})

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

    def test_interners_shared_across_checks(self):
        session = Session(CheckOptions(max_depth=5))
        session.check(lossy_link_no_hub())
        views_after_first = len(session.interner(2))
        session.check(ObliviousAdversary(2, [arrow("->")]))
        # The singleton adversary's views were already interned by the
        # first check: the shared table did not grow.
        assert len(session.interner(2)) == views_after_first
        assert set(session.stats()) == {2}

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


class TestLayerBackendOption:
    def test_roundtrips_and_reaches_session_interners(self):
        options = CheckOptions(max_depth=4, layer_backend="python")
        assert CheckOptions.from_dict(options.to_dict()) == options
        session = Session(options)
        assert session.interner(2).layer_backend == "python"

    def test_default_follows_import_time_selection(self):
        from repro.core.views import DEFAULT_LAYER_BACKEND

        session = Session(CheckOptions(max_depth=4))
        assert session.interner(2).layer_backend == DEFAULT_LAYER_BACKEND

    def test_manifest_carries_the_backend_to_shard_runners(self, tmp_path):
        from repro.backends import load_manifest, write_manifest
        from repro.api import jobs_for

        spec = AdversarySpec("two-process", {"index": 3})
        path = tmp_path / "shard.json"
        write_manifest(
            jobs_for([spec], max_depth=3),
            path,
            options=CheckOptions(max_depth=3, layer_backend="python"),
        )
        manifest = load_manifest(path)
        assert manifest["options"].layer_backend == "python"

    def test_backend_choice_does_not_change_verdicts(self):
        from repro.adversaries import two_process_oblivious_family
        from repro.core.views import numpy_available
        from repro.api import jobs_for

        backends = ["python"] + (["numpy"] if numpy_available() else [])
        fingerprints = []
        for backend in backends:
            session = Session(CheckOptions(max_depth=5, layer_backend=backend))
            fingerprints.append([
                (r.status, r.certificate, r.certified_depth)
                for r in session.sweep(
                    jobs_for(two_process_oblivious_family(), max_depth=5)
                )
            ])
        assert all(fp == fingerprints[0] for fp in fingerprints)
