"""Property-based soundness tests for the provers' core constructions."""

import json
import random
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.adversaries.oblivious import ObliviousAdversary
from repro.adversaries.safety import SafetyAdversary
from repro.adversaries.stabilizing import EventuallyForeverAdversary
from repro.consensus.provers import (
    find_guaranteed_broadcaster,
    find_nonbroadcastable_lasso,
    oblivious_cores,
)
from repro.core.digraph import arrow
from repro.core.graphword import GraphWord
from repro.errors import AdversaryError
from repro.specs import AdversarySpec

GRAPHS2 = tuple(arrow(name) for name in ("->", "<-", "<->", "none"))

adversaries = st.lists(
    st.sampled_from(GRAPHS2), min_size=1, max_size=4, unique=True
).map(lambda graphs: ObliviousAdversary(2, graphs))


class TestLassoProverSoundness:
    @given(adversaries)
    @settings(max_examples=30, deadline=None)
    def test_witness_is_admissible_and_broadcast_free(self, adversary):
        lasso = find_nonbroadcastable_lasso(adversary)
        if lasso is None:
            return
        stem, cycle = lasso
        assert adversary.admits_lasso(stem, cycle)
        # Unroll far enough to be sure: no process ever heard by all.
        unrolled = GraphWord(
            stem.graphs + cycle.graphs * 6, n=adversary.n
        )
        assert unrolled.broadcasters_by() == frozenset()

    @given(adversaries)
    @settings(max_examples=30, deadline=None)
    def test_none_means_all_sampled_sequences_broadcast(self, adversary):
        if find_nonbroadcastable_lasso(adversary) is not None:
            return
        rng = random.Random(7)
        for _ in range(10):
            word = adversary.sample_word(rng, 10)
            assert word.broadcasters_by() != frozenset()


class TestGuaranteedBroadcasterSoundness:
    @given(adversaries)
    @settings(max_examples=30, deadline=None)
    def test_guaranteed_broadcaster_heard_in_samples(self, adversary):
        p = find_guaranteed_broadcaster(adversary)
        if p is None:
            return
        rng = random.Random(11)
        for _ in range(10):
            word = adversary.sample_word(rng, 8)
            # In oblivious adversaries any prefix extends admissibly, so
            # a guaranteed broadcaster must complete within |D|-independent
            # bounded time on every sampled word... at least within n-1
            # rounds here (n=2): check it was heard by all by the horizon.
            assert word.broadcast_complete_round(p) is not None


class TestObliviousCoreSoundness:
    def test_core_words_are_admissible(self):
        adversary = EventuallyForeverAdversary(
            2, [arrow("<-"), arrow("->")], [arrow("->")]
        )
        # Non-limit-closed: no core may be claimed.
        assert oblivious_cores(adversary) == []

    @given(adversaries)
    @settings(max_examples=20, deadline=None)
    def test_oblivious_core_is_graph_set(self, adversary):
        assert oblivious_cores(adversary) == [adversary.graphs]

    @given(
        st.lists(st.sampled_from(GRAPHS2), min_size=1, max_size=3, unique=True),
        st.lists(st.sampled_from(GRAPHS2), min_size=1, max_size=3, unique=True),
    )
    @settings(
        max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_safety_automaton_cores_admit_their_words(self, first, second):
        """Two-phase safety adversary: first-set then second-set forever.

        Every candidate core's words must be admissible prefixes from
        round 1 (the soundness requirement for the impossibility lift).
        """
        table = {
            "one": {g: ["one", "two"] for g in first},
            "two": {g: ["two"] for g in second},
        }
        # Make 'two' reachable on shared letters only; both states initial
        # to keep the language prefix-rich.
        adversary = SafetyAdversary(2, ["one", "two"], table)
        rng = random.Random(3)
        for core in oblivious_cores(adversary):
            for _ in range(5):
                word = [rng.choice(sorted(core)) for _ in range(6)]
                assert adversary.admits_prefix(word), (core, word)


LEDGER = Path(__file__).resolve().parents[1] / "verdict_ledger.json"

#: ``find_nonbroadcastable_lasso`` witnesses ``(stem, cycle)``, as graph
#: names, of the specs in the ledger's named and two-process sections,
#: keyed by family and params.  The other specs that build have none.
NONBROADCASTABLE_WITNESSES = {
    ("named", '{"name": "silence"}'): ([], ["none"]),
    ("eventually-forever", '{"base": [0, 2], "eventual": [0], "n": 2}'): (["none"], ["none"]),
    ("eventually-forever", '{"base": [0, 4], "eventual": [0], "n": 2}'): (["none"], ["none"]),
    ("eventually-forever", '{"base": [0, 6], "eventual": [0], "n": 2}'): (["none"], ["none"]),
    ("eventually-forever", '{"base": [0, 2, 4], "eventual": [0], "n": 2}'): (["none"], ["none"]),
    ("eventually-forever", '{"base": [0, 2, 4], "eventual": [0, 2], "n": 2}'): (["none"], ["none"]),
    ("eventually-forever", '{"base": [0, 2, 4], "eventual": [0, 4], "n": 2}'): (["none"], ["none"]),
    ("eventually-forever", '{"base": [0, 2, 6], "eventual": [0], "n": 2}'): (["none"], ["none"]),
    ("eventually-forever", '{"base": [0, 2, 6], "eventual": [0, 2], "n": 2}'): (["none"], ["none"]),
    ("eventually-forever", '{"base": [0, 2, 6], "eventual": [0, 6], "n": 2}'): (["none"], ["none"]),
    ("eventually-forever", '{"base": [0, 4, 6], "eventual": [0], "n": 2}'): (["none"], ["none"]),
    ("eventually-forever", '{"base": [0, 4, 6], "eventual": [0, 4], "n": 2}'): (["none"], ["none"]),
    ("eventually-forever", '{"base": [0, 4, 6], "eventual": [0, 6], "n": 2}'): (["none"], ["none"]),
    ("eventually-forever", '{"base": [0, 2, 4, 6], "eventual": [0], "n": 2}'): (["none"], ["none"]),
    ("eventually-forever", '{"base": [0, 2, 4, 6], "eventual": [0, 2], "n": 2}'): (["none"], ["none"]),
    ("eventually-forever", '{"base": [0, 2, 4, 6], "eventual": [0, 4], "n": 2}'): (["none"], ["none"]),
    ("eventually-forever", '{"base": [0, 2, 4, 6], "eventual": [0, 6], "n": 2}'): (["none"], ["none"]),
    ("eventually-forever", '{"base": [0, 2, 4, 6], "eventual": [0, 2, 4], "n": 2}'): (["none"], ["none"]),
    ("eventually-forever", '{"base": [0, 2, 4, 6], "eventual": [0, 2, 6], "n": 2}'): (["none"], ["none"]),
    ("eventually-forever", '{"base": [0, 2, 4, 6], "eventual": [0, 4, 6], "n": 2}'): (["none"], ["none"]),
    ("two-process", '{"index": 3}'): ([], ["none"]),
    ("two-process", '{"index": 6}'): ([], ["none"]),
    ("two-process", '{"index": 8}'): ([], ["none"]),
    ("two-process", '{"index": 9}'): ([], ["none"]),
    ("two-process", '{"index": 11}'): ([], ["none"]),
    ("two-process", '{"index": 12}'): ([], ["none"]),
    ("two-process", '{"index": 13}'): ([], ["none"]),
    ("two-process", '{"index": 14}'): ([], ["none"]),
}


def test_nonbroadcastable_witnesses_are_pinned():
    """A change of walk order shows up here as a witness diff."""
    ledger = json.loads(LEDGER.read_text(encoding="utf-8"))
    built, found = 0, {}
    for section in ("named", "two-process-families", "two-process-oblivious"):
        for row in ledger[section]:
            try:
                adversary = AdversarySpec.from_dict(row["spec"]).build()
            except AdversaryError:
                continue
            built += 1
            lasso = find_nonbroadcastable_lasso(adversary)
            if lasso is not None:
                key = row["spec"]["family"], json.dumps(row["spec"]["params"], sort_keys=True)
                found[key] = tuple([g.name for g in word.graphs] for word in lasso)
    assert built == 164
    assert found == NONBROADCASTABLE_WITNESSES
