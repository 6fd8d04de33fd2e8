"""Tests for the ASCII renderers and the command-line interface."""

import pytest

from repro.adversaries.lossylink import lossy_link_no_hub
from repro.cli import main
from repro.core.digraph import Digraph, arrow
from repro.core.graphword import GraphWord
from repro.core.ptg import PTGPrefix
from repro.core.views import ViewInterner
from repro.specs import NAMED_ADVERSARIES
from repro.topology.components import ComponentAnalysis
from repro.topology.prefixspace import PrefixSpace
from repro.viz import (
    render_component_table,
    render_digraph,
    render_distance_matrix,
    render_ptg,
    render_word,
)


class TestRenderers:
    def test_render_digraph_two_process(self):
        assert render_digraph(arrow("->")) == "->"
        assert render_digraph(arrow("none")) == "none"

    def test_render_digraph_general(self):
        text = render_digraph(Digraph(3, [(0, 1), (2, 1)]))
        assert "0->1" in text and "2->1" in text
        assert render_digraph(Digraph.empty(3)) == "[no edges]"

    def test_render_word(self):
        word = GraphWord([arrow("->"), arrow("<-")])
        assert render_word(word) == "-> <-"
        assert render_word(GraphWord([], n=2)) == "(empty)"

    def test_render_ptg_figure2(self):
        g1 = Digraph(3, [(0, 1), (2, 1)])
        g2 = Digraph(3, [(1, 0)])
        prefix = PTGPrefix(ViewInterner(3), (1, 0, 1), [g1, g2])
        text = render_ptg(prefix, highlight_process=0)
        assert "t=0" in text and "t=2" in text
        assert "(0,2)*" in text  # the apex is highlighted
        assert "(2,2)" in text and "(2,2)*" not in text  # outside the cone
        assert "causal past of process 0" in text

    def test_render_ptg_without_highlight(self):
        prefix = PTGPrefix(ViewInterner(2), (0, 1), [arrow("->")])
        text = render_ptg(prefix)
        assert "causal past" not in text

    def test_render_component_table(self):
        space = PrefixSpace(lossy_link_no_hub())
        analysis = ComponentAnalysis(space, 1)
        text = render_component_table(analysis)
        assert "4 component(s)" in text
        assert "broadcasters" in text

    def test_render_distance_matrix(self):
        text = render_distance_matrix({("A", "B"): 0.5}, title="demo")
        assert "demo" in text and "d(A, B) = 0.5" in text

    def test_render_bivalence_sparkline(self):
        from repro.viz import render_bivalence_sparkline

        text = render_bivalence_sparkline([1, 1, 0, 0])
        assert "##.." in text

    def test_render_census(self):
        from repro.consensus.census import two_process_census
        from repro.viz import render_census

        text = render_census(two_process_census(max_depth=5))
        assert "decision-table@1" in text
        assert "single-component-induction" in text
        assert "disagrees" not in text


#: (argv, usage-error text) of an out-of-range integer argument per subcommand.
_BAD_NUMBERS = [
    (["fair", "--adversary", "no-hub", "--depth", "-1"], "--depth: must be >= 1, got -1"),
    (["fair", "--adversary", "no-hub", "--limit", "0"], "--limit: must be >= 1, got 0"),
    (["simulate", "--adversary", "no-hub", "--trials", "-3"],
     "--trials: must be >= 1, got -3"),
    (["simulate", "--adversary", "no-hub", "--rounds", "0"],
     "--rounds: must be >= 1, got 0"),
    (["census", "--rooted", "--samples", "-2"], "--samples: must be >= 1, got -2"),
    (["census", "--rooted", "--n", "0"], "--n: must be >= 1, got 0"),
    (["census", "--workers", "0"], "--workers: must be >= 1, got 0"),
    (["sweep", "--family", "rooted", "--samples", "0"], "--samples: must be >= 1, got 0"),
    (["sweep", "--family", "rooted", "--sizes", "1", "-1"],
     "--sizes: must be >= 1, got -1"),
    (["sweep", "--family", "sw", "--losses", "0"], "--losses: must be >= 1, got 0"),
    (["sweep", "--workers", "-1"], "--workers: must be >= 1, got -1"),
    (["fleet", "run", "--dir", "unused", "--shards", "0"], "--shards: must be >= 1, got 0"),
    (["fleet", "run", "--dir", "unused", "--max-attempts", "0"],
     "--max-attempts: must be >= 1, got 0"),
    (["fleet", "status", "--dir", "unused", "--top", "-1"], "--top: must be >= 0, got -1"),
    (["fleet", "resume", "--dir", "unused", "--workers", "0"],
     "--workers: must be >= 1, got 0"),
    (["report", "unused.jsonl", "--top", "-5"], "--top: must be >= 0, got -5"),
    (["cache", "gc", "--store", "unused", "--max-objects", "-1"],
     "--max-objects: must be >= 0, got -1"),
    (["cache", "gc", "--store", "unused", "--max-bytes", "-1"],
     "--max-bytes: must be >= 0, got -1"),
    (["serve", "--store", "unused", "--queue-limit", "0"],
     "--queue-limit: must be >= 1, got 0"),
    (["load-test", "--total", "0"], "--total: must be >= 1, got 0"),
    (["load-test", "--cold-stride", "0"], "--cold-stride: must be >= 1, got 0"),
    (["load-test", "--connections", "-4"], "--connections: must be >= 1, got -4"),
    (["kset", "--adversary", "no-hub", "--k", "0"], "--k: must be >= 1, got 0"),
    (["kset", "--adversary", "no-hub", "--values", "1"], "--values: must be >= 2, got 1"),
    (["heardof", "--n", "0"], "--n: must be >= 1, got 0"),
    (["simulate", "--adversary", "no-hub", "--trials", "many"],
     "--trials: invalid int value: 'many'"),
    (["serve", "--store", "unused", "--port", "70000"], "--port: must be <= 65535, got 70000"),
    (["ptg", "--process", "3"], "--process: must be <= 2, got 3"),
    (["ptg", "--process", "-1"], "--process: must be >= 0, got -1"),
]


class TestCLI:
    def test_registry_instantiates(self):
        for name, factory in NAMED_ADVERSARIES.items():
            adversary = factory()
            assert adversary.n in (2, 3), name

    def test_check_command(self, capsys):
        assert main(["check", "--adversary", "no-hub"]) == 0
        out = capsys.readouterr().out
        assert "SOLVABLE" in out

    def test_check_stats_prints_the_view_tables_of_the_run(self, capsys):
        from repro.consensus import check_consensus

        argv = ["check", "--adversary", "sw-n3-1", "--max-depth", "3", "--stats"]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        interner = ViewInterner(3)
        check_consensus(NAMED_ADVERSARIES["sw-n3-1"](), max_depth=3, interner=interner)
        assert lines[-1] == f"  view tables: {interner.stats()!r}"

    def test_check_unknown_adversary(self):
        with pytest.raises(SystemExit):
            main(["check", "--adversary", "bogus"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--adversary", "only-to"],
            ["census"],
            ["sweep", "--family", "two-process"],
            ["fleet", "run", "--dir", "unused"],
            ["load-test"],
            ["simulate", "--adversary", "only-to"],
            ["kset", "--adversary", "only-to"],
            ["heardof"],
        ],
        ids=["check", "census", "sweep", "fleet-run", "load-test", "simulate", "kset",
             "heardof"],
    )
    def test_negative_max_depth_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--max-depth", "-1"])
        assert exit_info.value.code == 2
        assert "--max-depth: must be >= 0, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message", _BAD_NUMBERS, ids=[" ".join(argv) for argv, _ in _BAD_NUMBERS]
    )
    def test_out_of_range_number_is_a_usage_error(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            # --poll -1 used to create the fleet directory and then die with
            # a traceback, --timeout -1 to fail at once, and inf/nan to be
            # written into fleet.json, which is then not valid JSON.
            (["run", "--lease-ttl", "inf"], "--lease-ttl: must be finite, got inf"),
            (["run", "--heartbeat", "nan"], "--heartbeat: must be finite, got nan"),
            (["run", "--backoff-base", "-3"], "--backoff-base: must be >= 0, got -3.0"),
            (["run", "--backoff-cap", "-0.5"], "--backoff-cap: must be >= 0, got -0.5"),
            (["run", "--poll", "-1"], "--poll: must be > 0, got -1.0"),
            (["run", "--timeout", "-1"], "--timeout: must be > 0, got -1.0"),
            (["resume", "--timeout", "0"], "--timeout: must be > 0, got 0.0"),
        ],
        ids=["lease-ttl", "heartbeat", "backoff-base", "backoff-cap", "poll",
             "run-timeout", "resume-timeout"],
    )
    def test_fleet_timing_argument_is_a_usage_error(self, tmp_path, argv, message, capsys):
        fleet_dir = tmp_path / "fleet"
        with pytest.raises(SystemExit) as exit_info:
            main(["fleet", argv[0], "--dir", str(fleet_dir), *argv[1:]])
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err
        assert not fleet_dir.exists()

    def test_simulate_command(self, capsys):
        assert main(["simulate", "--adversary", "no-hub", "--trials", "5"]) == 0
        out = capsys.readouterr().out
        assert "agreement failures 0" in out

    def test_simulate_impossible_returns_error(self, capsys):
        assert main(["simulate", "--adversary", "lossy-full"]) == 1

    def test_ptg_command(self, capsys):
        assert main(["ptg", "--process", "1"]) == 0
        out = capsys.readouterr().out
        assert "Figure 2" in out

    def test_census_command(self, capsys):
        assert main(["census", "--max-depth", "4"]) == 0
        out = capsys.readouterr().out
        assert "15/15 rows agree with the literature oracle: True" in out
        assert "disagrees" not in out

    def test_kset_command(self, capsys):
        assert main(["kset", "--adversary", "lossy-full", "--k", "2"]) == 0
        out = capsys.readouterr().out
        assert "2-set agreement solvable" in out
        assert main(["kset", "--adversary", "lossy-full", "--k", "1", "--max-depth", "2"]) == 1

    def test_heardof_command(self, capsys):
        assert main(["heardof", "--n", "2"]) == 0
        out = capsys.readouterr().out
        assert "kernel" in out and "IMPOSSIBLE" in out and "SOLVABLE" in out

    def test_fair_command(self, capsys):
        assert main(["fair", "--adversary", "lossy-full", "--depth", "3"]) == 0
        out = capsys.readouterr().out
        assert "candidate(s) bivalent" in out
        assert main(["fair", "--adversary", "no-hub", "--depth", "3"]) == 0
        out = capsys.readouterr().out
        assert "no fair-sequence candidate" in out
