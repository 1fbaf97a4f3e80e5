"""Tests for the exploration recorder, ``vase explain`` and the DOT tree."""

import json
import os

import pytest

from repro.apps import biquad_filter, power_meter, receiver
from repro.cli import main
from repro.estimation import ConstraintSet
from repro.flow import FlowOptions, synthesize
from repro.instrument import (
    ExplorationLog,
    active_explog,
    decision_tree,
    disable_explog,
    enable_explog,
    explogging,
    narrate,
    render_exploration_html,
)
from repro.synth import InterfacingOptions
from repro.diagnostics import Severity, SynthesisError
from repro.vhif.dot import decision_tree_to_dot


SOURCE = """
ENTITY amp IS
PORT (
  QUANTITY vin : IN real IS voltage;
  QUANTITY vout : OUT real IS voltage LIMITED AT 2.0 v
);
END ENTITY;
ARCHITECTURE behavioral OF amp IS
BEGIN
  vout == -5.0 * vin;
END ARCHITECTURE;
"""


@pytest.fixture()
def clean_explog():
    """Run with no process-wide recorder, restoring whatever was active.

    The CI smoke mode (``VASE_EXPLOG``) keeps a session-wide recorder
    on; tests that assert disabled-path behavior must shed it first.
    """
    previous = disable_explog()
    yield
    if previous is not None:
        enable_explog(previous)


class TestExplorationLog:
    def test_emit_assigns_sequence_numbers(self):
        log = ExplorationLog()
        log.emit("a", x=1)
        log.emit("b", y=2)
        assert [e["seq"] for e in log] == [0, 1]
        assert len(log) == 2

    def test_of_kind_filters(self):
        log = ExplorationLog()
        log.emit("prune", minarea_bound=2.0, exact_bound=1.0)
        log.emit("alloc")
        log.emit("prune", minarea_bound=1.0, exact_bound=3.0)
        assert len(log.of_kind("prune")) == 2
        assert log.of_kind("alloc")[0]["event"] == "alloc"

    def test_prune_breakdown_keys_by_decisive_bound(self):
        log = ExplorationLog()
        log.emit("prune", minarea_bound=2.0, exact_bound=1.0)
        log.emit("prune", minarea_bound=1.0, exact_bound=3.0)
        log.emit("prune", minarea_bound=5.0, exact_bound=5.0)
        assert log.prune_breakdown() == {"minarea": 1, "exact": 1, "tie": 1}

    def test_jsonl_round_trip(self, tmp_path):
        log = ExplorationLog()
        log.emit("search_start", sfg="main")
        log.emit("search_end", best_area=1.5)
        path = tmp_path / "run.explog.jsonl"
        log.write(str(path))
        loaded = ExplorationLog.read(str(path))
        assert loaded.events == log.events

    def test_stream_writes_each_event_immediately(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        with open(path, "w") as handle:
            log = ExplorationLog(stream=handle)
            log.emit("alloc", component="integrator")
            handle.flush()
            lines = path.read_text().splitlines()
        assert json.loads(lines[0])["component"] == "integrator"

    def test_enable_honors_empty_log_with_stream(self, clean_explog,
                                                 tmp_path):
        # An empty log is falsy (__len__ == 0); enable/explogging must
        # test ``is None``, not truthiness, or a fresh streaming log
        # would be silently replaced.
        with open(tmp_path / "s.jsonl", "w") as handle:
            log = ExplorationLog(stream=handle)
            assert enable_explog(log) is log
            assert active_explog() is log
            disable_explog()
            with explogging(log) as active:
                assert active is log

    def test_explogging_restores_previous_recorder(self, clean_explog):
        assert active_explog() is None
        outer = enable_explog()
        try:
            with explogging() as inner:
                assert active_explog() is inner
            assert active_explog() is outer
        finally:
            disable_explog()
        assert active_explog() is None


class TestMapperEvents:
    @pytest.fixture()
    def log(self):
        with explogging() as log:
            synthesize(biquad_filter.VASS_SOURCE)
        return log

    def test_search_start_and_end(self, log):
        (start,) = log.of_kind("search_start")
        (end,) = log.of_kind("search_end")
        assert start["sfg"] == "main"
        assert start["bounding_mode"] == "combined"
        assert end["best_area"] > 0
        assert end["nodes_visited"] > 0

    def test_every_prune_carries_both_bounds_and_incumbent(self, log):
        prunes = log.of_kind("prune")
        assert prunes
        for event in prunes:
            assert event["minarea_bound"] >= 0
            assert event["exact_bound"] >= 0
            assert event["lower_bound"] == pytest.approx(
                max(event["minarea_bound"], event["exact_bound"])
            )
            assert event["incumbent_area"] > 0
            assert event["lower_bound"] >= event["incumbent_area"]

    def test_candidates_record_sequencing_order(self, log):
        events = log.of_kind("candidates")
        assert events
        for event in events:
            assert event["sequencing"] == "largest_first"
            assert event["order"]
            for candidate in event["order"]:
                assert "component" in candidate
                assert "cone" in candidate
                assert "opamps" in candidate
            sizes = [len(c["cone"]) for c in event["order"]]
            assert sizes == sorted(sizes, reverse=True)

    def test_complete_events_carry_estimates(self, log):
        completes = log.of_kind("complete")
        assert completes
        feasible = [e for e in completes if e["feasible"]]
        assert feasible
        for event in feasible:
            assert event["area"] > 0
            assert event["opamps"] >= 1
        assert any(e.get("new_best") for e in feasible)

    def test_causalization_event_names_the_alternative(self, log):
        events = log.of_kind("causalization")
        assert events
        for event in events:
            assert 0 <= event["chosen_index"] < event["n_alternatives"]
            assert event["states"]
            assert event["order"]

    def test_flow_knob_attaches_log_to_result(self, clean_explog):
        result = synthesize(
            biquad_filter.VASS_SOURCE, options=FlowOptions(explog=True)
        )
        assert result.explog is not None
        assert result.explog.of_kind("search_start")
        # The knob must not leave a process-wide recorder behind.
        assert active_explog() is None

    def test_infeasible_completes_name_violated_constraints(self):
        options = FlowOptions(
            explog=True, constraints=ConstraintSet(max_opamps=1)
        )
        with explogging() as log:
            with pytest.raises(SynthesisError) as excinfo:
                synthesize(biquad_filter.VASS_SOURCE, options=options)
        assert "violated constraints" in str(excinfo.value)
        assert "max_opamps" in str(excinfo.value)
        infeasible = [
            e for e in log.of_kind("complete") if not e["feasible"]
        ]
        assert infeasible
        for event in infeasible:
            assert "max_opamps" in event["violations"]
            assert event["violation_messages"]

    def test_failure_message_tallies_violations(self):
        with pytest.raises(SynthesisError) as excinfo:
            synthesize(
                biquad_filter.VASS_SOURCE,
                options=FlowOptions(constraints=ConstraintSet(max_opamps=2)),
            )
        assert "violated constraints" in str(excinfo.value)

    def test_statistics_violation_summary_format(self):
        from repro.synth.mapper import MappingStatistics

        stats = MappingStatistics()
        stats.constraint_violations["min_ugf"] = 3
        stats.constraint_violations["max_opamps"] = 1
        assert stats.violation_summary() == "max_opamps x1, min_ugf x3"
        assert stats.infeasible_mappings == 0
        assert stats.as_dict()["constraint_violations"] == {
            "max_opamps": 1, "min_ugf": 3,
        }


class TestDisabledPath:
    def test_no_recorder_no_events(self, clean_explog, monkeypatch):
        assert active_explog() is None

        def boom(self, event, **fields):  # pragma: no cover
            raise AssertionError(f"emit({event!r}) on the disabled path")

        monkeypatch.setattr(ExplorationLog, "emit", boom)
        result = synthesize(biquad_filter.VASS_SOURCE)
        assert result.explog is None

    def test_mapper_captures_active_recorder_once(self, clean_explog):
        from repro.library import default_library
        from repro.synth import map_sfg
        from repro.compiler import compile_design

        design = compile_design(biquad_filter.VASS_SOURCE)
        result = map_sfg(design.main_sfg, library=default_library())
        assert result.netlist.instances  # ran fine with no recorder


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BIQUAD_EXAMPLE = os.path.join(ROOT, "examples", "biquad.vhd")
#: ``vase explain examples/biquad.vhd --dot`` output, kept byte-exact
BIQUAD_GOLDEN_DOT = os.path.join(
    ROOT, "tests", "data", "biquad.decisions.dot"
)

#: decision events that create a tree node, and those that settle one
BRANCH_EVENTS = ("alloc", "share", "prune")
OUTCOME_EVENTS = ("candidates", "complete", "dead_end", "truncated")


def explain_dot(tmp_path, spec):
    """The decision-tree DOT ``vase explain SPEC --dot`` writes."""
    dot = tmp_path / "tree.dot"
    assert main([
        "explain", spec,
        "--jsonl", str(tmp_path / "tree.explog.jsonl"),
        "--dot", str(dot),
    ]) == 0
    return dot.read_text(encoding="utf-8")


class TestDecisionTreeDot:
    def test_dot_renders_status_colors(self):
        result = synthesize(
            biquad_filter.VASS_SOURCE, options=FlowOptions(explog=True)
        )
        dot = decision_tree_to_dot(result.explog)
        assert dot.startswith("digraph")
        assert "#1baf7a" in dot  # a complete (feasible) leaf
        assert "#eb6834" in dot  # at least one pruned node
        assert "[pruned]" in dot

    def test_dot_handles_empty_tree(self):
        assert "digraph" in decision_tree_to_dot([])

    def test_explain_dot_matches_golden(self, tmp_path, capsys):
        with open(BIQUAD_GOLDEN_DOT, "r", encoding="utf-8") as handle:
            golden = handle.read()
        assert explain_dot(tmp_path, BIQUAD_EXAMPLE) == golden

    def test_tree_replays_from_jsonl(self, tmp_path, capsys):
        dot = explain_dot(tmp_path, BIQUAD_EXAMPLE)
        log = ExplorationLog.read(str(tmp_path / "tree.explog.jsonl"))
        assert decision_tree_to_dot(log) == dot


class TestDecisionIds:
    """Plain ``FlowOptions(explog=True)`` logs carry the tree ids."""

    @pytest.mark.parametrize(
        "spec", [BIQUAD_EXAMPLE, "receiver"], ids=["biquad", "receiver"]
    )
    def test_ids_present_and_rebuild_explain_dot(
        self, tmp_path, capsys, spec
    ):
        if spec == "receiver":
            source = receiver.VASS_SOURCE
        else:
            with open(spec, "r", encoding="utf-8") as handle:
                source = handle.read()
        result = synthesize(source, options=FlowOptions(explog=True))
        # This run's search: an already-active recorder (the suite's
        # VASE_EXPLOG smoke mode) also holds earlier runs' events.
        events = list(result.explog)
        starts = [
            i for i, e in enumerate(events) if e["event"] == "search_start"
        ]
        events = events[starts[-1]:]
        branches = [e for e in events if e["event"] in BRANCH_EVENTS]
        outcomes = [e for e in events if e["event"] in OUTCOME_EVENTS]
        assert branches and outcomes
        for event in branches:
            assert isinstance(event["node"], int)
            assert isinstance(event["parent"], int)
        for event in outcomes:
            assert isinstance(event["node"], int)
        # Branch ids count up from the root (node 0) in emission order.
        assert [e["node"] for e in branches] == list(
            range(1, len(branches) + 1)
        )
        assert len(decision_tree(events)) == len(branches) + 1
        assert decision_tree_to_dot(result.explog) == explain_dot(
            tmp_path, spec
        )


class TestConsolidatedDiagnostics:
    def test_fsm_digital_fallback_surfaces_as_warning(self):
        result = synthesize(power_meter.VASS_SOURCE)
        warnings = [
            d for d in result.diagnostics if d.severity == Severity.WARNING
        ]
        assert any("digital fallback" in d.message for d in warnings)

    def test_interfacing_followers_surface_as_note(self):
        result = synthesize(
            biquad_filter.VASS_SOURCE,
            options=FlowOptions(interfacing=InterfacingOptions(max_fanout=1)),
        )
        assert result.interfacing_added
        notes = [
            d for d in result.diagnostics if d.severity == Severity.NOTE
        ]
        assert any("interfacing: inserted" in d.message for d in notes)


class TestExplainRendering:
    @pytest.fixture(scope="class")
    def result(self):
        return synthesize(
            biquad_filter.VASS_SOURCE,
            options=FlowOptions(explog=True, trace=True),
        )

    def test_narrative_sections(self, result):
        text = narrate(result)
        assert "Why this architecture" in text
        assert "chosen mapping" in text
        assert "pruned" in text

    def test_html_report_is_self_contained(self, result):
        html = render_exploration_html(result)
        assert html.startswith("<!DOCTYPE html>")
        assert "<script src=" not in html  # no external resources
        assert 'rel="stylesheet"' not in html
        assert "Prune reasons" in html or "prune" in html.lower()


class TestExplainCli:
    def test_explain_round_trip(self, tmp_path, capsys):
        jsonl = tmp_path / "biquad.explog.jsonl"
        dot = tmp_path / "biquad.dot"
        html = tmp_path / "biquad.html"
        assert main([
            "explain", "biquad_filter",
            "--jsonl", str(jsonl),
            "--dot", str(dot),
            "--html", str(html),
        ]) == 0
        out = capsys.readouterr().out
        assert "Why this architecture" in out
        events = [
            json.loads(line)
            for line in jsonl.read_text().splitlines() if line
        ]
        prunes = [e for e in events if e["event"] == "prune"]
        assert prunes
        for event in prunes:
            assert "minarea_bound" in event
            assert "exact_bound" in event
            assert "incumbent_area" in event
        assert "digraph" in dot.read_text()
        assert "<!DOCTYPE html>" in html.read_text()

    def test_explain_from_example_file(self, tmp_path, monkeypatch, capsys):
        example = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "examples", "biquad.vhd",
        )
        monkeypatch.chdir(tmp_path)  # the default JSONL lands in cwd
        assert main(["explain", example]) == 0
        out = capsys.readouterr().out
        assert "chosen mapping" in out
        assert (tmp_path / "biquad_filter.explog.jsonl").exists()

    def test_explain_leaves_no_global_recorder(self, clean_explog, capsys,
                                               tmp_path):
        assert main([
            "explain", "biquad_filter",
            "--jsonl", str(tmp_path / "b.jsonl"),
        ]) == 0
        capsys.readouterr()
        assert active_explog() is None
