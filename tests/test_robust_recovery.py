"""Tests for the recovery ladder and constraint relaxation."""

from pathlib import Path

import pytest

from repro.compiler import compile_design
from repro.diagnostics import Severity, SynthesisError
from repro.estimation import ConstraintSet
from repro.flow import FlowOptions, derive_constraints, synthesize
from repro.instrument import explogging
from repro.robust.recovery import (
    OUTCOME_FAILED,
    OUTCOME_RECOVERED,
    OUTCOME_SKIPPED,
    RUNG_BASELINE,
    RUNG_GREEDY,
    RUNG_RELAX,
    RecoveryLog,
    relax_constraints,
)
from repro.synth import MapperOptions

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"
BIQUAD = (EXAMPLES / "biquad.vhd").read_text()


def _tight_area() -> ConstraintSet:
    """A max_area bound just below what the biquad needs — one
    relaxation doubling makes it feasible again."""
    design = compile_design(BIQUAD)
    baseline = synthesize(BIQUAD)
    return ConstraintSet(
        signal_bandwidth_hz=derive_constraints(
            design, ConstraintSet()
        ).signal_bandwidth_hz,
        max_area=baseline.estimate.area * 0.6,
    )


class TestRelaxConstraints:
    def test_upper_limits_multiply(self):
        base = ConstraintSet(max_area=10.0, max_power=2.0)
        relaxed, changes = relax_constraints(
            base, {"max_area": 3, "max_power": 1}, factor=2.0
        )
        assert relaxed.max_area == pytest.approx(20.0)
        assert relaxed.max_power == pytest.approx(4.0)
        assert len(changes) == 2
        # The original set is untouched.
        assert base.max_area == pytest.approx(10.0)

    def test_lower_floors_divide(self):
        base = ConstraintSet(min_ugf_hz=1e6, min_slew_rate=1e5)
        relaxed, _ = relax_constraints(
            base, {"min_ugf": 1, "min_slew_rate": 1}, factor=4.0
        )
        assert relaxed.min_ugf_hz == pytest.approx(2.5e5)
        assert relaxed.min_slew_rate == pytest.approx(2.5e4)

    def test_opamp_count_always_grows(self):
        base = ConstraintSet(max_opamps=1)
        relaxed, _ = relax_constraints(base, {"max_opamps": 1}, factor=1.1)
        assert relaxed.max_opamps >= 2

    def test_sizing_violation_lowers_bandwidth(self):
        base = ConstraintSet(signal_bandwidth_hz=1e4)
        relaxed, changes = relax_constraints(base, {"sizing": 5}, factor=2.0)
        assert relaxed.signal_bandwidth_hz == pytest.approx(5e3)
        assert any("signal_bandwidth_hz" in c for c in changes)

    def test_unknown_names_left_alone(self):
        base = ConstraintSet(max_area=10.0)
        relaxed, changes = relax_constraints(
            base, {"injected": 7, "mystery": 1}
        )
        assert changes == []
        assert vars(relaxed) == vars(base)

    def test_unset_constraints_not_invented(self):
        # max_area is None by default: a violation tally naming it must
        # not conjure a bound out of thin air.
        relaxed, changes = relax_constraints(ConstraintSet(), {"max_area": 2})
        assert relaxed.max_area is None
        assert changes == []


class TestRecoveryLog:
    def test_attempt_numbers_are_consecutive(self):
        log = RecoveryLog()
        first = log.record(RUNG_BASELINE, "synthesis", OUTCOME_FAILED, "boom")
        second = log.record(RUNG_GREEDY, "greedy mapper", OUTCOME_RECOVERED)
        assert (first.attempt, second.attempt) == (1, 2)
        assert "[1] baseline" in first.describe()
        assert "(boom)" in first.describe()
        assert first.as_dict()["outcome"] == OUTCOME_FAILED


class TestLadder:
    def test_disabled_by_default(self):
        options = FlowOptions(constraints=_tight_area())
        with pytest.raises(SynthesisError, match="max_area"):
            synthesize(BIQUAD, options=options)

    def test_relaxation_rung_recovers(self):
        options = FlowOptions(constraints=_tight_area(), recovery=True)
        result = synthesize(BIQUAD, options=options)
        assert result.degraded
        assert result.netlist.instances
        # The ladder record: baseline failed, then the relax rung won.
        assert result.recovery[0].rung == RUNG_BASELINE
        assert result.recovery[0].outcome == OUTCOME_FAILED
        last = result.recovery[-1]
        assert last.rung == RUNG_RELAX
        assert last.outcome == OUTCOME_RECOVERED
        assert "max_area" in last.action  # names what was loosened
        assert "DEGRADED" in last.detail

    def test_recovery_surfaces_in_diagnostics_and_describe(self):
        options = FlowOptions(constraints=_tight_area(), recovery=True)
        result = synthesize(BIQUAD, options=options)
        messages = [d.message for d in result.diagnostics]
        assert any("recovery:" in m for m in messages)
        severities = [
            d.severity for d in result.diagnostics
            if "recovery:" in d.message
        ]
        assert Severity.WARNING in severities  # the recovered rung warns
        text = result.describe()
        assert "recovery ladder" in text

    def test_recovery_events_reach_the_explog(self):
        options = FlowOptions(constraints=_tight_area(), recovery=True)
        with explogging() as log:
            synthesize(BIQUAD, options=options)
        events = log.of_kind("recovery")
        assert events
        assert events[0]["rung"] == RUNG_BASELINE
        assert events[-1]["outcome"] == OUTCOME_RECOVERED

    def test_greedy_rung_recovers_from_node_budget(self):
        # A 3-node budget truncates the exhaustive search before any
        # feasible mapping; the greedy heuristic still finds one.
        options = FlowOptions(
            mapper=MapperOptions(max_nodes=3, first_solution_only=False),
            recovery=True,
        )
        result = synthesize(BIQUAD, options=options)
        assert result.netlist.instances
        recovered = [
            e for e in result.recovery if e.outcome == OUTCOME_RECOVERED
        ]
        assert recovered and recovered[0].rung == RUNG_GREEDY

    def test_relaxation_respects_step_budget(self):
        # An absurd bound cannot become feasible within the allowed
        # doublings: the ladder must exhaust, not loop forever.
        options = FlowOptions(
            constraints=ConstraintSet(max_area=1e-12),
            recovery=True,
        )
        with pytest.raises(SynthesisError) as info:
            synthesize(BIQUAD, options=options)
        message = str(info.value)
        assert "recovery ladder exhausted" in message
        relax_attempts = message.count("relax:")
        assert relax_attempts <= 4

    def test_skipped_causalization_is_recorded(self):
        # The amp design has a single causalization, so rung 1 is
        # skipped — visibly, not silently.
        options = FlowOptions(constraints=_tight_area(), recovery=True)
        result = synthesize(BIQUAD, options=options)
        skipped = [
            e for e in result.recovery if e.outcome == OUTCOME_SKIPPED
        ]
        assert any(e.rung == "causalization" for e in skipped)

    def test_successful_run_has_no_recovery_events(self):
        result = synthesize(BIQUAD, options=FlowOptions(recovery=True))
        assert result.recovery == []
        assert not result.degraded
