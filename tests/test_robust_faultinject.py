"""Coverage for every guarded failure path, provoked from the tests.

Each failure class the flow guards against — mapper deadline expiry,
cancellation and infeasible searches, singular MNA/AC systems, NaN
waveforms, and parse failures — is reached through the *production*
error path from a real input where one exists: a zero deadline, a
cancelled run context, a constraint no relaxation can meet, conflicting
ideal sources, a NaN source waveform, a malformed source.  The one
exception is the singular AC system, which no circuit with a regular
bias point has; the ``singular_ac`` fixture in ``conftest.py``
disconnects an unknown of the small-signal system instead.
"""

import itertools
import math
from pathlib import Path

import pytest

import repro.synth.mapper as mapper_mod
from repro.compiler import compile_design
from repro.diagnostics import ParseError, SimulationError, SynthesisError
from repro.estimation.constraints import ConstraintSet
from repro.estimation.estimator import Estimator
from repro.flow import FlowOptions, synthesize
from repro.robust import (
    CancellationToken,
    CancelledError,
    RunContext,
    run_context,
)
from repro.spice.ac import ac_sweep
from repro.spice.mna import Circuit, MnaSolver, dc
from repro.synth.mapper import ArchitectureMapper, MapperOptions
from repro.vass.parser import parse_source, parse_source_collecting

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

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

#: a port list left open: the parser stops at ``END``
MALFORMED = "ENTITY broken IS\nPORT (QUANTITY u : IN real\nEND ENTITY;\n"

#: an area limit no mapping meets, however often relaxation doubles it
UNMEETABLE = ConstraintSet(max_area=1e-20)


def _divider(source=dc(1.0)) -> Circuit:
    circuit = Circuit("divider")
    circuit.vsource("V1", "in", "0", source)
    circuit.resistor("R1", "in", "out", 1e3)
    circuit.resistor("R2", "out", "0", 1e3)
    return circuit


def _conflicting_sources() -> Circuit:
    """Two ideal sources forcing different voltages on one node: their
    branch currents are undetermined, so the MNA matrix is singular."""
    circuit = Circuit("conflict")
    circuit.vsource("V1", "in", "0", dc(1.0))
    circuit.vsource("V2", "in", "0", dc(2.0))
    circuit.resistor("R1", "in", "0", 1e3)
    return circuit


class TestMapperSites:
    def test_injected_deadline_truncates_before_first_node(self):
        design = compile_design(SOURCE)
        mapper = ArchitectureMapper(
            design.main_sfg, options=MapperOptions(deadline_s=0.0)
        )
        with pytest.raises(SynthesisError) as info:
            mapper.run()
        assert "wall-clock deadline exhausted" in str(info.value)
        stats = info.value.statistics
        assert stats is not None
        assert stats.truncated
        assert stats.truncated_reason == "deadline"
        assert stats.nodes_visited == 0

    def test_cancelled_run_stops_the_search(self):
        design = compile_design(SOURCE)
        mapper = ArchitectureMapper(design.main_sfg)
        token = CancellationToken()
        token.cancel("cancelled before the search")
        with run_context(RunContext(token=token)):
            with pytest.raises(CancelledError) as info:
                mapper.run()
        assert "mapper.search" in str(info.value)
        assert "cancelled before the search" in str(info.value)

    def test_real_deadline_returns_best_incumbent(self, monkeypatch):
        """An expiring wall clock truncates but keeps the incumbent.

        Driven by a fake monotonic clock (1 ms per reading) so the
        expiry point is deterministic: the biquad search finds its
        first feasible mapping before the 10 ms budget runs out.
        """
        design = compile_design((EXAMPLES / "biquad.vhd").read_text())
        ticks = itertools.count()
        monkeypatch.setattr(
            mapper_mod.time, "perf_counter", lambda: next(ticks) * 1e-3
        )
        mapper = ArchitectureMapper(
            design.main_sfg, options=MapperOptions(deadline_s=0.01)
        )
        result = mapper.run()
        stats = result.statistics
        assert stats.truncated
        assert stats.truncated_reason == "deadline"
        assert stats.feasible_mappings >= 1
        assert result.netlist.instances

    def test_node_budget_reason_is_distinct(self):
        design = compile_design((EXAMPLES / "biquad.vhd").read_text())
        mapper = ArchitectureMapper(
            design.main_sfg,
            options=MapperOptions(max_nodes=5, first_solution_only=False),
        )
        try:
            result = mapper.run()
            stats = result.statistics
        except SynthesisError as err:
            stats = err.statistics
        assert stats.truncated
        assert stats.truncated_reason == "nodes"

    def test_injected_infeasibility_names_the_violation(self):
        design = compile_design(SOURCE)
        mapper = ArchitectureMapper(
            design.main_sfg,
            estimator=Estimator(constraints=UNMEETABLE),
        )
        with pytest.raises(SynthesisError) as info:
            mapper.run()
        stats = info.value.statistics
        assert stats is not None
        assert stats.complete_mappings >= 1
        assert stats.feasible_mappings == 0
        assert "max_area" in stats.constraint_violations
        assert "violated constraints: max_area" in str(info.value)

    def test_injected_infeasibility_drives_the_whole_ladder(self):
        """No relaxation step meets the area limit, so every rung runs
        and fails — the ladder-exhausted path."""
        with pytest.raises(SynthesisError) as info:
            synthesize(SOURCE, options=FlowOptions(
                recovery=True, constraints=UNMEETABLE,
            ))
        message = str(info.value)
        assert "recovery ladder exhausted after 7 attempt(s)" in message
        assert "baseline" in message
        assert "causalization" in message
        assert "greedy" in message
        for step in range(1, 5):
            assert f"relax step {step}: max_area" in message

    def test_fault_does_not_outlive_the_context(self):
        """A failed run leaves nothing behind that the next run sees."""
        with pytest.raises(SynthesisError):
            synthesize(SOURCE, options=FlowOptions(
                recovery=True, constraints=UNMEETABLE,
            ))
        result = synthesize(SOURCE)
        assert result.estimate.feasible


class TestSpiceSites:
    def test_singular_mna_names_suspects(self):
        solver = MnaSolver(_conflicting_sources())
        with pytest.raises(SimulationError) as info:
            solver.dc_operating_point()
        message = str(info.value)
        assert "singular MNA matrix" in message
        assert "suspect unknowns" in message
        assert "i(V1)" in message
        assert "i(V2)" in message
        assert "v(in)" not in message

    def test_singular_ac_names_frequency_and_suspects(self, singular_ac):
        with pytest.raises(SimulationError) as info:
            ac_sweep(_divider(), 1.0, 1e3)
        message = str(info.value)
        assert "singular AC matrix at 1.0 Hz" in message
        assert "suspect unknowns: v(in)" in message

    def test_nonfinite_solution_is_located(self):
        solver = MnaSolver(_divider(lambda t: math.nan))
        with pytest.raises(SimulationError) as info:
            solver.dc_operating_point()
        message = str(info.value)
        assert "non-finite solution at DC" in message
        assert "NaN/Inf" in message
        assert "source waveforms" in message

    def test_nonfinite_transient_names_the_time(self):
        solver = MnaSolver(
            _divider(lambda t: math.nan if t > 5e-4 else 1.0)
        )
        with pytest.raises(SimulationError) as info:
            solver.transient(t_end=1e-3, dt=1e-4)
        assert "non-finite solution at t=0.0006 s" in str(info.value)

    def test_clean_circuit_unaffected(self):
        op = MnaSolver(_divider()).dc_operating_point()
        assert op["out"] == pytest.approx(0.5)


class TestParseSite:
    def test_parse_source_raises(self):
        with pytest.raises(ParseError, match="3:1: expected '\\)'"):
            parse_source(MALFORMED, "broken.vhd")

    def test_collecting_mode_returns_the_injected_error(self):
        source, errors = parse_source_collecting(MALFORMED, "broken.vhd")
        assert len(errors) >= 1
        assert str(errors[0]) == "broken.vhd:3:1: expected ')', found 'end'"
        assert not source.units
