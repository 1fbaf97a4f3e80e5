"""Tests for the MNA circuit simulator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.diagnostics import SimulationError
from repro.instrument import metrics
from repro.spice.mna import (
    Circuit,
    MnaSolver,
    dc,
    pulse_wave,
    pwl_wave,
    simulate_transient,
    sin_wave,
)
from repro.spice.macromodel import OpAmpMacro, add_limiter_stage, add_opamp


class TestWaveforms:
    def test_dc(self):
        assert dc(3.0)(123.0) == 3.0

    def test_sin(self):
        wave = sin_wave(2.0, 1000.0)
        assert wave(0.0) == pytest.approx(0.0)
        assert wave(0.25e-3) == pytest.approx(2.0)

    def test_sin_offset(self):
        wave = sin_wave(1.0, 1000.0, offset=0.5)
        assert wave(0.0) == pytest.approx(0.5)

    def test_pulse(self):
        wave = pulse_wave(0.0, 1.0, delay=1e-3, rise=1e-6, fall=1e-6,
                          width=1e-3, period=4e-3)
        assert wave(0.0) == 0.0
        assert wave(1.5e-3) == 1.0
        assert wave(3.0e-3) == 0.0
        assert wave(5.5e-3) == 1.0  # periodic

    def test_pwl(self):
        wave = pwl_wave([(0.0, 0.0), (1.0, 2.0), (2.0, 2.0)])
        assert wave(0.5) == pytest.approx(1.0)
        assert wave(5.0) == pytest.approx(2.0)


class TestDcAnalysis:
    def test_voltage_divider(self):
        c = Circuit()
        c.vsource("V1", "in", "0", dc(10.0))
        c.resistor("R1", "in", "mid", 1e3)
        c.resistor("R2", "mid", "0", 3e3)
        op = MnaSolver(c).dc_operating_point()
        assert op["mid"] == pytest.approx(7.5)

    def test_current_source_into_resistor(self):
        c = Circuit()
        c.isource("I1", "0", "out", dc(1e-3))
        c.resistor("R1", "out", "0", 2e3)
        op = MnaSolver(c).dc_operating_point()
        assert op["out"] == pytest.approx(2.0)

    def test_vcvs(self):
        c = Circuit()
        c.vsource("V1", "in", "0", dc(1.0))
        c.resistor("Rl", "in", "0", 1e6)
        c.vcvs("E1", "out", "0", "in", "0", 5.0)
        c.resistor("R2", "out", "0", 1e3)
        op = MnaSolver(c).dc_operating_point()
        assert op["out"] == pytest.approx(5.0)

    def test_vccs(self):
        c = Circuit()
        c.vsource("V1", "in", "0", dc(2.0))
        c.vccs("G1", "0", "out", "in", "0", 1e-3)  # 2 mA into out
        c.resistor("R1", "out", "0", 1e3)
        op = MnaSolver(c).dc_operating_point()
        assert op["out"] == pytest.approx(2.0)

    def test_function_source(self):
        c = Circuit()
        c.vsource("V1", "a", "0", dc(3.0))
        c.vsource("V2", "b", "0", dc(4.0))
        c.resistor("Ra", "a", "0", 1e6)
        c.resistor("Rb", "b", "0", 1e6)
        c.function_source("F1", "out", ["a", "b"],
                          lambda x, y: math.hypot(x, y))
        op = MnaSolver(c).dc_operating_point()
        assert op["out"] == pytest.approx(5.0, rel=1e-6)

    def test_saturating_vcvs_linear_region(self):
        c = Circuit()
        c.vsource("V1", "in", "0", dc(1e-4))
        c.resistor("Rl", "in", "0", 1e6)
        c.saturating_vcvs("E1", "out", "0", "in", "0", 1000.0, 5.0)
        c.resistor("R2", "out", "0", 1e6)
        op = MnaSolver(c).dc_operating_point()
        assert op["out"] == pytest.approx(0.1, rel=1e-2)

    def test_saturating_vcvs_clips(self):
        c = Circuit()
        c.vsource("V1", "in", "0", dc(1.0))
        c.resistor("Rl", "in", "0", 1e6)
        c.saturating_vcvs("E1", "out", "0", "in", "0", 1000.0, 5.0)
        c.resistor("R2", "out", "0", 1e6)
        op = MnaSolver(c).dc_operating_point()
        assert abs(op["out"]) <= 5.0
        assert op["out"] == pytest.approx(5.0, rel=1e-2)

    def test_negative_gain_follower_matches_its_mirror(self):
        # v(out) = 5 tanh(-1000 (out - in) / 5) is the same follower as
        # its positive-gain mirror with the control terminals swapped.
        def follower(gain, cpos, cneg):
            c = Circuit()
            c.vsource("V1", "in", "0", dc(0.3))
            c.saturating_vcvs("E1", "out", "0", cpos, cneg, gain, 5.0)
            return c

        registry = metrics()
        before = registry.counter("spice.mna.newton_exhausted")
        negative = MnaSolver(follower(-1000.0, "out", "in"))
        mirror = MnaSolver(follower(1000.0, "in", "out"))
        assert negative.dc_operating_point() == pytest.approx(
            mirror.dc_operating_point(), abs=1e-12
        )
        assert registry.counter("spice.mna.newton_exhausted") == before


class TestTransient:
    def test_rc_charging(self):
        c = Circuit()
        c.vsource("V1", "in", "0", dc(1.0))
        c.resistor("R1", "in", "out", 1e3)
        c.capacitor("C1", "out", "0", 1e-6)
        result = MnaSolver(c).transient(5e-3, 1e-5, probes=["out"])
        analytic = 1.0 - math.exp(-5.0)
        assert result.final("out") == pytest.approx(analytic, abs=5e-3)

    def test_rc_time_constant(self):
        c = Circuit()
        c.vsource("V1", "in", "0", dc(1.0))
        c.resistor("R1", "in", "out", 1e3)
        c.capacitor("C1", "out", "0", 1e-6)
        result = MnaSolver(c).transient(1e-3, 1e-6, probes=["out"])
        # After one tau, ~63.2 %.
        assert result.final("out") == pytest.approx(0.632, abs=5e-3)

    def test_capacitor_initial_condition(self):
        c = Circuit()
        c.resistor("R1", "out", "0", 1e3)
        c.capacitor("C1", "out", "0", 1e-6, ic=2.0)
        result = MnaSolver(c).transient(1e-3, 1e-6, probes=["out"])
        assert result["out"][0] == pytest.approx(2.0, rel=5e-2)
        assert result.final("out") == pytest.approx(2.0 * math.exp(-1.0),
                                                    rel=5e-2)

    def test_sine_through_divider(self):
        c = Circuit()
        c.vsource("V1", "in", "0", sin_wave(2.0, 1e3))
        c.resistor("R1", "in", "out", 1e3)
        c.resistor("R2", "out", "0", 1e3)
        result = simulate_transient(c, 2e-3, 1e-6, probes=["out"])
        assert np.max(result["out"]) == pytest.approx(1.0, rel=1e-2)

    def test_switch_follows_control(self):
        c = Circuit()
        c.vsource("V1", "in", "0", dc(1.0))
        c.vsource("VC", "ctl", "0", pulse_wave(0.0, 1.0, 1e-3, 1e-6, 1e-6,
                                               5e-3, 10e-3))
        c.switch("S1", "in", "out", "ctl")
        c.resistor("RL", "out", "0", 1e4)
        result = simulate_transient(c, 3e-3, 1e-5, probes=["out"])
        v = result["out"]
        assert v[10] == pytest.approx(0.0, abs=1e-3)   # before control
        assert v[-1] == pytest.approx(1.0, rel=2e-2)   # switch closed

    def test_unknown_probe_rejected(self):
        c = Circuit()
        c.vsource("V1", "a", "0", dc(1.0))
        c.resistor("R", "a", "0", 1.0e3)
        with pytest.raises(SimulationError):
            MnaSolver(c).transient(1e-3, 1e-5, probes=["ghost"])

    def test_bad_timestep_rejected(self):
        c = Circuit()
        c.vsource("V1", "a", "0", dc(1.0))
        c.resistor("R", "a", "0", 1.0e3)
        with pytest.raises(SimulationError):
            MnaSolver(c).transient(1e-3, 0.0)

    def test_run_shorter_than_half_a_step_rejected(self):
        c = Circuit()
        c.vsource("V1", "a", "0", dc(1.0))
        c.resistor("R", "a", "0", 1.0e3)
        # t_end / dt == 0.5 exactly, which rounds (half to even) to zero
        # steps; so does anything shorter.
        for t_end in (0.25, 0.1):
            with pytest.raises(SimulationError, match="t_end=.*dt=0.5"):
                MnaSolver(c).transient(t_end, 0.5)
        assert len(MnaSolver(c).transient(0.375, 0.5).time) == 1


class TestCircuitConstruction:
    def test_duplicate_element_rejected(self):
        c = Circuit()
        c.resistor("R1", "a", "0", 1e3)
        with pytest.raises(SimulationError):
            c.resistor("R1", "b", "0", 1e3)

    def test_nonpositive_resistor_rejected(self):
        c = Circuit()
        with pytest.raises(SimulationError):
            c.resistor("R1", "a", "0", 0.0)

    def test_nonpositive_capacitor_rejected(self):
        c = Circuit()
        with pytest.raises(SimulationError):
            c.capacitor("C1", "a", "0", -1e-9)

    @pytest.mark.parametrize("vmax", [0.0, -5.0])
    def test_nonpositive_saturation_level_rejected(self, vmax):
        c = Circuit()
        with pytest.raises(SimulationError):
            c.saturating_vcvs("E1", "out", "0", "in", "0", 1000.0, vmax)

    def test_ground_aliases(self):
        c = Circuit()
        c.vsource("V1", "a", "gnd", dc(1.0))
        c.resistor("R1", "a", "0", 1e3)
        op = MnaSolver(c).dc_operating_point()
        assert op["a"] == pytest.approx(1.0)


class TestOpAmpMacromodel:
    def test_follower(self):
        c = Circuit()
        c.vsource("V1", "in", "0", dc(1.0))
        add_opamp(c, "OA", "in", "out", "out")
        op = MnaSolver(c).dc_operating_point()
        assert op["out"] == pytest.approx(1.0, rel=1e-3)

    def test_inverting_gain(self):
        c = Circuit()
        c.vsource("V1", "in", "0", dc(0.25))
        c.resistor("R1", "in", "vm", 10e3)
        c.resistor("RF", "vm", "out", 40e3)
        add_opamp(c, "OA", "0", "vm", "out")
        op = MnaSolver(c).dc_operating_point()
        assert op["out"] == pytest.approx(-1.0, rel=1e-2)

    def test_noninverting_gain(self):
        c = Circuit()
        c.vsource("V1", "in", "0", dc(0.5))
        c.resistor("RG", "vm", "0", 10e3)
        c.resistor("RF", "vm", "out", 10e3)
        add_opamp(c, "OA", "in", "vm", "out")
        op = MnaSolver(c).dc_operating_point()
        assert op["out"] == pytest.approx(1.0, rel=1e-2)

    def test_output_saturation(self):
        c = Circuit()
        c.vsource("V1", "in", "0", dc(2.0))
        c.resistor("R1", "in", "vm", 10e3)
        c.resistor("RF", "vm", "out", 100e3)
        add_opamp(c, "OA", "0", "vm", "out", OpAmpMacro(vsat=3.0))
        op = MnaSolver(c).dc_operating_point()
        assert abs(op["out"]) < 3.05

    def test_limiter_stage_passes_small(self):
        c = Circuit()
        c.vsource("V1", "in", "0", dc(0.5))
        c.resistor("Rin", "in", "0", 1e6)
        add_limiter_stage(c, "LIM", "in", "out", level=1.5)
        c.resistor("RL", "out", "0", 270.0)
        op = MnaSolver(c).dc_operating_point()
        assert op["out"] == pytest.approx(0.5, rel=1e-2)

    def test_limiter_stage_clips_large(self):
        c = Circuit()
        c.vsource("V1", "in", "0", dc(3.0))
        c.resistor("Rin", "in", "0", 1e6)
        add_limiter_stage(c, "LIM", "in", "out", level=1.5)
        c.resistor("RL", "out", "0", 270.0)
        op = MnaSolver(c).dc_operating_point()
        assert op["out"] == pytest.approx(1.5 * 270 / 271, rel=1e-2)

    def test_pole_limits_bandwidth(self):
        # A follower with a 1 kHz pole attenuates a 100 kHz signal.
        c = Circuit()
        c.vsource("V1", "in", "0", sin_wave(1.0, 100e3))
        add_opamp(c, "OA", "in", "out", "out", OpAmpMacro(pole_hz=1e3))
        c.resistor("RL", "out", "0", 1e5)
        result = simulate_transient(c, 1e-4, 1e-7, probes=["out"])
        assert np.max(np.abs(result["out"][len(result["out"]) // 2:])) < 0.6


class TestProperties:
    @given(
        st.floats(min_value=100.0, max_value=1e5),
        st.floats(min_value=100.0, max_value=1e5),
        st.floats(min_value=-10.0, max_value=10.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_divider_formula(self, r1, r2, vin):
        c = Circuit()
        c.vsource("V1", "in", "0", dc(vin))
        c.resistor("R1", "in", "out", r1)
        c.resistor("R2", "out", "0", r2)
        op = MnaSolver(c).dc_operating_point()
        assert op["out"] == pytest.approx(vin * r2 / (r1 + r2), rel=1e-6,
                                          abs=1e-9)

    @given(st.floats(min_value=-2.0, max_value=2.0))
    @settings(max_examples=20, deadline=None)
    def test_inverting_amp_linearity(self, vin):
        c = Circuit()
        c.vsource("V1", "in", "0", dc(vin))
        c.resistor("R1", "in", "vm", 10e3)
        c.resistor("RF", "vm", "out", 20e3)
        add_opamp(c, "OA", "0", "vm", "out", OpAmpMacro(vsat=10.0))
        op = MnaSolver(c).dc_operating_point()
        assert op["out"] == pytest.approx(-2.0 * vin, rel=1e-2, abs=1e-3)
