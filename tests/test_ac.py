"""Tests for the small-signal AC analysis and the biquad application."""

import math
import warnings

import numpy as np
import pytest

from repro.apps import biquad_filter
from repro.diagnostics import SimulationError
from repro.robust.guards import NumericalWarning
from repro.spice import dc, elaborate
from repro.spice.ac import AcSolver, ac_sweep
from repro.spice.macromodel import OpAmpMacro, add_opamp
from repro.spice.mna import Circuit


def rc_lowpass(r=1e3, c=1e-7):
    circuit = Circuit()
    circuit.vsource("VIN", "in", "0", dc(0.0))
    circuit.resistor("R", "in", "out", r)
    circuit.capacitor("C", "out", "0", c)
    return circuit


class TestAcBasics:
    def test_rc_cutoff(self):
        result = ac_sweep(rc_lowpass(), 10.0, 1e6, points_per_decade=40,
                          probes=["out"])
        fc = 1.0 / (2 * math.pi * 1e3 * 1e-7)
        assert result.cutoff_frequency("out") == pytest.approx(fc, rel=0.03)

    def test_rc_rolloff_slope(self):
        result = ac_sweep(rc_lowpass(), 10.0, 1e6, probes=["out"])
        mags = result.magnitude_db("out")
        # One decade past the corner: about -20 dB/decade.
        f = result.frequencies
        i1 = int(np.argmin(np.abs(f - 1e4)))
        i2 = int(np.argmin(np.abs(f - 1e5)))
        assert mags[i1] - mags[i2] == pytest.approx(20.0, abs=1.5)

    def test_rc_phase(self):
        result = ac_sweep(rc_lowpass(), 10.0, 1e6, probes=["out"])
        phase = result.phase_deg("out")
        assert phase[0] == pytest.approx(0.0, abs=2.0)
        assert phase[-1] == pytest.approx(-90.0, abs=3.0)

    def test_flat_divider(self):
        circuit = Circuit()
        circuit.vsource("VIN", "in", "0", dc(0.0))
        circuit.resistor("R1", "in", "out", 1e3)
        circuit.resistor("R2", "out", "0", 1e3)
        result = ac_sweep(circuit, 10.0, 1e6, probes=["out"])
        assert np.allclose(result.magnitude("out"), 0.5, rtol=1e-6)

    def test_opamp_macromodel_linearized(self):
        circuit = Circuit()
        circuit.vsource("VIN", "in", "0", dc(0.0))
        circuit.resistor("R1", "in", "vm", 10e3)
        circuit.resistor("RF", "vm", "out", 20e3)
        add_opamp(circuit, "OA", "0", "vm", "out")
        result = ac_sweep(circuit, 10.0, 1e4, probes=["out"])
        assert result.magnitude("out")[0] == pytest.approx(2.0, rel=1e-2)

    def test_requires_voltage_source(self):
        circuit = Circuit()
        circuit.resistor("R", "a", "0", 1e3)
        with pytest.raises(SimulationError):
            AcSolver(circuit)

    def test_unknown_ac_source(self):
        with pytest.raises(SimulationError):
            AcSolver(rc_lowpass(), ac_source="VGHOST")

    def test_bad_sweep_range(self):
        with pytest.raises(SimulationError):
            ac_sweep(rc_lowpass(), 100.0, 10.0)
        # A non-positive point density used to become a silent 2-point
        # sweep with a wrong corner frequency.
        for points in (0, -3):
            with pytest.raises(SimulationError, match="points_per_decade"):
                ac_sweep(rc_lowpass(), 10.0, 1e3, points_per_decade=points)

    def test_unknown_probe(self):
        with pytest.raises(SimulationError):
            ac_sweep(rc_lowpass(), 10.0, 1e3, probes=["ghost"])

    @pytest.mark.parametrize("saturating", [False, True])
    def test_nonfinite_bias_point_is_located_at_dc(self, saturating):
        # A NaN DC source poisons the bias point.  The sweep must stop
        # there with the DC analysis's located error, and not sweep on
        # (a linear circuit) or blame an AC frequency (a saturating
        # stage's linearization carries the NaN into G).
        circuit = rc_lowpass()
        circuit.isource("IB", "0", "out", lambda t: float("nan"))
        if saturating:
            add_opamp(circuit, "OA", "out", "buf", "buf")
        with warnings.catch_warnings():
            warnings.simplefilter("error", NumericalWarning)
            with pytest.raises(
                SimulationError, match="non-finite solution at DC"
            ):
                ac_sweep(circuit, 10.0, 1e3, probes=["out"])

    def test_peak_frequency_of_rlc(self):
        circuit = Circuit()
        circuit.vsource("VIN", "in", "0", dc(0.0))
        circuit.resistor("R", "in", "mid", 10.0)
        # series LC replaced by RC bandpass-ish: use two RC sections to
        # create a peak via an active resonator instead:
        circuit.capacitor("C1", "mid", "0", 1e-7)
        result = ac_sweep(circuit, 10.0, 1e6, probes=["mid"])
        # Plain RC: the peak sits at the lowest frequency.
        assert result.peak_frequency("mid") == pytest.approx(
            result.frequencies[0]
        )


class TestBiquadApplication:
    @pytest.fixture(scope="class")
    def synthesized(self):
        return biquad_filter.synthesize_biquad()

    def test_structure(self, synthesized):
        cats = dict(synthesized.netlist.category_counts())
        assert cats["integ."] == 2

    def test_frequency_annotation_drives_constraints(self, synthesized):
        # The port declares FREQUENCY 0..1 kHz; derived constraints use
        # that band (not the 20 kHz default).
        assert synthesized.design.ports["vin"].frequency_range == (
            0.0,
            biquad_filter.F0_HZ,
        )

    def test_ac_response_matches_transfer_function(self, synthesized):
        circuit = elaborate(synthesized.netlist,
                            input_waves={"vin": dc(0.0)})
        out = circuit.output_nodes["vlp"]
        result = ac_sweep(circuit.circuit, 10.0, 100e3, probes=[out],
                          ac_source="VIN_vin")
        for f_target in (100.0, 500.0, 1000.0, 5000.0, 10000.0):
            index = int(np.argmin(np.abs(result.frequencies - f_target)))
            measured = result.magnitude(out)[index]
            reference = biquad_filter.reference_magnitude(
                float(result.frequencies[index])
            )
            assert measured == pytest.approx(reference, rel=0.05, abs=1e-3)

    def test_cutoff_at_f0(self, synthesized):
        circuit = elaborate(synthesized.netlist,
                            input_waves={"vin": dc(0.0)})
        out = circuit.output_nodes["vlp"]
        result = ac_sweep(circuit.circuit, 10.0, 100e3,
                          points_per_decade=40, probes=[out],
                          ac_source="VIN_vin")
        assert result.cutoff_frequency(out) == pytest.approx(
            biquad_filter.F0_HZ, rel=0.05
        )

    def test_transient_step_response(self, synthesized):
        circuit = elaborate(synthesized.netlist,
                            input_waves={"vin": dc(1.0)})
        out = circuit.output_nodes["vlp"]
        sim = circuit.transient(5e-3, 2e-6, probes=[out])
        # Butterworth step response settles at the DC gain (1.0).
        assert sim.final(out) == pytest.approx(1.0, rel=0.03)
        # Q = 0.707: overshoot under ~5 %.
        assert float(np.max(sim[out])) < 1.1

    def test_behavioral_interpreter_agrees(self, synthesized):
        from repro.vhif import Interpreter

        interp = Interpreter(synthesized.design, dt=1e-6,
                             inputs={"vin": lambda t: 1.0})
        traces = interp.run(5e-3, probes=["vlp"])
        assert traces.final("vlp") == pytest.approx(1.0, rel=0.03)
