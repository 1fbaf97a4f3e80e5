"""Tests for SPICE deck generation and MNA elaboration of netlists."""

import math

import numpy as np
import pytest

from repro.flow import synthesize
from repro.instrument import metrics
from repro.library import default_library
from repro.spice import dc, elaborate, sin_wave, to_spice_deck
from repro.spice.netlister import infer_control_links
from repro.synth.netlist import Netlist
from repro.vhif import Interpreter


def wrap(ports, decls="", body=""):
    return f"""
ENTITY e IS PORT ({ports}); END ENTITY;
ARCHITECTURE a OF e IS
{decls}
BEGIN
{body}
END ARCHITECTURE;
"""


def synth(source):
    return synthesize(source)


class TestSpiceDeck:
    def test_deck_structure(self):
        result = synth(
            wrap(
                "QUANTITY u : IN real; QUANTITY y : OUT real",
                body="y == 2.0 * u;",
            )
        )
        deck = to_spice_deck(result.netlist)
        assert deck.startswith("*")
        assert "VIN_u" in deck
        assert ".TRAN" in deck
        assert deck.rstrip().endswith(".END")

    def test_deck_contains_instances(self):
        result = synth(
            wrap(
                "QUANTITY u : IN real; QUANTITY y : OUT real",
                body="y == -3.0 * u;",
            )
        )
        deck = to_spice_deck(result.netlist)
        assert "INVERTING_AMPLIFIER" in deck

    def test_deck_constant_references(self):
        result = synth(
            wrap(
                "QUANTITY u : IN real; QUANTITY y : OUT real",
                body="y == u + 1.5;",
            )
        )
        deck = to_spice_deck(result.netlist)
        assert "VREF_" in deck
        assert "1.5" in deck


class TestLinearStages:
    def check_gain(self, body, expected, vin=0.25, decls=""):
        result = synth(
            wrap(
                "QUANTITY u : IN real; QUANTITY y : OUT real",
                decls=decls, body=body,
            )
        )
        circuit = elaborate(result.netlist, input_waves={"u": dc(vin)})
        out = circuit.output_nodes["y"]
        sim = circuit.transient(1e-3, 1e-5, probes=[out])
        assert sim.final(out) == pytest.approx(expected * vin, rel=2e-2,
                                               abs=2e-3)

    def test_inverting_gain(self):
        self.check_gain("y == -4.0 * u;", -4.0)

    def test_noninverting_gain(self):
        self.check_gain("y == 5.0 * u;", 5.0)

    def test_attenuation(self):
        self.check_gain("y == 0.5 * u;", 0.5)

    def test_weighted_sum(self):
        result = synth(
            wrap(
                "QUANTITY a : IN real; QUANTITY b : IN real; "
                "QUANTITY y : OUT real",
                body="y == 2.0 * a + 3.0 * b;",
            )
        )
        circuit = elaborate(
            result.netlist, input_waves={"a": dc(0.2), "b": dc(0.1)}
        )
        out = circuit.output_nodes["y"]
        sim = circuit.transient(1e-3, 1e-5, probes=[out])
        assert sim.final(out) == pytest.approx(0.7, rel=2e-2)

    def test_difference(self):
        result = synth(
            wrap(
                "QUANTITY a : IN real; QUANTITY b : IN real; "
                "QUANTITY y : OUT real",
                body="y == a - b;",
            )
        )
        circuit = elaborate(
            result.netlist, input_waves={"a": dc(0.8), "b": dc(0.3)}
        )
        out = circuit.output_nodes["y"]
        sim = circuit.transient(1e-3, 1e-5, probes=[out])
        assert sim.final(out) == pytest.approx(0.5, rel=2e-2)

    def test_sum_with_negative_weight(self):
        result = synth(
            wrap(
                "QUANTITY a : IN real; QUANTITY b : IN real; "
                "QUANTITY y : OUT real",
                body="y == 2.0 * a - 0.5 * b;",
            )
        )
        circuit = elaborate(
            result.netlist, input_waves={"a": dc(0.5), "b": dc(0.4)}
        )
        out = circuit.output_nodes["y"]
        sim = circuit.transient(1e-3, 1e-5, probes=[out])
        assert sim.final(out) == pytest.approx(0.8, rel=2e-2)


class TestNonlinearCores:
    def test_multiplier(self):
        result = synth(
            wrap(
                "QUANTITY a : IN real; QUANTITY b : IN real; "
                "QUANTITY y : OUT real",
                body="y == a * b;",
            )
        )
        circuit = elaborate(
            result.netlist, input_waves={"a": dc(0.5), "b": dc(0.6)}
        )
        out = circuit.output_nodes["y"]
        sim = circuit.transient(1e-3, 1e-5, probes=[out])
        assert sim.final(out) == pytest.approx(0.3, rel=1e-2)

    def test_log_exp_power(self):
        result = synth(
            wrap(
                "QUANTITY u : IN real; QUANTITY y : OUT real",
                body="y == exp(1.5 * log(u));",
            )
        )
        circuit = elaborate(result.netlist, input_waves={"u": dc(2.0)})
        out = circuit.output_nodes["y"]
        registry = metrics()
        before = registry.counter("spice.mna.newton_exhausted")
        sim = circuit.transient(1e-3, 1e-5, probes=[out])
        assert sim.final(out) == pytest.approx(2.0 ** 1.5, rel=1e-2)
        # Step 1 diverges (its residual reaches ~1e20) and is the only
        # unconverged step: the steps after it do not extrapolate
        # through its best-effort point.
        exhausted = registry.counter("spice.mna.newton_exhausted") - before
        assert exhausted == 1

    def test_limiter_output_stage(self):
        result = synth(
            wrap(
                "QUANTITY u : IN real; "
                "QUANTITY y : OUT real LIMITED AT 1.0 v",
                body="y == 3.0 * u;",
            )
        )
        circuit = elaborate(result.netlist, input_waves={"u": dc(1.0)})
        out = circuit.output_nodes["y"]
        sim = circuit.transient(1e-3, 1e-5, probes=[out])
        assert sim.final(out) == pytest.approx(1.0, rel=2e-2)


class TestDynamicStages:
    def test_integrator_ramp(self):
        result = synth(
            wrap(
                "QUANTITY u : IN real; QUANTITY y : OUT real",
                decls="QUANTITY x : real := 0.0;",
                body="x'dot == 100.0 * u;\n  y == x;",
            )
        )
        circuit = elaborate(result.netlist, input_waves={"u": dc(0.5)})
        out = circuit.output_nodes["y"]
        sim = circuit.transient(20e-3, 2e-5, probes=[out])
        # dx/dt = 50 V/s for 20 ms -> 1 V.
        assert sim.final(out) == pytest.approx(1.0, rel=5e-2)

    def test_first_order_lowpass(self):
        result = synth(
            wrap(
                "QUANTITY u : IN real; QUANTITY y : OUT real",
                decls="QUANTITY x : real := 0.0;",
                body="0.001 * x'dot == u - x;\n  y == x;",
            )
        )
        circuit = elaborate(result.netlist, input_waves={"u": dc(1.0)})
        out = circuit.output_nodes["y"]
        sim = circuit.transient(5e-3, 5e-6, probes=[out])
        assert sim.final(out) == pytest.approx(1.0 - math.exp(-5.0), rel=5e-2)


class TestControlLinks:
    RECEIVER_STYLE = wrap(
        "QUANTITY u : IN real; QUANTITY y : OUT real",
        decls="QUANTITY r : real; SIGNAL c : bit;",
        body="""
  y == u * r;
  IF (c = '1') USE r == 0.5; ELSE r == 1.5; END USE;
  PROCESS (u'ABOVE(0.2)) IS
  BEGIN
    IF (u'ABOVE(0.2) = TRUE) THEN c <= '1'; ELSE c <= '0'; END IF;
  END PROCESS;
""",
    )

    def test_fsm_realization_makes_control_a_net(self):
        result = synth(self.RECEIVER_STYLE)
        # The zero-cross realization means no str controls remain.
        controls = [
            inst.control
            for inst in result.netlist.instances
            if inst.control is not None
        ]
        assert controls and all(isinstance(ctl, int) for ctl in controls)

    def test_switched_gain_follows_detector(self):
        result = synth(self.RECEIVER_STYLE)
        circuit = elaborate(result.netlist, input_waves={"u": dc(1.0)})
        out = circuit.output_nodes["y"]
        sim = circuit.transient(2e-3, 1e-5, probes=[out])
        # u=1 > 0.2: gain 0.5.
        assert sim.final(out) == pytest.approx(0.5, rel=5e-2)
        circuit_low = elaborate(result.netlist, input_waves={"u": dc(0.1)})
        sim_low = circuit_low.transient(2e-3, 1e-5, probes=[out])
        assert sim_low.final(out) == pytest.approx(0.15, rel=5e-2)

    def test_infer_control_links_helper(self):
        from repro.compiler import compile_design
        from repro.synth import map_sfg

        design = compile_design(self.RECEIVER_STYLE)
        result = map_sfg(design.main_sfg)
        links = infer_control_links(design, result.netlist)
        assert "c" in links


class TestBehavioralEquivalence:
    """Synthesized circuit vs VHIF interpretation on the same stimulus."""

    CASES = [
        ("y == 2.0 * u + 0.3;", ""),
        ("y == -1.5 * u;", ""),
        ("y == u * u;", ""),
        ("y == abs(u) + 0.1;", ""),
    ]

    @pytest.mark.parametrize("body,decls", CASES)
    def test_dc_match(self, body, decls):
        source = wrap(
            "QUANTITY u : IN real; QUANTITY y : OUT real",
            decls=decls, body=body,
        )
        result = synth(source)
        interp = Interpreter(result.design, dt=1e-5,
                             inputs={"u": lambda t: 0.7})
        interp.step()
        behavioral = float(interp.probe("y"))
        circuit = elaborate(result.netlist, input_waves={"u": dc(0.7)})
        out = circuit.output_nodes["y"]
        sim = circuit.transient(1e-3, 1e-5, probes=[out])
        assert sim.final(out) == pytest.approx(behavioral, rel=3e-2,
                                               abs=5e-3)
