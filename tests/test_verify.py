"""Tests for the specification-vs-circuit equivalence checker."""

import math

import pytest

from repro.apps import biquad_filter, power_meter, receiver
from repro.diagnostics import SimulationError
from repro.flow import synthesize
from repro.spice import sin_wave
from repro.verify import verify_equivalence


def wrap(ports, decls="", body=""):
    return f"""
ENTITY e IS PORT ({ports}); END ENTITY;
ARCHITECTURE a OF e IS
{decls}
BEGIN
{body}
END ARCHITECTURE;
"""


class TestEquivalence:
    def test_linear_design_equivalent(self):
        result = synthesize(
            wrap(
                "QUANTITY u : IN real; QUANTITY y : OUT real",
                body="y == 2.0 * u + 0.5;",
            )
        )
        report = verify_equivalence(
            result, inputs={"u": sin_wave(0.3, 1e3)}, t_end=2e-3
        )
        assert report.passed, report.describe()

    def test_multiplier_design_equivalent(self):
        result = synthesize(
            wrap(
                "QUANTITY a : IN real; QUANTITY b : IN real; "
                "QUANTITY y : OUT real",
                body="y == a * b;",
            )
        )
        report = verify_equivalence(
            result,
            inputs={"a": sin_wave(0.5, 1e3), "b": lambda t: 0.7},
            t_end=2e-3,
        )
        assert report.passed, report.describe()

    def test_receiver_equivalent(self):
        result = synthesize(receiver.VASS_SOURCE)
        report = verify_equivalence(
            result,
            inputs={
                "line": sin_wave(0.8, 1e3),
                "local": lambda t: 0.1,
            },
            t_end=2e-3,
            tolerance=0.10,  # comparator switching instants differ
        )
        assert report.passed, report.describe()

    def test_biquad_equivalent(self):
        result = biquad_filter.synthesize_biquad()
        report = verify_equivalence(
            result,
            inputs={"vin": sin_wave(0.5, 200.0)},
            t_end=10e-3,
            dt=5e-6,
        )
        assert report.passed, report.describe()

    def test_multiple_outputs_compared(self):
        result = synthesize(
            wrap(
                "QUANTITY u : IN real; QUANTITY y1 : OUT real; "
                "QUANTITY y2 : OUT real",
                body="y1 == 2.0 * u;\n  y2 == -1.0 * u;",
            )
        )
        report = verify_equivalence(
            result, inputs={"u": sin_wave(0.4, 1e3)}, t_end=1e-3
        )
        assert len(report.comparisons) == 2
        assert report.passed, report.describe()

    def test_describe_output(self):
        result = synthesize(
            wrap(
                "QUANTITY u : IN real; QUANTITY y : OUT real",
                body="y == u;",
            )
        )
        report = verify_equivalence(
            result, inputs={"u": sin_wave(0.2, 1e3)}, t_end=1e-3
        )
        text = report.describe()
        assert "EQUIVALENT" in text
        assert "y:" in text

    def test_deviation_detected(self):
        """Tampering with the netlist must be caught."""
        result = synthesize(
            wrap(
                "QUANTITY u : IN real; QUANTITY y : OUT real",
                body="y == 2.0 * u;",
            )
        )
        # Corrupt the synthesized gain.
        result.netlist.instances[0].params["gain"] = 5.0
        report = verify_equivalence(
            result, inputs={"u": sin_wave(0.4, 1e3)}, t_end=1e-3
        )
        assert not report.passed

    def test_no_outputs_rejected(self):
        result = synthesize(
            wrap(
                "QUANTITY u : IN real; QUANTITY y : OUT real",
                body="y == u;",
            )
        )
        with pytest.raises(SimulationError, match="no quantity output"):
            verify_equivalence(result, outputs=[])

    def test_signal_outputs_are_named(self):
        result = synthesize(power_meter.VASS_SOURCE)
        with pytest.raises(SimulationError) as info:
            verify_equivalence(result)
        assert str(info.value) == (
            "design 'power_meter' has no quantity output to compare; its "
            "outputs are signals (icode, isign, vcode, vsign), which the "
            "transient check does not probe"
        )

    @pytest.mark.parametrize("tolerance", [0.0, -1.0, math.nan])
    def test_nonpositive_tolerance_rejected(self, tolerance):
        result = synthesize(
            wrap(
                "QUANTITY u : IN real; QUANTITY y : OUT real",
                body="y == u;",
            )
        )
        with pytest.raises(SimulationError, match="must be positive"):
            verify_equivalence(result, tolerance=tolerance)
