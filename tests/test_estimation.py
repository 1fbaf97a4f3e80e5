"""Tests for technology, op-amp sizing and performance estimation."""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.estimation import (
    ConstraintSet,
    Estimator,
    MOSIS_SCN20,
    OpAmpSpec,
    PerformanceEstimate,
    Technology,
    design_two_stage,
    min_opamp_area,
)
from repro.library import default_library
from repro.synth.netlist import Netlist


class TestTechnology:
    def test_capacitor_area_scales(self):
        tech = MOSIS_SCN20
        assert tech.capacitor_area(2e-12) == pytest.approx(
            2 * tech.capacitor_area(1e-12)
        )

    def test_resistor_area_scales(self):
        tech = MOSIS_SCN20
        assert tech.resistor_area(20e3) == pytest.approx(
            2 * tech.resistor_area(10e3)
        )

    def test_min_dimensions(self):
        assert MOSIS_SCN20.min_width > MOSIS_SCN20.min_length / 2


class TestOpAmpSizing:
    def test_default_spec_feasible(self):
        design = design_two_stage(OpAmpSpec())
        assert design.feasible, design.notes

    def test_meets_ugf(self):
        spec = OpAmpSpec(ugf_hz=2e6)
        design = design_two_stage(spec)
        assert design.ugf_hz >= spec.ugf_hz * 0.99

    def test_meets_slew(self):
        spec = OpAmpSpec(slew_rate=5e6)
        design = design_two_stage(spec)
        assert design.slew_rate >= spec.slew_rate * 0.99

    def test_meets_dc_gain(self):
        spec = OpAmpSpec(dc_gain=20000.0)
        design = design_two_stage(spec)
        assert design.dc_gain >= spec.dc_gain * 0.95

    def test_compensation_cap_tracks_load(self):
        small = design_two_stage(OpAmpSpec(cload=5e-12))
        large = design_two_stage(OpAmpSpec(cload=50e-12))
        assert large.cc > small.cc

    def test_area_grows_with_ugf(self):
        slow = design_two_stage(OpAmpSpec(ugf_hz=0.5e6))
        fast = design_two_stage(OpAmpSpec(ugf_hz=10e6))
        assert fast.area > slow.area

    def test_power_grows_with_slew(self):
        gentle = design_two_stage(OpAmpSpec(slew_rate=1e6))
        hard = design_two_stage(OpAmpSpec(slew_rate=20e6))
        assert hard.power > gentle.power

    def test_excessive_ugf_infeasible(self):
        design = design_two_stage(OpAmpSpec(ugf_hz=500e6))
        assert not design.feasible

    def test_excessive_swing_infeasible(self):
        design = design_two_stage(OpAmpSpec(swing=4.9))
        assert not design.feasible

    def test_ratios_at_least_minimum(self):
        design = design_two_stage(OpAmpSpec())
        tech = design.technology
        for ratio in design.ratios.values():
            assert ratio >= tech.min_width / tech.min_length * 0.999

    def test_min_area_below_any_design(self):
        design = design_two_stage(OpAmpSpec())
        assert min_opamp_area() <= design.area

    @given(
        st.floats(min_value=1e5, max_value=2e7),
        st.floats(min_value=1e5, max_value=2e7),
    )
    # Both edges of the DC-gain margin: a UGF just past the gain-limited
    # gm1, and one whose gain raise starts with the driver at minimum size.
    @example(f1=1.0e5, f2=1012856.0)
    @example(f1=2.25e5, f2=2.31e5)
    @settings(max_examples=30, deadline=None)
    def test_area_monotone_in_ugf(self, f1, f2):
        d1 = design_two_stage(OpAmpSpec(ugf_hz=f1))
        d2 = design_two_stage(OpAmpSpec(ugf_hz=f2))
        if f1 < f2:
            assert d1.area <= d2.area * 1.001
        else:
            assert d2.area <= d1.area * 1.001


class TestConstraints:
    def test_empty_estimate_passes_default(self):
        estimate = PerformanceEstimate(area=1e-6, power=1e-3, opamps=2)
        assert ConstraintSet().satisfied_by(estimate)

    def test_area_violation(self):
        constraints = ConstraintSet(max_area=1e-8)
        estimate = PerformanceEstimate(area=1e-6)
        violations = constraints.check(estimate)
        assert any("area" in v for v in violations)

    def test_power_violation(self):
        constraints = ConstraintSet(max_power=1e-6)
        estimate = PerformanceEstimate(power=1e-3)
        assert constraints.check(estimate)

    def test_opamp_count_violation(self):
        constraints = ConstraintSet(max_opamps=2)
        estimate = PerformanceEstimate(opamps=5)
        assert constraints.check(estimate)

    def test_infeasible_estimate_fails(self):
        estimate = PerformanceEstimate(feasible=False)
        assert ConstraintSet().check(estimate)

    def test_ugf_violation(self):
        constraints = ConstraintSet(min_ugf_hz=1e9)
        estimate = PerformanceEstimate(min_ugf_hz=1e6)
        assert constraints.check(estimate)


class TestEstimator:
    def make_netlist(self, *specs):
        netlist = Netlist(name="t", library=default_library())
        for index, (name, params) in enumerate(specs):
            netlist.add_instance(name, params=params, inputs=[0],
                                 output=index + 10)
        return netlist

    def test_single_amplifier(self):
        estimator = Estimator()
        netlist = self.make_netlist(("inverting_amplifier", {"gain": -2.0}))
        estimate = estimator.estimate(netlist)
        assert estimate.opamps == 1
        assert estimate.area > 0
        assert estimate.feasible

    def test_area_additive(self):
        estimator = Estimator()
        one = estimator.estimate(
            self.make_netlist(("inverting_amplifier", {"gain": -2.0}))
        )
        two = estimator.estimate(
            self.make_netlist(
                ("inverting_amplifier", {"gain": -2.0}),
                ("inverting_amplifier", {"gain": -2.0}),
            )
        )
        assert two.area == pytest.approx(2 * one.area, rel=1e-6)

    def test_high_gain_costs_more(self):
        estimator = Estimator()
        low = estimator.estimate(
            self.make_netlist(("inverting_amplifier", {"gain": -2.0}))
        )
        high = estimator.estimate(
            self.make_netlist(("inverting_amplifier", {"gain": -30.0}))
        )
        assert high.area > low.area

    def test_cascade_cheaper_per_stage_than_single_high_gain(self):
        """The cascade's stages need only sqrt(gain) x UGF each."""
        estimator = Estimator(
            constraints=ConstraintSet(signal_bandwidth_hz=100e3)
        )
        single = estimator.estimate_instance(
            self.make_netlist(("inverting_amplifier", {"gain": -100.0}))
            .instances[0]
        )
        cascade = estimator.estimate_instance(
            self.make_netlist(("inverting_cascade", {"gain": -100.0}))
            .instances[0]
        )
        # The single stage needs 100x bandwidth: infeasible in 2 um;
        # the cascade stays feasible.
        assert not single.feasible
        assert cascade.feasible

    def test_switch_has_area_but_no_opamps(self):
        estimator = Estimator()
        estimate = estimator.estimate(
            self.make_netlist(("analog_switch", {}))
        )
        assert estimate.opamps == 0
        assert estimate.area > 0

    def test_adc_includes_logic_area(self):
        estimator = Estimator()
        adc = estimator.estimate(self.make_netlist(("adc", {"bits": 8})))
        sh = estimator.estimate(self.make_netlist(("sample_hold", {})))
        assert adc.area > sh.area

    def test_integrator_gain_does_not_scale_ugf(self):
        estimator = Estimator()
        slow = estimator.estimate(
            self.make_netlist(("integrator", {"gain": 1.0}))
        )
        fast = estimator.estimate(
            self.make_netlist(("integrator", {"gain": 4000.0}))
        )
        assert fast.area == pytest.approx(slow.area)
        assert fast.feasible

    def test_min_area_positive(self):
        assert Estimator().min_area() > 0

    def test_estimate_caching_consistent(self):
        estimator = Estimator()
        netlist = self.make_netlist(("inverting_amplifier", {"gain": -2.0}))
        first = estimator.estimate(netlist)
        second = estimator.estimate(netlist)
        assert first.area == second.area
