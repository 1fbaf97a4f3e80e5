"""Section 6 methodology: synthesized circuits vs their specifications.

"The produced circuits were simulated, and their output signals were
observed."  This benchmark runs the packaged equivalence check on the
applications that exercise distinct circuit classes and reports the
spec-vs-circuit deviation for each — the reproduction's functional
acceptance gate.

The Figure-8 receiver transient (the paper's clipping run, driven at
1 V) is timed here as well, so all four inputs of the
``verify_transient`` workload have their work counters gated, and so
is the function generator's free-running transient (Table 1's
integrator, MUX and Schmitt trigger), whose oscillation must not leave
a Newton solve unconverged.

Each test dumps its metrics through the ``bench_metrics`` fixture, and
``benchmarks/baselines/test_verification_*.json`` pin the simulator's
work counters: residual evaluations, factorizations, Newton assemblies
and exhausted Newton solves.  The designs are synthesized by a module
fixture, before the fixture resets the registry, so a dump counts the
verification alone.
"""

import numpy as np
import pytest

from repro.apps import biquad_filter, function_generator, receiver
from repro.instrument import metrics
from repro.flow import synthesize
from repro.spice import elaborate, sin_wave, waveform
from repro.verify import verify_equivalence

from conftest import banner

SQUARER_SOURCE = """
ENTITY squarer IS
PORT (QUANTITY u : IN real; QUANTITY y : OUT real);
END ENTITY;
ARCHITECTURE a OF squarer IS
BEGIN
  y == 0.5 * u * u + 0.1;
END ARCHITECTURE;
"""


@pytest.fixture(scope="module")
def designs():
    return {
        "receiver": synthesize(receiver.VASS_SOURCE),
        "biquad": biquad_filter.synthesize_biquad(),
        "squarer": synthesize(SQUARER_SOURCE),
        "function_generator": (
            function_generator.synthesize_function_generator()
        ),
    }


def test_verification_receiver(benchmark, designs, bench_metrics):
    result = designs["receiver"]

    def run():
        return verify_equivalence(
            result,
            inputs={"line": sin_wave(0.8, 1e3), "local": lambda t: 0.1},
            t_end=2e-3,
            tolerance=0.10,
        )

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    banner("Verification: receiver module (switched gain + limiting)")
    print(report.describe())
    assert report.passed


def test_verification_biquad(benchmark, designs, bench_metrics):
    result = designs["biquad"]

    def run():
        return verify_equivalence(
            result,
            inputs={"vin": sin_wave(0.5, 200.0)},
            t_end=10e-3,
            dt=5e-6,
        )

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    banner("Verification: biquad filter (integrator loop dynamics)")
    print(report.describe())
    assert report.passed


def test_verification_nonlinear(benchmark, designs, bench_metrics):
    result = designs["squarer"]

    def run():
        return verify_equivalence(
            result, inputs={"u": sin_wave(0.8, 1e3)}, t_end=2e-3
        )

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    banner("Verification: nonlinear design (multiplier core)")
    print(report.describe())
    assert report.passed


def test_verification_figure8(benchmark, designs, bench_metrics):
    netlist = designs["receiver"].netlist

    def run():
        circuit = elaborate(netlist, input_waves={
            "line": sin_wave(1.0, 1e3), "local": lambda t: 0.1,
        })
        out = circuit.output_nodes["earph"]
        return circuit.transient(2e-3, 2e-6, probes=[out])[out]

    earph = benchmark.pedantic(run, rounds=1, iterations=1)
    banner("Verification: Figure-8 receiver transient (output clipping)")
    clip = waveform.detect_clipping(earph)
    print(f"v(9) clipped: {clip.clipped} at {clip.level:.3f} V "
          "(paper: 1.5 V)")
    assert clip.clipped
    assert clip.level == pytest.approx(1.5, rel=0.05)


def test_verification_function_generator(benchmark, designs, bench_metrics):
    netlist = designs["function_generator"].netlist
    dt = 2e-6

    def run():
        circuit = elaborate(netlist)
        out = circuit.output_nodes["ramp"]
        return circuit.transient(2e-3, dt, probes=[out])[out]

    ramp = benchmark.pedantic(run, rounds=1, iterations=1)
    banner("Verification: function generator (integrator, MUX, Schmitt)")
    turns = (np.diff(np.sign(np.diff(ramp))) != 0).nonzero()[0] + 1
    peak = function_generator.V_HIGH + function_generator.SLOPE * dt
    print(f"ramp turns: {len(turns)}, peaks {ramp.max():+.5f} / "
          f"{ramp.min():+.5f} V (one step past the thresholds: "
          f"±{peak:.5f} V)")
    assert metrics().counter("spice.mna.newton_exhausted") == 0
    assert len(turns) >= 3
    assert np.abs(np.abs(ramp[turns]) - peak).max() < 1e-3
