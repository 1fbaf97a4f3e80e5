"""Predicted Newton starts against the previous-solution start.

``MnaSolver.transient`` starts each step's Newton solve from the
solution extrapolated linearly from the last two accepted ones.  The
oracle, the ``unpredicted_transient`` fixture, starts from the previous
step's solution instead.  Where a step has one solution, both solve the
same system to the same tolerance, so wherever the oracle converged the
two must agree; and the predicted start must converge at every step of
the Section-6 verification designs and the Figure-8 receiver transient,
where the oracle leaves some steps unconverged.  Where a step has two
solutions, a Schmitt trigger inside its hysteresis band, the start
picks one, and the predicted start must keep the branch the trigger
last jumped to, as the oracle does.
"""

import warnings

import numpy as np
import pytest

from repro.apps import function_generator
from repro.instrument import metrics
from repro.library import default_library
from repro.spice import elaborate, pwl_wave
from repro.spice.mna import MnaSolver, _NewtonSystem
from repro.synth.netlist import Netlist

#: the Newton tolerance, on both the step and the residual
TOL = 1e-9

#: the steps the oracle leaves unconverged on each full-length input
ORACLE_EXHAUSTED = {"receiver": 2, "biquad": 0, "squarer": 0, "figure8": 4}


@pytest.fixture(scope="module")
def circuits(verification_inputs):
    """The ``verify_transient`` benchmark inputs: (circuit, t_end, dt)."""
    return verification_inputs()


def _run(solver, t_end, dt):
    """Every step's full solution (all unknowns), its own residual, and
    the ``spice.mna.newton_exhausted`` count the transient published."""
    steps = []
    newton = solver._newton

    def recording(x0, t, step_dt, prev, switch_controls, **kwargs):
        x = newton(x0, t, step_dt, prev, switch_controls, **kwargs)
        steps.append((t, prev, x))
        return x

    solver._newton = recording
    registry = metrics()
    before = registry.counter("spice.mna.newton_exhausted")
    solver.transient(t_end, dt)
    exhausted = registry.counter("spice.mna.newton_exhausted") - before
    residuals = [
        _NewtonSystem(solver.stamps, t, dt, prev, prev).residual(x)[2]
        for t, prev, x in steps
    ]
    states = np.array([x for _, _, x in steps])
    return states, np.array(residuals), exhausted


NAMES = ["receiver", "biquad", "squarer", "figure8"]


@pytest.mark.parametrize("name", NAMES)
def test_every_step_converges(circuits, name):
    circuit, t_end, dt = circuits[name]
    _, residuals, exhausted = _run(MnaSolver(circuit.circuit), t_end, dt)
    assert exhausted == 0
    assert residuals.max() < TOL


@pytest.mark.parametrize("name", NAMES)
def test_verification_emits_no_warning(circuits, name):
    circuit, t_end, dt = circuits[name]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        MnaSolver(circuit.circuit).transient(t_end, dt)
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("name", NAMES)
def test_agrees_with_unpredicted_where_it_converged(
    circuits, unpredicted_transient, name
):
    circuit, t_end, dt = circuits[name]
    states, _, _ = _run(MnaSolver(circuit.circuit), t_end, dt)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ref, ref_residuals, ref_exhausted = _run(
            unpredicted_transient(circuit.circuit), t_end, dt
        )
    # The oracle's exhausted steps are reported once, as one warning.
    assert len(caught) == (1 if ref_exhausted else 0)
    assert states.shape == ref.shape
    # The oracle's unconverged steps are exactly the ones it exhausted.
    assert ref_exhausted == ORACLE_EXHAUSTED[name]
    converged = ref_residuals < TOL
    assert (~converged).sum() == ref_exhausted
    # Switches follow the previous step's solution, so an unconverged
    # oracle step can flip a switch, and change the system, one step
    # later: compare only where the oracle's previous step converged too.
    compared = converged & np.concatenate(([True], converged[:-1]))
    assert (~compared).sum() <= 2 * ref_exhausted
    assert np.abs(states - ref)[compared].max() < TOL


def _schmitt_trigger(wave):
    """A Schmitt trigger (switching at ±0.3 V) driven by ``wave``."""
    netlist = Netlist(name="schmitt", library=default_library())
    netlist.inputs["vin"] = 0
    netlist.add_instance(
        "schmitt_trigger", params={"threshold": 0.0, "hysteresis": 0.3},
        inputs=[0], output=1, covers=[1],
    )
    netlist.outputs["out"] = 1
    return elaborate(netlist, input_waves={"vin": wave})


def test_schmitt_trigger_keeps_the_branch_it_jumped_to(
    unpredicted_transient
):
    # The input leaves the band for one step at a time and returns to
    # 0 V, inside it, where both 0 and 1 solve the trigger: it must
    # hold 1 after the upward jump and 0 after the downward one.
    dt = 1e-6
    circuit = _schmitt_trigger(pwl_wave([
        (0.0, -1.0), (10e-6, -1.0), (11e-6, 1.0), (12e-6, 0.0),
        (30e-6, 0.0), (31e-6, -1.0), (32e-6, 0.0),
    ]))
    out = circuit.output_nodes["out"]
    v = circuit.transient(50e-6, dt, probes=[out])[out]
    ref = unpredicted_transient(circuit.circuit).transient(
        50e-6, dt, probes=[out]
    ).voltages[out]
    assert np.abs(v - ref).max() < TOL
    high = (v > 0.5).nonzero()[0]
    # Step k ends at (k + 1)·dt: high from 11 µs through 30 µs.
    assert list(high) == list(range(10, 30))


def test_function_generator_keeps_oscillating(unpredicted_transient):
    # Integrator, MUX and Schmitt trigger: the ramp turns back into the
    # trigger's hysteresis band right after every jump, so a start on
    # the wrong branch flips the direction back and the ramp stalls.
    result = function_generator.synthesize_function_generator()
    circuit = elaborate(result.netlist)
    ramp = circuit.output_nodes["ramp"]

    def turns(v):
        return int((np.diff(np.sign(np.diff(v))) != 0).sum())

    v = circuit.transient(2e-3, 2e-6, probes=[ramp])[ramp]
    ref = unpredicted_transient(circuit.circuit).transient(
        2e-3, 2e-6, probes=[ramp]
    ).voltages[ramp]
    assert turns(v) == turns(ref)
    assert turns(v) >= 3
    # The ramp spans the ±1 V thresholds, overshooting by a few steps.
    assert 1.0 < v.max() < 1.1
    assert -1.1 < v.min() < -1.0
