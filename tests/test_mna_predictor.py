"""Predicted Newton starts against the previous-solution start.

``MnaSolver.transient`` starts each step's Newton solve from the
solution extrapolated from the converged ones so far, up to the
quartic through the last five; an exhausted solve restarts that
history.  The oracle, the ``unpredicted_transient`` fixture, starts
from the previous step's solution instead.  Where a step has one
solution, both solve the same system to the same tolerance, so
wherever the oracle converged the two must agree; and the predicted
start must converge at every step of the Section-6 verification
designs and the Figure-8 receiver transient, where the oracle leaves
some steps unconverged.
A Schmitt trigger keeps its state in switches that read the previous
step, so a step inside its hysteresis band still has one solution, and
the trigger must keep the branch it last jumped to, as the oracle does.
The function generator built on one must oscillate with the period and
the peaks that one step of switch delay per turn predicts.

Newton checks each point's residual without assembling the system, so
the assembly-free residual must equal the assembled one, and a
transient must assemble only for a factorization.

A transient step first takes chord steps with the factorization an
earlier step kept, at least one, so that no start is accepted on its
own residual.  The oracle, the ``refactorizing_transient`` fixture,
drops it before every solve, so each step assembles and factorizes
as before; both accept a point only on its residual, so
they must agree to within the tolerance's effect on the voltages.  A
switch flip changes the linear matrix and must force a
refactorization.
"""

import warnings

import numpy as np
import pytest

from repro.apps import function_generator
from repro.instrument import metrics
from repro.library import default_library
from repro.spice import elaborate, pwl_wave, sin_wave
from repro.spice.mna import Circuit, MnaSolver, _NewtonSystem
from repro.synth.netlist import Netlist
from tests.test_mna_stamps import every_element

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
        np.abs(
            _NewtonSystem(solver.stamps, t, dt, prev, prev).residual(x)
        ).max()
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


@pytest.fixture
def solve_log(monkeypatch):
    """The Newton solves and the inversions ``repro.spice.mna`` asks
    the guard boundary for, counted by kind."""
    from repro.spice import mna

    counts = {"solves": 0, "inversions": 0}

    def counting(name, kind):
        call = getattr(mna, name)

        def counted(*args, **kwargs):
            counts[kind] += 1
            return call(*args, **kwargs)

        monkeypatch.setattr(mna, name, counted)

    counting("guarded_solve", "solves")
    counting("guarded_inverse", "inversions")
    return counts


@pytest.mark.parametrize("name", NAMES)
def test_one_assembly_per_factorization(circuits, solve_log, name):
    # Every assembly feeds one Newton solve, and every other
    # factorization inverts a kept matrix, each at most once.
    circuit, t_end, dt = circuits[name]
    registry = metrics()
    keys = ("spice.mna.assemblies", "spice.mna.factorizations")
    before = [registry.counter(key) for key in keys]
    MnaSolver(circuit.circuit).transient(t_end, dt)
    assemblies, factorizations = (
        registry.counter(key) - count for key, count in zip(keys, before)
    )
    assert assemblies == solve_log["solves"] >= 1
    assert factorizations == assemblies + solve_log["inversions"]
    assert 1 <= solve_log["inversions"] <= assemblies


def test_quartic_source_is_predicted_exactly():
    # A divider's solution is linear in its source, so under a source
    # quartic in t, zero at t=0 like the initial state, the quartic
    # start is exact from step 5 on, the first to extrapolate five
    # solutions (the initial state among them).  Every later step
    # takes one chord step with step 1's matrix, inverted at step 2;
    # exact for a linear circuit, it closes any miss, and no step after
    # step 2 factorizes.  The cubic start of step 4 misses by the
    # fourth difference, as a quadratic or cubic start would at every
    # later step.
    dt, n_steps = 1e-5, 40
    h = 1.0 / n_steps  # dt in units of the run's length

    def source(t):
        tau = t / (n_steps * dt)
        return tau + tau ** 2 - tau ** 3 + 2.0 * tau ** 4

    circuit = Circuit("divider")
    circuit.vsource("V1", "in", "0", source)
    circuit.resistor("R1", "in", "out", 1e3)
    circuit.resistor("R2", "out", "0", 1e3)
    solver = MnaSolver(circuit)
    steps = []
    newton = solver._newton

    def recording(x0, t, step_dt, prev, switch_controls, **kwargs):
        before = solver._guard.factorizations
        x = newton(x0, t, step_dt, prev, switch_controls, **kwargs)
        steps.append((x0, x, solver._guard.factorizations - before))
        return x

    solver._newton = recording
    solver.transient(n_steps * dt, dt)
    assert len(steps) == n_steps
    assert [count for _, _, count in steps[:4]] == [1, 1, 0, 0]
    vin = solver._index("in")
    start, x, _ = steps[3]
    assert x[vin] - start[vin] == pytest.approx(24 * 2.0 * h ** 4, rel=1e-6)
    for start, x, factorizations in steps[4:]:
        assert np.abs(x - start).max() < 1e-12
        assert factorizations == 0


def test_history_restarts_after_an_exhausted_solve():
    # Step 4's solve gets no iterations, so it returns its start as a
    # best-effort point.  Step 5 starts at that point and step 6 at
    # step 5's solution: no start extrapolates through step 4.  The
    # order then grows again, one per converged step.
    dt, n_steps = 1e-5, 8
    circuit = Circuit("divider")
    circuit.vsource("V1", "in", "0", lambda t: 1e3 * t + 1e8 * t * t)
    circuit.resistor("R1", "in", "out", 1e3)
    circuit.resistor("R2", "out", "0", 1e3)
    solver = MnaSolver(circuit)
    starts, solutions = [], []
    newton = solver._newton

    def recording(x0, t, step_dt, prev, switch_controls, **kwargs):
        if len(starts) == 3:
            kwargs["max_iter"] = 0
        starts.append(x0)
        solutions.append(
            newton(x0, t, step_dt, prev, switch_controls, **kwargs)
        )
        return solutions[-1]

    solver._newton = recording
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        solver.transient(n_steps * dt, dt)
    assert ["converge in 1 solve(s)" in str(w.message) for w in caught] == [
        True
    ]
    assert np.array_equal(solutions[3], starts[3])
    assert np.array_equal(starts[4], solutions[3])
    assert np.array_equal(starts[5], solutions[4])
    linear = 2.0 * solutions[5] - solutions[4]
    quadratic = 3.0 * (solutions[6] - solutions[5]) + solutions[4]
    assert np.abs(starts[6] - linear).max() < 1e-12
    assert np.abs(starts[7] - quadratic).max() < 1e-12


def test_start_is_never_accepted_on_its_own_residual():
    # 100 MΩ into 0.1 pF from 1 V DC: the capacitor node's conductances
    # are 1e-8 S (R) and 1e-7 S (C/dt), so a start a few mV off has a
    # KCL residual below the 1e-9 tolerance.  Every step must take a
    # chord step from its start and land on the backward-Euler
    # recurrence, gmin included.
    r, c, dt, n_steps = 1e8, 1e-13, 1e-6, 100
    circuit = Circuit("slow rc")
    circuit.vsource("V1", "in", "0", 1.0)
    circuit.resistor("R1", "in", "out", r)
    circuit.capacitor("C1", "out", "0", c)
    sim = MnaSolver(circuit).transient(n_steps * dt, dt)
    g_c, g_r = c / dt, 1.0 / r
    v, expected = 0.0, []
    for _ in range(n_steps):
        v = (g_c * v + g_r) / (g_c + g_r + MnaSolver.gmin)
        expected.append(v)
    assert np.abs(sim["out"] - np.array(expected)).max() < 1e-12
    assert np.array_equal(sim["in"], np.ones(n_steps))


def _schmitt_sine():
    """The Schmitt trigger of ``test_schmitt_trigger_is_bistable``
    (switching at ±0.3 V) under a 1 V, 500 Hz sine: (circuit, t_end,
    dt)."""
    from tests.test_netlister_components import single_instance_netlist

    netlist = single_instance_netlist(
        "schmitt_trigger", params={"threshold": 0.0, "hysteresis": 0.3},
    )
    circuit = elaborate(netlist, input_waves={"in0": sin_wave(1.0, 500.0)})
    return circuit, 4e-3, 2e-6


@pytest.mark.parametrize("name", NAMES + ["schmitt"])
def test_chord_agrees_with_refactorizing(
    circuits, refactorizing_transient, name
):
    circuit, t_end, dt = (
        _schmitt_sine() if name == "schmitt" else circuits[name]
    )
    registry = metrics()
    sims, counts = [], []
    for cls in (MnaSolver, refactorizing_transient):
        before = registry.counter("spice.mna.factorizations")
        sims.append(cls(circuit.circuit).transient(t_end, dt))
        counts.append(registry.counter("spice.mna.factorizations") - before)
    sim, ref = sims
    assert sim.voltages.keys() == ref.voltages.keys()
    for node in ref.voltages:
        assert np.abs(sim[node] - ref[node]).max() < 1e-8, node
    # The oracle factorizes at least once per step, the chord seldom.
    assert counts[1] >= int(round(t_end / dt)) > 5 * counts[0]


def test_switch_flip_forces_a_refactorization():
    # The switches' control is a sine, so they flip many times; every
    # flip changes the step's linear matrix, and the kept factorization
    # (assembled on the old one) must not serve that step: it begins by
    # assembling, with no chord step before.
    solver = MnaSolver(every_element())
    stamps = solver.stamps
    steps = []
    for name in ("assemble", "residual"):
        def logged(*args, _call=getattr(stamps, name), _name=name):
            steps[-1][1].append(_name)
            return _call(*args)

        setattr(stamps, name, logged)
    newton = solver._newton

    def recording(x0, t, step_dt, prev, switch_controls, **kwargs):
        steps.append((stamps.switch_state(switch_controls), []))
        return newton(x0, t, step_dt, prev, switch_controls, **kwargs)

    solver._newton = recording
    solver.transient(2e-3, 1e-5)
    flips = [
        events
        for (state, events), (last, _) in zip(steps[1:], steps)
        if state != last
    ]
    assert len(flips) >= 4
    assert all(events[0] == "assemble" for events in flips)
    # Elsewhere the kept factorization serves most steps.
    reused = sum(1 for _, events in steps if "assemble" not in events)
    assert reused > len(steps) // 2
    assert solver._kept is None  # dropped when the analysis ended


def test_exhausted_solve_drops_the_kept_factorization():
    solver = MnaSolver(every_element())
    x = np.zeros(solver._size)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with solver._analysis():
            x = solver._newton(x, 1e-5, 1e-5, x, x)
            assert solver._kept is not None
            far = np.full(solver._size, 5.0)
            solver._newton(far, 2e-5, 1e-5, x, x, max_iter=1)
            assert solver._kept is None
    assert len(caught) == 1
    assert "converge in 1 solve(s)" in str(caught[0].message)


@pytest.mark.parametrize("name", ["every_element", "receiver"])
def test_residual_matches_the_assembled_system(circuits, name):
    circuit = (
        every_element() if name == "every_element"
        else circuits["receiver"][0].circuit
    )
    solver = MnaSolver(circuit)
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = rng.uniform(-1.5, 1.5, solver._size)
        prev = rng.uniform(-1.5, 1.5, solver._size)
        t = float(rng.uniform(0.0, 2e-3))
        for dt in (None, 1e-6, 3.7e-5):
            step_prev = None if dt is None else prev
            system = _NewtonSystem(solver.stamps, t, dt, step_prev, step_prev)
            A, b = system(x)
            assembled = A @ x - b
            free = system.residual(x)
            norm = np.abs(assembled).max()
            assert np.abs(free).max() == pytest.approx(norm, rel=1e-12)
            # Row by row, too: the nonlinear rows seldom hold the max.
            assert np.abs(free - assembled).max() <= 1e-12 * norm


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


@pytest.mark.parametrize("dt", [1e-6, 2e-6, 5e-6])
def test_function_generator_period_and_peaks(dt):
    # The oscillator oracle.  The ramp integrates ±SLOPE, the trigger
    # flips on the first step past a threshold, and the MUX follows
    # one step later, so the ramp turns at that step.  At these dt the
    # thresholds fall on the step grid, where the ramp is a hair short
    # of them, so every turn peaks one step's ramp past its threshold,
    # at ±(V_HIGH + SLOPE·dt), and each half period runs two steps
    # longer than the ideal triangle's.
    result = function_generator.synthesize_function_generator()
    circuit = elaborate(result.netlist)
    ramp = circuit.output_nodes["ramp"]
    registry = metrics()
    before = registry.counter("spice.mna.newton_exhausted")
    sim = circuit.transient(4e-3, dt, probes=[ramp])
    assert registry.counter("spice.mna.newton_exhausted") == before
    t, v = sim.time, sim[ramp]
    # Upward zero crossings, interpolated between the steps.
    up = ((v[:-1] < 0.0) & (v[1:] >= 0.0)).nonzero()[0]
    crossings = t[up] - v[up] * (t[up + 1] - t[up]) / (v[up + 1] - v[up])
    periods = np.diff(crossings)
    assert len(periods) >= 2
    expected = function_generator.expected_period() + 4 * dt
    assert np.abs(periods / expected - 1.0).max() < 1e-3
    turns = (np.diff(np.sign(np.diff(v))) != 0).nonzero()[0] + 1
    assert len(turns) >= 6
    peak = function_generator.V_HIGH + function_generator.SLOPE * dt
    assert np.abs(np.abs(v[turns]) - peak).max() < 1e-3
