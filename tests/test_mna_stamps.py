"""The compiled stamp table against a per-element stamping oracle.

The oracle below is the element-by-element ``isinstance`` ladder that
the MNA and AC engines assembled with before stamps were compiled.
:class:`LadderSolver` swaps it in for the table's stamping only (the
assembled system and the residual), so both run the one Newton loop,
chord steps from the kept factorization included.  Every comparison is
exact (``np.array_equal``): the table sums each matrix entry in the
same element order, so nothing may differ, not even in the last bit.
"""

import math
import warnings

import numpy as np
import pytest

from repro.apps import biquad_filter
from repro.flow import synthesize
from repro.instrument import metrics
from repro.robust.guards import NumericalWarning
from repro.spice import dc, elaborate, sin_wave
from repro.spice.ac import AcSolver, ac_sweep
from repro.spice.linalg import AnalysisGuard, resolve_backend
from repro.spice.mna import (
    Capacitor,
    Circuit,
    CurrentSource,
    FunctionSource,
    MnaSolver,
    Resistor,
    SaturatingVcvs,
    Switch,
    Vccs,
    Vcvs,
    VoltageSource,
    _NewtonSystem,
)


# ---------------------------------------------------------------------------
# The oracle: per-element stamping
# ---------------------------------------------------------------------------


def _stamp(matrix, i, j, value):
    if i >= 0 and j >= 0:
        matrix[i, j] += value


def _stamp_rhs(rhs, i, value):
    if i >= 0:
        rhs[i] += value


def _voltage(solver, x, node):
    index = solver._index(node)
    return 0.0 if index < 0 else float(x[index])


def ladder_assemble(solver, x, t, dt, prev, switch_controls, nonlinear=True):
    """One MNA system, stamped element by element; with ``nonlinear``
    false, without the Newton linearization of the nonlinear elements
    (their branch stamps stay)."""
    idx = solver._index
    size = solver._size
    A = np.zeros((size, size))
    b = np.zeros(size)
    for i in range(solver._n):
        A[i, i] += solver.gmin
    control_state = switch_controls if switch_controls is not None else x
    for element in solver.circuit.elements:
        if isinstance(element, Resistor):
            g = 1.0 / element.resistance
            i, j = idx(element.n1), idx(element.n2)
            _stamp(A, i, i, g)
            _stamp(A, j, j, g)
            _stamp(A, i, j, -g)
            _stamp(A, j, i, -g)
        elif isinstance(element, Switch):
            vc = _voltage(solver, control_state, element.control)
            on = vc > element.threshold
            if element.invert:
                on = not on
            g = 1.0 / (element.ron if on else element.roff)
            i, j = idx(element.n1), idx(element.n2)
            _stamp(A, i, i, g)
            _stamp(A, j, j, g)
            _stamp(A, i, j, -g)
            _stamp(A, j, i, -g)
        elif isinstance(element, Capacitor):
            i, j = idx(element.n1), idx(element.n2)
            if dt is None:
                continue
            g = element.capacitance / dt
            if prev is not None:
                v_prev = (0.0 if i < 0 else prev[i]) - (
                    0.0 if j < 0 else prev[j]
                )
            else:
                v_prev = element.ic
            _stamp(A, i, i, g)
            _stamp(A, j, j, g)
            _stamp(A, i, j, -g)
            _stamp(A, j, i, -g)
            _stamp_rhs(b, i, g * v_prev)
            _stamp_rhs(b, j, -g * v_prev)
        elif isinstance(element, CurrentSource):
            value = element.waveform(t)
            i, j = idx(element.npos), idx(element.nneg)
            _stamp_rhs(b, i, -value)
            _stamp_rhs(b, j, value)
        elif isinstance(element, VoltageSource):
            i, j = idx(element.npos), idx(element.nneg)
            k = element.branch_index
            _stamp(A, i, k, 1.0)
            _stamp(A, j, k, -1.0)
            _stamp(A, k, i, 1.0)
            _stamp(A, k, j, -1.0)
            b[k] += element.waveform(t)
        elif isinstance(element, Vcvs):
            i, j = idx(element.npos), idx(element.nneg)
            ci, cj = idx(element.cpos), idx(element.cneg)
            k = element.branch_index
            _stamp(A, i, k, 1.0)
            _stamp(A, j, k, -1.0)
            _stamp(A, k, i, 1.0)
            _stamp(A, k, j, -1.0)
            _stamp(A, k, ci, -element.gain)
            _stamp(A, k, cj, element.gain)
        elif isinstance(element, Vccs):
            i, j = idx(element.npos), idx(element.nneg)
            ci, cj = idx(element.cpos), idx(element.cneg)
            _stamp(A, i, ci, element.gm)
            _stamp(A, i, cj, -element.gm)
            _stamp(A, j, ci, -element.gm)
            _stamp(A, j, cj, element.gm)
        elif isinstance(element, SaturatingVcvs):
            i, j = idx(element.npos), idx(element.nneg)
            ci, cj = idx(element.cpos), idx(element.cneg)
            k = element.branch_index
            _stamp(A, i, k, 1.0)
            _stamp(A, j, k, -1.0)
            _stamp(A, k, i, 1.0)
            _stamp(A, k, j, -1.0)
            if not nonlinear:
                continue
            vc = (0.0 if ci < 0 else x[ci]) - (0.0 if cj < 0 else x[cj])
            f = element.value(vc)
            df = element.derivative(vc)
            _stamp(A, k, ci, -df)
            _stamp(A, k, cj, df)
            b[k] += f - df * vc
        elif isinstance(element, FunctionSource):
            out = idx(element.nout)
            k = element.branch_index
            _stamp(A, out, k, 1.0)
            _stamp(A, k, out, 1.0)
            if not nonlinear:
                continue
            values = [_voltage(solver, x, n) for n in element.inputs]
            f = element.value(values)
            grads = element.partials(values)
            rhs = f
            for node, grad in zip(element.inputs, grads):
                _stamp(A, k, idx(node), -grad)
                rhs -= grad * _voltage(solver, x, node)
            b[k] += rhs
        else:  # pragma: no cover - the oracle covers every element
            raise AssertionError(type(element).__name__)
    return A, b


def ladder_residual(solver, x, t, dt, prev, switch_controls):
    """``A x - b`` of the ladder's system at ``x``: the linear stamps
    times ``x``, less the sources, less each nonlinear element's value
    on its own branch row."""
    A, b = ladder_assemble(
        solver, x, t, dt, prev, switch_controls, nonlinear=False
    )
    r = A @ x - b
    for element in solver.circuit.elements:
        if isinstance(element, SaturatingVcvs):
            vc = _voltage(solver, x, element.cpos) - _voltage(
                solver, x, element.cneg
            )
            r[element.branch_index] -= element.value(vc)
        elif isinstance(element, FunctionSource):
            values = [_voltage(solver, x, n) for n in element.inputs]
            r[element.branch_index] -= element.value(values)
    return r


def ladder_ac_parts(solver: AcSolver, bias):
    """``G``, ``C`` and ``b`` of the AC system, stamped per element."""
    mna = solver._mna
    size = mna._size
    G, _ = ladder_assemble(mna, bias, 0.0, None, None, None)
    C = np.zeros((size, size))
    b = np.zeros(size, dtype=complex)
    for element in solver.circuit.elements:
        if isinstance(element, Capacitor):
            c = element.capacitance
            i, j = mna._index(element.n1), mna._index(element.n2)
            _stamp(C, i, i, c)
            _stamp(C, j, j, c)
            _stamp(C, i, j, -c)
            _stamp(C, j, i, -c)
        elif (
            isinstance(element, VoltageSource)
            and element.name == solver.ac_source
        ):
            b[element.branch_index] += 1.0
    return G, C, b


class LadderSystem(_NewtonSystem):
    """A Newton solve's system, stamped per element by the ladder."""

    def __init__(self, solver, t, dt, prev, switch_controls):
        super().__init__(solver.stamps, t, dt, prev, switch_controls)
        self._ladder = (solver, t, dt, prev, switch_controls)

    def __call__(self, x):
        solver, *args = self._ladder
        return ladder_assemble(solver, x, *args)

    def residual(self, x):
        solver, *args = self._ladder
        return ladder_residual(solver, x, *args)


class LadderSolver(MnaSolver):
    """An :class:`MnaSolver` whose Newton systems stamp per element."""

    def _system(self, t, dt, prev, switch_controls):
        return LadderSystem(self, t, dt, prev, switch_controls)


# ---------------------------------------------------------------------------
# Circuits
# ---------------------------------------------------------------------------


def every_element() -> Circuit:
    """One circuit with every element type and the stamping edge cases."""
    c = Circuit("every element")
    c.vsource("VIN", "in", "GND", sin_wave(0.6, 1e3))
    c.vsource("VCTL", "ctl", "0", sin_wave(1.0, 2e3))
    c.isource("IB", "0", "mid", dc(2e-4))
    c.resistor("R1", "in", "mid", 1e3)
    c.resistor("R2", "mid", "0", 2e3)
    c.capacitor("C1", "mid", "0", 1e-7, ic=0.3)
    c.capacitor("C2", "gnd", "hold", 2e-7, ic=-0.2)
    c.capacitor("C3", "mid", "hold", 5e-8)
    c.switch("S1", "mid", "hold", "ctl", threshold=0.0)
    c.switch("S2", "hold", "0", "ctl", threshold=0.2, invert=True)
    c.resistor("R3", "hold", "gnd", 5e3)
    c.vcvs("E1", "buf", "0", "hold", "GND", 1.5)
    c.resistor("R4", "buf", "0", 1e4)
    c.vccs("G1", "mid", "0", "buf", "hold", 1e-5)
    c.saturating_vcvs("A1", "amp", "0", "0", "mid", 20.0, 1.5)
    c.resistor("R5", "amp", "0", 1e4)
    # Inputs: an ordinary node, ground, the output itself (feedback)
    # and the same node twice.
    c.function_source(
        "F1", "fx", ["buf", "0", "fx", "mid", "mid"],
        lambda a, g, y, m1, m2: 0.3 * math.tanh(a + m1 * m2) - 0.1 * y + g,
    )
    c.resistor("R6", "fx", "0", 1e4)
    return c


@pytest.fixture(scope="module")
def verify_circuits(verification_inputs):
    return verification_inputs(0.5)


# ---------------------------------------------------------------------------
# Assembly identity
# ---------------------------------------------------------------------------


class TestAssembly:
    @pytest.fixture
    def solver(self):
        return MnaSolver(every_element())

    def _states(self, solver, seed):
        rng = np.random.default_rng(seed)
        for _ in range(25):
            x = rng.uniform(-1.5, 1.5, solver._size)
            prev = rng.uniform(-1.5, 1.5, solver._size)
            yield x, prev, float(rng.uniform(0.0, 2e-3))

    def test_dc_matches_ladder(self, solver):
        for x, _, t in self._states(solver, 1):
            A, b = _NewtonSystem(solver.stamps, t, None, None, None)(x)
            A_ref, b_ref = ladder_assemble(solver, x, t, None, None, None)
            assert np.array_equal(A, A_ref)
            assert np.array_equal(b, b_ref)

    def test_transient_matches_ladder(self, solver):
        for x, prev, t in self._states(solver, 2):
            for dt in (1e-6, 3.7e-5):
                system = _NewtonSystem(solver.stamps, t, dt, prev, prev)
                A, b = system(x)
                A_ref, b_ref = ladder_assemble(solver, x, t, dt, prev, prev)
                assert np.array_equal(A, A_ref)
                assert np.array_equal(b, b_ref)

    def test_residual_matches_ladder(self, solver):
        for x, prev, t in self._states(solver, 4):
            for dt in (None, 1e-6, 3.7e-5):
                step_prev = None if dt is None else prev
                system = _NewtonSystem(
                    solver.stamps, t, dt, step_prev, step_prev
                )
                expected = ladder_residual(
                    solver, x, t, dt, step_prev, step_prev
                )
                assert np.array_equal(system.residual(x), expected)

    def test_capacitor_initial_conditions_match_ladder(self, solver):
        # With no previous step the capacitor companions use ``ic``.
        for x, _, t in self._states(solver, 3):
            A, b = _NewtonSystem(solver.stamps, t, 1e-6, None, x)(x)
            A_ref, b_ref = ladder_assemble(solver, x, t, 1e-6, None, x)
            assert np.array_equal(A, A_ref)
            assert np.array_equal(b, b_ref)

    def test_dc_switches_follow_the_iterate(self, solver):
        # One system, iterates on both sides of the switch thresholds:
        # the linear matrix must follow every flip.
        system = _NewtonSystem(solver.stamps, 0.0, None, None, None)
        ctl = solver._index("ctl")
        for level in (1.0, -1.0, 0.1, 1.0):
            x = np.full(solver._size, 0.05)
            x[ctl] = level
            A, _ = system(x)
            A_ref, _ = ladder_assemble(solver, x, 0.0, None, None, None)
            assert np.array_equal(A, A_ref)


# ---------------------------------------------------------------------------
# Analysis identity
# ---------------------------------------------------------------------------


def _transient_pair(circuit: Circuit, t_end, dt):
    registry = metrics()
    results = []
    for cls in (MnaSolver, LadderSolver):
        before = registry.counter("spice.mna.factorizations")
        sim = cls(circuit).transient(t_end, dt)
        results.append(
            (sim, registry.counter("spice.mna.factorizations") - before)
        )
    return results


def _assert_same(pair):
    (sim, count), (ref, ref_count) = pair
    assert np.array_equal(sim.time, ref.time)
    assert sim.voltages.keys() == ref.voltages.keys()
    for node in ref.voltages:
        assert np.array_equal(sim[node], ref[node]), node
    assert count == ref_count


class TestAnalyses:
    def test_every_element_transient_matches_ladder(self):
        _assert_same(_transient_pair(every_element(), 2e-3, 1e-5))

    def test_every_element_dc_matches_ladder(self):
        # The same Newton loop reports the same unconverged solves, too.
        reports = []
        for cls in (MnaSolver, LadderSolver):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                reports.append(cls(every_element()).dc_operating_point())
            reports.append([str(w.message) for w in caught])
        op, messages, ref, ref_messages = reports
        assert op == ref
        assert messages == ref_messages

    @pytest.mark.parametrize(
        "name", ["receiver", "biquad", "squarer", "figure8"]
    )
    def test_verify_transient_matches_ladder(self, verify_circuits, name):
        circuit, t_end, dt = verify_circuits[name]
        _assert_same(_transient_pair(circuit.circuit, t_end, dt))

    def test_ground_probe_reads_zero(self):
        sim = MnaSolver(every_element()).transient(
            1e-4, 1e-5, probes=["gnd", "mid"]
        )
        assert np.array_equal(sim["gnd"], np.zeros(10))


class TestAcParity:
    @pytest.mark.parametrize("name", ["biquad", "receiver"])
    def test_system_matches_ladder(self, verify_circuits, name):
        circuit = verify_circuits[name][0].circuit
        solver = AcSolver(circuit)
        bias = solver._bias()
        stamps = solver._mna.stamps
        G_ref, C_ref, b_ref = ladder_ac_parts(solver, bias)
        assert np.array_equal(stamps.linearize(bias), G_ref)
        assert np.array_equal(stamps.capacitance(), C_ref)
        b = np.zeros(solver._size, dtype=complex)
        b[solver._ac_branch] += 1.0
        assert np.array_equal(b, b_ref)

    def test_every_element_system_matches_ladder(self):
        solver = AcSolver(every_element(), ac_source="VIN")
        bias = solver._bias()
        G_ref, C_ref, _ = ladder_ac_parts(solver, bias)
        assert np.array_equal(solver._mna.stamps.linearize(bias), G_ref)
        assert np.array_equal(solver._mna.stamps.capacitance(), C_ref)

    def test_bode_sweep_matches_ladder(self):
        netlist = synthesize(biquad_filter.VASS_SOURCE).netlist
        circuit = elaborate(netlist, input_waves={"vin": dc(0.0)})
        out = circuit.output_nodes["vlp"]
        response = ac_sweep(
            circuit.circuit, 10.0, 100e3, points_per_decade=50,
            probes=[out], ac_source="VIN_vin",
        )
        solver = AcSolver(circuit.circuit, ac_source="VIN_vin")
        G, C, b = ladder_ac_parts(solver, solver._bias())
        frequencies = response.frequencies
        backend = resolve_backend(size=solver._size, grid=len(frequencies))
        guard = AnalysisGuard("AC", "oracle", solver._mna.unknown_labels, "")
        expected = solver._solve_grid(backend, guard, frequencies, G, C, b)
        index = solver._mna._index(out)
        assert np.array_equal(response.voltages[out], expected[:, index])


# ---------------------------------------------------------------------------
# Work the Newton loop no longer repeats
# ---------------------------------------------------------------------------


@pytest.fixture
def assembly_log(monkeypatch):
    """Every ``StampTable.assemble`` call as ``(rhs, x)``.

    One Newton solve assembles against one right-hand side object, so
    runs of the same ``rhs`` are the assemblies of one solve (the log
    keeps every ``rhs`` alive, so none is mistaken for another).
    """
    from repro.spice.mna import StampTable

    log = []
    assemble = StampTable.assemble

    def logged(self, x, linear, rhs):
        log.append((rhs, x.copy()))
        return assemble(self, x, linear, rhs)

    monkeypatch.setattr(StampTable, "assemble", logged)
    return log


@pytest.fixture
def linear_builds(monkeypatch):
    """The ``(dt, switch state)`` of every linear matrix built."""
    from repro.spice.mna import StampTable

    keys = []
    build = StampTable._build_linear

    def logged(self, dt, switch_state):
        keys.append((dt, tuple(switch_state)))
        return build(self, dt, switch_state)

    monkeypatch.setattr(StampTable, "_build_linear", logged)
    return keys


def _repeated_assemblies(log):
    return sum(
        1
        for (rhs, x), (next_rhs, next_x) in zip(log, log[1:])
        if rhs is next_rhs and np.array_equal(x, next_x)
    )


class TestNewtonWork:
    @pytest.mark.parametrize(
        "name", ["receiver", "biquad", "squarer", "figure8"]
    )
    def test_no_iterate_is_assembled_twice_in_a_row(
        self, verify_circuits, assembly_log, name
    ):
        circuit, t_end, dt = verify_circuits[name]
        before = metrics().counter("spice.mna.assemblies")
        MnaSolver(circuit.circuit).transient(t_end, dt)
        assert assembly_log
        assert _repeated_assemblies(assembly_log) == 0
        published = metrics().counter("spice.mna.assemblies") - before
        assert published == len(assembly_log)

    def test_dc_assembles_each_iterate_once(self, assembly_log):
        MnaSolver(every_element()).dc_operating_point()
        assert assembly_log
        assert _repeated_assemblies(assembly_log) == 0

    def test_transient_builds_each_key_once(
        self, verify_circuits, linear_builds
    ):
        circuit, t_end, dt = verify_circuits["receiver"]
        MnaSolver(circuit.circuit).transient(t_end, dt)
        assert 1 <= len(linear_builds) <= 2
        assert len(set(linear_builds)) == len(linear_builds)

    def test_switching_transient_builds_each_key_once(self, linear_builds):
        # The control is a sine, so both switches flip many times.
        MnaSolver(every_element()).transient(2e-3, 1e-5)
        assert len(set(linear_builds)) == len(linear_builds) > 1

    def test_memo_lasts_one_analysis(self, linear_builds):
        solver = MnaSolver(every_element())
        solver.transient(1e-4, 1e-5)
        first = len(linear_builds)
        solver.transient(1e-4, 1e-5)
        assert len(linear_builds) == 2 * first
        assert not solver.stamps._linear_memo

    def test_dc_flip_back_reuses_the_matrix(self, linear_builds):
        solver = MnaSolver(every_element())
        system = _NewtonSystem(solver.stamps, 0.0, None, None, None)
        ctl = solver._index("ctl")
        for level in (1.0, -1.0, 1.0, -1.0):
            x = np.full(solver._size, 0.05)
            x[ctl] = level
            A, _ = system(x)
            A_ref, _ = ladder_assemble(solver, x, 0.0, None, None, None)
            assert np.array_equal(A, A_ref)
        assert len(linear_builds) == 2

    def test_memoized_matrix_is_read_only(self):
        stamps = MnaSolver(every_element()).stamps
        state = (True, False)
        matrix = stamps.linear(1e-6, state)
        assert stamps.linear(1e-6, state) is matrix
        with pytest.raises(ValueError):
            matrix[0, 0] = 1.0
        A, _ = stamps.assemble(
            np.zeros(matrix.shape[0]), matrix, np.zeros(matrix.shape[0])
        )
        A[0, 0] = 1.0  # assembly works on a copy
        assert matrix[0, 0] != 1.0

    def test_exhausted_solves_are_counted(self):
        solver = MnaSolver(every_element())
        registry = metrics()
        before = registry.counter("spice.mna.newton_exhausted")
        with pytest.warns(
            NumericalWarning, match=r"converge in 1 solve\(s\).*, at DC,"
        ):
            with solver._analysis():
                solver._newton(
                    np.zeros(solver._size), 0.0, None, None, None,
                    max_iter=1,
                )
        assert registry.counter("spice.mna.newton_exhausted") == before + 1
        divider = Circuit("divider")
        divider.vsource("V1", "in", "0", 1.0)
        divider.resistor("R1", "in", "out", 1e3)
        divider.resistor("R2", "out", "0", 1e3)
        MnaSolver(divider).dc_operating_point()  # converges
        assert registry.counter("spice.mna.newton_exhausted") == before + 1
