"""Unit tests for the numerical guards and their solver integration."""

import warnings

import numpy as np
import pytest

from repro.diagnostics import SimulationError
from repro.flow import synthesize
from repro.instrument import metrics
from repro.robust.guards import (
    ILL_CONDITION_THRESHOLD,
    NumericalWarning,
    check_finite,
    condition_estimate,
    singular_suspects,
)
from repro.spice import elaborate
from repro.spice.ac import ac_sweep
from repro.spice.mna import Circuit, MnaSolver, _NewtonSystem, dc
from tests.test_mna_stamps import every_element

#: ``y = u ** 1.5`` through a log core and an antilog core
LOG_EXP_SOURCE = """
ENTITY e IS PORT (QUANTITY u : IN real; QUANTITY y : OUT real); END ENTITY;
ARCHITECTURE a OF e IS
BEGIN
  y == exp(1.5 * log(u));
END ARCHITECTURE;
"""


class TestConditionEstimate:
    def test_identity_is_perfectly_conditioned(self):
        assert condition_estimate(np.eye(4)) == pytest.approx(1.0)

    def test_singular_is_infinite(self):
        matrix = np.array([[1.0, 2.0], [2.0, 4.0]])
        assert condition_estimate(matrix) > 1e15

    def test_empty_matrix_is_benign(self):
        assert condition_estimate(np.zeros((0, 0))) == 1.0

    def test_scale_spread_raises_estimate(self):
        matrix = np.diag([1.0, 1e-14])
        assert condition_estimate(matrix) > ILL_CONDITION_THRESHOLD


class TestSingularSuspects:
    def test_names_the_null_space_unknown(self):
        # Third unknown is fully undetermined.
        matrix = np.diag([1.0, 2.0, 0.0])
        suspects = singular_suspects(matrix, ["v(a)", "v(b)", "v(c)"])
        assert suspects == ["v(c)"]

    def test_nonsingular_names_nothing(self):
        assert singular_suspects(np.eye(3), ["a", "b", "c"]) == []

    def test_empty_matrix_names_nothing(self):
        assert singular_suspects(np.zeros((0, 0)), []) == []

    def test_caps_the_suspect_count(self):
        matrix = np.zeros((5, 5))
        labels = [f"v(n{i})" for i in range(5)]
        suspects = singular_suspects(matrix, labels, max_suspects=2)
        assert len(suspects) == 2

    def test_missing_labels_are_skipped(self):
        matrix = np.diag([1.0, 0.0])
        assert singular_suspects(matrix, ["v(a)"]) == []


class TestCheckFinite:
    def test_all_finite_returns_none(self):
        assert check_finite(np.array([1.0, -2.0, 0.0]), ["a", "b", "c"]) is None

    def test_names_nan_and_inf(self):
        x = np.array([1.0, np.nan, np.inf])
        assert check_finite(x, ["v(a)", "v(b)", "i(c)"]) == ["v(b)", "i(c)"]

    def test_caps_named_offenders(self):
        x = np.full(10, np.nan)
        named = check_finite(x, [f"v(n{i})" for i in range(10)], max_named=3)
        assert len(named) == 3

    def test_unlabeled_index_gets_placeholder(self):
        assert check_finite(np.array([np.nan]), []) == ["#0"]


class TestSolverIntegration:
    def test_unknown_labels_cover_nodes_and_branches(self):
        circuit = Circuit("labels")
        circuit.vsource("V1", "in", "0", dc(1.0))
        circuit.resistor("R1", "in", "out", 1e3)
        circuit.resistor("R2", "out", "0", 1e3)
        solver = MnaSolver(circuit)
        assert "v(in)" in solver.unknown_labels
        assert "v(out)" in solver.unknown_labels
        assert "i(V1)" in solver.unknown_labels
        assert len(solver.unknown_labels) == solver._size

    def test_ill_conditioned_system_warns_once(self):
        # A huge conductance spread pushes the 1-norm condition
        # estimate past the threshold while staying solvable (gmin
        # keeps the matrix regular, so the spread must beat it too).
        circuit = Circuit("spread")
        circuit.vsource("V1", "in", "0", dc(1.0))
        circuit.resistor("R1", "in", "out", 1e-12)
        circuit.resistor("R2", "out", "0", 1e9)
        solver = MnaSolver(circuit)
        with pytest.warns(NumericalWarning, match="ill-conditioned"):
            solver.dc_operating_point()

    def test_well_conditioned_system_is_silent(self):
        circuit = Circuit("tame")
        circuit.vsource("V1", "in", "0", dc(1.0))
        circuit.resistor("R1", "in", "out", 1e3)
        circuit.resistor("R2", "out", "0", 1e3)
        with warnings.catch_warnings():
            warnings.simplefilter("error", NumericalWarning)
            MnaSolver(circuit).dc_operating_point()

    def test_exhausted_newton_warns_once_per_analysis(self):
        # The log→exp core's first step diverges from the all-zero
        # start (the log floor is flat there) and hits max_iter.
        result = synthesize(LOG_EXP_SOURCE)
        solver = MnaSolver(
            elaborate(result.netlist, input_waves={"u": dc(2.0)}).circuit
        )
        newton = solver._newton
        exhausted_steps = []

        def recording(x0, t, dt, prev, switch_controls, **kwargs):
            before = solver._exhausted
            x = newton(x0, t, dt, prev, switch_controls, **kwargs)
            if solver._exhausted > before:
                exhausted_steps.append((t, dt, prev, x))
            return x

        solver._newton = recording
        registry = metrics()
        before = registry.counter("spice.mna.newton_exhausted")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            solver.transient(1e-3, 1e-5)
        exhausted = registry.counter("spice.mna.newton_exhausted") - before
        assert exhausted == len(exhausted_steps) >= 1
        # The other warning is the once-per-analysis condition estimate.
        assert [w.category for w in caught] == [NumericalWarning] * 2
        assert "ill-conditioned" in str(caught[0].message)
        t, dt, prev, x = exhausted_steps[0]
        A, b = _NewtonSystem(solver.stamps, t, dt, prev, prev)(x)
        residual = np.abs(A @ x - b)
        worst = solver.unknown_labels[int(residual.argmax())]
        assert str(caught[1].message) == (
            f"Newton did not converge in {exhausted} solve(s) of 'main'; "
            f"the first, at t={t:g} s, stopped at residual "
            f"{residual.max():.2e} with {worst} the worst unknown; those "
            "points are best-effort iterates"
        )

    def test_failed_analysis_raises_without_the_newton_warning(self):
        # A NaN source exhausts every Newton solve it feeds, but the
        # located non-finite error is the one report.
        circuit = Circuit("nan")
        circuit.vsource("V1", "in", "0", lambda t: float("nan"))
        circuit.resistor("R1", "in", "0", 1e3)
        with warnings.catch_warnings():
            warnings.simplefilter("error", NumericalWarning)
            with pytest.raises(SimulationError, match="non-finite"):
                MnaSolver(circuit).dc_operating_point()


def _log_exp_circuit():
    result = synthesize(LOG_EXP_SOURCE)
    return elaborate(result.netlist, input_waves={"u": dc(2.0)})


class TestWarningLocation:
    """A spice warning names the caller's line, not an engine frame,
    however many ``repro.spice`` frames lie between them."""

    @pytest.mark.parametrize(
        "analysis, kinds",
        [
            (
                lambda: MnaSolver(every_element()).dc_operating_point(),
                {"Newton"},
            ),
            (
                lambda: ac_sweep(
                    every_element(), 10.0, 1e5, points_per_decade=5,
                    probes=["mid"],
                ),
                {"Newton"},
            ),
            (
                lambda: MnaSolver(_log_exp_circuit().circuit).transient(
                    1e-3, 1e-5
                ),
                {"Newton", "MNA"},
            ),
            (
                lambda: _log_exp_circuit().transient(1e-3, 1e-5),
                {"Newton", "MNA"},
            ),
        ],
        ids=["dc", "ac_bias_point", "mna_transient", "elaborated_transient"],
    )
    def test_warning_points_at_the_caller(self, analysis, kinds):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            analysis()
        assert {str(w.message).split()[0] for w in caught} == kinds
        assert [w.filename for w in caught] == [__file__] * len(caught)
