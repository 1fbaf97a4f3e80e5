"""Tests for the linear-solver backends (repro.spice.linalg).

The correctness bar: every backend produces *identical* results — same
AC responses, same error messages on singular systems — so the choice
``resolve_backend`` makes never changes what an analysis reports.
Backends are compared by pinning both engines to one of them with the
``force_backend`` fixture.
"""

import numpy as np
import pytest

from repro.apps import ALL_APPLICATIONS
from repro.diagnostics import SimulationError
from repro.flow import synthesize
from repro.instrument import metrics
from repro.instrument.events import CATEGORY_METRIC, telemetry
from repro.spice import dc, elaborate
from repro.spice import linalg as linalg_module
from repro.spice.ac import ac_sweep
from repro.spice.linalg import (
    HAVE_SCIPY,
    BatchedSolver,
    DenseSolver,
    SparseSolver,
    resolve_backend,
)
from repro.spice.mna import Circuit, simulate_transient


def rc_ladder(n_sections=5, r=1e3, c=1e-8):
    """An n-section RC ladder driven by one source."""
    circuit = Circuit()
    circuit.vsource("VIN", "n0", "0", dc(0.0))
    for i in range(n_sections):
        circuit.resistor(f"R{i}", f"n{i}", f"n{i + 1}", r)
        circuit.capacitor(f"C{i}", f"n{i + 1}", "0", c)
    return circuit


def random_systems(m=7, n=6, seed=11):
    """A stack of well-conditioned complex systems + one shared RHS."""
    rng = np.random.default_rng(seed)
    stack = rng.normal(size=(m, n, n)) + 1j * rng.normal(size=(m, n, n))
    stack += n * np.eye(n)  # diagonally dominant -> well-conditioned
    b = rng.normal(size=n) + 1j * rng.normal(size=n)
    return stack, b


class TestBackendSelection:
    def test_auto_picks_dense_for_small_single_solves(self):
        assert isinstance(resolve_backend(size=8), DenseSolver)

    def test_auto_picks_batched_for_grids(self):
        assert isinstance(resolve_backend(size=8, grid=100), BatchedSolver)

    @pytest.mark.skipif(not HAVE_SCIPY, reason="needs scipy")
    def test_auto_picks_sparse_past_threshold(self):
        size = linalg_module.SPARSE_THRESHOLD
        assert isinstance(resolve_backend(size=size), SparseSolver)
        assert isinstance(resolve_backend(size=size, grid=100), SparseSolver)
        assert isinstance(resolve_backend(size=size - 1), DenseSolver)

    def test_auto_never_picks_sparse_without_scipy(self, monkeypatch):
        monkeypatch.setattr(linalg_module, "HAVE_SCIPY", False)
        size = linalg_module.SPARSE_THRESHOLD
        assert isinstance(resolve_backend(size=size), DenseSolver)
        assert isinstance(resolve_backend(size=size, grid=100), BatchedSolver)


class TestSolverEquivalence:
    def test_batched_matches_dense_loop(self):
        stack, b = random_systems()
        dense = DenseSolver().solve_grid(stack, b)
        batched = BatchedSolver().solve_grid(stack, b)
        assert np.allclose(dense, batched, rtol=1e-12, atol=0.0)

    @pytest.mark.skipif(not HAVE_SCIPY, reason="needs scipy")
    def test_sparse_matches_dense(self):
        stack, b = random_systems()
        dense = DenseSolver().solve_grid(stack, b)
        sparse = SparseSolver().solve_grid(stack, b)
        assert np.allclose(dense, sparse, rtol=1e-12, atol=1e-12)

    def test_batched_raises_linalgerror_on_singular_point(self):
        stack, b = random_systems()
        stack[3] = 0.0
        with pytest.raises(np.linalg.LinAlgError):
            BatchedSolver().solve_grid(stack, b)

    @pytest.mark.skipif(not HAVE_SCIPY, reason="needs scipy")
    def test_sparse_normalizes_singular_to_linalgerror(self):
        singular = np.zeros((3, 3), dtype=complex)
        with pytest.raises(np.linalg.LinAlgError):
            SparseSolver().solve(singular, np.ones(3, dtype=complex))


#: the backends a parity test can pin (sparse needs scipy)
BACKEND_NAMES = ("dense", "batched") + (("sparse",) if HAVE_SCIPY else ())


class TestAcBackendParity:
    @pytest.mark.parametrize("backend", BACKEND_NAMES[1:])
    def test_ladder_response_matches_dense(self, backend, force_backend):
        force_backend("dense")
        reference = ac_sweep(
            rc_ladder(), 10.0, 1e6, points_per_decade=20, probes=["n5"],
        )
        force_backend(backend)
        other = ac_sweep(
            rc_ladder(), 10.0, 1e6, points_per_decade=20, probes=["n5"],
        )
        assert np.array_equal(reference.frequencies, other.frequencies)
        assert np.allclose(
            reference.voltages["n5"], other.voltages["n5"],
            rtol=1e-12, atol=0.0,
        )

    def test_backend_metric_published(self):
        # A small grid selects batched for the sweep and dense for the
        # bias point; both choices land on their counters.
        registry = metrics()
        batched = registry.counter("spice.linalg.backend.batched")
        dense = registry.counter("spice.linalg.backend.dense")
        ac_sweep(rc_ladder(), 10.0, 1e4, probes=["n5"])
        assert registry.counter("spice.linalg.backend.batched") == batched + 1
        assert registry.counter("spice.linalg.backend.dense") == dense + 1


class TestGuardParity:
    """Singular systems fail identically on every backend."""

    def _singular_message(self):
        with pytest.raises(SimulationError) as err:
            ac_sweep(rc_ladder(), 10.0, 1e4, probes=["n5"])
        return str(err.value)

    def test_batched_fallback_reproduces_dense_error(
        self, force_backend, singular_ac
    ):
        registry = metrics()
        before = registry.counter("spice.linalg.batched_fallbacks")
        force_backend("dense")
        dense_message = self._singular_message()
        force_backend("batched")
        batched_message = self._singular_message()
        assert batched_message == dense_message
        assert "singular AC matrix at" in batched_message
        assert (
            registry.counter("spice.linalg.batched_fallbacks")
            == before + 1
        )

    def test_mna_singular_fault_names_time(self):
        # Two ideal sources forcing different voltages on one node.
        circuit = rc_ladder()
        circuit.vsource("VX", "n0", "0", dc(1.0))
        with pytest.raises(
            SimulationError, match=r"singular MNA matrix at t=1e-06 s"
        ):
            simulate_transient(circuit, t_end=1e-5, dt=1e-6)


class TestFactorizationCounters:
    """Satellite: successes-only counting plus a failures counter."""

    def test_success_counts_factorizations_not_failures(self):
        registry = metrics()
        ok_before = registry.counter("spice.mna.factorizations")
        bad_before = registry.counter("spice.mna.factorization_failures")
        simulate_transient(rc_ladder(), t_end=1e-5, dt=1e-6)
        assert registry.counter("spice.mna.factorizations") > ok_before
        assert (
            registry.counter("spice.mna.factorization_failures")
            == bad_before
        )

    def test_failed_factorization_counts_failure_only(
        self, force_backend, singular_ac
    ):
        force_backend("dense")
        registry = metrics()
        bad_before = registry.counter("spice.mna.factorization_failures")
        ok_before = registry.counter("spice.mna.factorizations")
        with pytest.raises(SimulationError):
            ac_sweep(rc_ladder(), 10.0, 1e4, probes=["n5"])
        # The DC bias point solves fine; the first AC point fails
        # and must not land on the success counter.
        ok_after = registry.counter("spice.mna.factorizations")
        assert (
            registry.counter("spice.mna.factorization_failures")
            > bad_before
        )
        assert ok_after >= ok_before  # successes never decremented
        with pytest.raises(SimulationError):
            ac_sweep(rc_ladder(), 10.0, 1e4, probes=["n5"])
        # Identical failing sweep: the success counter gained only
        # the bias-point factorizations, no AC-point successes.
        gained = registry.counter("spice.mna.factorizations") - ok_after
        assert gained == ok_after - ok_before


class TestFactorizationEvents:
    def test_transient_publishes_one_event_with_the_whole_count(self):
        registry = metrics()
        before = registry.counter("spice.mna.factorizations")
        seen = []
        with telemetry() as bus:
            bus.subscribe(seen.append)
            simulate_transient(rc_ladder(), t_end=1e-5, dt=1e-6)
        counted = registry.counter("spice.mna.factorizations") - before
        assert counted >= 10  # at least one per step
        published = [
            event.payload for event in seen
            if event.category == CATEGORY_METRIC
            and event.payload.get("name") == "spice.mna.factorizations"
        ]
        assert published == [{
            "kind": "counter",
            "name": "spice.mna.factorizations",
            "delta": counted,
        }]


def _app_sources():
    return sorted(ALL_APPLICATIONS.items())


@pytest.mark.parametrize(
    "name,app", _app_sources(), ids=[n for n, _ in _app_sources()]
)
class TestTable1Differential:
    """Every Table-1 app: matching AC sweeps on every backend."""

    def test_ac_responses_allclose_across_backends(
        self, name, app, force_backend
    ):
        result = synthesize(app.VASS_SOURCE)
        in_ports = [
            p for p, info in result.design.ports.items()
            if info.direction == "in"
        ]
        out_ports = [
            p for p, info in result.design.ports.items()
            if info.direction == "out"
        ]
        if not in_ports or not out_ports:
            pytest.skip(f"{name} has no in/out port pair")
        circuit = elaborate(
            result.netlist,
            input_waves={p: dc(0.0) for p in in_ports},
        )
        probe = circuit.output_nodes[out_ports[0]]
        responses = {}
        for backend in BACKEND_NAMES:
            force_backend(backend)
            responses[backend] = ac_sweep(
                circuit.circuit, 10.0, 1e5, points_per_decade=10,
                probes=[probe], ac_source=f"VIN_{in_ports[0]}",
            )
        reference = responses["dense"].voltages[probe]
        # batched runs the same LAPACK path and matches exactly;
        # sparse (SuperLU) may differ by a few ulps of rounding.
        assert np.array_equal(
            reference, responses["batched"].voltages[probe]
        ), f"{name}: batched diverged from dense"
        if HAVE_SCIPY:
            assert np.allclose(
                reference, responses["sparse"].voltages[probe], rtol=1e-12
            ), f"{name}: sparse diverged from dense"
