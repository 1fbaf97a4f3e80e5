"""Small-signal AC analysis for the MNA substrate.

Complements the transient engine with frequency-domain analysis: the
circuit is linearized about its DC operating point and solved with
complex phasors over a frequency sweep — SPICE's ``.AC`` analysis.
Used to verify filter responses and op-amp macromodel bandwidth.

The system is assembled from the transient engine's
:class:`~repro.spice.mna.StampTable`, so there is one set of stamps for
DC, transient and AC.  ``A(ω) = G + jω·C``: ``G`` is the DC Jacobian at
the operating point and ``C`` holds the capacitor stamps.  Nonlinear
elements are thereby linearized at the operating point:

* :class:`~repro.spice.mna.SaturatingVcvs` becomes a VCVS with the
  tanh's local slope;
* :class:`~repro.spice.mna.FunctionSource` becomes a linear combination
  of its inputs with the numeric partial derivatives;
* switches take their operating-point state (on/off resistance).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.diagnostics import SimulationError
from repro.instrument import metrics, trace_phase
from repro.robust.guards import check_finite
from repro.spice.linalg import (
    AnalysisGuard,
    BatchedSolver,
    DenseSolver,
    LinearSolver,
    guarded_solve,
    resolve_backend,
)
from repro.spice.mna import Circuit, MnaSolver


@dataclass
class AcResult:
    """Complex node voltages over the swept frequencies."""

    frequencies: np.ndarray
    voltages: Dict[str, np.ndarray]

    def magnitude(self, node: str) -> np.ndarray:
        return np.abs(self.voltages[node])

    def magnitude_db(self, node: str) -> np.ndarray:
        return 20.0 * np.log10(np.maximum(self.magnitude(node), 1e-30))

    def phase_deg(self, node: str) -> np.ndarray:
        return np.degrees(np.angle(self.voltages[node]))

    def cutoff_frequency(self, node: str, drop_db: float = 3.0) -> float:
        """Frequency where the response falls ``drop_db`` below its
        low-frequency value (log-interpolated between sweep points)."""
        mags = self.magnitude_db(node)
        reference = mags[0]
        target = reference - drop_db
        below = np.nonzero(mags <= target)[0]
        if len(below) == 0:
            return float("inf")
        index = int(below[0])
        if index == 0:
            return float(self.frequencies[0])
        f0, f1 = self.frequencies[index - 1], self.frequencies[index]
        m0, m1 = mags[index - 1], mags[index]
        if m1 == m0:
            return float(f1)
        fraction = (target - m0) / (m1 - m0)
        return float(10 ** (
            math.log10(f0) + fraction * (math.log10(f1) - math.log10(f0))
        ))

    def peak_frequency(self, node: str) -> float:
        """Frequency of the magnitude peak (resonance detection)."""
        mags = self.magnitude(node)
        return float(self.frequencies[int(np.argmax(mags))])


class AcSolver:
    """Linearized frequency-domain solver over one :class:`Circuit`."""

    def __init__(self, circuit: Circuit, ac_source: Optional[str] = None):
        """``ac_source`` names the voltage source carrying the 1 V AC
        stimulus; by default the first voltage source is used."""
        self.circuit = circuit
        self._mna = MnaSolver(circuit)
        self._size = self._mna._size
        self._operating_point = None
        sources = self._mna.stamps.voltage_sources
        if not sources:
            raise SimulationError("AC analysis needs a voltage source")
        by_name = {source.name: source for source in sources}
        if ac_source is None:
            ac_source = sources[0].name
        elif ac_source not in by_name:
            raise SimulationError(f"no voltage source named {ac_source!r}")
        self.ac_source = ac_source
        self._ac_branch = by_name[ac_source].branch_index

    # -- operating point -----------------------------------------------------

    def _bias(self) -> np.ndarray:
        if self._operating_point is None:
            with self._mna._analysis():
                op = self._mna._newton(
                    np.zeros(self._size), 0.0, None, None, None
                )
            self._operating_point = op
        return self._operating_point

    # -- sweep ------------------------------------------------------------------

    def _solve_grid(
        self,
        backend: LinearSolver,
        guard: AnalysisGuard,
        frequencies: np.ndarray,
        G: np.ndarray,
        C: np.ndarray,
        b: np.ndarray,
    ) -> np.ndarray:
        """All frequency points' solutions, ``(n_points, n)``.

        The batched backend factorizes the whole ``(m, n, n)`` stack in
        one call; when that stack contains a singular point the gufunc
        cannot name the offending frequency, so the sweep falls back to
        the dense per-point loop — which reproduces the located error
        (and per-point counters) exactly.
        """
        omegas = 2.0 * math.pi * frequencies
        if isinstance(backend, BatchedSolver):
            A_stack = (
                G[np.newaxis, :, :]
                + (1j * omegas)[:, np.newaxis, np.newaxis]
                * C[np.newaxis, :, :]
            )
            try:
                solutions = backend.solve_grid(A_stack, b)
            except np.linalg.LinAlgError:
                metrics().inc("spice.linalg.batched_fallbacks")
                backend = DenseSolver()
            else:
                guard.factorizations += len(frequencies)
                guard.check_condition(A_stack[0])
                return solutions
        solutions = np.empty((len(frequencies), self._size), dtype=complex)
        for i, f in enumerate(frequencies):
            A = G + (1j * omegas[i]) * C
            solutions[i] = guarded_solve(
                backend, A, b, guard, where=f" at {f} Hz"
            )
        return solutions

    def sweep(
        self,
        f_start: float,
        f_stop: float,
        points_per_decade: int = 20,
        probes: Optional[Sequence[str]] = None,
    ) -> AcResult:
        """Logarithmic frequency sweep (SPICE ``.AC DEC``)."""
        if f_start <= 0 or f_stop <= f_start:
            raise SimulationError("need 0 < f_start < f_stop")
        if points_per_decade < 1:
            raise SimulationError(
                f"need points_per_decade >= 1, got {points_per_decade}"
            )
        names = probes if probes is not None else self.circuit.node_names
        for name in names:
            if name not in self.circuit._nodes:
                raise SimulationError(f"unknown probe node {name!r}")
        decades = math.log10(f_stop / f_start)
        n_points = max(2, int(round(decades * points_per_decade)) + 1)
        frequencies = np.logspace(
            math.log10(f_start), math.log10(f_stop), n_points
        )
        # A(ω) = G + jω·C, assembled once per sweep, with one shared
        # right-hand side.
        stamps = self._mna.stamps
        G = stamps.linearize(self._bias())
        C = stamps.capacitance()
        b = np.zeros(self._size, dtype=complex)
        b[self._ac_branch] += 1.0  # 1 V AC stimulus
        backend = resolve_backend(size=self._size, grid=n_points)
        with trace_phase("spice.ac_sweep", points=n_points):
            registry = metrics()
            registry.inc("spice.ac.sweeps")
            registry.inc("spice.ac.points", n_points)
            registry.inc(f"spice.linalg.backend.{backend.name}")
            guard = AnalysisGuard(
                system="AC",
                title=self.circuit.title,
                labels=self._mna.unknown_labels,
                condition_text="the response may be numerically meaningless",
            )
            try:
                solutions = self._solve_grid(
                    backend, guard, frequencies, G, C, b
                )
            finally:
                registry.inc(
                    "spice.mna.factorizations", guard.factorizations
                )
            for i, f in enumerate(frequencies):
                bad = check_finite(solutions[i], self._mna.unknown_labels)
                if bad is not None:
                    raise SimulationError(
                        f"non-finite AC solution at {f} Hz: "
                        f"{', '.join(bad)} went NaN/Inf"
                    )
        return AcResult(
            frequencies=frequencies,
            voltages={
                name: solutions[:, self._mna._index(name)].copy()
                for name in names
            },
        )


def ac_sweep(
    circuit: Circuit,
    f_start: float,
    f_stop: float,
    points_per_decade: int = 20,
    probes: Optional[Sequence[str]] = None,
    ac_source: Optional[str] = None,
) -> AcResult:
    """One-call AC analysis."""
    return AcSolver(circuit, ac_source=ac_source).sweep(
        f_start, f_stop, points_per_decade=points_per_decade, probes=probes
    )
