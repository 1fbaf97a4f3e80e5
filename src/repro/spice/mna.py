"""A small SPICE-class circuit simulator (modified nodal analysis).

Substitute for the Berkeley SPICE runs of the paper's Section 6: the
synthesized net-lists are elaborated into R/C/source/op-amp-macromodel
circuits and simulated in the time domain.

Engine features:

* elements: resistors, capacitors, independent V/I sources (DC, SIN,
  PULSE, PWL and arbitrary Python waveforms), VCVS, VCCS, saturating
  (tanh) VCVS for op-amp macromodels, arbitrary nonlinear function
  sources (for multiplier/log/antilog cores), and control-driven
  switches;
* DC operating point by Newton-Raphson;
* transient analysis by backward-Euler companion models with Newton
  iteration per step (A-stable, no ringing on the switching edges the
  synthesized circuits produce).  Each step's Newton solve starts from
  the solution extrapolated from the last converged ones, up to the
  quartic through five, so a smooth waveform usually converges in one
  chord step (below).  Switches, a Schmitt trigger's among them, act on
  the previous step's solution, so every step has one solution.

Every solver compiles its circuit into a :class:`StampTable` once,
resolving node names to matrix indices at that point.  The table splits
the stamps by how often they change: the linear matrix (gmin, R, C/dt
companions, source branch stamps, controlled-source gains, switches at
their current state) is built once per ``(dt, switch state)`` within
one analysis and reused from a memo after that; the right-hand side
(source waveforms, capacitor companions) once per Newton solve, which
in a transient means once per time step, so waveforms must be pure
functions of ``t``; and only the Newton-linearized
:class:`SaturatingVcvs` / :class:`FunctionSource` stamps are applied on
every assembly.  Newton checks its points without assembling: a
point's residual is the linear matrix times it, minus the right-hand
side, minus each nonlinear element's value on its own branch row.
``(A, b)`` is assembled only at a point that gets a solve, so every
assembly is followed by one factorization.  A transient keeps the last
matrix it factorized and, the first time a later step needs it, its
inverse (one more factorization, through the same guard).  A step whose
linear matrix is the one that matrix was assembled on takes chord steps
``x ← x − A⁻¹·r(x)``, each a residual and a matrix-vector product, and
is done once a chord step lands below the tolerance.  It always takes
one, so a step costs at least two residuals and its start is never
accepted on its own.  A chord step that does not shrink the residual
by :data:`CHORD_CONTRACTION` hands the solve to a full Newton, whose
last matrix is kept instead.
DC, transient and AC (:mod:`repro.spice.ac`) all assemble through this
one table.

Every analysis (a DC solve, a transient, an AC bias point) publishes
its Newton counters once, when it ends, even when it raises:
``spice.mna.assemblies``, ``spice.mna.residuals`` (the residual
evaluations, now the unit of a transient's work),
``spice.mna.factorizations`` (inversions included) and
``spice.mna.newton_exhausted``, the solves that hit ``max_iter`` and
returned their best-effort iterate.  An analysis that ends normally
with any such solve also emits one :class:`NumericalWarning` naming the
count and the first one's time, residual and worst unknown.

Node names are strings; ``"0"`` and ``"gnd"`` are ground.
"""

from __future__ import annotations

import math
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.diagnostics import SimulationError
from repro.instrument import metrics
from repro.robust.guards import NumericalWarning, check_finite
from repro.spice.linalg import (
    AnalysisGuard,
    LinearSolver,
    caller_stacklevel,
    guarded_inverse,
    guarded_solve,
    resolve_backend,
)

GROUND_NAMES = ("0", "gnd", "ground")

#: conductance (S) from every node to ground; keeps floating nodes
#: (an op-amp input driven only through a capacitor) solvable
GMIN = 1e-12

#: a chord step must shrink the residual norm to at most this fraction
#: of its start's (or land below the tolerance), or the solve
#: refactorizes.  Counters over the four ``verify_transient`` inputs
#: (receiver, biquad, squarer, Figure 8; 5000 steps) at 0.05 / 0.1 /
#: 0.25 / 0.5, with quartic starts and one chord step always taken:
#: assemblies 150 / 130 / 97 / 71, inversions 63 / 55 / 34 / 22,
#: residuals 10158 / 10207 / 10420 / 10668.  A residual and its norm
#: cost ~6 µs, an assembly and its solve ~19 µs, an inversion ~22 µs
#: (25 unknowns, 2-vCPU host), so the four cost within 1.5 % of each
#: other.  0.1 was chosen with quadratic starts, which needed more
#: chord steps: there looser factors traded a factorization for many
#: slowly contracting chord steps.
CHORD_CONTRACTION = 0.1

Waveform = Callable[[float], float]

#: the weights of the transient's Newton starts, by how many converged
#: solutions they extrapolate (the oldest first): each evaluates the
#: polynomial through them at the fixed step one step on, from the
#: previous solution up to the quartic ``5·(x₁ − x₄) + 10·(x₃ − x₂) +
#: x₅``, with ``x₁`` the latest
_EXTRAPOLATION: Tuple[np.ndarray, ...] = tuple(
    np.array(weights) for weights in (
        (1.0,),
        (-1.0, 2.0),
        (1.0, -3.0, 3.0),
        (-1.0, 4.0, -6.0, 4.0),
        (1.0, -5.0, 10.0, -10.0, 5.0),
    )
)


def dc(value: float) -> Waveform:
    """Constant source."""
    return lambda t: value


def sin_wave(
    amplitude: float, freq_hz: float, offset: float = 0.0, phase: float = 0.0
) -> Waveform:
    """SPICE SIN() source."""
    omega = 2.0 * math.pi * freq_hz
    return lambda t: offset + amplitude * math.sin(omega * t + phase)


def pulse_wave(
    v1: float,
    v2: float,
    delay: float,
    rise: float,
    fall: float,
    width: float,
    period: float,
) -> Waveform:
    """SPICE PULSE() source."""

    def value(t: float) -> float:
        if t < delay:
            return v1
        phase = (t - delay) % period
        if phase < rise:
            return v1 + (v2 - v1) * phase / max(rise, 1e-15)
        if phase < rise + width:
            return v2
        if phase < rise + width + fall:
            return v2 + (v1 - v2) * (phase - rise - width) / max(fall, 1e-15)
        return v1

    return value


def pwl_wave(points: Sequence[Tuple[float, float]]) -> Waveform:
    """SPICE PWL() source."""
    pts = sorted(points)

    def value(t: float) -> float:
        if t <= pts[0][0]:
            return pts[0][1]
        for (t0, v0), (t1, v1) in zip(pts, pts[1:]):
            if t <= t1:
                if t1 == t0:
                    return v1
                return v0 + (v1 - v0) * (t - t0) / (t1 - t0)
        return pts[-1][1]

    return value


# ---------------------------------------------------------------------------
# Elements
# ---------------------------------------------------------------------------


@dataclass
class _Element:
    name: str


@dataclass
class Resistor(_Element):
    n1: str
    n2: str
    resistance: float


@dataclass
class Capacitor(_Element):
    n1: str
    n2: str
    capacitance: float
    ic: float = 0.0


@dataclass
class VoltageSource(_Element):
    npos: str
    nneg: str
    waveform: Waveform
    branch_index: int = -1


@dataclass
class CurrentSource(_Element):
    npos: str
    nneg: str
    waveform: Waveform


@dataclass
class Vcvs(_Element):
    """E element: v(npos,nneg) = gain * v(cpos,cneg)."""

    npos: str
    nneg: str
    cpos: str
    cneg: str
    gain: float
    branch_index: int = -1


@dataclass
class Vccs(_Element):
    """G element: i(npos->nneg) = gm * v(cpos,cneg)."""

    npos: str
    nneg: str
    cpos: str
    cneg: str
    gm: float


@dataclass
class SaturatingVcvs(_Element):
    """Op-amp gain stage: v_out = vmax * tanh(gain * v_c / vmax).

    Smoothly limits at ±vmax; the tanh derivative keeps Newton stable.
    """

    npos: str
    nneg: str
    cpos: str
    cneg: str
    gain: float
    vmax: float
    branch_index: int = -1

    def value(self, vc: float) -> float:
        return self.vmax * math.tanh(self.gain * vc / self.vmax)

    def derivative(self, vc: float) -> float:
        """The slope ``gain * sech²``, its magnitude floored at 1e-9 so
        a saturated stage keeps a nonzero Jacobian entry of its sign."""
        x = self.gain * vc / self.vmax
        if abs(x) > 40.0:
            return math.copysign(1e-9, self.gain)
        sech2 = 1.0 / math.cosh(x) ** 2
        return math.copysign(max(abs(self.gain * sech2), 1e-9), self.gain)


@dataclass
class FunctionSource(_Element):
    """Grounded voltage source computing v_out = fn(v(inputs...)).

    Used for translinear cores (multiplier, divider, log, antilog) and
    comparator decision functions.  Jacobian entries come from numeric
    differentiation; functions should be smooth (use tanh, not step).
    """

    nout: str
    inputs: List[str]
    fn: Callable[..., float]
    branch_index: int = -1

    def value(self, values: Sequence[float]) -> float:
        return float(self.fn(*values))

    def partials(self, values: Sequence[float]) -> List[float]:
        base = self.value(values)
        grads: List[float] = []
        for i in range(len(values)):
            step = 1e-6 * max(abs(values[i]), 1.0)
            bumped = list(values)
            bumped[i] += step
            grads.append((self.value(bumped) - base) / step)
        return grads


@dataclass
class Switch(_Element):
    """Voltage-controlled switch: R = ron when v(c) > threshold else roff.

    The control voltage is sampled from the *previous* Newton solution /
    time step, which keeps the conductance matrix constant within a step
    (no discontinuity inside the Newton loop).
    """

    n1: str
    n2: str
    control: str
    threshold: float = 0.5
    ron: float = 100.0
    roff: float = 1.0e9
    invert: bool = False


# ---------------------------------------------------------------------------
# Circuit
# ---------------------------------------------------------------------------


class Circuit:
    """An MNA circuit under construction."""

    def __init__(self, title: str = "circuit"):
        self.title = title
        self._elements: List[_Element] = []
        self._nodes: Dict[str, int] = {}
        self._names: set = set()

    # -- construction -------------------------------------------------------

    def _node(self, name: str) -> int:
        if name.lower() in GROUND_NAMES:
            return -1
        index = self._nodes.get(name)
        if index is None:
            index = len(self._nodes)
            self._nodes[name] = index
        return index

    def _register(self, element: _Element) -> None:
        if element.name in self._names:
            raise SimulationError(f"duplicate element name {element.name!r}")
        self._names.add(element.name)
        self._elements.append(element)

    def resistor(self, name: str, n1: str, n2: str, resistance: float) -> None:
        if resistance <= 0:
            raise SimulationError(f"resistor {name!r} must be positive")
        self._node(n1), self._node(n2)
        self._register(Resistor(name, n1, n2, resistance))

    def capacitor(
        self, name: str, n1: str, n2: str, capacitance: float, ic: float = 0.0
    ) -> None:
        if capacitance <= 0:
            raise SimulationError(f"capacitor {name!r} must be positive")
        self._node(n1), self._node(n2)
        self._register(Capacitor(name, n1, n2, capacitance, ic))

    def vsource(self, name: str, npos: str, nneg: str, waveform) -> None:
        if not callable(waveform):
            waveform = dc(float(waveform))
        self._node(npos), self._node(nneg)
        self._register(VoltageSource(name, npos, nneg, waveform))

    def isource(self, name: str, npos: str, nneg: str, waveform) -> None:
        if not callable(waveform):
            waveform = dc(float(waveform))
        self._node(npos), self._node(nneg)
        self._register(CurrentSource(name, npos, nneg, waveform))

    def vcvs(
        self, name: str, npos: str, nneg: str, cpos: str, cneg: str, gain: float
    ) -> None:
        for n in (npos, nneg, cpos, cneg):
            self._node(n)
        self._register(Vcvs(name, npos, nneg, cpos, cneg, gain))

    def vccs(
        self, name: str, npos: str, nneg: str, cpos: str, cneg: str, gm: float
    ) -> None:
        for n in (npos, nneg, cpos, cneg):
            self._node(n)
        self._register(Vccs(name, npos, nneg, cpos, cneg, gm))

    def saturating_vcvs(
        self,
        name: str,
        npos: str,
        nneg: str,
        cpos: str,
        cneg: str,
        gain: float,
        vmax: float,
    ) -> None:
        if vmax <= 0:
            raise SimulationError(
                f"saturating VCVS {name!r} vmax must be positive"
            )
        for n in (npos, nneg, cpos, cneg):
            self._node(n)
        self._register(SaturatingVcvs(name, npos, nneg, cpos, cneg, gain, vmax))

    def function_source(
        self, name: str, nout: str, inputs: Sequence[str], fn
    ) -> None:
        self._node(nout)
        for n in inputs:
            self._node(n)
        self._register(FunctionSource(name, nout, list(inputs), fn))

    def switch(
        self,
        name: str,
        n1: str,
        n2: str,
        control: str,
        threshold: float = 0.5,
        ron: float = 100.0,
        roff: float = 1.0e9,
        invert: bool = False,
    ) -> None:
        self._node(n1), self._node(n2), self._node(control)
        self._register(Switch(name, n1, n2, control, threshold, ron, roff, invert))

    # -- queries --------------------------------------------------------------

    @property
    def node_names(self) -> List[str]:
        return sorted(self._nodes, key=self._nodes.get)  # type: ignore[arg-type]

    @property
    def elements(self) -> List[_Element]:
        return list(self._elements)

    def n_nodes(self) -> int:
        return len(self._nodes)


# ---------------------------------------------------------------------------
# Compiled stamps
# ---------------------------------------------------------------------------

class StampTable:
    """Every element's MNA stamps, compiled once per solver.

    Node names are resolved to matrix indices here (ground is ``-1``),
    and ground rows and columns are dropped.  Matrix terms are kept in
    element order and every entry is summed in that order, so each
    assembly is bit-identical to stamping element by element.  The
    nonlinear stamps touch only their own branch row, whose linear
    entries all precede them in element order; applying them last, on
    top of the linear matrix, keeps that order.

    :meth:`linear` memoizes its matrices by ``(dt, switch state)``
    until :meth:`forget` is called, which every analysis does when it
    begins and ends.  The memoized matrices are read-only.
    """

    def __init__(
        self,
        circuit: Circuit,
        index: Callable[[str], int],
        n_nodes: int,
        size: int,
    ):
        self._size = size
        #: flat matrix position and constant value of every linear term
        self._entries: List[int] = []
        self._values: List[float] = []
        #: (term, capacitance, sign): value is sign * capacitance / dt
        self._cap_terms: List[Tuple[int, float, float]] = []
        #: (term, switch number, sign): value is sign / (ron or roff)
        self._switch_terms: List[Tuple[int, int, float]] = []
        #: the nonlinear elements, with what :meth:`residual` reads
        #: compiled out of them: ``(element, k, ci, cj, gain, vmax)``
        #: per saturating VCVS and ``(element, k, inputs, fn)`` per
        #: function source, ``k`` the element's branch row
        self._saturating: List[
            Tuple[SaturatingVcvs, int, int, int, float, float]
        ] = []
        self._functions: List[
            Tuple[FunctionSource, int, List[int], Callable[..., float]]
        ] = []
        #: right-hand-side terms ``(i, j, waveform, scale, ic)`` in
        #: element order, each adding a value to ``b[i]`` and taking it
        #: off ``b[j]``: ``scale · waveform(t)`` for a source (scale
        #: ±1), ``capacitance / dt · v_prev`` for a capacitor's
        #: companion (no waveform; ``v_prev`` is ``ic`` at the start)
        self._sources: List[
            Tuple[int, int, Optional[Waveform], float, float]
        ] = []
        self.capacitors: List[Tuple[Capacitor, int, int]] = []
        self._switches: List[Tuple[Switch, int]] = []
        self.voltage_sources: List[VoltageSource] = []
        self._linear_memo: Dict[
            Tuple[Optional[float], Tuple[bool, ...]], np.ndarray
        ] = {}
        #: :meth:`assemble` and :meth:`residual` calls over the table's
        #: life
        self.assemblies = 0
        self.residuals = 0

        def term(i: int, j: int, value: float = 0.0) -> Optional[int]:
            if i < 0 or j < 0:
                return None
            self._entries.append(i * size + j)
            self._values.append(value)
            return len(self._entries) - 1

        def conductance(i: int, j: int, value: float = 0.0) -> List[tuple]:
            placed = []
            for a, b, sign in (
                (i, i, 1.0), (j, j, 1.0), (i, j, -1.0), (j, i, -1.0)
            ):
                position = term(a, b, sign * value)
                if position is not None:
                    placed.append((position, sign))
            return placed

        def branch(i: int, j: int, k: int) -> None:
            term(i, k, 1.0)
            term(j, k, -1.0)
            term(k, i, 1.0)
            term(k, j, -1.0)

        for i in range(n_nodes):
            term(i, i, GMIN)
        for element in circuit.elements:
            if isinstance(element, Resistor):
                i, j = index(element.n1), index(element.n2)
                conductance(i, j, 1.0 / element.resistance)
            elif isinstance(element, Switch):
                i, j = index(element.n1), index(element.n2)
                number = len(self._switches)
                self._switches.append((element, index(element.control)))
                for position, sign in conductance(i, j):
                    self._switch_terms.append((position, number, sign))
            elif isinstance(element, Capacitor):
                i, j = index(element.n1), index(element.n2)
                self.capacitors.append((element, i, j))
                self._sources.append(
                    (i, j, None, element.capacitance, element.ic)
                )
                for position, sign in conductance(i, j):
                    self._cap_terms.append(
                        (position, element.capacitance, sign)
                    )
            elif isinstance(element, CurrentSource):
                i, j = index(element.npos), index(element.nneg)
                self._sources.append((i, j, element.waveform, -1.0, 0.0))
            elif isinstance(element, VoltageSource):
                i, j = index(element.npos), index(element.nneg)
                k = element.branch_index
                branch(i, j, k)
                self.voltage_sources.append(element)
                self._sources.append((k, -1, element.waveform, 1.0, 0.0))
            elif isinstance(element, Vcvs):
                i, j = index(element.npos), index(element.nneg)
                ci, cj = index(element.cpos), index(element.cneg)
                k = element.branch_index
                branch(i, j, k)
                term(k, ci, -element.gain)
                term(k, cj, element.gain)
            elif isinstance(element, Vccs):
                i, j = index(element.npos), index(element.nneg)
                ci, cj = index(element.cpos), index(element.cneg)
                term(i, ci, element.gm)
                term(i, cj, -element.gm)
                term(j, ci, -element.gm)
                term(j, cj, element.gm)
            elif isinstance(element, SaturatingVcvs):
                i, j = index(element.npos), index(element.nneg)
                ci, cj = index(element.cpos), index(element.cneg)
                branch(i, j, element.branch_index)
                self._saturating.append((
                    element, element.branch_index, ci, cj,
                    element.gain, element.vmax,
                ))
            elif isinstance(element, FunctionSource):
                out, k = index(element.nout), element.branch_index
                term(out, k, 1.0)
                term(k, out, 1.0)
                self._functions.append((
                    element, k, [index(n) for n in element.inputs],
                    element.fn,
                ))
            else:  # pragma: no cover - defensive
                raise SimulationError(
                    f"unknown element type {type(element).__name__}"
                )
        capacitor_terms = {position for position, _, _ in self._cap_terms}
        #: the terms of a DC system, where capacitors are open
        self._dc_terms = [
            position for position in range(len(self._entries))
            if position not in capacitor_terms
        ]

    def switch_state(self, controls: np.ndarray) -> Tuple[bool, ...]:
        """Every switch's on/off state under the control voltages."""
        v = controls.tolist()
        v.append(0.0)  # v[-1] is ground
        return tuple(
            (v[control] > switch.threshold) != switch.invert
            for switch, control in self._switches
        )

    def linear(
        self, dt: Optional[float], switch_state: Sequence[bool]
    ) -> np.ndarray:
        """The matrix of every linear stamp (capacitors open at DC),
        read-only, built once per ``(dt, switch_state)`` until
        :meth:`forget`."""
        key = (dt, tuple(switch_state))
        matrix = self._linear_memo.get(key)
        if matrix is None:
            matrix = self._build_linear(dt, switch_state)
            matrix.flags.writeable = False
            self._linear_memo[key] = matrix
        return matrix

    def forget(self) -> None:
        """Drop the memoized linear matrices."""
        self._linear_memo.clear()

    def _build_linear(
        self, dt: Optional[float], switch_state: Sequence[bool]
    ) -> np.ndarray:
        values = list(self._values)
        for position, number, sign in self._switch_terms:
            switch = self._switches[number][0]
            values[position] = sign * (
                1.0 / (switch.ron if switch_state[number] else switch.roff)
            )
        if dt is None:
            terms: Sequence[int] = self._dc_terms
        else:
            for position, capacitance, sign in self._cap_terms:
                values[position] = sign * (capacitance / dt)
            terms = range(len(values))
        return self._matrix(terms, values)

    def capacitance(self) -> np.ndarray:
        """The capacitance matrix ``C`` of the AC system ``G + jωC``."""
        values = list(self._values)
        for position, capacitance, sign in self._cap_terms:
            values[position] = sign * capacitance
        return self._matrix([t for t, _, _ in self._cap_terms], values)

    def _matrix(self, terms: Sequence[int], values: List[float]) -> np.ndarray:
        flat = [0.0] * (self._size * self._size)
        entries = self._entries
        for position in terms:
            flat[entries[position]] += values[position]
        return np.array(flat).reshape(self._size, self._size)

    def rhs(
        self, t: float, dt: Optional[float], prev: Optional[np.ndarray]
    ) -> np.ndarray:
        """Source values and capacitor companions at time ``t``."""
        b = [0.0] * (self._size + 1)  # b[-1] absorbs ground stamps
        p = None
        if prev is not None:
            p = prev.tolist()
            p.append(0.0)
        for i, j, waveform, scale, ic in self._sources:
            if waveform is not None:
                value = scale * waveform(t)
            elif dt is None:
                continue  # a capacitor is open at DC
            else:
                value = scale / dt * (ic if p is None else p[i] - p[j])
            b[i] += value
            b[j] -= value
        return np.array(b[:-1])

    def assemble(
        self, x: np.ndarray, linear: np.ndarray, rhs: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(A, b)`` at iterate ``x``: the nonlinear stamps, linearized
        at ``x``, on top of copies of the linear matrix and ``rhs``."""
        self.assemblies += 1
        A = linear.copy()
        b = rhs.copy()
        if not (self._saturating or self._functions):
            return A, b
        v = x.tolist()
        v.append(0.0)  # v[-1] is ground
        flat = A.reshape(-1)
        size = self._size
        for element, k, ci, cj, _, _ in self._saturating:
            vc = v[ci] - v[cj]
            f = element.value(vc)
            df = element.derivative(vc)
            # v(out) = f(vc0) + df*(vc - vc0)  (Newton linearization)
            if ci >= 0:
                flat[k * size + ci] += -df
            if cj >= 0:
                flat[k * size + cj] += df
            b[k] += f - df * vc
        for element, k, inputs, _ in self._functions:
            values = [v[i] for i in inputs]
            rhs_k = element.value(values)
            for i, grad in zip(inputs, element.partials(values)):
                if i >= 0:
                    flat[k * size + i] += -grad
                rhs_k -= grad * v[i]
            b[k] += rhs_k
        return A, b

    def residual(
        self, x: np.ndarray, linear: np.ndarray, rhs: np.ndarray
    ) -> np.ndarray:
        """``A x - b`` of the system :meth:`assemble` builds at ``x``,
        without building it.  A nonlinear stamp's derivative terms
        cancel on its own branch row ``k``, leaving
        ``(linear x - rhs)[k] - f``, so only the element values are
        needed: no derivative, no numeric partial, no matrix copy.
        They are computed inline, as :meth:`SaturatingVcvs.value` and
        :meth:`FunctionSource.value` compute them."""
        self.residuals += 1
        r = linear @ x - rhs
        if not (self._saturating or self._functions):
            return r
        v = x.tolist()
        v.append(0.0)  # v[-1] is ground
        tanh = math.tanh
        for _, k, ci, cj, gain, vmax in self._saturating:
            r[k] -= vmax * tanh(gain * (v[ci] - v[cj]) / vmax)
        for _, k, inputs, fn in self._functions:
            r[k] -= float(fn(*[v[i] for i in inputs]))
        return r

    def linearize(self, x: np.ndarray) -> np.ndarray:
        """The DC Jacobian at ``x``, switches in ``x``'s state: the
        small-signal conductance matrix about an operating point."""
        linear = self.linear(None, self.switch_state(x))
        return self.assemble(x, linear, np.zeros(self._size))[0]


class _NewtonSystem:
    """The MNA system of one Newton solve (one ``t``): ``(A, b)`` at a
    point that gets a solve, and the residual at any point without
    assembling."""

    def __init__(
        self,
        table: StampTable,
        t: float,
        dt: Optional[float],
        prev: Optional[np.ndarray],
        switch_controls: Optional[np.ndarray],
    ):
        self._table = table
        self._dt = dt
        self._rhs = table.rhs(t, dt, prev)
        # In a transient the switches follow the previous step, so the
        # linear matrix is fixed for the whole solve.  At DC they follow
        # the iterate, and the matrix changes whenever one flips.
        self._follow_iterate = switch_controls is None
        self._state: Optional[Tuple[bool, ...]] = None
        self._linear: Optional[np.ndarray] = None
        if switch_controls is not None:
            self._state = table.switch_state(switch_controls)
            self._linear = table.linear(dt, self._state)

    @property
    def linear(self) -> Optional[np.ndarray]:
        """The memoized linear matrix of the last point stamped (in a
        transient, of the whole solve)."""
        return self._linear

    def _linear_at(self, x: np.ndarray) -> np.ndarray:
        if self._follow_iterate:
            state = self._table.switch_state(x)
            if state != self._state:
                self._state = state
                self._linear = self._table.linear(self._dt, state)
        return self._linear

    def __call__(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        return self._table.assemble(x, self._linear_at(x), self._rhs)

    def residual(self, x: np.ndarray) -> np.ndarray:
        """``A x - b`` at ``x``, without assembling ``(A, b)``."""
        return self._table.residual(x, self._linear_at(x), self._rhs)


@dataclass
class _KeptFactorization:
    """A transient's last factorized matrix, the memoized linear matrix
    it was assembled on, and its inverse once a later step needs it."""

    linear: np.ndarray
    matrix: np.ndarray
    inverse: Optional[np.ndarray] = None


# ---------------------------------------------------------------------------
# Analyses
# ---------------------------------------------------------------------------


@dataclass
class TransientResult:
    """Node voltages over time."""

    time: np.ndarray
    voltages: Dict[str, np.ndarray]

    def __getitem__(self, node: str) -> np.ndarray:
        return self.voltages[node]

    def final(self, node: str) -> float:
        return float(self.voltages[node][-1])


class MnaSolver:
    """Assembles and solves the MNA system of a :class:`Circuit`."""

    #: the node-to-ground conductance every assembly stamps
    gmin = GMIN

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        self._n = circuit.n_nodes()
        # Assign branch currents to every voltage-defining element.
        self._branches = 0
        branch_labels: List[str] = []
        for element in circuit.elements:
            if isinstance(
                element, (VoltageSource, Vcvs, SaturatingVcvs, FunctionSource)
            ):
                element.branch_index = self._n + self._branches
                self._branches += 1
                branch_labels.append(f"i({element.name})")
        self._size = self._n + self._branches
        #: human-readable label of every MNA unknown, in matrix order:
        #: node voltages first, then branch currents — used to name
        #: suspects in singular-matrix and non-finite errors.
        self.unknown_labels: List[str] = [
            f"v({name})" for name in circuit.node_names
        ] + branch_labels
        #: the numerical-guard boundary every factorization goes
        #: through: singular-suspect naming, the once-per-analysis
        #: condition estimate
        self._guard = AnalysisGuard(
            system="MNA",
            title=circuit.title,
            labels=self.unknown_labels,
            condition_text="voltages may be numerically meaningless",
        )
        self._backend: Optional[LinearSolver] = None
        #: Newton solves that hit ``max_iter``, over this solver's life
        self._exhausted = 0
        #: the current analysis's first exhausted solve: ``(t or None
        #: at DC, residual, worst unknown's label)``
        self._first_exhausted: Optional[
            Tuple[Optional[float], float, str]
        ] = None
        self.stamps = StampTable(
            circuit, self._index, self._n, self._size
        )
        #: the last factorization of the current transient, for the
        #: next step's chord iterations
        self._kept: Optional[_KeptFactorization] = None

    # -- helpers -----------------------------------------------------------------

    def _index(self, node: str) -> int:
        if node.lower() in GROUND_NAMES:
            return -1
        return self.circuit._nodes[node]

    def _solver_backend(self) -> LinearSolver:
        """The linear-solver backend of this analysis (resolved, and
        counted, on the first solve)."""
        if self._backend is None:
            self._backend = resolve_backend(size=self._size)
            metrics().inc(f"spice.linalg.backend.{self._backend.name}")
        return self._backend

    def _check_solution_finite(
        self, x: np.ndarray, t: Optional[float] = None
    ) -> None:
        """Raise a located error when the solution went NaN/Inf."""
        bad = check_finite(x, self.unknown_labels)
        if bad is None:
            return
        where = f" at t={t:g} s" if t is not None else " at DC"
        raise SimulationError(
            f"non-finite solution{where}: {', '.join(bad)} went NaN/Inf "
            "(check element values and source waveforms)"
        )

    # -- Newton solve ------------------------------------------------------------

    def _system(
        self,
        t: float,
        dt: Optional[float],
        prev: Optional[np.ndarray],
        switch_controls: Optional[np.ndarray],
    ) -> _NewtonSystem:
        """The system of one Newton solve, which does all its stamping."""
        return _NewtonSystem(self.stamps, t, dt, prev, switch_controls)

    def _newton(
        self,
        x0: np.ndarray,
        t: float,
        dt: Optional[float],
        prev: Optional[np.ndarray],
        switch_controls: Optional[np.ndarray],
        max_iter: int = 80,
        tol: float = 1e-9,
    ) -> np.ndarray:
        """Chord steps from the kept factorization, then damped Newton
        with a residual-norm line search.

        A transient step whose linear matrix is the one the kept
        factorization was assembled on first runs :meth:`_chord`; when
        a chord step lands below ``tol`` the step is done without
        assembling.  Otherwise the solve assembles and factorizes at
        the chord's last point, and from there on it is plain Newton.
        High-gain saturating stages (tanh with A = 2e4) make plain
        Newton oscillate between the rails; backtracking on the
        residual norm keeps every accepted step a true improvement.

        Every point is checked through :meth:`_NewtonSystem.residual`,
        which assembles nothing; ``(A, b)`` is assembled only at a point
        that gets a solve, so every assembly feeds one
        ``guarded_solve``.  Outside the chord, the start's own residual
        is computed only when a candidate's is not already below
        ``tol``.  A transient solve that converges keeps its last
        matrix for the next step's chord; a DC solve and an exhausted
        solve keep none.  Runs inside :meth:`_analysis`, which publishes
        the assembly, residual, factorization and exhausted-solve
        counts.
        """
        x = x0.copy()
        if not x.size:
            return x
        system = self._system(t, dt, prev, switch_controls)

        def norm(point: np.ndarray) -> float:
            return float(np.abs(system.residual(point)).max())

        backend = self._solver_backend()
        # The residual norm at ``x``, once a line search needs it.
        residual: Optional[float] = None
        kept, self._kept = self._kept, None
        if kept is not None and kept.linear is system.linear:
            x, residual, converged = self._chord(
                system, kept, x, t, max_iter, tol, backend
            )
            if converged:
                self._kept = kept
                return x
        for _ in range(max_iter):
            A, b = system(x)
            # The guard boundary owns the singular error (with suspect
            # naming), the success/failure factorization counts, and
            # the once-per-analysis condition estimate.
            x_new = guarded_solve(
                backend, A, b, self._guard, where=f" at t={t:g} s"
            )
            step = x_new - x
            delta = float(np.abs(step).max())
            if delta < tol:
                x = x_new
                break
            # Backtracking line search on the residual norm.
            alpha = 1.0
            accepted = False
            for _try in range(10):
                candidate = x + alpha * step
                cand_residual = norm(candidate)
                # ``not <``: a NaN candidate, too, needs the start's
                # residual, and the comparison below rejects it.
                if residual is None and not cand_residual < tol:
                    residual = norm(x)
                if cand_residual < tol or (
                    cand_residual <= residual * (1.0 - 1e-4 * alpha)
                ):
                    x, residual = candidate, cand_residual
                    accepted = True
                    break
                alpha *= 0.5
            if not accepted:
                # Take the smallest step anyway to escape flat spots.
                x = x + alpha * step
                residual = norm(x)
            if residual < tol:
                break
        else:
            self._exhausted += 1
            if self._first_exhausted is None:
                r = np.abs(system.residual(x))
                self._first_exhausted = (
                    None if dt is None else t,
                    float(r.max()),
                    self.unknown_labels[int(r.argmax())],
                )
            return x  # best effort; _analysis warns when the analysis ends
        if dt is not None:
            self._kept = _KeptFactorization(system.linear, A)
        return x

    def _chord(
        self,
        system: _NewtonSystem,
        kept: _KeptFactorization,
        x: np.ndarray,
        t: float,
        max_iter: int,
        tol: float,
        backend: LinearSolver,
    ) -> Tuple[np.ndarray, float, bool]:
        """Chord iterations ``x ← x − A⁻¹·r(x)`` with the kept matrix's
        inverse, inverted through the guard on first use.

        The first step is always taken, so the start is never accepted
        on its own residual: ``tol`` mixes units (amperes on KCL rows,
        volts on branch rows), and a start off by volts can pass it on
        a node whose conductances are all nanosiemens.  A step is kept
        only when it lands below ``tol``, which converges the solve, or
        shrinks the residual norm by :data:`CHORD_CONTRACTION`.
        Returns the last point kept (the start if none was), its
        residual norm, and whether the solve converged."""
        if kept.inverse is None:
            kept.inverse = guarded_inverse(
                backend, kept.matrix, self._guard, where=f" at t={t:g} s"
            )
        r = system.residual(x)
        residual = float(np.abs(r).max())
        for _ in range(max_iter):
            candidate = x - kept.inverse @ r
            r_candidate = system.residual(candidate)
            cand_residual = float(np.abs(r_candidate).max())
            if cand_residual < tol:
                return candidate, cand_residual, True
            # ``not`` also stops on a NaN candidate.
            if not cand_residual <= CHORD_CONTRACTION * residual:
                break
            x, r, residual = candidate, r_candidate, cand_residual
        return x, residual, False

    @contextmanager
    def _analysis(self) -> Iterator[None]:
        """One analysis (a DC solve, a transient, an AC bias point): the
        scope of the linear-matrix memo, and of the Newton counters it
        publishes when it ends.  An analysis that ends normally with an
        exhausted Newton solve warns once."""
        self.stamps.forget()
        self._kept = None
        assemblies, exhausted = self.stamps.assemblies, self._exhausted
        residuals = self.stamps.residuals
        factorizations = self._guard.factorizations
        self._first_exhausted = None
        try:
            yield
        finally:
            self.stamps.forget()
            self._kept = None
            registry = metrics()
            registry.inc(
                "spice.mna.assemblies", self.stamps.assemblies - assemblies
            )
            registry.inc(
                "spice.mna.residuals", self.stamps.residuals - residuals
            )
            registry.inc(
                "spice.mna.factorizations",
                self._guard.factorizations - factorizations,
            )
            registry.inc(
                "spice.mna.newton_exhausted", self._exhausted - exhausted
            )
        if self._first_exhausted is not None:
            t, residual, worst = self._first_exhausted
            where = "at DC" if t is None else f"at t={t:g} s"
            warnings.warn(
                f"Newton did not converge in {self._exhausted - exhausted} "
                f"solve(s) of {self.circuit.title!r}; the first, {where}, "
                f"stopped at residual {residual:.2e} with {worst} the "
                "worst unknown; those points are best-effort iterates",
                NumericalWarning,
                stacklevel=caller_stacklevel(),
            )

    # -- public analyses ----------------------------------------------------------------

    def operating_point(self) -> np.ndarray:
        """Newton DC solution (capacitors open), every unknown in
        matrix order: the bias point of the DC and AC analyses."""
        self._guard.reset()
        with self._analysis():
            x = self._newton(np.zeros(self._size), 0.0, None, None, None)
            self._check_solution_finite(x)
        return x

    def dc_operating_point(self) -> Dict[str, float]:
        """Newton DC solution (capacitors open), by node name."""
        x = self.operating_point()
        return {
            name: float(x[index])
            for name, index in self.circuit._nodes.items()
        }

    def transient(
        self,
        t_end: float,
        dt: float,
        probes: Optional[Sequence[str]] = None,
    ) -> TransientResult:
        """Backward-Euler transient from t=0.

        Each step's Newton solve starts at the polynomial through the
        converged solutions so far, extrapolated one step (the initial
        state counts as one): step 1 at the initial state, step 2 at
        the linear ``2·x₁ − x₀``, and so on up to the quartic ``5·(x₁ −
        x₄) + 10·(x₃ − x₂) + x₅`` from step 5 on.  The history restarts
        after an exhausted solve: the next step starts at its
        best-effort point, and no later start extrapolates through it.
        Switches follow the previous step's solution, so every state a
        circuit keeps (a capacitor's charge, a Schmitt trigger's
        branch, which the netlister builds from switches) is the
        previous step's and each step has one solution: the start
        changes only how many iterations it takes and, within the
        Newton tolerance, where they stop.  From step 2 on, a step
        first takes chord steps with the last factorization (see
        :meth:`_newton`), at least one, unless a switch flipped since
        it was made.
        """
        if dt <= 0 or t_end <= 0:
            raise SimulationError("dt and t_end must be positive")
        names = probes if probes is not None else self.circuit.node_names
        for name in names:
            if name.lower() not in GROUND_NAMES and name not in self.circuit._nodes:
                raise SimulationError(f"unknown probe node {name!r}")
        n_steps = int(round(t_end / dt))
        if n_steps == 0:
            raise SimulationError(
                f"t_end={t_end:g} s rounds to zero steps of dt={dt:g} s"
            )
        self._guard.reset()
        times = np.empty(n_steps)
        # Row 0 is the initial state, row k the solution of step k.
        states = np.zeros((n_steps + 1, self._size))
        # Seed node voltages from capacitor initial conditions.
        for element, i, j in self.stamps.capacitors:
            if element.ic != 0.0:
                if i >= 0 and j < 0:
                    states[0, i] = element.ic
                elif j >= 0 and i < 0:
                    states[0, j] = -element.ic
        # A start extrapolates the rows from ``first`` on, the last
        # five at most: the converged solutions since the last
        # exhausted solve (the initial state counts).  Right after an
        # exhausted solve there are none, and the step starts at the
        # best-effort point itself.
        first = 0
        with self._analysis():
            for step in range(1, n_steps + 1):
                t = step * dt
                prev = states[step - 1]
                count = min(step - first, len(_EXTRAPOLATION))
                if count:
                    start = _EXTRAPOLATION[count - 1] @ states[
                        step - count:step
                    ]
                else:
                    start = prev
                exhausted = self._exhausted
                x = self._newton(
                    start, t, dt, prev=prev, switch_controls=prev
                )
                if self._exhausted != exhausted:
                    # Only an exhausted solve can return a non-finite
                    # point: a converged one stopped on a residual or a
                    # step below ``tol``, and a NaN or inf in ``x``
                    # makes both NaN or inf.
                    self._check_solution_finite(x, t=t)
                    first = step + 1
                times[step - 1] = t
                states[step] = x
        voltages = {}
        for name in names:
            index = self._index(name)
            voltages[name] = (
                np.zeros(n_steps) if index < 0 else states[1:, index].copy()
            )
        return TransientResult(time=times, voltages=voltages)


def simulate_transient(
    circuit: Circuit,
    t_end: float,
    dt: float,
    probes: Optional[Sequence[str]] = None,
) -> TransientResult:
    """One-call transient analysis."""
    return MnaSolver(circuit).transient(t_end, dt, probes=probes)
