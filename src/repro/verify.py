"""Equivalence checking between specification and synthesized circuit.

Section 6 of the paper validates synthesis by simulating the produced
circuits and observing their output signals.  This module packages that
methodology: a :class:`EquivalenceReport` compares the VHIF
interpreter's execution of the *specification semantics* against the
MNA transient of the *synthesized op-amp netlist* on the same stimuli,
and summarizes the deviation.

Typical use::

    result = synthesize(SOURCE)
    report = verify_equivalence(
        result, inputs={"vin": sin_wave(0.5, 1e3)}, t_end=2e-3,
    )
    assert report.passed
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Dict, List, Mapping, Optional

import numpy as np

from repro.diagnostics import SimulationError
from repro.flow import SynthesisResult
from repro.spice.netlister import elaborate
from repro.vhif.interp import Interpreter

Stimulus = Callable[[float], float]


@dataclass
class OutputComparison:
    """Deviation statistics for one output port."""

    port: str
    rms_error: float
    max_error: float
    #: the behavioral trace's peak magnitude
    reference_scale: float

    @property
    def floored(self) -> bool:
        """Whether the reference peaks below
        :attr:`EquivalenceReport.scale_floor`, which then stands in for
        its scale."""
        return self.reference_scale < EquivalenceReport.scale_floor

    @property
    def relative_rms(self) -> float:
        return self.rms_error / max(
            self.reference_scale, EquivalenceReport.scale_floor
        )

    def describe(self) -> str:
        if self.floored:
            scale = (
                f"{EquivalenceReport.scale_floor:.3f} V floor; the "
                f"reference peaks at {self.reference_scale:.3f} V"
            )
        else:
            scale = f"{self.reference_scale:.3f} V scale"
        return (
            f"{self.port}: rms error {self.rms_error*1e3:.2f} mV "
            f"({self.relative_rms*100:.1f} % of {scale}), max "
            f"{self.max_error*1e3:.2f} mV"
        )


@dataclass
class EquivalenceReport:
    """Outcome of a specification-vs-circuit comparison."""

    comparisons: List[OutputComparison] = field(default_factory=list)
    tolerance: float = 0.05
    settle_fraction: float = 0.1
    #: the smallest scale (V) an rms error is judged against, so an
    #: output that barely moves is not judged against its own ~0 V
    #: peak; below every swing the Section-6 checks compare (0.37 V up)
    scale_floor: ClassVar[float] = 0.1

    @property
    def passed(self) -> bool:
        return all(
            c.relative_rms <= self.tolerance for c in self.comparisons
        )

    def describe(self) -> str:
        status = "EQUIVALENT" if self.passed else "DEVIATES"
        lines = [f"{status} (tolerance {self.tolerance*100:.0f} % rms):"]
        lines.extend("  " + c.describe() for c in self.comparisons)
        return "\n".join(lines)


def verify_equivalence(
    result: SynthesisResult,
    inputs: Optional[Mapping[str, Stimulus]] = None,
    t_end: float = 2e-3,
    dt: float = 2e-6,
    tolerance: float = 0.05,
    control_waves: Optional[Mapping[str, Stimulus]] = None,
    outputs: Optional[List[str]] = None,
) -> EquivalenceReport:
    """Compare behavioral and circuit-level outputs on shared stimuli.

    The first ``settle_fraction`` of both traces is discarded (op-amp
    macromodels and integrator companions need a few steps to bias up),
    then per-output RMS deviation is measured relative to the
    behavioral trace's peak magnitude, or to
    :attr:`EquivalenceReport.scale_floor` when that is larger.  Raises
    :class:`SimulationError` when ``tolerance`` is not positive or there
    is no quantity output to compare.
    """
    if not tolerance > 0:
        raise SimulationError(
            f"verification tolerance must be positive, got {tolerance:g}"
        )
    inputs = dict(inputs or {})
    design = result.design
    if outputs is not None:
        ports = list(outputs)
    else:
        ports = [
            name
            for name, info in design.ports.items()
            if info.direction == "out"
        ]
    if not ports:
        message = f"design {design.name!r} has no quantity output to compare"
        signals = sorted(
            {signal for fsm in design.fsms for signal in fsm.output_signals()}
        )
        if signals:
            message += (
                f"; its outputs are signals ({', '.join(signals)}), which "
                "the transient check does not probe"
            )
        raise SimulationError(message)

    # --- behavioral reference ------------------------------------------
    interp = Interpreter(result.design, dt=dt, inputs=inputs)
    behavioral = interp.run(t_end, probes=ports)

    # --- synthesized circuit -------------------------------------------
    circuit = elaborate(
        result.netlist, input_waves=inputs, control_waves=control_waves
    )
    probe_nodes = [circuit.output_nodes[p] for p in ports]
    sim = circuit.transient(t_end, dt, probes=probe_nodes)

    report = EquivalenceReport(tolerance=tolerance)
    skip = int(len(behavioral.time) * report.settle_fraction)
    for port, node in zip(ports, probe_nodes):
        reference = behavioral[port][skip:]
        measured = sim[node][skip:]
        n = min(len(reference), len(measured))
        reference, measured = reference[:n], measured[:n]
        error = measured - reference
        report.comparisons.append(
            OutputComparison(
                port=port,
                rms_error=float(np.sqrt(np.mean(error**2))),
                max_error=float(np.max(np.abs(error))),
                reference_scale=float(np.max(np.abs(reference))),
            )
        )
    return report
