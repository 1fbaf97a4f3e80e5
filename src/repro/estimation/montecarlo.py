"""Monte-Carlo mismatch analysis of synthesized architectures.

Component values in an analog ASIC deviate from nominal (resistor-ratio
mismatch, capacitor tolerance).  This pass estimates how a synthesized
net-list's *function* degrades under such mismatch: each trial perturbs
every gain-setting parameter of every instance by a relative Gaussian
error, re-simulates the behavioral model, and scores the output against
the nominal response.  The resulting yield figure (trials within an
error budget) lets design-space exploration trade area against matching
requirements — a natural companion to the paper's estimation tools.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Mapping, Optional

import numpy as np

from repro.vhif.design import VhifDesign
from repro.vhif.interp import Interpreter
from repro.vhif.sfg import BlockKind

if TYPE_CHECKING:  # avoid an estimation <-> flow import cycle
    from repro.flow import SynthesisResult

Stimulus = Callable[[float], float]

#: block parameters subject to mismatch, per kind
_PERTURBABLE: Dict[BlockKind, List[str]] = {
    BlockKind.SCALE: ["gain"],
    BlockKind.INTEGRATE: ["gain"],
    BlockKind.CONST: ["value"],
    BlockKind.LIMIT: ["low", "high"],
    BlockKind.COMPARATOR: ["threshold"],
}


@dataclass
class MismatchTrial:
    """One Monte-Carlo sample."""

    index: int
    rms_error: float
    max_error: float
    passed: bool


@dataclass
class YieldReport:
    """Aggregate result of a mismatch run."""

    trials: List[MismatchTrial] = field(default_factory=list)
    tolerance: float = 0.0
    error_budget: float = 0.0

    @property
    def n_trials(self) -> int:
        return len(self.trials)

    @property
    def yield_fraction(self) -> float:
        if not self.trials:
            return 0.0
        return sum(1 for t in self.trials if t.passed) / len(self.trials)

    @property
    def mean_rms_error(self) -> float:
        if not self.trials:
            return 0.0
        return float(np.mean([t.rms_error for t in self.trials]))

    @property
    def worst_rms_error(self) -> float:
        if not self.trials:
            return 0.0
        return float(np.max([t.rms_error for t in self.trials]))

    def describe(self) -> str:
        return (
            f"yield {self.yield_fraction*100:.0f} % over {self.n_trials} "
            f"trials at {self.tolerance*100:.1f} % component mismatch "
            f"(mean rms error {self.mean_rms_error*1e3:.2f} mV, worst "
            f"{self.worst_rms_error*1e3:.2f} mV, budget "
            f"{self.error_budget*1e3:.1f} mV)"
        )


def _perturbed_design(
    design: VhifDesign, tolerance: float, rng: random.Random
) -> VhifDesign:
    """A copy of the design with gain parameters Gaussian-perturbed."""
    clone = design.copy()  # FSMs are digital: no mismatch
    for sfg in clone.sfgs:
        for block in sfg.blocks:
            for param in _PERTURBABLE.get(block.kind, ()):
                if param not in block.params:
                    continue
                nominal = float(block.params[param])  # type: ignore[arg-type]
                block.params[param] = nominal * (
                    1.0 + rng.gauss(0.0, tolerance)
                )
    return clone


def mismatch_analysis(
    result: "SynthesisResult",
    inputs: Optional[Mapping[str, Stimulus]] = None,
    output: Optional[str] = None,
    tolerance: float = 0.01,
    n_trials: int = 50,
    error_budget: float = 0.05,
    t_end: float = 1e-3,
    dt: float = 2e-6,
    seed: int = 1234,
) -> YieldReport:
    """Monte-Carlo yield estimate of a synthesized design.

    ``tolerance`` is the 1-sigma relative mismatch of every gain-setting
    parameter; ``error_budget`` is the rms deviation (relative to the
    nominal output scale) a trial may show and still count as passing.
    """
    inputs = dict(inputs or {})
    if output is None:
        outs = [
            name
            for name, info in result.design.ports.items()
            if info.direction == "out"
        ]
        if not outs:
            raise ValueError("design has no output port")
        output = outs[0]

    nominal = Interpreter(result.design, dt=dt, inputs=inputs).run(
        t_end, probes=[output]
    )
    scale = max(float(np.max(np.abs(nominal[output]))), 1e-9)
    budget_volts = error_budget * scale

    rng = random.Random(seed)
    report = YieldReport(tolerance=tolerance, error_budget=budget_volts)
    for index in range(n_trials):
        perturbed = _perturbed_design(result.design, tolerance, rng)
        trial_traces = Interpreter(perturbed, dt=dt, inputs=inputs).run(
            t_end, probes=[output]
        )
        error = trial_traces[output] - nominal[output]
        rms = float(np.sqrt(np.mean(error**2)))
        report.trials.append(
            MismatchTrial(
                index=index,
                rms_error=rms,
                max_error=float(np.max(np.abs(error))),
                passed=rms <= budget_volts,
            )
        )
    return report
