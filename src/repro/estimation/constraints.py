"""Performance constraints for architecture synthesis.

The mapper searches for the net-list "that satisfies all imposed
performance constraints, and minimizes the overall ASIC area".  A
:class:`ConstraintSet` carries the imposed limits; the estimator checks
an estimate against them and reports each violation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional


@dataclass
class PerformanceEstimate:
    """Roll-up of the estimated attributes of a complete mapping."""

    area: float = 0.0  # m^2
    power: float = 0.0  # W
    min_ugf_hz: float = float("inf")  # slowest op amp's UGF
    min_slew_rate: float = float("inf")  # V/s
    opamps: int = 0
    feasible: bool = True
    notes: List[str] = field(default_factory=list)

    @property
    def area_um2(self) -> float:
        return self.area * 1e12

    def describe(self) -> str:
        status = "feasible" if self.feasible else "INFEASIBLE"
        return (
            f"{status}: area={self.area_um2:,.0f} um^2, "
            f"power={self.power * 1e3:.2f} mW, {self.opamps} op amps"
        )


@dataclass(frozen=True)
class ConstraintViolation:
    """One violated constraint: a stable name plus a human message.

    The ``name`` identifies *which* constraint failed (``sizing``,
    ``max_area``, ``max_power``, ``min_ugf``, ``min_slew_rate``,
    ``max_opamps``) so the mapper can tally failures per constraint
    across an exploration; the ``message`` carries the values.
    """

    name: str
    message: str

    def __str__(self) -> str:
        return self.message


@dataclass
class ConstraintSet:
    """Limits a synthesized architecture must respect."""

    #: maximum total area, m^2 (None = unconstrained)
    max_area: Optional[float] = None
    #: maximum total power, W
    max_power: Optional[float] = None
    #: minimum unity-gain frequency every op amp must reach, Hz
    min_ugf_hz: Optional[float] = None
    #: minimum slew rate, V/s
    min_slew_rate: Optional[float] = None
    #: maximum number of op amps
    max_opamps: Optional[int] = None
    #: signal bandwidth of the application, Hz (drives op amp UGF specs)
    signal_bandwidth_hz: float = 20.0e3
    #: per-op-amp load capacitance assumption, F
    load_capacitance: float = 10.0e-12
    #: required slew rate derived from max signal amplitude * bandwidth
    signal_amplitude: float = 1.5

    def check_detailed(
        self, estimate: PerformanceEstimate
    ) -> List[ConstraintViolation]:
        """Named constraint violations (empty when satisfied)."""
        violations: List[ConstraintViolation] = []
        if not estimate.feasible:
            violations.append(ConstraintViolation(
                "sizing",
                "infeasible op-amp sizing: " + "; ".join(estimate.notes)
                if estimate.notes else "infeasible sizing",
            ))
        if self.max_area is not None and estimate.area > self.max_area:
            violations.append(ConstraintViolation(
                "max_area",
                f"area {estimate.area_um2:,.0f} um^2 exceeds "
                f"{self.max_area * 1e12:,.0f} um^2",
            ))
        if self.max_power is not None and estimate.power > self.max_power:
            violations.append(ConstraintViolation(
                "max_power",
                f"power {estimate.power*1e3:.2f} mW exceeds "
                f"{self.max_power*1e3:.2f} mW",
            ))
        if (
            self.min_ugf_hz is not None
            and estimate.min_ugf_hz < self.min_ugf_hz
        ):
            violations.append(ConstraintViolation(
                "min_ugf",
                f"UGF {estimate.min_ugf_hz/1e6:.2f} MHz below "
                f"{self.min_ugf_hz/1e6:.2f} MHz",
            ))
        if (
            self.min_slew_rate is not None
            and estimate.min_slew_rate < self.min_slew_rate
        ):
            violations.append(ConstraintViolation(
                "min_slew_rate",
                f"slew rate {estimate.min_slew_rate/1e6:.2f} V/us below "
                f"{self.min_slew_rate/1e6:.2f} V/us",
            ))
        if self.max_opamps is not None and estimate.opamps > self.max_opamps:
            violations.append(ConstraintViolation(
                "max_opamps",
                f"{estimate.opamps} op amps exceed limit {self.max_opamps}",
            ))
        return violations

    def check(self, estimate: PerformanceEstimate) -> List[str]:
        """Constraint violations of ``estimate`` (empty when satisfied)."""
        return [v.message for v in self.check_detailed(estimate)]

    def satisfied_by(self, estimate: PerformanceEstimate) -> bool:
        return not self.check(estimate)
