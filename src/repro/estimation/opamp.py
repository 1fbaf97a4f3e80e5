"""Two-stage operational amplifier sizing by square-law design equations.

Substitute for the paper's analog performance estimation tools [17][4]:
"they calculate approximate performance attributes (UGF, slew rate,
power) and hardware area by instantiating op amps with precise circuit
topologies and sizing their transistors."

The procedure is the classic two-stage Miller-compensated op-amp design
flow (Allen & Holberg style):

1. ``Cc = 0.22 CL``  (60° phase margin rule of thumb);
2. ``I5 = SR * Cc``  (tail current from the slew-rate requirement);
3. ``gm1 = 2π · UGF · Cc`` and ``(W/L)1 = gm1² / (k'n · I5)``;
4. second-stage ``gm6 = 10 · gm1`` (RHP-zero / phase-margin margin),
   ``I6`` from square law;
5. DC gain check ``Av = gm1·gm6 / (I5/2·(λn+λp) · I6·(λn+λp))``;
6. area: Σ W·L of the eight transistors + the compensation capacitor,
   times a layout-overhead factor.

The resulting :class:`OpAmpDesign` reports achieved UGF, slew rate,
power and area; requirements that exceed what the process supports are
reported as infeasible rather than silently met.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.estimation.technology import MOSIS_SCN20, Technology


@dataclass(frozen=True)
class OpAmpSpec:
    """Requirements placed on one op amp by its surrounding circuit."""

    #: required unity-gain frequency, Hz
    ugf_hz: float = 1.0e6
    #: required slew rate, V/s
    slew_rate: float = 2.0e6
    #: load capacitance, F
    cload: float = 10.0e-12
    #: required DC gain, V/V
    dc_gain: float = 5000.0
    #: required output swing, V (single-sided)
    swing: float = 1.5

    def scaled(self, gain: float) -> "OpAmpSpec":
        """Spec with UGF scaled by a closed-loop gain (GBW conservation)."""
        return OpAmpSpec(
            ugf_hz=self.ugf_hz * max(gain, 1.0),
            slew_rate=self.slew_rate,
            cload=self.cload,
            dc_gain=self.dc_gain,
            swing=self.swing,
        )


@dataclass
class OpAmpDesign:
    """A sized two-stage op amp and its achieved performance."""

    spec: OpAmpSpec
    technology: Technology
    feasible: bool
    #: compensation capacitor, F
    cc: float = 0.0
    #: first-stage tail current / second-stage current, A
    i5: float = 0.0
    i6: float = 0.0
    #: input pair and driver transconductances, S
    gm1: float = 0.0
    gm6: float = 0.0
    #: W/L ratios keyed by device name (M1..M8)
    ratios: Dict[str, float] = field(default_factory=dict)
    #: achieved values
    ugf_hz: float = 0.0
    slew_rate: float = 0.0
    dc_gain: float = 0.0
    power: float = 0.0
    #: total layout area, m^2
    area: float = 0.0
    notes: List[str] = field(default_factory=list)

    @property
    def area_um2(self) -> float:
        return self.area * 1e12


#: Minimum-size op amp area (m^2): the MinArea of the bounding rule.
def min_opamp_area(tech: Technology = MOSIS_SCN20) -> float:
    """Area of an op amp with all transistors at minimum dimensions."""
    # Eight minimum transistors + the smallest practical Miller cap (1 pF).
    active = 8 * tech.min_width * tech.min_length
    return (active * tech.layout_overhead) + tech.capacitor_area(1.0e-12)


def design_two_stage(
    spec: OpAmpSpec, tech: Technology = MOSIS_SCN20
) -> OpAmpDesign:
    """Size a two-stage Miller op amp for ``spec`` (see module docs)."""
    design = OpAmpDesign(spec=spec, technology=tech, feasible=True)
    min_ratio = tech.min_width / tech.min_length

    # 1. Compensation capacitor from the phase-margin rule of thumb.
    cc = max(0.22 * spec.cload, 1.0e-12)
    design.cc = cc

    # 2. Tail current from the slew-rate requirement.
    i5 = max(spec.slew_rate * cc, 1.0e-6)
    design.i5 = i5

    def size_from_gm1(gm1: float):
        """Downstream sizing given the input-pair transconductance."""
        ratio1 = max(gm1 * gm1 / (tech.kp_n * i5), min_ratio)
        gm6 = 10.0 * gm1  # keeps the RHP zero beyond 10x UGF
        ratio6 = max(gm6 * gm6 / (tech.kp_p * 10.0 * i5), min_ratio)
        i6 = gm6 * gm6 / (2.0 * tech.kp_p * ratio6)
        gds2 = (i5 / 2.0) * (tech.lambda_n + tech.lambda_p)
        gds6 = i6 * (tech.lambda_n + tech.lambda_p)
        av = (gm1 / max(gds2, 1e-15)) * (gm6 / max(gds6, 1e-15))
        return ratio1, gm6, ratio6, i6, av

    # 3. Input pair from the UGF requirement; when the DC gain falls
    #    short, raise gm1 (Av scales with gm1^2 at fixed bias) — the
    #    standard low-overdrive re-sizing step.  A raise aims for 5% gm1
    #    past the gain-limited value and, however many steps it takes,
    #    stops only once there; a stage whose UGF sizing lands inside
    #    that margin is raised too.  Area then never falls as the
    #    required UGF rises.
    margin_gain = spec.dc_gain * 1.05 * 1.05

    def raise_for_gain(gm1: float, steps: int):
        sizing = size_from_gm1(gm1)
        if sizing[-1] >= margin_gain:
            return gm1, sizing
        for _ in range(steps):
            gm1 *= math.sqrt(margin_gain / max(sizing[-1], 1.0))
            sizing = size_from_gm1(gm1)
            if sizing[-1] >= margin_gain * (1.0 - 1e-9):
                break
        return gm1, sizing

    gm1, (ratio1, gm6, ratio6, i6, av) = raise_for_gain(
        2.0 * math.pi * spec.ugf_hz * cc, 8
    )
    # Keep device aspect ratios practical by raising the bias current
    # beyond the slew minimum when a fast stage would otherwise need an
    # enormous W/L (the standard overdrive/current trade).
    ratio_target = 2000.0
    if ratio6 > ratio_target or ratio1 > ratio_target:
        worst = max(ratio6, ratio1)
        i5 *= worst / ratio_target
        design.i5 = i5
        gm1, (ratio1, gm6, ratio6, i6, av) = raise_for_gain(gm1, 4)
    design.gm1 = gm1
    design.gm6 = gm6
    design.i6 = i6

    # 4. Mirror / bias devices at moderate ratios from the currents.
    ratio3 = max(i5 / (tech.kp_p * 0.25), min_ratio)
    ratio5 = max(i5 / (tech.kp_n * 0.25), min_ratio)
    ratio7 = max(i6 / (tech.kp_n * 0.25), min_ratio)
    design.ratios = {
        "M1": ratio1,
        "M2": ratio1,
        "M3": ratio3,
        "M4": ratio3,
        "M5": ratio5,
        "M6": ratio6,
        "M7": ratio7,
        "M8": ratio5,
    }

    # 5. Achieved small-signal figures.
    design.dc_gain = av
    design.ugf_hz = gm1 / (2.0 * math.pi * cc)
    design.slew_rate = i5 / cc
    design.power = (i5 + i6 + 0.1 * i5) * (tech.vdd - tech.vss)

    # 6. Area: W·L per device (L = min length; W = ratio · L) + Cc.
    active = 0.0
    length = tech.min_length
    for ratio in design.ratios.values():
        width = max(ratio * length, tech.min_width)
        active += width * length
    design.area = active * tech.layout_overhead + tech.capacitor_area(cc)

    # Feasibility screens: swing, gain, and sane device sizes.
    if design.dc_gain < spec.dc_gain:
        design.feasible = False
        design.notes.append(
            f"DC gain {design.dc_gain:.0f} below required {spec.dc_gain:.0f}"
        )
    if spec.swing > (tech.vdd - 1.0):
        design.feasible = False
        design.notes.append(
            f"required swing {spec.swing:.2f} V exceeds supply headroom"
        )
    if ratio1 > 5000.0 or ratio6 > 5000.0:
        design.feasible = False
        design.notes.append("device aspect ratios beyond practical limits")
    if spec.ugf_hz > 50.0e6:
        design.feasible = False
        design.notes.append(
            f"UGF {spec.ugf_hz/1e6:.1f} MHz beyond the 2 µm process"
        )
    return design
