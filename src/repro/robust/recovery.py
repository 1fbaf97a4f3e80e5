"""The recovery ladder: structured retries when synthesis fails.

When the branch-and-bound mapper cannot produce a feasible mapping —
infeasible constraints, node-budget or deadline exhaustion, an
unfortunate DAE causalization — the flow (opt-in via
``FlowOptions.recovery``) climbs a ladder of progressively more
invasive retries instead of dying on the first ``SynthesisError``:

1. **alternative causalizations** — re-compile with the next enumerated
   DAE solver (a different VHIF topology may map feasibly);
2. **greedy mapper** — the non-backtracking heuristic finds *a*
   feasible solution where the exhaustive search hit its budget;
3. **constraint relaxation** — bounded steps that loosen exactly the
   constraints the search named as blockers (the per-violation tally of
   ``MappingStatistics.constraint_violations``), trading spec tightness
   for a synthesizable, explicitly *degraded* result.

Every attempt — failed or not — is a :class:`RecoveryEvent` landing on
``SynthesisResult.recovery``, in the diagnostics, the report, and the
exploration log, so a degraded run always says what it sacrificed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.estimation.constraints import ConstraintSet
from repro.instrument.events import CATEGORY_RECOVERY, active_bus

#: Ladder rung names, in climbing order.
RUNG_BASELINE = "baseline"
RUNG_CAUSALIZATION = "causalization"
RUNG_GREEDY = "greedy"
RUNG_RELAX = "relax"

#: Event outcomes.
OUTCOME_FAILED = "failed"
OUTCOME_RECOVERED = "recovered"
OUTCOME_SKIPPED = "skipped"


@dataclass(frozen=True)
class RecoveryEvent:
    """One attempt of the recovery ladder."""

    #: which rung: ``baseline`` / ``causalization`` / ``greedy`` /
    #: ``relax``
    rung: str
    #: what was attempted (human-readable)
    action: str
    #: ``failed`` / ``recovered`` / ``skipped``
    outcome: str
    #: the error text (failed), what was sacrificed (recovered), or why
    #: the rung did not apply (skipped)
    detail: str = ""
    #: 1-based attempt number across the whole ladder
    attempt: int = 0

    def describe(self) -> str:
        text = f"[{self.attempt}] {self.rung}: {self.action} -> {self.outcome}"
        if self.detail:
            text += f" ({self.detail})"
        return text

    def as_dict(self) -> Dict[str, object]:
        return {
            "attempt": self.attempt,
            "rung": self.rung,
            "action": self.action,
            "outcome": self.outcome,
            "detail": self.detail,
        }


#: Cap on alternative causalizations the ladder attempts (rung 1).
MAX_CAUSALIZATIONS = 4
#: Cap on constraint-relaxation steps (rung 3).
MAX_RELAX_STEPS = 4
#: Per-step loosening factor (limits multiply, floors divide).
RELAX_FACTOR = 2.0


def relax_constraints(
    constraints: ConstraintSet,
    violations: Dict[str, int],
    factor: float = RELAX_FACTOR,
) -> Tuple[ConstraintSet, List[str]]:
    """One relaxation step driven by the *named* violation tally.

    Returns the loosened :class:`ConstraintSet` plus one human-readable
    change description per touched field.  Only the constraints that
    actually killed mappings are touched — upper limits are multiplied
    by ``factor``, lower floors divided; a ``sizing`` violation relaxes
    the signal bandwidth the op-amp sizing rules are derived from.  An
    empty change list means nothing named is relaxable (the ladder must
    stop rather than loop).
    """
    relaxed = ConstraintSet(**vars(constraints))
    changes: List[str] = []

    def _record(name: str, old: object, new: object) -> None:
        changes.append(f"{name}: {old} -> {new}")

    for name in sorted(violations, key=lambda n: -violations[n]):
        if name == "max_area" and relaxed.max_area is not None:
            new = relaxed.max_area * factor
            _record("max_area", f"{relaxed.max_area:.3e}", f"{new:.3e}")
            relaxed.max_area = new
        elif name == "max_power" and relaxed.max_power is not None:
            new = relaxed.max_power * factor
            _record("max_power", f"{relaxed.max_power:.3e}", f"{new:.3e}")
            relaxed.max_power = new
        elif name == "max_opamps" and relaxed.max_opamps is not None:
            new_count = max(
                relaxed.max_opamps + 1,
                int(math.ceil(relaxed.max_opamps * factor)),
            )
            _record("max_opamps", relaxed.max_opamps, new_count)
            relaxed.max_opamps = new_count
        elif name == "min_ugf" and relaxed.min_ugf_hz is not None:
            new = relaxed.min_ugf_hz / factor
            _record("min_ugf_hz", f"{relaxed.min_ugf_hz:.3e}", f"{new:.3e}")
            relaxed.min_ugf_hz = new
        elif name == "min_slew_rate" and relaxed.min_slew_rate is not None:
            new = relaxed.min_slew_rate / factor
            _record(
                "min_slew_rate",
                f"{relaxed.min_slew_rate:.3e}",
                f"{new:.3e}",
            )
            relaxed.min_slew_rate = new
        elif name == "sizing":
            # Infeasible op-amp sizing: the UGF/slew specs every op amp
            # must meet scale with the signal bandwidth, so lowering the
            # bandwidth is the sizing-side relaxation.
            new = constraints.signal_bandwidth_hz / factor
            _record(
                "signal_bandwidth_hz",
                f"{relaxed.signal_bandwidth_hz:.3e}",
                f"{new:.3e}",
            )
            relaxed.signal_bandwidth_hz = new
        # Unknown / un-relaxable names (e.g. an injected fault) are
        # deliberately left alone.
    return relaxed, changes


@dataclass
class RecoveryLog:
    """Accumulates ladder events with consecutive attempt numbers."""

    events: List[RecoveryEvent] = field(default_factory=list)

    def record(
        self, rung: str, action: str, outcome: str, detail: str = ""
    ) -> RecoveryEvent:
        event = RecoveryEvent(
            rung=rung,
            action=action,
            outcome=outcome,
            detail=detail,
            attempt=len(self.events) + 1,
        )
        self.events.append(event)
        bus = active_bus()
        if bus is not None:
            bus.publish(CATEGORY_RECOVERY, event.as_dict())
        return event
