"""Every ``synthesize`` call ends in one place.

Whatever the outcome — a result, a degraded result from the recovery
ladder, a synthesis, lexer, parse or semantic error, an exhausted
budget, an unexpected exception inside a stage — the run publishes
exactly one ``finished`` lifecycle event and appends exactly one
ledger record, both under the run's id and with the same outcome.
"""

from pathlib import Path

import pytest

from repro.compiler import compile_design
from repro.diagnostics import (
    LexerError,
    ParseError,
    SemanticError,
    SynthesisError,
)
from repro.estimation import ConstraintSet, Estimator
from repro.flow import FlowOptions, derive_constraints, synthesize
from repro.instrument import RunLedger, TelemetryBus
from repro.instrument.events import CATEGORY_LIFECYCLE, telemetry
from repro.robust import DeadlineExceeded

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"
BIQUAD = (EXAMPLES / "biquad.vhd").read_text()

AMP = """
ENTITY amp IS
PORT (
  QUANTITY vin : IN real IS voltage;
  QUANTITY vout : OUT real IS voltage LIMITED AT 2.0 v
);
END ENTITY;
ARCHITECTURE behavioral OF amp IS
BEGIN
  vout == -5.0 * vin;
END ARCHITECTURE;
"""

PARSE_ERROR = """
ENTITY broken IS
PORT (
  QUANTITY vin : IN real IS voltage
  QUANTITY vout : OUT real IS voltage
);
END ENTITY;
ARCHITECTURE a OF broken IS
BEGIN
  vout == * vin;
END ARCHITECTURE;
"""

LEXER_ERROR = "ENTITY e IS ` END ENTITY;"

SEMANTIC_ERROR = """
ENTITY ghostly IS
PORT (QUANTITY y : OUT real);
END ENTITY;
ARCHITECTURE a OF ghostly IS
BEGIN
  y == ghost;
END ARCHITECTURE;
"""


def _tight_area() -> ConstraintSet:
    """A max_area bound below what the biquad needs: infeasible for
    branch-and-bound, recoverable by one relaxation step."""
    design = compile_design(BIQUAD)
    return ConstraintSet(
        signal_bandwidth_hz=derive_constraints(
            design, ConstraintSet()
        ).signal_bandwidth_hz,
        max_area=synthesize(BIQUAD).estimate.area * 0.6,
    )


def _broken_estimator(self, netlist):
    raise RuntimeError("estimator exploded")


#: (case, source, options factory, expected error, expected outcome)
CASES = [
    ("ok", AMP, dict, None, "ok"),
    (
        "degraded", BIQUAD,
        lambda: dict(constraints=_tight_area(), recovery=True),
        None, "degraded",
    ),
    (
        "synthesis", BIQUAD,
        lambda: dict(constraints=_tight_area()),
        SynthesisError, "failed",
    ),
    ("parse", PARSE_ERROR, dict, ParseError, "failed"),
    ("lexer", LEXER_ERROR, dict, LexerError, "failed"),
    ("semantic", SEMANTIC_ERROR, dict, SemanticError, "failed"),
    (
        "deadline", AMP, lambda: dict(deadline_s=1e-9),
        DeadlineExceeded, "cancelled",
    ),
    ("internal", AMP, dict, RuntimeError, "failed"),
]


@pytest.mark.parametrize(
    "case,source,make_options,error,outcome",
    CASES,
    ids=[case[0] for case in CASES],
)
def test_one_finished_event_and_one_record(
    tmp_path, monkeypatch, case, source, make_options, error, outcome
):
    if case == "internal":
        monkeypatch.setattr(Estimator, "estimate", _broken_estimator)
    ledger = RunLedger(tmp_path / "ledger.jsonl")
    options = FlowOptions(ledger=ledger, **make_options())
    bus = TelemetryBus()
    events = []
    bus.subscribe(events.append)
    with telemetry(bus):
        if error is None:
            result = synthesize(source, options=options)
            assert result.degraded == (outcome == "degraded")
        else:
            with pytest.raises(error):
                synthesize(source, options=options)

    finished = [
        event for event in events
        if event.category == CATEGORY_LIFECYCLE
        and event.payload.get("kind") == "run"
        and event.payload.get("phase") == "finished"
    ]
    assert [event.payload["status"] for event in finished] == [outcome]
    records = ledger.records()
    assert [record.outcome for record in records] == [outcome]
    assert records[0].run_id == finished[0].run_id
    if error is None:
        assert result.run_id == records[0].run_id
    else:
        assert records[0].metrics["error"] == finished[0].payload["error"]
