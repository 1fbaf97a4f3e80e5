"""The receiver module of a telephone set (paper Figure 2, Table 1 row 1).

Reconstructed from the paper's description [14]: the receiver amplifies,
with different gains, signals from the calling party (``line``) and
from the local microphone/transmitter path (``local``), compensates
line-length losses by switching a compensation resistance ``rvar``, and
drives a 270 Ω earphone at 285 mV peak with output limiting.
"""

from __future__ import annotations

import math

from repro.flow import FlowOptions, SynthesisResult, synthesize

#: Paper's Table-1 row for this application (for bench comparison).
PAPER_ROW = {
    "vass_continuous": 4,
    "vass_quantities": 4,
    "vass_event": 4,
    "vass_signals": 2,
    "vhif_blocks": 6,
    "vhif_states": 4,
    "vhif_datapath": 1,
    "components": "2 amplif., 1 zero-cross det.",
}

#: Output limiting level observed in the paper's Figure 8 (volts).
LIMIT_LEVEL = 1.5

VASS_SOURCE = """
-- Receiver module of a telephone set (Figure 2 of the paper).
ENTITY telephone IS
PORT (
  QUANTITY line  : IN real IS voltage;
  QUANTITY local : IN real IS voltage;
  QUANTITY earph : OUT real IS voltage
                   LIMITED AT 1.5 v
                   DRIVES 270.0 ohm AT 285.0 mv PEAK
);
END ENTITY;

ARCHITECTURE behavioral OF telephone IS
  CONSTANT Aline  : real := 2.0;   -- gain for the calling party
  CONSTANT Alocal : real := 1.0;   -- gain for the local sidetone
  CONSTANT r1c    : real := 0.5;   -- compensation value, short line
  CONSTANT r2c    : real := 0.75;  -- extra compensation, long line
  CONSTANT Vth    : real := 0.2;   -- line-level threshold
  QUANTITY rvar : real;
  SIGNAL c1 : bit;
BEGIN
  earph == (Aline * line + Alocal * local) * rvar;

  IF (c1 = '1') USE
    rvar == r1c;
  ELSE
    rvar == r1c + r2c;
  END USE;

  PROCESS (line'ABOVE(Vth)) IS
  BEGIN
    IF (line'ABOVE(Vth) = TRUE)
    THEN c1 <= '1';
    ELSE c1 <= '0';
    END IF;
  END PROCESS;
END ARCHITECTURE;
"""


def synthesize_receiver(options: FlowOptions = None) -> SynthesisResult:
    """Run the full flow on the receiver specification."""
    return synthesize(VASS_SOURCE, options=options)


def expected_earph(line: float, local: float) -> float:
    """Reference output (pre-limiting) from the specification's math."""
    rvar = 0.5 if line > 0.2 else 1.25
    value = (2.0 * line + 1.0 * local) * rvar
    return min(max(value, -LIMIT_LEVEL), LIMIT_LEVEL)
