"""SPICE substrate: MNA simulator, macromodels, netlister, waveforms."""

from repro.spice.ac import AcResult, AcSolver, ac_sweep
from repro.spice.linalg import (
    HAVE_SCIPY,
    AnalysisGuard,
    BatchedSolver,
    DenseSolver,
    LinearSolver,
    SparseSolver,
    guarded_solve,
    resolve_backend,
)
from repro.spice.macromodel import OpAmpMacro, add_limiter_stage, add_opamp
from repro.spice.mna import (
    Circuit,
    MnaSolver,
    TransientResult,
    dc,
    pulse_wave,
    pwl_wave,
    simulate_transient,
    sin_wave,
)
from repro.spice.netlister import (
    ElaboratedCircuit,
    elaborate,
    infer_control_links,
    to_spice_deck,
)
from repro.spice import waveform

__all__ = [
    "AcResult",
    "AcSolver",
    "AnalysisGuard",
    "BatchedSolver",
    "Circuit",
    "DenseSolver",
    "HAVE_SCIPY",
    "LinearSolver",
    "SparseSolver",
    "ElaboratedCircuit",
    "MnaSolver",
    "OpAmpMacro",
    "TransientResult",
    "ac_sweep",
    "add_limiter_stage",
    "add_opamp",
    "dc",
    "elaborate",
    "guarded_solve",
    "infer_control_links",
    "pulse_wave",
    "pwl_wave",
    "resolve_backend",
    "simulate_transient",
    "sin_wave",
    "to_spice_deck",
    "waveform",
]
