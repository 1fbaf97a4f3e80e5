"""Reproduction of "A VHDL-AMS Compiler and Architecture Generator for
Behavioral Synthesis of Analog Systems" (Doboli & Vemuri, DATE 1999).

The public API mirrors the paper's design flow (Figure 1):

* :func:`repro.vass.parse_source` / :func:`repro.vass.analyze_source` —
  the VASS frontend (Section 3);
* :func:`repro.compiler.compile_design` — VASS to VHIF (Section 4);
* :func:`repro.synth.map_sfg` — branch-and-bound architecture
  generation (Section 5);
* :func:`repro.flow.synthesize` — the whole pipeline in one call;
* :mod:`repro.spice` — netlisting and circuit-level simulation
  (Section 6's experiments);
* :mod:`repro.apps` — the five Table-1 applications.

The stable entry points for embedding the flow are
:func:`synthesize` with a :class:`FlowOptions` bag — including
:class:`ParallelOptions`, which picks the execution backend
(``serial`` / ``thread`` / ``process``) for solver exploration and
batch runs — returning a :class:`SynthesisResult`; every error the
flow raises deliberately derives from :class:`VaseError`.
"""

import importlib

#: exported name -> the module that defines it, imported on first use
#: so that ``import repro.cli`` (and ``vase --help``) stays cheap
_EXPORTS = {
    "CompilerOptions": "repro.compiler",
    "EquivalenceReport": "repro.verify",
    "FlowOptions": "repro.flow",
    "ParallelOptions": "repro.pipeline",
    "SynthesisResult": "repro.flow",
    "Tracer": "repro.instrument",
    "VaseError": "repro.diagnostics",
    "analyze_source": "repro.vass",
    "compile_design": "repro.compiler",
    "metrics": "repro.instrument",
    "parse_source": "repro.vass",
    "synthesize": "repro.flow",
    "trace_phase": "repro.instrument",
    "tracing": "repro.instrument",
    "verify_equivalence": "repro.verify",
}

__version__ = "1.0.0"

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
