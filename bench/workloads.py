"""The in-process workloads: Table-1 synthesis, verification, AC sweeps.

Each workload names its distinct inputs and, for each input, runs

* ``run`` — one operation exactly as a user calls the program (timed
  with tracing off; its output goes to the oracle ``check``);
* ``chain`` — the same work as a sequence of calls into each layer's
  public function, in the order the program makes them, each call in a
  span of the given tracer (the traced run's per-layer split);
* ``matches`` — whether the chain computed the same output as ``run``.

Oracles never use the program's own answer as the reference: Table-1
component classes come from the paper, the Figure-8 clip level from
the paper's 1.5 V, and the AC reference from the closed-form transfer
function.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

import numpy as np

from repro.apps import ALL_APPLICATIONS, biquad_filter, receiver
from repro.compiler import CompilerOptions, compile_design
from repro.estimation import ConstraintSet, Estimator
from repro.flow import derive_constraints, synthesize
from repro.library import PatternMatcher, default_library
from repro.spice import (
    MnaSolver,
    ac_sweep,
    dc,
    elaborate,
    sin_wave,
    to_spice_deck,
    waveform,
)
from repro.synth import (
    InterfacingOptions,
    MapperOptions,
    apply_interfacing,
    map_sfg,
)
from repro.synth.fsm_mapping import realize_event_controls
from repro.vass.lexer import tokenize
from repro.vass.parser import parse_source
from repro.vass.semantics import analyze
from repro.verify import (
    EquivalenceReport,
    OutputComparison,
    verify_equivalence,
)
from repro.vhif.interp import Interpreter
from repro.vhif.optimize import optimize_design
from spans import NullTracer


class Workload:
    """One workload's inputs, operation, layer chain and oracle."""

    name = "abstract"
    #: per-layer metric that receives ``run`` minus the untraced chain
    #: (the work ``run`` does beyond the layers), if the two differ
    residue: Optional[str] = None

    def __init__(self):
        #: distinct inputs; each gets its own latency median
        self.inputs: List[str] = []

    def run(self, key: str):
        raise NotImplementedError

    def check(self, key: str, output) -> bool:
        raise NotImplementedError

    def chain(self, key: str, tracer):
        raise NotImplementedError

    def matches(self, key: str, output, chained) -> bool:
        raise NotImplementedError

    def probe(self, key: str, tracer) -> None:
        """Spans taken outside the operation (default: none)."""

    def counts(self, key: str, chained) -> Dict[str, float]:
        """Work counters of one chained operation (default: none)."""
        return {}


# ---------------------------------------------------------------------------
# synth_table1
# ---------------------------------------------------------------------------

#: Table-1 component classes per application (the paper's rows)
TABLE1_CLASSES = {
    "receiver": {"amplif.": 2, "zero-cross det.": 1},
    "power_meter": {"zero-cross det.": 2, "S/H": 2, "ADC": 2},
    "missile_solver": {
        "integ.": 2, "log.amplif.": 1, "anti-log.amplif.": 1, "amplif.": 4,
    },
    "iterative_solver": {"integ.": 3, "S/H": 1, "diff. amplif.": 1},
    "function_generator": {"integ.": 1, "MUX": 1, "Schmitt trigger": 1},
}


class SynthTable1(Workload):
    """``synthesize`` on the five Table-1 applications, cold cache."""

    name = "synth_table1"
    residue = "pipeline.overhead_ms"

    def __init__(self):
        super().__init__()
        self.inputs = list(ALL_APPLICATIONS)
        self.sources = {
            name: module.VASS_SOURCE
            for name, module in ALL_APPLICATIONS.items()
        }
        self.library = default_library()

    def run(self, key):
        # Default options: a private cache per call, so every stage runs.
        return synthesize(self.sources[key])

    def check(self, key, output):
        counts = output.netlist.category_counts()
        return output.estimate.feasible and all(
            counts.get(cls) == n for cls, n in TABLE1_CLASSES[key].items()
        )

    def chain(self, key, tracer):
        """The stage chain ``PipelineSession`` runs, one span per layer."""
        span = tracer.span
        with span("vass.parser.parse"):
            tree = parse_source(self.sources[key])
        with span("vass.semantics.analyze"):
            analyzed = analyze(tree)
        with span("compiler.compile"):
            design = compile_design(analyzed, options=CompilerOptions())
        with span("synth.fsm_mapping.realize"):
            realize_event_controls(design)
        with span("vhif.optimize.optimize"):
            optimize_design(design)
        constraints = derive_constraints(design, ConstraintSet())
        options = MapperOptions()
        with span("synth.mapper.map"):
            mapping = map_sfg(
                design.main_sfg,
                library=self.library,
                estimator=Estimator(constraints=constraints),
                options=options,
                matcher=PatternMatcher(
                    self.library,
                    enable_transforms=options.enable_transforms,
                ),
            )
        with span("synth.transforms.interface"):
            apply_interfacing(mapping.netlist, design, InterfacingOptions())
        with span("estimation.estimate"):
            Estimator(constraints=constraints).estimate(mapping.netlist)
        return mapping

    def probe(self, key, tracer):
        # parse_source lexes internally; lexing the same text on its
        # own gives the share of the parse span that is the lexer's.
        with tracer.span("vass.lexer.tokenize"):
            tokenize(self.sources[key])

    def matches(self, key, output, chained):
        return to_spice_deck(output.netlist) == to_spice_deck(
            chained.netlist
        )

    def counts(self, key, chained):
        stats = chained.statistics
        return {
            "nodes_visited": stats.nodes_visited,
            "nodes_pruned": stats.nodes_pruned,
        }


# ---------------------------------------------------------------------------
# verify_transient
# ---------------------------------------------------------------------------

SQUARER_SOURCE = """
ENTITY squarer IS
PORT (QUANTITY u : IN real; QUANTITY y : OUT real);
END ENTITY;
ARCHITECTURE a OF squarer IS
BEGIN
  y == 0.5 * u * u + 0.1;
END ARCHITECTURE;
"""

#: Figure 8: the receiver driven hard enough for the output stage to
#: clip; the paper reports "Signal v(9) was clipped at 1.5V"
FIGURE8_CLIP_V = 1.5
FIGURE8_T_END = 2e-3
FIGURE8_DT = 2e-6


class VerifyTransient(Workload):
    """Section 6: synthesized circuits simulated against their specs.

    Three ``verify_equivalence`` designs (the stimuli of the repo's
    verification benchmarks) plus the Figure-8 receiver transient.
    """

    name = "verify_transient"

    def __init__(self):
        super().__init__()
        self.cases = {
            "receiver": dict(
                result=synthesize(receiver.VASS_SOURCE),
                inputs={"line": sin_wave(0.8, 1e3), "local": lambda t: 0.1},
                t_end=2e-3, dt=2e-6, tolerance=0.10,
            ),
            "biquad": dict(
                result=synthesize(biquad_filter.VASS_SOURCE),
                inputs={"vin": sin_wave(0.5, 200.0)},
                t_end=10e-3, dt=5e-6, tolerance=0.05,
            ),
            "squarer": dict(
                result=synthesize(SQUARER_SOURCE),
                inputs={"u": sin_wave(0.8, 1e3)},
                t_end=2e-3, dt=2e-6, tolerance=0.05,
            ),
        }
        self.figure8 = self.cases["receiver"]["result"].netlist
        self.figure8_v9 = self._figure8_circuit()[1][2]
        self.inputs = list(self.cases) + ["figure8"]

    # -- figure 8 ------------------------------------------------------------

    def _figure8_circuit(self):
        circuit = elaborate(self.figure8, input_waves={
            "line": sin_wave(1.0, 1000.0), "local": lambda t: 0.1,
        })
        summer = self.figure8.by_component("summing_amplifier")[0]
        probes = [
            circuit.input_nodes["line"],      # v(11)
            f"n{summer.output}",              # v(5)
            circuit.output_nodes["earph"],    # v(9)
        ]
        return circuit, probes

    # -- the workload protocol ---------------------------------------------

    def run(self, key):
        if key == "figure8":
            circuit, probes = self._figure8_circuit()
            return circuit.transient(FIGURE8_T_END, FIGURE8_DT, probes=probes)
        case = self.cases[key]
        return verify_equivalence(
            case["result"], inputs=case["inputs"], t_end=case["t_end"],
            dt=case["dt"], tolerance=case["tolerance"],
        )

    def check(self, key, output):
        if key == "figure8":
            clip = waveform.detect_clipping(output[self.figure8_v9])
            return clip.clipped and math.isclose(
                clip.level, FIGURE8_CLIP_V, rel_tol=0.05
            )
        return output.passed

    def chain(self, key, tracer):
        """``verify_equivalence``'s steps: interpreter, elaboration,
        transient, comparison (Figure 8 has no interpreter run)."""
        span = tracer.span
        if key == "figure8":
            with span("spice.netlister.elaborate"):
                circuit, probes = self._figure8_circuit()
            with span("spice.mna.transient"):
                sim = MnaSolver(circuit.circuit).transient(
                    FIGURE8_T_END, FIGURE8_DT, probes=probes
                )
            return None, sim
        case = self.cases[key]
        result = case["result"]
        ports = [
            name for name, info in result.design.ports.items()
            if info.direction == "out"
        ]
        with span("vhif.interp.run"):
            behavioral = Interpreter(
                result.design, dt=case["dt"], inputs=case["inputs"]
            ).run(case["t_end"], probes=ports)
        with span("spice.netlister.elaborate"):
            circuit = elaborate(result.netlist, input_waves=case["inputs"])
        nodes = [circuit.output_nodes[p] for p in ports]
        with span("spice.mna.transient"):
            sim = MnaSolver(circuit.circuit).transient(
                case["t_end"], case["dt"], probes=nodes
            )
        with span("verify.compare"):
            comparisons = _compare(behavioral, sim, ports, nodes)
        return comparisons, sim

    def matches(self, key, output, chained):
        comparisons, sim = chained
        if key == "figure8":
            return all(
                np.array_equal(output[node], sim[node])
                for node in output.voltages
            )
        # verify_equivalence keeps its waveforms to itself; its report's
        # statistics equal the chain's bit for bit only if the
        # waveforms they were computed from are equal.
        return comparisons == output.comparisons

    def counts(self, key, chained):
        return {"steps": len(chained[1].time)}


def _compare(behavioral, sim, ports, nodes) -> List[OutputComparison]:
    """``verify_equivalence``'s comparison step, on the chain's traces."""
    skip = int(len(behavioral.time) * EquivalenceReport.settle_fraction)
    comparisons = []
    for port, node in zip(ports, nodes):
        reference = behavioral[port][skip:]
        measured = sim[node][skip:]
        n = min(len(reference), len(measured))
        reference, measured = reference[:n], measured[:n]
        error = measured - reference
        scale = float(np.max(np.abs(reference)))
        if scale < 1e-9:
            scale = max(float(np.max(np.abs(measured))), 1e-9)
        comparisons.append(OutputComparison(
            port=port,
            rms_error=float(np.sqrt(np.mean(error**2))),
            max_error=float(np.max(np.abs(error))),
            reference_scale=scale,
        ))
    return comparisons


# ---------------------------------------------------------------------------
# ac_bode
# ---------------------------------------------------------------------------

AC_START_HZ = 10.0
AC_STOP_HZ = 100e3
AC_POINTS_PER_DECADE = 50
#: oracle tolerances against the closed-form biquad response
AC_CORNER_REL = 0.01
AC_MAGNITUDE_DB = 0.1


class AcBode(Workload):
    """``elaborate`` the biquad, then a 201-point ``ac_sweep``."""

    name = "ac_bode"

    def __init__(self):
        super().__init__()
        self.netlist = synthesize(biquad_filter.VASS_SOURCE).netlist
        self.inputs = ["biquad"]
        decades = math.log10(AC_STOP_HZ / AC_START_HZ)
        frequencies = np.logspace(
            math.log10(AC_START_HZ), math.log10(AC_STOP_HZ),
            int(round(decades * AC_POINTS_PER_DECADE)) + 1,
        )
        self.reference_db = 20.0 * np.log10([
            biquad_filter.reference_magnitude(float(f)) for f in frequencies
        ])

    def _sweep(self, tracer):
        with tracer.span("spice.netlister.elaborate"):
            circuit = elaborate(self.netlist, input_waves={"vin": dc(0.0)})
        out = circuit.output_nodes["vlp"]
        with tracer.span("spice.ac.sweep"):
            response = ac_sweep(
                circuit.circuit, AC_START_HZ, AC_STOP_HZ,
                points_per_decade=AC_POINTS_PER_DECADE, probes=[out],
                ac_source="VIN_vin",
            )
        return response, out

    def run(self, key):
        return self._sweep(NullTracer())

    def check(self, key, output):
        response, out = output
        corner = response.cutoff_frequency(out)
        magnitude = response.magnitude_db(out)
        return (
            abs(corner - biquad_filter.F0_HZ)
            <= AC_CORNER_REL * biquad_filter.F0_HZ
            and magnitude.shape == self.reference_db.shape
            and float(np.max(np.abs(magnitude - self.reference_db)))
            <= AC_MAGNITUDE_DB
        )

    def chain(self, key, tracer):
        return self._sweep(tracer)

    def matches(self, key, output, chained):
        (response, out), (chained_response, chained_out) = output, chained
        return np.array_equal(
            response.voltages[out], chained_response.voltages[chained_out]
        )


WORKLOADS = {
    cls.name: cls for cls in (SynthTable1, VerifyTransient, AcBode)
}
