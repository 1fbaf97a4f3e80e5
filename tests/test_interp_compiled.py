"""The compiled interpreter against the walking evaluator it replaced.

``Interpreter`` compiles every block into a closure once; the
``walking_interpreter`` fixture (``conftest.py``) re-walks the graph on
every step, as the interpreter did before.  Every comparison is exact:
traces with ``np.array_equal``, probed values by type and value, and
the discrete environment by equality.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from repro.apps import ALL_APPLICATIONS, biquad_filter, receiver
from repro.diagnostics import SimulationError
from repro.flow import synthesize
from repro.spice import sin_wave
from repro.vhif import (
    BlockKind,
    CONTROL_PORT,
    Interpreter,
    SignalFlowGraph,
    VhifDesign,
)

EXAMPLES = sorted(
    (Path(__file__).resolve().parent.parent / "examples").glob("*.vhd")
)

SQUARER_SOURCE = """
ENTITY squarer IS
PORT (QUANTITY u : IN real; QUANTITY y : OUT real);
END ENTITY;
ARCHITECTURE a OF squarer IS
BEGIN
  y == 0.5 * u * u + 0.1;
END ARCHITECTURE;
"""


def sine_inputs(design):
    """A distinct sine on every input port of ``design``."""
    ports = [n for n, p in design.ports.items() if p.direction == "in"]
    return {
        name: sin_wave(0.8, 300.0 * (k + 1), offset=0.2 * k)
        for k, name in enumerate(ports)
    }


def probe_names(design):
    """Every port, named block and discrete signal of ``design``."""
    names = set(design.ports) | set(design.external_signals)
    for sfg in design.sfgs:
        names.update(block.name for block in sfg.blocks if block.name)
    for fsm in design.fsms:
        names.update(fsm.output_signals())
    return sorted(names)


def assert_same_run(design, inputs, dt, t_end, walking_interpreter):
    probes = probe_names(design)
    compiled = Interpreter(design, dt=dt, inputs=inputs)
    walking = walking_interpreter(design, dt=dt, inputs=inputs)
    traces = compiled.run(t_end, probes=probes)
    reference = walking.run(t_end, probes=probes)
    assert np.array_equal(traces.time, reference.time)
    assert traces.values.keys() == reference.values.keys()
    for name in probes:
        assert np.array_equal(traces[name], reference[name]), name
    assert compiled.env == walking.env
    assert compiled._fsm_state == walking._fsm_state


VERIFICATION = {
    # name: (design source, stimuli, dt, t_end), as verify_equivalence
    # runs them in benchmarks/test_bench_verification.py
    "receiver": (
        lambda: synthesize(receiver.VASS_SOURCE),
        {"line": sin_wave(0.8, 1e3), "local": lambda t: 0.1},
        2e-6, 2e-3,
    ),
    "biquad": (
        biquad_filter.synthesize_biquad,
        {"vin": sin_wave(0.5, 200.0)},
        5e-6, 10e-3,
    ),
    "squarer": (
        lambda: synthesize(SQUARER_SOURCE),
        {"u": sin_wave(0.8, 1e3)},
        2e-6, 2e-3,
    ),
}


class TestDesigns:
    @pytest.mark.parametrize("name", sorted(VERIFICATION))
    def test_verification_designs(self, walking_interpreter, name):
        build, inputs, dt, t_end = VERIFICATION[name]
        assert_same_run(build().design, inputs, dt, t_end,
                        walking_interpreter)

    @pytest.mark.parametrize("name", sorted(ALL_APPLICATIONS))
    def test_table1_apps(self, walking_interpreter, name):
        design = synthesize(ALL_APPLICATIONS[name].VASS_SOURCE).design
        assert_same_run(design, sine_inputs(design), 1e-5, 5e-3,
                        walking_interpreter)

    @pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
    def test_examples(self, walking_interpreter, path):
        design = synthesize(path.read_text(encoding="utf-8")).design
        assert_same_run(design, sine_inputs(design), 1e-5, 5e-3,
                        walking_interpreter)

    def test_examples_are_found(self):
        assert EXAMPLES


# ---------------------------------------------------------------------------
# Every block kind, step by step
# ---------------------------------------------------------------------------


def block_zoo():
    """One graph with every block kind, driven across its edge cases:
    a divisor through zero, a comparator (hysteresis, inverted) that
    drives a sample-and-hold and selects a mux, signal-controlled
    switch and ADC, a differentiator, and an add of signed zeros."""
    design = VhifDesign("zoo")
    g = SignalFlowGraph("main")
    x = g.add(BlockKind.INPUT, name="x")
    c = g.add(BlockKind.CONST, value=0.25, name="c")
    zero = g.add(BlockKind.CONST, value=0.0)
    neg_zero = g.add(BlockKind.NEG, name="neg_zero")
    zeros = g.add(BlockKind.ADD, n_inputs=2, name="zeros")
    add = g.add(BlockKind.ADD, n_inputs=3, name="add")
    sub = g.add(BlockKind.SUB, name="sub")
    mul = g.add(BlockKind.MUL, name="mul")
    div = g.add(BlockKind.DIV, name="div")
    scale = g.add(BlockKind.SCALE, gain=-2.5, name="scale")
    integ = g.add(BlockKind.INTEGRATE, gain=3.0, initial=0.1, name="integ")
    diff = g.add(BlockKind.DIFFERENTIATE, name="diff")
    log = g.add(BlockKind.LOG, name="log")
    exp = g.add(BlockKind.EXP, name="exp")
    ab = g.add(BlockKind.ABS, name="abs")
    lim = g.add(BlockKind.LIMIT, low=-0.3, high=0.4, name="lim")
    cmp_ = g.add(BlockKind.COMPARATOR, threshold=0.1, hysteresis=0.05,
                 name="cmp")
    inv = g.add(BlockKind.COMPARATOR, threshold=-0.2, invert=True,
                name="inv")
    sh = g.add(BlockKind.SAMPLE_HOLD, initial=0.7, name="sh")
    sw = g.add(BlockKind.SWITCH, name="sw")
    mux = g.add(BlockKind.MUX, n_inputs=2, name="mux")
    adc = g.add(BlockKind.ADC, bits=3, full_scale=1.0, name="adc")
    dac = g.add(BlockKind.DAC, name="dac")
    buf = g.add(BlockKind.BUFFER, name="buf")
    out = g.add(BlockKind.OUTPUT, name="y")
    g.connect(zero, neg_zero)
    g.connect(neg_zero, zeros, port=0)
    g.connect(neg_zero, zeros, port=1)
    g.connect(x, add, port=0)
    g.connect(c, add, port=1)
    g.connect(integ, add, port=2)
    g.connect(x, sub, port=0)
    g.connect(c, sub, port=1)
    g.connect(x, mul, port=0)
    g.connect(sub, mul, port=1)
    g.connect(c, div, port=0)
    g.connect(x, div, port=1)
    g.connect(x, scale)
    g.connect(sub, integ)
    g.connect(mul, diff)
    g.connect(x, log)
    g.connect(scale, exp)
    g.connect(sub, ab)
    g.connect(scale, lim)
    g.connect(x, cmp_)
    g.connect(x, inv)
    g.connect(x, sh)
    g.connect(cmp_, sh, port=CONTROL_PORT)
    g.connect(add, sw)
    g.bind_control("strobe", sw)
    g.connect(lim, mux, port=0)
    g.connect(ab, mux, port=1)
    g.connect(inv, mux, port=CONTROL_PORT)
    g.connect(x, adc)
    g.bind_control("strobe", adc)
    g.connect(adc, dac)
    g.connect(mux, buf)
    g.connect(buf, out)
    design.add_sfg(g)
    design.external_signals.add("strobe")
    design.event_sources["x'above(0.1)"] = ("main", cmp_.block_id)
    design.quantity_taps["q"] = ("main", div.block_id)
    return design


ZOO_INPUTS = {
    "x": sin_wave(0.6, 700.0),
    "strobe": sin_wave(1.0, 1900.0, offset=0.4),
}


class TestBlockZoo:
    def test_every_step_matches(self, walking_interpreter):
        design = block_zoo()
        compiled = Interpreter(design, dt=1e-5, inputs=ZOO_INPUTS)
        walking = walking_interpreter(design, dt=1e-5, inputs=ZOO_INPUTS)
        names = probe_names(design) + ["q", "x'above(0.1)"]
        for _ in range(400):
            compiled.step()
            walking.step()
            for name in names:
                got, want = compiled.probe(name), walking.probe(name)
                assert type(got) is type(want), name
                assert got == want, name
        assert compiled.env == walking.env

    def test_runs_match(self, walking_interpreter):
        assert_same_run(block_zoo(), ZOO_INPUTS, 1e-5, 4e-3,
                        walking_interpreter)

    def test_add_keeps_sum_of_signed_zeros(self):
        interp = Interpreter(block_zoo(), dt=1e-5, inputs=ZOO_INPUTS)
        interp.step()
        assert math.copysign(1.0, interp.probe("neg_zero")) == -1.0
        # sum() starts from int 0: 0 + -0.0 + -0.0 is +0.0.
        assert math.copysign(1.0, interp.probe("zeros")) == 1.0

    def test_undriven_input_raises_at_the_step(self, walking_interpreter):
        design = VhifDesign("open")
        g = SignalFlowGraph("main")
        c = g.add(BlockKind.CONST, value=1.0)
        a = g.add(BlockKind.ADD, n_inputs=2, name="a")
        g.connect(c, a, port=0)
        design.add_sfg(g)
        messages = []
        for cls in (Interpreter, walking_interpreter):
            interp = cls(design, dt=1e-5)
            with pytest.raises(SimulationError, match="undriven") as info:
                interp.step()
            messages.append(str(info.value))
        assert messages[0] == messages[1]

    def test_inputs_replaced_after_construction(self):
        design = block_zoo()
        interp = Interpreter(design, dt=1e-5, inputs=ZOO_INPUTS)
        interp.step()
        interp.inputs["x"] = lambda t: 2.0
        interp.step()
        assert interp.probe("x") == 2.0
