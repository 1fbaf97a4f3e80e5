"""Figure 6: architecture synthesis with branch-and-bound.

Reproduces the paper's decision-tree example: a small weighted-sum
signal-flow graph mapped with a pattern library containing

* ``comp1`` — a block structure amplifying one input by k and adding a
  second input (one op amp);
* ``comp2`` — an amplifier multiplying an input by a constant (one op
  amp);
* ``comp3`` — an adder of two inputs (two op amps).

The paper's fragment shows complete mappings with 4, 3 and 2 op amps;
the branching rule introduces an extra comp2 for block1's sibling when
finding the 2-op-amp optimum, and the sharing branch produces the
3-op-amp solution.  The benchmark prints the decision tree and asserts
all three solution sizes appear when bounding is off, and that bounding
prunes part of the tree while preserving the optimum.
"""

import pytest

from repro.instrument import decision_tree, explogging
from repro.library import ComponentLibrary, ComponentSpec, PatternMatcher
from repro.synth import MapperOptions, map_sfg
from repro.vhif.sfg import BlockKind, SignalFlowGraph

from conftest import banner


def figure6_sfg():
    """v1 -> block1(xk) -> block3(+) <- block2(xk) <- v1 (shared input)."""
    g = SignalFlowGraph("fig6")
    v1 = g.add(BlockKind.INPUT, name="v1")
    block1 = g.add(BlockKind.SCALE, gain=2.0, name="block1")
    block2 = g.add(BlockKind.SCALE, gain=2.0, name="block2")
    block3 = g.add(BlockKind.ADD, n_inputs=2, name="block3")
    vo = g.add(BlockKind.OUTPUT, name="vo")
    g.connect(v1, block1)
    g.connect(v1, block2)
    g.connect(block1, block3, port=0)
    g.connect(block2, block3, port=1)
    g.connect(block3, vo)
    return g


def figure6_library():
    return ComponentLibrary(
        [
            ComponentSpec(
                name="weighted_summing_amplifier",  # comp1
                category="amplif.",
                opamps=1,
                gain_param="weights",
                description="amplifies v1 by k and adds v2 (Figure 6b)",
            ),
            ComponentSpec(
                name="noninverting_amplifier",  # comp2
                category="amplif.",
                opamps=1,
                gain_param="gain",
            ),
            ComponentSpec(
                name="inverting_amplifier",
                category="amplif.",
                opamps=1,
                gain_param="gain",
            ),
            ComponentSpec(
                name="summing_amplifier",  # comp3
                category="amplif.",
                opamps=2,
                gain_param="weights",
            ),
        ],
        name="fig6",
    )


def figure6_matcher():
    return PatternMatcher(
        figure6_library(), max_weighted_scales=1, enable_transforms=False
    )


def map_with_tree():
    """Map the Figure-6 graph unbounded; return the result and its tree."""
    with explogging() as log:
        result = map_sfg(
            figure6_sfg(),
            library=figure6_library(),
            matcher=figure6_matcher(),
            options=MapperOptions(enable_bounding=False),
        )
    return result, decision_tree(log)


def describe_node(node) -> str:
    text = (
        f"[{node['node']}] {node['decision']} "
        f"({node['opamps']} op amps, {node['status']})"
    )
    if node["detail"]:
        text += f" — {node['detail']}"
    return text


def test_figure6_decision_tree(benchmark):
    result, tree = benchmark(map_with_tree)
    banner("Figure 6: decision tree fragment")
    for node in tree:
        indent = 0
        parent = node["parent"]
        while parent is not None:
            indent += 1
            parent = tree[parent]["parent"]
        print("  " * indent + describe_node(node))
    print(f"\ncomplete mappings found (op amps): {result.solution_opamps}")
    print(f"best: {result.netlist.total_opamps()} op amps — "
          f"{result.netlist.summary()}")

    # The paper's tree passes through 4-, 3- and 2-op-amp mappings.
    counts = set(result.solution_opamps)
    assert {2, 3, 4} <= counts
    assert result.netlist.total_opamps() == 2

    # The 2-op-amp optimum uses comp1 plus the extra comp2 for block2
    # (the dashed box of Figure 6a).
    components = sorted(i.spec.name for i in result.netlist.instances)
    assert components == [
        "noninverting_amplifier",
        "weighted_summing_amplifier",
    ]


def test_figure6_bounding_effect(benchmark):
    def run_both():
        bounded = map_sfg(
            figure6_sfg(),
            library=figure6_library(),
            matcher=figure6_matcher(),
            options=MapperOptions(enable_bounding=True),
        )
        unbounded = map_sfg(
            figure6_sfg(),
            library=figure6_library(),
            matcher=figure6_matcher(),
            options=MapperOptions(enable_bounding=False),
        )
        return bounded, unbounded

    bounded, unbounded = benchmark(run_both)
    banner("Figure 6: bounding-rule effect")
    print(
        f"without bounding: {unbounded.statistics.nodes_visited} nodes, "
        f"{unbounded.statistics.nodes_pruned} pruned"
    )
    print(
        f"with bounding:    {bounded.statistics.nodes_visited} nodes, "
        f"{bounded.statistics.nodes_pruned} pruned"
    )
    assert bounded.statistics.nodes_pruned > 0
    assert bounded.netlist.total_opamps() == unbounded.netlist.total_opamps()


def test_figure6_sharing_solution(benchmark):
    """The 3-op-amp mapping shares one comp2 between block1 and block2."""
    result, tree = benchmark(map_with_tree)
    banner("Figure 6: hardware-sharing branch")
    shares = [n for n in tree if n["decision"].startswith("share")]
    for node in shares:
        print(f"  {describe_node(node)}")
    assert result.statistics.shared_branches > 0
    assert 3 in set(result.solution_opamps)
