"""Tests for the branch-and-bound architecture mapper (Figure 5/6)."""

import pytest

from repro.diagnostics import SynthesisError
from repro.estimation import ConstraintSet, Estimator
from repro.instrument import decision_tree, explogging
from repro.library import (
    ComponentLibrary,
    ComponentSpec,
    PatternMatcher,
    default_library,
)
from repro.synth import (
    ArchitectureMapper,
    MapperOptions,
    map_sfg,
    map_sfg_greedy,
)
from repro.vhif.sfg import BlockKind, SignalFlowGraph


def weighted_sum_graph(shared_input=False):
    """in(s) -> x k1 / x k2 -> add -> out (the Figure-6 shape)."""
    g = SignalFlowGraph("fig6")
    in1 = g.add(BlockKind.INPUT, name="v1")
    in2 = in1 if shared_input else g.add(BlockKind.INPUT, name="v2")
    b1 = g.add(BlockKind.SCALE, gain=2.0, name="block1")
    b2 = g.add(BlockKind.SCALE, gain=2.0, name="block2")
    b3 = g.add(BlockKind.ADD, n_inputs=2, name="block3")
    out = g.add(BlockKind.OUTPUT, name="vo")
    g.connect(in1, b1)
    g.connect(in2, b2)
    g.connect(b1, b3, port=0)
    g.connect(b2, b3, port=1)
    g.connect(b3, out)
    return g


def figure6_library():
    """comp1 (scale+add, 1 op amp), comp2 (scale, 1), comp3 (add, 2)."""
    return ComponentLibrary(
        [
            ComponentSpec(
                name="weighted_summing_amplifier",  # comp1
                category="amplif.",
                opamps=1,
                gain_param="weights",
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
                name="summing_amplifier",  # comp3: plain adder, 2 op amps
                category="amplif.",
                opamps=2,
                gain_param="weights",
            ),
        ],
        name="fig6",
    )


def fig6_matcher():
    # comp1 folds exactly one scaled input, per the paper's Figure 6b.
    return PatternMatcher(
        figure6_library(), max_weighted_scales=1, enable_transforms=False
    )


class TestBasicMapping:
    def test_simple_chain_maps(self):
        g = SignalFlowGraph("t")
        x = g.add(BlockKind.INPUT, name="x")
        s = g.add(BlockKind.SCALE, gain=-2.0)
        out = g.add(BlockKind.OUTPUT, name="y")
        g.connect(x, s)
        g.connect(s, out)
        result = map_sfg(g)
        assert result.netlist.total_opamps() == 1
        assert result.netlist.instances[0].spec.name == "inverting_amplifier"

    def test_netlist_ports_wired(self):
        g = weighted_sum_graph()
        result = map_sfg(g)
        assert set(result.netlist.inputs) == {"v1", "v2"}
        assert "vo" in result.netlist.outputs

    def test_full_coverage_required(self):
        g = weighted_sum_graph()
        result = map_sfg(g)
        covered = result.netlist.covered_blocks()
        expected = {b.block_id for b in g.processing_blocks()}
        assert covered == expected

    def test_unmappable_block_raises(self):
        lib = ComponentLibrary(
            [ComponentSpec(name="voltage_follower", category="x", opamps=1)],
            name="tiny",
        )
        g = weighted_sum_graph()
        with pytest.raises(SynthesisError):
            map_sfg(g, library=lib, matcher=PatternMatcher(lib))

    def test_default_finds_single_summing_amp(self):
        # With the default library the whole weighted sum is one op amp.
        result = map_sfg(weighted_sum_graph())
        assert result.netlist.total_opamps() == 1
        (inst,) = result.netlist.instances
        assert inst.spec.name == "summing_amplifier"
        assert inst.params["weights"] == [2.0, 2.0]


class TestFigure6Scenario:
    def test_optimal_two_opamps(self):
        g = weighted_sum_graph()
        result = map_sfg(
            g, library=figure6_library(), matcher=fig6_matcher(),
        )
        assert result.netlist.total_opamps() == 2
        components = sorted(i.spec.name for i in result.netlist.instances)
        assert components == [
            "noninverting_amplifier",
            "weighted_summing_amplifier",
        ]

    def test_solution_opamp_counts_include_worse_mappings(self):
        """The decision tree passes through 4- and 3-op-amp solutions."""
        g = weighted_sum_graph(shared_input=True)
        result = map_sfg(
            g,
            library=figure6_library(),
            matcher=fig6_matcher(),
            options=MapperOptions(enable_bounding=False),
        )
        counts = set(result.solution_opamps)
        assert 2 in counts  # comp1 + comp2
        assert 3 in counts  # shared comp2 + comp3
        assert 4 in counts  # comp2 + comp2 + comp3

    def test_sharing_enables_three_opamp_solution(self):
        g = weighted_sum_graph(shared_input=True)
        no_sharing = map_sfg(
            g,
            library=figure6_library(),
            matcher=fig6_matcher(),
            options=MapperOptions(enable_sharing=False,
                                  enable_bounding=False),
        )
        assert 3 not in set(no_sharing.solution_opamps)

    def test_decision_tree_collected(self):
        g = weighted_sum_graph()
        with explogging() as log:
            map_sfg(g, library=figure6_library(), matcher=fig6_matcher())
        tree = decision_tree(log)
        assert tree
        assert tree[0]["decision"] == "root"
        assert any(n["status"] == "complete" for n in tree)


class TestBoundingRule:
    def test_bounding_prunes(self):
        g = weighted_sum_graph(shared_input=True)
        bounded = map_sfg(
            g, library=figure6_library(), matcher=fig6_matcher(),
            options=MapperOptions(enable_bounding=True),
        )
        unbounded = map_sfg(
            g, library=figure6_library(), matcher=fig6_matcher(),
            options=MapperOptions(enable_bounding=False),
        )
        assert bounded.statistics.nodes_pruned > 0
        assert (
            bounded.statistics.nodes_visited
            <= unbounded.statistics.nodes_visited
        )

    def test_bounding_preserves_optimality(self):
        g = weighted_sum_graph(shared_input=True)
        bounded = map_sfg(
            g, library=figure6_library(), matcher=fig6_matcher(),
            options=MapperOptions(enable_bounding=True),
        )
        unbounded = map_sfg(
            g, library=figure6_library(), matcher=fig6_matcher(),
            options=MapperOptions(enable_bounding=False),
        )
        assert bounded.estimate.area == pytest.approx(unbounded.estimate.area)


class TestSequencingRule:
    def test_largest_first_finds_optimum_early(self):
        g = weighted_sum_graph()
        largest = map_sfg(
            g, library=figure6_library(), matcher=fig6_matcher(),
            options=MapperOptions(sequencing="largest_first"),
        )
        smallest = map_sfg(
            g, library=figure6_library(), matcher=fig6_matcher(),
            options=MapperOptions(sequencing="smallest_first"),
        )
        # Same optimum either way...
        assert largest.netlist.total_opamps() == smallest.netlist.total_opamps()
        # ...but largest-first reaches a best solution earlier (its first
        # complete mapping is already minimal).
        assert largest.solution_opamps[0] <= smallest.solution_opamps[0]


class TestSharing:
    def test_identical_paths_share(self):
        # Two identical scale blocks from the same input, two outputs.
        g = SignalFlowGraph("share")
        x = g.add(BlockKind.INPUT, name="x")
        s1 = g.add(BlockKind.SCALE, gain=2.0)
        s2 = g.add(BlockKind.SCALE, gain=2.0)
        o1 = g.add(BlockKind.OUTPUT, name="y1")
        o2 = g.add(BlockKind.OUTPUT, name="y2")
        g.connect(x, s1)
        g.connect(x, s2)
        g.connect(s1, o1)
        g.connect(s2, o2)
        result = map_sfg(g)
        assert result.netlist.total_opamps() == 1
        (inst,) = result.netlist.instances
        assert set(inst.covers) == {s1.block_id, s2.block_id}

    def test_different_gains_do_not_share(self):
        g = SignalFlowGraph("noshare")
        x = g.add(BlockKind.INPUT, name="x")
        s1 = g.add(BlockKind.SCALE, gain=2.0)
        s2 = g.add(BlockKind.SCALE, gain=3.0)
        o1 = g.add(BlockKind.OUTPUT, name="y1")
        o2 = g.add(BlockKind.OUTPUT, name="y2")
        g.connect(x, s1)
        g.connect(x, s2)
        g.connect(s1, o1)
        g.connect(s2, o2)
        result = map_sfg(g)
        assert result.netlist.total_opamps() == 2

    def test_different_inputs_do_not_share(self):
        g = SignalFlowGraph("noshare2")
        x = g.add(BlockKind.INPUT, name="x")
        z = g.add(BlockKind.INPUT, name="z")
        s1 = g.add(BlockKind.SCALE, gain=2.0)
        s2 = g.add(BlockKind.SCALE, gain=2.0)
        o1 = g.add(BlockKind.OUTPUT, name="y1")
        o2 = g.add(BlockKind.OUTPUT, name="y2")
        g.connect(x, s1)
        g.connect(z, s2)
        g.connect(s1, o1)
        g.connect(s2, o2)
        result = map_sfg(g)
        assert result.netlist.total_opamps() == 2

    def test_shared_net_resolves_in_outputs(self):
        g = SignalFlowGraph("share3")
        x = g.add(BlockKind.INPUT, name="x")
        s1 = g.add(BlockKind.SCALE, gain=2.0)
        s2 = g.add(BlockKind.SCALE, gain=2.0)
        o1 = g.add(BlockKind.OUTPUT, name="y1")
        o2 = g.add(BlockKind.OUTPUT, name="y2")
        g.connect(x, s1)
        g.connect(x, s2)
        g.connect(s1, o1)
        g.connect(s2, o2)
        result = map_sfg(g)
        # Both outputs resolve to the single shared instance's net.
        nets = set(result.netlist.outputs.values())
        assert len(nets) == 1


class TestConstraints:
    def test_infeasible_under_opamp_budget(self):
        g = weighted_sum_graph()
        estimator = Estimator(constraints=ConstraintSet(max_opamps=0))
        with pytest.raises(SynthesisError):
            map_sfg(g, estimator=estimator)

    def test_first_solution_mode_stops_early(self):
        g = weighted_sum_graph(shared_input=True)
        full = map_sfg(
            g, library=figure6_library(), matcher=fig6_matcher(),
            options=MapperOptions(enable_bounding=False),
        )
        first = map_sfg(
            g, library=figure6_library(), matcher=fig6_matcher(),
            options=MapperOptions(first_solution_only=True),
        )
        assert (
            first.statistics.nodes_visited <= full.statistics.nodes_visited
        )

    def test_node_budget_exhaustion_reported(self):
        g = weighted_sum_graph()
        with pytest.raises(SynthesisError, match="budget"):
            map_sfg(g, options=MapperOptions(max_nodes=0))


class TestTruncation:
    def test_untruncated_run_has_clean_flags(self):
        g = weighted_sum_graph()
        result = map_sfg(g)
        assert result.statistics.truncated is False
        assert result.diagnostics == []
        assert "TRUNCATED" not in result.describe()

    def test_budget_hit_after_solution_sets_truncated(self):
        g = weighted_sum_graph(shared_input=True)
        # Learn how many nodes the deterministic search needs to reach
        # its first complete mapping, then cap the full search there:
        # the mapping is found, but exploration stops at the budget.
        first = map_sfg(
            g, options=MapperOptions(first_solution_only=True)
        )
        # +1: the budget check runs on node entry, before completion,
        # so the cap must leave room for the completing call itself.
        budget = first.statistics.nodes_visited + 1
        result = map_sfg(g, options=MapperOptions(max_nodes=budget))
        assert result.statistics.truncated is True
        assert result.netlist.instances  # a mapping was still produced
        assert "TRUNCATED" in result.describe()

    def test_truncation_emits_warning_diagnostic(self):
        from repro.diagnostics import Severity

        g = weighted_sum_graph(shared_input=True)
        first = map_sfg(
            g, options=MapperOptions(first_solution_only=True)
        )
        budget = first.statistics.nodes_visited + 1
        result = map_sfg(g, options=MapperOptions(max_nodes=budget))
        assert len(result.diagnostics) == 1
        diagnostic = result.diagnostics[0]
        assert diagnostic.severity is Severity.WARNING
        assert "node budget" in diagnostic.message
        assert "not proven optimal" in diagnostic.message

    def test_statistics_as_dict_includes_truncated(self):
        g = weighted_sum_graph()
        result = map_sfg(g)
        as_dict = result.statistics.as_dict()
        assert as_dict["truncated"] is False
        assert as_dict["nodes_visited"] == result.statistics.nodes_visited


class TestGreedy:
    def test_greedy_completes(self):
        g = weighted_sum_graph()
        result = map_sfg_greedy(g)
        assert result.netlist.total_opamps() >= 1

    def test_greedy_no_worse_than_double_optimal(self):
        g = weighted_sum_graph(shared_input=True)
        optimal = map_sfg(g, library=figure6_library(),
                          matcher=fig6_matcher())
        greedy = map_sfg_greedy(g, library=figure6_library(),
                                matcher=fig6_matcher())
        assert greedy.netlist.total_opamps() <= 2 * max(
            optimal.netlist.total_opamps(), 1
        )

    def test_greedy_visits_fewer_nodes(self):
        g = weighted_sum_graph(shared_input=True)
        optimal = map_sfg(
            g, library=figure6_library(), matcher=fig6_matcher(),
            options=MapperOptions(enable_bounding=False),
        )
        greedy = map_sfg_greedy(g, library=figure6_library(),
                                matcher=fig6_matcher())
        assert (
            greedy.statistics.nodes_visited
            <= optimal.statistics.nodes_visited
        )
