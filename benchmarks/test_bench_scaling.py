"""Section 7: branch-and-bound scalability and the heuristic baseline.

The paper closes by noting that "because of its time-complexity, the
proposed branch-and-bound algorithm might fail for larger designs" and
that ongoing work replaces it with a faster exploration heuristic.
This benchmark measures both claims on synthetic signal-flow graphs of
growing size:

* exhaustive B&B node counts grow super-linearly without the bounding
  rule and are cut substantially with it;
* the greedy (first-solution, largest-cone) heuristic visits a tiny
  fraction of the nodes, with a bounded optimality gap on these
  workloads.

The kernel-scaling series below extend the same idea to the refactored
hot kernels, on synthetic workloads 10–100× the Table-1 size:

* AC sweeps over RC ladders, timing the dense per-point loop against
  the batched (stacked-LU) and sparse backends;
* branch-and-bound over large ladder SFGs, timing the incremental
  ``CandidateIndex`` against the re-enumerating reference mapper (the
  ``naive_mapper`` fixture) at an identical node budget.

Wall-clock ratios are machine-dependent, so they live inside the
``rows`` payload (bench-check does not gate list entries); the
deterministic search/solve counters land in the metrics snapshot and
*are* gated.  Sparse-backend legs run with the metrics registry
disabled so CI legs with and without scipy produce identical dumps.
"""

import random
import time

import pytest

from repro.instrument import metrics
from repro.spice import dc
from repro.spice.ac import ac_sweep
from repro.spice.linalg import HAVE_SCIPY
from repro.spice.mna import Circuit
from repro.synth import (
    ArchitectureMapper,
    MapperOptions,
    map_sfg,
    map_sfg_greedy,
)
from repro.vhif.sfg import BlockKind, SignalFlowGraph

from conftest import banner


def ladder_sfg(n_stages: int, seed: int = 7) -> SignalFlowGraph:
    """A ladder of weighted-sum stages: stage i adds a scaled copy of
    the input to the previous stage's output (filter-like topology)."""
    rng = random.Random(seed)
    g = SignalFlowGraph(f"ladder{n_stages}")
    x = g.add(BlockKind.INPUT, name="x")
    previous = x
    for stage in range(n_stages):
        scale = g.add(BlockKind.SCALE, gain=round(rng.uniform(1.5, 4.0), 2))
        g.connect(x if stage % 2 == 0 else previous, scale)
        adder = g.add(BlockKind.ADD, n_inputs=2)
        g.connect(scale, adder, port=0)
        g.connect(previous, adder, port=1)
        previous = adder
    out = g.add(BlockKind.OUTPUT, name="y")
    g.connect(previous, out)
    return g


SIZES = [2, 3, 4, 5]


def run_scaling_series():
    rows = []
    for stages in SIZES:
        g = ladder_sfg(stages)
        n_blocks = len(g.processing_blocks())
        exhaustive = map_sfg(
            g, options=MapperOptions(enable_bounding=False,
                                     enable_transforms=False),
        )
        bounded = map_sfg(
            g, options=MapperOptions(enable_bounding=True,
                                     enable_transforms=False),
        )
        greedy = map_sfg_greedy(g)
        rows.append(
            {
                "stages": stages,
                "blocks": n_blocks,
                "exhaustive_nodes": exhaustive.statistics.nodes_visited,
                "bounded_nodes": bounded.statistics.nodes_visited,
                "pruned": bounded.statistics.nodes_pruned,
                "greedy_nodes": greedy.statistics.nodes_visited,
                "exhaustive_opamps": exhaustive.netlist.total_opamps(),
                "greedy_opamps": greedy.netlist.total_opamps(),
                "exhaustive_s": exhaustive.statistics.runtime_s,
                "greedy_s": greedy.statistics.runtime_s,
            }
        )
    return rows


def test_scaling_series(benchmark, bench_metrics):
    rows = benchmark.pedantic(run_scaling_series, rounds=1, iterations=1)
    bench_metrics["rows"] = rows
    banner("Section 7: search-effort scaling (B&B vs bounded B&B vs greedy)")
    header = (
        f"{'stages':>6} {'blocks':>6} {'B&B nodes':>10} {'bounded':>8} "
        f"{'pruned':>7} {'greedy':>7} {'B&B opamps':>10} {'greedy':>7}"
    )
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            f"{row['stages']:>6} {row['blocks']:>6} "
            f"{row['exhaustive_nodes']:>10} {row['bounded_nodes']:>8} "
            f"{row['pruned']:>7} {row['greedy_nodes']:>7} "
            f"{row['exhaustive_opamps']:>10} {row['greedy_opamps']:>7}"
        )
    # Node counts grow super-linearly in the exhaustive search...
    nodes = [row["exhaustive_nodes"] for row in rows]
    assert nodes[-1] > nodes[0] * 4
    growth_tail = nodes[-1] / nodes[-2]
    growth_head = nodes[1] / nodes[0]
    assert growth_tail >= 1.5  # still multiplying at the end
    # ...bounding prunes...
    assert all(row["pruned"] > 0 for row in rows[1:])
    assert all(
        row["bounded_nodes"] <= row["exhaustive_nodes"] for row in rows
    )
    # ...and the heuristic explores far less.
    assert all(
        row["greedy_nodes"] <= row["bounded_nodes"] for row in rows
    )
    # Optimality: B&B is never worse than greedy.
    assert all(
        row["exhaustive_opamps"] <= row["greedy_opamps"] for row in rows
    )


# -- kernel scaling: AC backends ---------------------------------------------

#: RC-ladder sections. The batched win is the amortized python loop
#: overhead, so it is largest on Table-1-sized circuits (a handful of
#: unknowns) and shrinks as per-point LAPACK cost takes over; the
#: series spans both regimes.
AC_SIZES = [3, 6, 12]
#: dense log grid: 5 decades x 200 points/decade + endpoint —
#: ~50x the default vase-ac grid, amortizing the one stacked LU
AC_POINTS_PER_DECADE = 200
#: timing repeats per backend (best-of to shed scheduler noise)
AC_REPEATS = 3


def rc_ladder_circuit(n_sections: int) -> Circuit:
    """An n-section RC ladder: n+1 nodes plus one source branch."""
    circuit = Circuit()
    circuit.vsource("VIN", "n0", "0", dc(0.0))
    for i in range(n_sections):
        circuit.resistor(f"R{i}", f"n{i}", f"n{i + 1}", 1e3)
        circuit.capacitor(f"C{i}", f"n{i + 1}", "0", 1e-8)
    return circuit


def _time_ac_sweep(
    circuit: Circuit, probe: str, force, backend: str
) -> float:
    force(backend)
    best = float("inf")
    for _ in range(AC_REPEATS):
        start = time.perf_counter()
        ac_sweep(
            circuit, 10.0, 1e6,
            points_per_decade=AC_POINTS_PER_DECADE,
            probes=[probe],
        )
        best = min(best, time.perf_counter() - start)
    return best


def run_ac_backend_series(force):
    """``force`` pins the engines to one backend (the ``force_backend``
    fixture)."""
    rows = []
    for sections in AC_SIZES:
        circuit = rc_ladder_circuit(sections)
        probe = f"n{sections}"
        dense_s = _time_ac_sweep(circuit, probe, force, "dense")
        batched_s = _time_ac_sweep(circuit, probe, force, "batched")
        row = {
            "sections": sections,
            "unknowns": sections + 2,
            "points": 5 * AC_POINTS_PER_DECADE + 1,
            "ac_sweep_dense_s": dense_s,
            "ac_sweep_batched_s": batched_s,
            "batched_speedup_x": dense_s / batched_s,
        }
        if HAVE_SCIPY:
            # Keep the metrics dump identical on the no-scipy CI leg:
            # sparse counters must not reach the gated snapshot.
            registry = metrics()
            registry.disable()
            try:
                row["ac_sweep_sparse_s"] = _time_ac_sweep(
                    circuit, probe, force, "sparse"
                )
            finally:
                registry.enable()
        rows.append(row)
    return rows


def test_ac_backend_scaling(benchmark, bench_metrics, force_backend):
    rows = benchmark.pedantic(
        run_ac_backend_series, args=(force_backend,), rounds=1, iterations=1
    )
    bench_metrics["rows"] = rows
    banner(
        "Kernel scaling: AC sweep backends (dense loop vs batched LU"
        + (" vs sparse)" if HAVE_SCIPY else "; sparse unavailable)")
    )
    header = (
        f"{'sections':>8} {'unknowns':>8} {'points':>6} "
        f"{'dense [ms]':>10} {'batched [ms]':>12} {'speedup':>8}"
        + (f" {'sparse [ms]':>11}" if HAVE_SCIPY else "")
    )
    print(header)
    print("-" * len(header))
    for row in rows:
        line = (
            f"{row['sections']:>8} {row['unknowns']:>8} "
            f"{row['points']:>6} "
            f"{row['ac_sweep_dense_s'] * 1e3:>10.2f} "
            f"{row['ac_sweep_batched_s'] * 1e3:>12.2f} "
            f"{row['batched_speedup_x']:>7.1f}x"
        )
        if HAVE_SCIPY:
            line += f" {row['ac_sweep_sparse_s'] * 1e3:>11.2f}"
        print(line)
    # The refactor's headline claim: one stacked LU beats the Python
    # per-point loop by >= 3x on grids where loop overhead dominates.
    assert max(row["batched_speedup_x"] for row in rows) >= 3.0
    assert all(row["batched_speedup_x"] > 1.0 for row in rows)


# -- kernel scaling: mapper candidate index ----------------------------------

#: ladder stages — ~50–80 processing blocks vs Table-1's handful
INDEX_SIZES = [25, 40]
#: identical node budget for both paths: same work, fair wall-clock
INDEX_MAX_NODES = 4000
INDEX_REPEATS = 3


def _time_mappings(g: SignalFlowGraph, mapper_classes):
    """Each mapper's fastest of ``INDEX_REPEATS`` runs.  The mappers
    alternate repeat by repeat, so a slow spell on the host lands on
    both sides rather than on whichever ran during it."""
    options = MapperOptions(
        enable_transforms=False,
        max_nodes=INDEX_MAX_NODES,
    )
    best = [None] * len(mapper_classes)
    for _ in range(INDEX_REPEATS):
        for slot, mapper_cls in enumerate(mapper_classes):
            result = mapper_cls(g, options=options).run()
            if best[slot] is None or (
                result.statistics.runtime_s
                < best[slot].statistics.runtime_s
            ):
                best[slot] = result
    return best


def run_mapper_index_series(reference_mapper):
    rows = []
    registry = metrics()
    for stages in INDEX_SIZES:
        g = ladder_sfg(stages)
        # Only the indexed mapper queries the index, so these counts
        # are its own.
        hits_before = registry.counter("mapper.index.hits")
        misses_before = registry.counter("mapper.index.misses")
        indexed, reference = _time_mappings(
            g, (ArchitectureMapper, reference_mapper)
        )
        hits = registry.counter("mapper.index.hits") - hits_before
        misses = registry.counter("mapper.index.misses") - misses_before
        assert indexed.estimate.area == reference.estimate.area
        assert (
            indexed.statistics.nodes_visited
            == reference.statistics.nodes_visited
        )
        rows.append(
            {
                "stages": stages,
                "blocks": len(g.processing_blocks()),
                "nodes_visited": indexed.statistics.nodes_visited,
                "mapper_indexed_s": indexed.statistics.runtime_s,
                "mapper_legacy_s": reference.statistics.runtime_s,
                "index_speedup_x": (
                    reference.statistics.runtime_s
                    / indexed.statistics.runtime_s
                ),
                "index_hits": hits,
                "index_misses": misses,
                "index_hit_rate": (
                    hits / (hits + misses) if hits + misses else 0.0
                ),
            }
        )
    return rows


def test_mapper_index_scaling(benchmark, bench_metrics, naive_mapper):
    rows = benchmark.pedantic(
        run_mapper_index_series, args=(naive_mapper,), rounds=1,
        iterations=1,
    )
    bench_metrics["rows"] = rows
    banner(
        "Kernel scaling: mapper candidate index vs per-node re-enumeration"
    )
    header = (
        f"{'stages':>6} {'blocks':>6} {'nodes':>6} "
        f"{'legacy [ms]':>11} {'indexed [ms]':>12} {'speedup':>8} "
        f"{'hit rate':>8}"
    )
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            f"{row['stages']:>6} {row['blocks']:>6} "
            f"{row['nodes_visited']:>6} "
            f"{row['mapper_legacy_s'] * 1e3:>11.2f} "
            f"{row['mapper_indexed_s'] * 1e3:>12.2f} "
            f"{row['index_speedup_x']:>7.1f}x "
            f"{row['index_hit_rate']:>8.3f}"
        )
    # The index pays for itself: >= 2x wall-clock at identical node
    # counts, with the candidate query mostly served from the index.
    assert max(row["index_speedup_x"] for row in rows) >= 2.0
    assert all(row["index_speedup_x"] > 1.0 for row in rows)
    assert all(row["index_hit_rate"] > 0.5 for row in rows)


def test_greedy_gap(benchmark):
    """Greedy optimality gap across several random topologies."""

    def run():
        gaps = []
        for seed in range(5):
            g = ladder_sfg(3, seed=seed)
            optimal = map_sfg(
                g, options=MapperOptions(enable_transforms=False)
            )
            greedy = map_sfg_greedy(g)
            gaps.append(
                greedy.netlist.total_opamps()
                - optimal.netlist.total_opamps()
            )
        return gaps

    gaps = benchmark.pedantic(run, rounds=1, iterations=1)
    banner("Section 7: greedy heuristic optimality gap")
    print(f"op-amp gap per seed: {gaps}")
    assert all(gap >= 0 for gap in gaps)
    assert max(gaps) <= 2
