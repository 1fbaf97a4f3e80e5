"""Tests of the flow rebuilt on the staged pipeline.

Acceptance coverage of the refactor: a recovery-ladder climb invokes
the parse/compile stages at most once per distinct causalization
(verified through the cache counters), and ``explore_solvers`` maps
every enumerated causalization, returns the best-area feasible result
deterministically for any worker count, and emits one explog event per
solver.  Plus regression tests for the two satellite fixes: the single
rung-1 recovery event, and the zero-input interfacing diagnostic.
"""

from pathlib import Path

import pytest

from repro.diagnostics import Severity, SynthesisError, VaseError
from repro.estimation import ConstraintSet
from repro.flow import FlowOptions, SolverOutcome, synthesize
from repro.instrument import explogging
from repro.pipeline import ArtifactCache, ParallelOptions, PipelineSession
from repro.robust.recovery import (
    OUTCOME_FAILED,
    OUTCOME_SKIPPED,
    RUNG_CAUSALIZATION,
)

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"
BIQUAD = (EXAMPLES / "biquad.vhd").read_text()

#: An overdetermined DAE set with exactly two causalizations whose
#: mapped architectures differ in area: solver #0 needs four op amps,
#: solver #1 three (the extra equation is legal — it's just unused by
#: the chosen causalization).
TWO_SOLVERS = """
entity mix is
  port (quantity u : in real;
        quantity y : out real);
end entity mix;

architecture beh of mix is
  quantity a : real;
  quantity b : real;
begin
  a == 2.0 * u;
  a + b == 3.0 * u;
  a - b == u;
  y == a + b;
end architecture beh;
"""


#: an area limit no mapping meets, however often relaxation doubles it
UNMEETABLE = ConstraintSet(max_area=1e-20)


def _tight_area() -> ConstraintSet:
    baseline = synthesize(BIQUAD)
    return ConstraintSet(max_area=baseline.estimate.area * 0.6)


class TestLadderStageReuse:
    def test_ladder_compiles_once(self):
        """The whole climb parses and compiles exactly once."""
        cache = ArtifactCache()
        result = synthesize(
            BIQUAD,
            options=FlowOptions(
                recovery=True, cache=cache, constraints=_tight_area()
            ),
        )
        assert result.degraded
        # Baseline + greedy + relax rungs all ran, yet the frontend and
        # compile stages computed once; every later rung hit the cache.
        assert cache.stats.stage_misses["frontend"] == 1
        assert cache.stats.stage_misses["compile"] == 1
        assert cache.stats.stage_misses["realize_fsm"] == 1
        assert cache.stats.stage_misses["optimize_vhif"] == 1
        assert cache.stats.stage_hits["compile"] >= 2
        # The mapper genuinely ran per attempt (different constraints /
        # greedy flag => different keys, and failures are never cached).
        assert cache.stats.stage_misses["map"] >= 3
        assert result.cache_stats["stage_misses"]["compile"] == 1

    def test_ladder_compiles_once_per_causalization(self):
        """With an alternative causalization, exactly one extra compile."""
        cache = ArtifactCache()
        with pytest.raises(SynthesisError):
            synthesize(
                TWO_SOLVERS,
                options=FlowOptions(
                    recovery=True, cache=cache, constraints=UNMEETABLE,
                ),
            )
        # Rung 1 tried causalization #1; the source was still parsed
        # once and compiled once per distinct causalization.
        assert cache.stats.stage_misses["frontend"] == 1
        assert cache.stats.stage_misses["compile"] == 2
        assert cache.stats.stage_misses["enumerate_solvers"] == 1


class TestExploreSolvers:
    def test_maps_every_causalization_and_picks_best_area(self):
        result = synthesize(
            TWO_SOLVERS, options=FlowOptions(explore_solvers=True)
        )
        assert len(result.solver_exploration) == 2
        assert all(o.feasible for o in result.solver_exploration)
        areas = {o.solver: o.area for o in result.solver_exploration}
        assert result.estimate.area == pytest.approx(min(areas.values()))
        chosen = [o for o in result.solver_exploration if o.chosen]
        assert len(chosen) == 1
        assert chosen[0].area == pytest.approx(min(areas.values()))

    @pytest.mark.parametrize("executor, workers", [
        pytest.param("serial", 1, id="1"),
        pytest.param("thread", 2, id="2"),
        pytest.param("thread", 4, id="4"),
        pytest.param("thread", 8, id="8"),
        pytest.param("process", 2, id="process"),
    ])
    def test_same_winner_for_any_worker_count(self, executor, workers):
        serial = synthesize(
            TWO_SOLVERS, options=FlowOptions(explore_solvers=True)
        )
        parallel = synthesize(
            TWO_SOLVERS,
            options=FlowOptions(
                explore_solvers=True,
                parallel=ParallelOptions(executor=executor, workers=workers),
            ),
        )
        assert parallel.estimate.area == pytest.approx(
            serial.estimate.area
        )
        assert [o.as_dict() for o in parallel.solver_exploration] == [
            o.as_dict() for o in serial.solver_exploration
        ]

    def test_process_backend_matches_serial_over_disk_cache(self, tmp_path):
        runs = {
            kind: synthesize(
                TWO_SOLVERS,
                options=FlowOptions(
                    explore_solvers=True,
                    parallel=ParallelOptions(executor=kind, workers=2),
                    cache=ArtifactCache(disk_dir=tmp_path / kind),
                ),
            )
            for kind in ("serial", "process")
        }
        serial, process = runs["serial"], runs["process"]
        assert [o.as_dict() for o in process.solver_exploration] == [
            o.as_dict() for o in serial.solver_exploration
        ]
        # The workers' stage work is counted on the submitting cache.
        assert process.cache_stats["stage_misses"] == \
            serial.cache_stats["stage_misses"]

    def test_one_explog_event_per_solver(self):
        with explogging() as log:
            synthesize(
                TWO_SOLVERS,
                options=FlowOptions(
                    explore_solvers=True,
                    parallel=ParallelOptions(executor="thread", workers=4),
                ),
            )
        events = log.of_kind("solver_explored")
        assert [e["solver"] for e in events] == [0, 1]
        assert sum(1 for e in events if e["chosen"]) == 1

    def test_single_causalization_falls_back_to_plain_flow(self):
        result = synthesize(
            BIQUAD, options=FlowOptions(explore_solvers=True)
        )
        assert result.solver_exploration == []
        assert result.estimate.opamps > 0

    def test_all_infeasible_raises(self):
        with pytest.raises(SynthesisError, match="explore_solvers"):
            synthesize(
                TWO_SOLVERS,
                options=FlowOptions(
                    explore_solvers=True, constraints=UNMEETABLE,
                ),
            )

    def test_exploration_shows_in_describe_and_report(self):
        from repro.report import generate_report

        result = synthesize(
            TWO_SOLVERS, options=FlowOptions(explore_solvers=True)
        )
        text = result.describe()
        assert "solver exploration" in text
        assert "selected" in text
        report = generate_report(result, include_spice=False)
        assert "## Solver-space exploration" in report
        assert "**selected**" in report


class TestRecoveryEventFixes:
    def test_single_skipped_event_when_no_alternatives(self):
        """Rung 1 on a one-causalization design: one SKIPPED event."""
        result = synthesize(
            BIQUAD,
            options=FlowOptions(
                recovery=True, constraints=_tight_area()
            ),
        )
        rung1 = [
            e for e in result.recovery if e.rung == RUNG_CAUSALIZATION
        ]
        assert len(rung1) == 1
        assert rung1[0].outcome == OUTCOME_SKIPPED
        assert "1 causalization(s) available" in rung1[0].detail

    def test_single_failed_event_when_enumeration_dies(self, monkeypatch):
        """Rung 1 when enumerate_solvers raises: one FAILED event, not
        a FAILED + a bogus '0 causalization(s) available' SKIPPED."""

        def boom(self, max_solvers=None):
            raise VaseError("enumeration exploded")

        monkeypatch.setattr(
            PipelineSession, "enumerate_causalizations", boom
        )
        result = synthesize(
            BIQUAD,
            options=FlowOptions(
                recovery=True, constraints=_tight_area()
            ),
        )
        assert result.degraded
        rung1 = [
            e for e in result.recovery if e.rung == RUNG_CAUSALIZATION
        ]
        assert len(rung1) == 1
        assert rung1[0].outcome == OUTCOME_FAILED
        assert "enumeration exploded" in rung1[0].detail


class TestInterfacingDiagnosticGuard:
    def test_zero_input_follower_does_not_crash_diagnostics(self):
        class _Spec:
            name = "voltage_follower"

        class _Instance:
            spec = _Spec()
            name = "buf_orphan"
            inputs = []

        result = synthesize(BIQUAD)
        result.interfacing_added.append(_Instance())
        notes = [
            d for d in result.diagnostics
            if d.severity is Severity.NOTE and "interfacing" in d.message
        ]
        assert any("no input net recorded" in d.message for d in notes)

    def test_connected_follower_note_still_names_the_net(self):
        class _Spec:
            name = "voltage_follower"

        class _Instance:
            spec = _Spec()
            name = "buf1"
            inputs = ["n42"]

        result = synthesize(BIQUAD)
        result.interfacing_added.append(_Instance())
        assert any(
            "buffering net 'n42'" in d.message
            for d in result.diagnostics
        )


class TestSessionDefaults:
    def test_runs_are_cold_without_an_explicit_cache(self):
        first = synthesize(BIQUAD)
        second = synthesize(BIQUAD)
        assert first.cache_stats["hits"] == 0
        assert second.cache_stats["hits"] == 0
        assert second.cache_stats["misses"] > 0

    def test_solver_outcome_describe(self):
        ok = SolverOutcome(
            solver=1, feasible=True, area=4.58e-8, opamps=3, chosen=True
        )
        assert "selected" in ok.describe()
        bad = SolverOutcome(solver=0, feasible=False, detail="too big")
        assert "infeasible" in bad.describe()
