"""Stage artifacts are shared by reference and never written to.

:class:`~repro.pipeline.ArtifactCache` hands every caller the object
it stored, so a write to an artifact after ``put`` would leak into
every later run that hits it.  Every test here runs under the
``frozen_artifacts`` fixture (see ``conftest.py``), which digests each
stored artifact at ``put`` and again at teardown: the bundled
examples, the Table-1 applications, solver-space exploration, a
recovery-ladder climb, ``run_batch`` on every executor, and warm
served jobs.
"""

import contextlib
import io
import runpy
import time
from pathlib import Path

import pytest

from repro.apps import ALL_APPLICATIONS
from repro.estimation import ConstraintSet
from repro.flow import FlowOptions, synthesize
from repro.pipeline import ArtifactCache, ParallelOptions
from repro.robust.batch import find_sources, run_batch
from repro.serve.queue import JobManager
from repro.spice import to_spice_deck

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"
BIQUAD = (EXAMPLES / "biquad.vhd").read_text()

#: Two causalizations with different areas (see test_pipeline_flow).
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


def _report(result) -> str:
    """Everything a synthesis produced, without wall-clock numbers."""
    return "\n".join([
        result.design.describe(),
        result.netlist.describe(),
        result.estimate.describe(),
        to_spice_deck(result.netlist),
        repr(result.realized_controls),
        repr(result.interfacing_added),
        repr([e.as_dict() for e in result.recovery]),
        repr([o.as_dict() for o in result.solver_exploration]),
    ])


@pytest.mark.parametrize(
    "path", sorted(EXAMPLES.iterdir()), ids=lambda p: p.name
)
def test_examples(path, frozen_artifacts):
    if path.suffix == ".py":
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(path), run_name="__main__")
    else:
        synthesize(path.read_text(), source_filename=path.name)
    assert frozen_artifacts


@pytest.mark.parametrize("name", sorted(ALL_APPLICATIONS))
def test_table1_applications_cold_and_warm(name, frozen_artifacts):
    source = ALL_APPLICATIONS[name].VASS_SOURCE
    cache = ArtifactCache()
    cold = synthesize(source, options=FlowOptions(cache=cache))
    warm = synthesize(source, options=FlowOptions(cache=cache))
    assert cache.stats.hits > 0
    assert _report(warm) == _report(cold)


def test_shared_cache_hands_out_the_same_design():
    cache = ArtifactCache()
    first = synthesize(BIQUAD, options=FlowOptions(cache=cache))
    second = synthesize(BIQUAD, options=FlowOptions(cache=cache))
    assert second.design.main_sfg is first.design.main_sfg
    assert second.netlist is first.netlist
    cold = synthesize(BIQUAD)
    assert _report(first) == _report(cold)
    assert _report(second) == _report(cold)


@pytest.mark.parametrize("executor, workers", [
    ("serial", 1), ("thread", 2),
])
def test_explore_solvers(executor, workers, frozen_artifacts):
    cache = ArtifactCache()
    options = FlowOptions(
        explore_solvers=True,
        cache=cache,
        parallel=ParallelOptions(executor=executor, workers=workers),
    )
    cold = synthesize(TWO_SOLVERS, options=options)
    warm = synthesize(TWO_SOLVERS, options=options)
    assert len(cold.solver_exploration) == 2
    assert _report(warm) == _report(cold)


def test_recovery_ladder_climb(frozen_artifacts):
    cache = ArtifactCache()
    baseline = synthesize(BIQUAD, options=FlowOptions(cache=cache))
    tight = ConstraintSet(max_area=baseline.estimate.area * 0.6)
    options = FlowOptions(recovery=True, cache=cache, constraints=tight)
    climbed = synthesize(BIQUAD, options=options)
    again = synthesize(BIQUAD, options=options)
    assert climbed.degraded
    assert _report(again) == _report(climbed)


def test_run_batch_on_every_executor_over_one_cache(
    tmp_path, frozen_artifacts
):
    files = find_sources(EXAMPLES)
    cache = ArtifactCache(disk_dir=tmp_path / "cache")
    reports = set()
    for executor, workers in (("serial", 1), ("thread", 2), ("process", 2)):
        report = run_batch(
            files,
            cache=cache,
            parallel=ParallelOptions(executor=executor, workers=workers),
        )
        reports.add(report.to_json(timing=False))
    # A last serial run unpickles every artifact from the disk tier.
    cache.clear_memory()
    reports.add(run_batch(files, cache=cache).to_json(timing=False))
    assert len(reports) == 1
    assert cache.stats.hits > 0


def _finish(job, timeout=60.0):
    deadline = time.time() + timeout
    while job.status not in ("ok", "degraded", "failed", "cancelled"):
        assert time.time() < deadline, "job did not finish"
        time.sleep(0.02)
    return job


def test_two_warm_served_jobs_on_one_cache(frozen_artifacts):
    cache = ArtifactCache()
    manager = JobManager(FlowOptions(cache=cache), workers=2)
    try:
        cold = _finish(manager.submit(BIQUAD, label="biquad.vhd"))
        stored = cache.stats.stores
        warm = [
            manager.submit(BIQUAD, label="biquad.vhd") for _ in range(2)
        ]
        warm = [_finish(job) for job in warm]
    finally:
        manager.stop(wait=True)
    assert cold.status == "ok"
    assert cache.stats.stores == stored
    for job in warm:
        assert job.status == "ok"
        for name in ("netlist", "spice"):
            assert job.artifacts[name] == cold.artifacts[name]
