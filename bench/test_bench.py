"""Tests of the benchmark itself: ``python -m pytest bench -q``.

The stats helpers and the span recorder are tested directly; each
workload gets a one-round smoke through the real worker, checked
against the metric list of ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from spans import NullTracer, Tracer, solver_shim  # noqa: E402
from stats import (  # noqa: E402
    P90_MIN_SAMPLES,
    best_worker_p10,
    geomean_by_input,
    median,
    p10,
    p90,
    quartiles,
    self_time_by_name,
    self_times,
)

SPEC = run.SPEC
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# -- stats ------------------------------------------------------------------


def test_geomean_of_per_input_statistic():
    # medians 2 and 8 -> sqrt(16); the pooled outlier 100 is ignored
    assert geomean_by_input({"a": [1, 2, 100], "b": [8]}, median) == (
        pytest.approx(4.0)
    )
    with pytest.raises(ValueError):
        geomean_by_input({}, median)


def test_p10_stays_within_the_samples():
    assert p10([5.0]) == 5.0
    # the exclusive method would extrapolate below 1.0 here
    assert 1.0 <= p10([1.0, 2.0, 3.0]) <= 2.0
    assert p10([float(v) for v in range(11)]) == pytest.approx(1.0)


def test_latency_passes_over_a_slowed_worker():
    quiet = [float(v) for v in range(10, 21)]
    slowed = [2.0 * v for v in quiet]
    assert best_worker_p10([slowed, quiet, []]) == pytest.approx(11.0)


def test_p90_needs_enough_samples():
    assert p90(list(range(P90_MIN_SAMPLES - 1))) is None
    values = [float(v) for v in range(1, P90_MIN_SAMPLES + 1)]
    assert p90(values) == pytest.approx(90.9)


def test_quartiles_and_spread():
    summary = quartiles([1.0, 2.0, 3.0, 4.0, 5.0])
    assert summary["median"] == 3.0
    assert summary["spread"] == pytest.approx(
        (summary["q3"] - summary["q1"]) / 3.0
    )


def test_self_time_subtracts_children():
    spans = [
        ["op", 0.0, 10.0, None, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 5.0, 9.0, 0, 0],
        ["a", 6.0, 7.0, 2, 0],
    ]
    assert self_times(spans) == [3.0, 3.0, 3.0, 1.0]
    assert self_time_by_name(spans) == {"op": 3.0, "a": 4.0, "b": 3.0}


# -- spans -------------------------------------------------------------------


def test_tracer_records_parent_and_op():
    tracer = Tracer()
    tracer.op = 7
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    (outer, inner) = tracer.spans
    assert outer[0] == "outer" and outer[3] is None
    assert inner[0] == "inner" and inner[3] == 0
    assert inner[4] == outer[4] == 7
    assert outer[1] <= inner[1] <= inner[2] <= outer[2]
    with NullTracer().span("nothing"):
        pass


def test_solver_shim_times_solves_and_restores():
    import numpy as np

    from repro.spice.linalg import DenseSolver

    original = DenseSolver.solve
    tracer = Tracer()
    with solver_shim(tracer):
        x = DenseSolver().solve(np.eye(2) * 2.0, np.ones(2))
    assert np.allclose(x, 0.5)
    assert [span[0] for span in tracer.spans] == ["spice.linalg.solve"]
    assert DenseSolver.solve is original


# -- BENCHMARK.json ----------------------------------------------------------


def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    bounds = {}
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        bounds[metric["name"]] = metric["bound"]
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(bounds.values())
    assert 2 <= len(SPEC["workloads"]) <= 8


# -- smoke: one round of each workload ---------------------------------------


def _one_run(workload: str, trace: int) -> dict:
    deadline = time.monotonic() + 120
    reports = run.run_round(workload, 0, 0, 0.2, trace, deadline)
    if workload == "serve_mixed" and trace:
        # the tracing overhead compares a traced with an untraced round
        reports += run.run_round(workload, 0, 1, 0.2, 0, deadline)
    return run.summarize(workload, 0, 0.2, trace, reports)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_smoke(workload, trace):
    result = _one_run(workload, trace)
    kind = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {
        name: metric["unit"] for name, metric in result["metrics"].items()
    } == expected
    assert all(
        isinstance(m["value"], float) and math.isfinite(m["value"])
        for m in result["metrics"].values()
    )
    assert result["attempted"] >= 1
    assert result["fail_ratio"] == 0
    assert result["correct"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    completed = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "synth_table1",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert not any(line.startswith("{")
                   for line in completed.stdout.splitlines())
