"""Shared helpers for the reproduction benchmarks.

Every benchmark prints a paper-vs-measured comparison after timing the
flow step it exercises, so ``pytest benchmarks/ --benchmark-only -s``
regenerates the paper's tables and figures as terminal output.

Benchmarks can also dump machine-readable per-phase metrics for the
perf trajectory: :func:`dump_metrics` (or the ``bench_metrics``
fixture) writes one JSON file per benchmark under ``benchmarks/out/``
(override with ``VASE_BENCH_METRICS_DIR``; set it to ``0`` or ``off``
to disable dumping).  Each file carries the payload the benchmark
recorded plus a snapshot of the process-wide
:func:`repro.instrument.metrics` registry, so a run's search effort
(nodes visited, cones matched, op-amp sizings, MNA factorizations) is
preserved alongside its wall-times.  Facts about the host (its usable
cores) go in a separate ``provenance`` section, which ``bench-check``
does not gate: they describe the machine, not the program.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Optional

import pytest

from repro.instrument import aggregate_spans, metrics, tracing


def banner(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


def _metrics_dir() -> Optional[str]:
    configured = os.environ.get("VASE_BENCH_METRICS_DIR")
    if configured is not None:
        if configured.lower() in ("", "0", "off", "none"):
            return None
        return configured
    return os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def dump_metrics(name: str, payload: Dict[str, object]) -> Optional[str]:
    """Write ``payload`` + a metrics-registry snapshot as JSON.

    Returns the path written, or ``None`` when dumping is disabled.
    """
    directory = _metrics_dir()
    if directory is None:
        return None
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{name}.json")
    document = {
        "benchmark": name,
        "payload": payload,
        "metrics": metrics().snapshot(),
        "provenance": {"cores": len(os.sched_getaffinity(0))},
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, default=str)
    return path


@pytest.fixture
def bench_metrics(request):
    """Collect-and-dump dict: items put here land in the metrics JSON.

    The process-wide metrics registry is reset before the benchmark
    body runs, so the snapshot in the dump covers this benchmark only;
    the whole benchmark runs under a tracer, so flow phases
    (compile/map/estimate...) land in the dump as per-phase timings.
    """
    metrics().reset()
    payload: Dict[str, object] = {}
    with tracing() as tracer:
        yield payload
    phases = aggregate_spans(tracer.roots)
    if phases:
        payload["phases"] = [
            {
                "path": list(phase.path),
                "calls": phase.calls,
                "mean_s": phase.mean_s,
                "min_s": phase.min_s,
                "max_s": phase.max_s,
                "total_s": phase.total_s,
            }
            for phase in phases
        ]
    path = dump_metrics(request.node.name, payload)
    if path is not None:
        print(f"\n[metrics JSON: {path}]")
