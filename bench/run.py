#!/usr/bin/env python3
"""The repo benchmark: four workloads, end-to-end and per-layer metrics.

Run one workload (the form ``BENCHMARK.json`` names)::

    python3 bench/run.py --workload synth_table1 --seed 1 --seconds 15 \\
        --trace 0

or all four in turn by leaving out ``--workload``.  Each round of a
workload runs in fresh worker processes (``bench/worker.py``); the
harness times each worker's set-up, collects every operation, checks
that every oracle passed, prints each metric with its unit, writes the
full result to ``bench/out/`` and ends with one JSON line::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` the per-layer ones (see ``bench/README.md``).  The
harness imports nothing from the program; it exits 2 without a result
when the program's sources are missing, and 1 when a round fails.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List, Optional

from stats import best_worker_p10, geomean_by_input, median, p90

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: closed-loop clients of an in-process workload: one worker process
#: each, side by side (threads would share one interpreter lock).
#: serve_mixed has one worker, which is the server's one client
#: (serve_load.py).
CLIENTS = min(2, os.cpu_count() or 1)
#: in-process workloads run this many rounds, each measuring an equal
#: share of ``--seconds``.  serve_mixed runs fixed-size rounds while
#: one more round, at the mean round time so far, still ends within
#: ``--seconds`` of wall time, set-up included: starting and stopping
#: its server takes a third of each round.
ROUNDS = 4
#: fewest serve_mixed rounds (a traced run alternates traced and
#: untraced rounds, so it needs at least two of each)
SERVE_MIN_ROUNDS = {0: 3, 1: 4}
#: a run must end within this many seconds of wall time
RUN_DEADLINE_S = 170.0


class RoundFailed(RuntimeError):
    """A worker crashed, hung, or never reported its round."""


def run_worker(workload: str, seed: int, index: int, client: int,
               budget: float, trace: int, deadline: float) -> dict:
    """Spawn one worker; time its set-up; return its report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    command = [
        sys.executable, str(BENCH / "worker.py"), workload,
        "--seed", str(seed), "--round", str(index), "--client", str(client),
        "--budget", repr(budget), "--trace", str(trace),
    ]
    spawned = time.perf_counter()
    # Its own process group, so that killing a hung worker also stops
    # the server it started.
    worker = subprocess.Popen(command, cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, text=True,
                              start_new_session=True)

    def kill() -> None:
        try:
            os.killpg(worker.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), kill)
    watchdog.start()
    try:
        ready = None
        for line in worker.stdout:
            if line.strip() == "READY":
                ready = time.perf_counter()
                break
        output = worker.stdout.read()
        worker.wait()
    finally:
        watchdog.cancel()
        if worker.poll() is None:
            kill()
            worker.wait()
        worker.stdout.close()
    if ready is None or worker.returncode != 0 or not output.strip():
        raise RoundFailed(
            f"{workload} round {index} client {client} failed "
            f"(exit {worker.returncode})"
        )
    report = json.loads(output.strip().splitlines()[-1])
    report.update(setup_s=ready - spawned, traced=bool(trace), round=index)
    return report


def run_round(workload: str, seed: int, index: int, budget: float,
              trace: int, deadline: float) -> List[dict]:
    """One round: its workers side by side, one report each."""
    clients = 1 if workload == "serve_mixed" else CLIENTS
    with ThreadPoolExecutor(clients) as pool:
        futures = [
            pool.submit(run_worker, workload, seed, index, client, budget,
                        trace, deadline)
            for client in range(clients)
        ]
        return [future.result() for future in futures]


def run_workload(workload: str, seed: int, seconds: float,
                 trace: int) -> List[dict]:
    """The worker reports of one workload run, all rounds."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    reports: List[dict] = []
    if workload != "serve_mixed":
        for index in range(ROUNDS):
            reports += run_round(workload, seed, index, seconds / ROUNDS,
                                 trace, deadline)
        return reports
    started = time.monotonic()
    while (len(reports) < SERVE_MIN_ROUNDS[trace]
           or (time.monotonic() - started) * (len(reports) + 1)
           / len(reports) <= seconds):
        # A traced run alternates traced and untraced rounds; their
        # latency ratio is the tracing overhead.
        traced = trace if len(reports) % 2 == 0 else 0
        reports += run_round(workload, seed, len(reports), 0.0, traced,
                             deadline)
    return reports


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _latencies_by_worker(
    reports: List[dict],
) -> Dict[str, List[List[float]]]:
    """Latencies of the passing ops, by input, one list per worker."""
    by_input: Dict[str, List[List[float]]] = defaultdict(list)
    for report in reports:
        mine: Dict[str, List[float]] = defaultdict(list)
        for key, latency, ok in report["ops"]:
            if ok:
                mine[key].append(latency)
        for key, values in mine.items():
            by_input[key].append(values)
    return by_input


def _latencies(reports: List[dict]) -> Dict[str, List[float]]:
    """Latencies of the passing ops, by input, all workers pooled."""
    return {
        key: [lat for values in per_worker for lat in values]
        for key, per_worker in _latencies_by_worker(reports).items()
    }


def end_to_end(workload: str,
               reports: List[dict]) -> Dict[str, Optional[float]]:
    by_input = _latencies(reports)
    tail = p90([lat for values in by_input.values() for lat in values])
    rounds: Dict[int, List[dict]] = defaultdict(list)
    for report in reports:
        rounds[report["round"]].append(report)
    if workload == "serve_mixed":
        # one job at a time, nothing beside it: the median of the run
        latency = geomean_by_input(by_input, median)
    else:
        latency = geomean_by_input(_latencies_by_worker(reports),
                                   best_worker_p10)
    return {
        "setup_s": median(r["setup_s"] for r in reports),
        "latency_ms": latency * 1e3,
        "peak_rss_mb": median(r["rss_mb"] for r in reports),
        # reported in the result file, not gated (see README.md)
        "latency_median_ms": geomean_by_input(by_input, median) * 1e3,
        "latency_p90_ms": None if tail is None else tail * 1e3,
        "throughput_ops_s": median(
            sum(len(r["ops"]) for r in group)
            / max(r["wall_s"] for r in group)
            for group in rounds.values()
        ),
    }


#: per-layer span names whose self time is reported as ``<name>_ms``
SELF_TIMED = (
    "vass.semantics.analyze", "compiler.compile",
    "synth.fsm_mapping.realize", "vhif.optimize.optimize",
    "synth.mapper.map", "synth.transforms.interface",
    "estimation.estimate", "vhif.interp.run", "spice.netlister.elaborate",
    "verify.compare",
)


def per_layer_inprocess(reports: List[dict]) -> dict:
    """Per-op layer split from the traced chains of all workers."""
    self_s: Dict[str, float] = defaultdict(float)
    inclusive: Dict[str, float] = defaultdict(float)
    counts: Dict[str, float] = defaultdict(float)
    sums: Dict[str, float] = defaultdict(float)
    for report in reports:
        trace = report["trace"]
        for name, value in trace["self_s"].items():
            self_s[name] += value
        for name, value in trace["inclusive_s"].items():
            inclusive[name] += value
        for name, value in trace["counts"].items():
            counts[name] += value
        for name in ("ops", "plain_s", "traced_s", "residue_s"):
            sums[name] += trace[name]
    ops = sums["ops"]

    def ms(seconds: float) -> float:
        return seconds / ops * 1e3 if ops else 0.0

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    steps = counts["steps"]
    metrics = {f"{name}_ms": ms(self_s[name]) for name in SELF_TIMED}
    metrics.update({
        "vass.lexer.tokenize_ms": ms(inclusive["vass.lexer.tokenize"]),
        "vass.parser.parse_ms": ms(
            self_s["vass.parser.parse"] - inclusive["vass.lexer.tokenize"]
        ),
        "synth.mapper.nodes_visited": ratio(counts["nodes_visited"], ops),
        "synth.mapper.prune_ratio": ratio(counts["nodes_pruned"],
                                          counts["nodes_visited"]),
        "spice.mna.transient_ms": ms(inclusive["spice.mna.transient"]),
        "spice.mna.assembly_ms": ms(self_s["spice.mna.transient"]),
        "spice.linalg.solve_ms": ms(inclusive["spice.linalg.solve"]),
        "spice.mna.step_us": ratio(inclusive["spice.mna.transient"],
                                   steps) * 1e6,
        "spice.mna.solves_per_step": ratio(counts["factorizations"], steps),
        "spice.ac.sweep_ms": ms(inclusive["spice.ac.sweep"]),
        "spice.linalg.solve_grid_ms": ms(inclusive["spice.linalg.solve_grid"]),
        "spice.ac.setup_ms": ms(inclusive["spice.ac.sweep"]
                                - inclusive["spice.linalg.solve_grid"]),
        "trace.overhead_pct": 100.0 * (ratio(sums["traced_s"],
                                             sums["plain_s"]) - 1.0),
        # share of the traced op inside layer spans (the rest is the
        # benchmark's own glue between the calls)
        "trace.coverage_pct": 100.0 * (
            1.0 - ratio(self_s["op"], inclusive["op"])
        ),
    })
    residue = reports[0]["trace"]["residue_metric"]
    if residue is not None:
        metrics[residue] = ms(sums["residue_s"])
    return metrics


def per_layer_serve(reports: List[dict]) -> dict:
    """Serve-side split from the traced rounds' job timestamps."""
    traced = [r for r in reports if r["traced"]]
    plain = [r for r in reports if not r["traced"]]
    records = [rec for r in traced for rec in r["records"] if rec["ok"]]
    jobs = len(records)
    drift = []
    for report in traced:
        ordered = [rec["latency_s"] for rec in report["records"]]
        quarter = max(1, len(ordered) // 4)
        drift.append(
            (sum(ordered[-quarter:]) / quarter)
            / (sum(ordered[:quarter]) / quarter)
        )
    hits = sum(r["cache_hits"] for r in traced)
    misses = sum(r["cache_misses"] for r in traced)
    tail = p90([rec["latency_s"] for rec in records])
    return {
        "serve.queue_wait_ms": median(r["queue_wait_s"]
                                      for r in records) * 1e3,
        "serve.run_ms": median(r["run_s"] for r in records) * 1e3,
        "serve.delivery_ms": median(r["latency_s"] - r["server_s"]
                                    for r in records) * 1e3,
        "serve.ttfe_ms": median(r["ttfe_s"] for r in records) * 1e3,
        "serve.events_per_job": sum(r["frames"] for r in records) / jobs,
        "serve.cpu_ms_per_job": sum(r["cpu_s"] for r in traced)
        / sum(len(r["records"]) for r in traced) * 1e3,
        "pipeline.cache.hit_ratio": hits / (hits + misses),
        "serve.latency_drift": median(drift),
        "serve.latency_p90_ms": 0.0 if tail is None else tail * 1e3,
        "trace.overhead_pct": 100.0 * (
            geomean_by_input(_latencies(traced), median)
            / geomean_by_input(_latencies(plain), median) - 1.0
        ),
        # the three serve-side intervals partition each job's latency
        "trace.coverage_pct": 100.0,
    }


def per_layer(workload: str, reports: List[dict]) -> dict:
    metrics = {m["name"]: 0.0 for m in SPEC["per_layer"]}
    if workload == "serve_mixed":
        metrics.update(per_layer_serve(reports))
    else:
        metrics.update(per_layer_inprocess(reports))
    return metrics


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def summarize(workload: str, seed: int, seconds: float, trace: int,
              reports: List[dict]) -> dict:
    """The full result of one run, as written to ``bench/out/``."""
    attempted = sum(len(r["ops"]) for r in reports)
    failed = sum(1 for r in reports for _k, _l, ok in r["ops"] if not ok)
    kind = "per_layer" if trace else "end_to_end"
    values = (per_layer(workload, reports) if trace
              else end_to_end(workload, reports))
    units = {m["name"]: m["unit"] for m in SPEC[kind]}
    correct = failed == 0
    if trace and values["trace.coverage_pct"] < 95.0:
        correct = False  # the layer spans miss part of the op
    backends: Dict[str, float] = defaultdict(float)
    for report in reports:
        for name, count in report["linalg_backends"].items():
            backends[name] += count
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "metrics": {
            name: {"value": values[name], "unit": units[name]}
            for name in units
        },
        "extra": {
            name: value for name, value in values.items()
            if name not in units
        },
        "workers": [
            {key: r[key] for key in ("round", "setup_s", "wall_s", "rss_mb",
                                     "traced")}
            | {"ops": len(r["ops"])}
            for r in reports
        ],
        "provenance": dict(
            reports[0]["provenance"],
            commit=_git_commit(),
            linalg_backends=dict(backends),
        ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the repo benchmark (see bench/README.md)."
    )
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="one workload (default: all four in turn)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(SPEC["run_seconds"]),
                        help="seconds of operations to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0,
                        help="1: report the per-layer split instead")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are not under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    for workload in [args.workload] if args.workload else WORKLOADS:
        try:
            reports = run_workload(workload, args.seed, args.seconds,
                                   args.trace)
        except RoundFailed as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
        result = summarize(workload, args.seed, args.seconds, args.trace,
                           reports)
        path = OUT / (f"{workload}-seed{args.seed}-trace{args.trace}.json")
        path.write_text(json.dumps(result, indent=2) + "\n",
                        encoding="utf-8")
        print(f"{workload} (seed {args.seed}, {result['attempted']} ops, "
              f"{result['failed']} failed) -> {path.relative_to(ROOT)}")
        for name, metric in result["metrics"].items():
            print(f"  {name:<28} {metric['value']:.6g} {metric['unit']}")
        print(json.dumps({
            key: result[key]
            for key in ("correct", "attempted", "failed", "metrics")
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
