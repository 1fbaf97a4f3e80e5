#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread and save a baseline.

Runs ``bench/run.py`` once per seed on each workload, one run at a
time, and writes every run's metrics with their median, quartiles and
spread (Q3 - Q1 as a share of the median) to one JSON file::

    python3 bench/baseline.py --seeds 1-10 --out bench/results/untraced-a.json
    python3 bench/baseline.py --seeds 1-3 --trace 1 \\
        --out bench/results/traced.json

Each end-to-end spread is printed next to the metric's bound in
``BENCHMARK.json``; a steady metric stays below a third of its bound.
Exits 1 when a run fails its oracles.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import List

from stats import quartiles

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _seeds(text: str) -> List[int]:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(seed) for seed in text.split(",")]


def run_once(workload: str, seed: int, trace: int) -> dict:
    """One run of ``run.py``: its full result file, and its wall time."""
    started = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    run_s = time.perf_counter() - started
    if completed.returncode != 0 or not completed.stdout.strip():
        raise SystemExit(f"{workload} seed {seed} failed:\n"
                         f"{completed.stdout}{completed.stderr}")
    result = json.loads(
        (BENCH / "out" / f"{workload}-seed{seed}-trace{trace}.json")
        .read_text(encoding="utf-8")
    )
    result["run_s"] = run_s
    return result


def summary(values: List[float]) -> dict:
    if len(values) < 2:
        return {"values": values, "median": values[0]}
    return dict(quartiles(values), values=values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10",
                        help="seeds, as 1-10 or 1,2,3 (default 1-10)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload", action="append", default=None,
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in SPEC["workloads"]]
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    report = {"run_seconds": SPEC["run_seconds"], "trace": args.trace,
              "workloads": {}}
    ok = True
    for workload in workloads:
        runs = []
        for seed in _seeds(args.seeds):
            result = run_once(workload, seed, args.trace)
            ok = ok and result["correct"]
            runs.append(result)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{name} {m['value']:.6g}"
                for name, m in result["metrics"].items()
            ), flush=True)
        metrics = {}
        for name, metric in runs[0]["metrics"].items():
            metrics[name] = dict(
                summary([run["metrics"][name]["value"] for run in runs]),
                unit=metric["unit"],
            )
            spread = metrics[name].get("spread")
            if name in bounds and spread is not None:
                metrics[name]["bound"] = bounds[name]
                print(f"  {name}: spread {spread:.4f} of bound "
                      f"{bounds[name]}", flush=True)
        report["workloads"][workload] = {
            "seeds": _seeds(args.seeds),
            "attempted": sum(run["attempted"] for run in runs),
            "failed": sum(run["failed"] for run in runs),
            "metrics": metrics,
            # ungated numbers of the result files, and each run's wall
            # time with its set-up
            "extra": {
                name: summary(values)
                for name in runs[0]["extra"]
                if (values := [run["extra"][name] for run in runs
                               if run["extra"][name] is not None])
            },
            "run_s": summary([run["run_s"] for run in runs]),
            "linalg_backends": {
                name: sum(run["provenance"]["linalg_backends"].get(name, 0)
                          for run in runs)
                for name in sorted({
                    name for run in runs
                    for name in run["provenance"]["linalg_backends"]
                })
            },
        }
        report["provenance"] = {
            key: value for key, value in runs[0]["provenance"].items()
            if key != "linalg_backends"
        }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n",
                        encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
