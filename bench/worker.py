"""One round of one workload, in a fresh process.

``run.py`` spawns this script once per client and round and times it
from spawn until it prints ``READY`` (imports, fixtures, and for
``serve_mixed`` the server start) — the worker's set-up time.  The
worker then runs its share of the round and prints one JSON line with
every operation's input, latency and oracle verdict::

    python bench/worker.py synth_table1 --seed 1 --round 0 --client 0 \\
        --budget 2.5 --trace 0

``--budget`` is the seconds of operations to run (whole operations;
``serve_mixed`` runs a fixed job count instead).  With ``--trace 1``
each operation also runs as a chain of layer calls in spans.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import random
import resource
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, Iterator, List

BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
BLAS_FIELDS = ("name", "version", "openblas configuration")


def _ready() -> None:
    print("READY", flush=True)


def _input_order(inputs: List[str], rng: random.Random) -> Iterator[str]:
    """Every input once per cycle, each cycle in a seeded order."""
    while True:
        cycle = list(inputs)
        rng.shuffle(cycle)
        yield from cycle


def _add(totals: Dict[str, float], values: Dict[str, float]) -> None:
    for name, value in values.items():
        totals[name] = totals.get(name, 0.0) + value


def _backend_counts() -> Dict[str, float]:
    from repro.instrument import metrics

    prefix = "spice.linalg.backend."
    return {
        name[len(prefix):]: value
        for name, value in metrics().snapshot()["counters"].items()
        if name.startswith(prefix)
    }


def inprocess_round(args) -> dict:
    from spans import NullTracer, Tracer
    from stats import self_time_by_name
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    order = _input_order(
        workload.inputs,
        random.Random(f"{args.workload}/{args.seed}/{args.round}/"
                      f"{args.client}"),
    )
    backends = _backend_counts()
    tracer, null = Tracer(), NullTracer()
    trace = {"ops": 0, "plain_s": 0.0, "traced_s": 0.0, "residue_s": 0.0,
             "counts": {}, "residue_metric": workload.residue}
    records = []
    _ready()

    started = time.perf_counter()
    while not records or time.perf_counter() - started < args.budget:
        key = next(order)
        begin = time.perf_counter()
        try:
            output = workload.run(key)
            latency = time.perf_counter() - begin
            ok = bool(workload.check(key, output))
            if args.trace:
                ok = _traced_op(workload, key, output, latency, len(records),
                                tracer, null, trace) and ok
        except Exception:  # noqa: BLE001 - a failed op is counted, not fatal
            traceback.print_exc()
            latency, ok = time.perf_counter() - begin, False
        records.append([key, latency, ok])
    wall = time.perf_counter() - started

    result = {
        "ops": records,
        "wall_s": wall,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "linalg_backends": {
            name: value - backends.get(name, 0)
            for name, value in _backend_counts().items()
            if value - backends.get(name, 0)
        },
    }
    if args.trace:
        spans = tracer.spans
        trace["self_s"] = self_time_by_name(spans)
        trace["inclusive_s"] = {}
        for name, start, end, _parent, _op in spans:
            _add(trace["inclusive_s"], {name: end - start})
        result["trace"] = trace
        _write_spans(args, spans)
    return result


def _traced_op(workload, key, output, latency, op_id, tracer, null,
               trace) -> bool:
    """The op's chain untraced and traced, in alternating order.

    The untraced chain against ``run`` gives the residue (work ``run``
    does beyond the layer calls); traced against untraced gives the
    tracing overhead.  Both chains must reproduce ``run``'s output.
    """
    from repro.instrument import metrics
    from spans import solver_shim

    outputs = {}
    for variant in (("plain", "traced") if op_id % 2 == 0
                    else ("traced", "plain")):
        if variant == "plain":
            begin = time.perf_counter()
            outputs[variant] = workload.chain(key, null)
            elapsed = time.perf_counter() - begin
            trace["plain_s"] += elapsed
            trace["residue_s"] += latency - elapsed
            continue
        tracer.op = op_id
        before = metrics().counter("spice.mna.factorizations")
        with solver_shim(tracer):
            begin = time.perf_counter()
            with tracer.span("op"):
                outputs[variant] = workload.chain(key, tracer)
            trace["traced_s"] += time.perf_counter() - begin
        _add(trace["counts"], {
            "factorizations":
                metrics().counter("spice.mna.factorizations") - before,
        })
        workload.probe(key, tracer)
    _add(trace["counts"], workload.counts(key, outputs["traced"]))
    trace["ops"] += 1
    return all(workload.matches(key, output, outputs[variant])
               for variant in outputs)


def _write_spans(args, spans) -> None:
    """Keep the raw spans of a traced round under ``bench/out/spans``."""
    directory = OUT / "spans"
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / (f"{args.workload}-seed{args.seed}-r{args.round}"
                        f"-c{args.client}.json")
    path.write_text(json.dumps({
        "fields": ["name", "start", "end", "parent", "op"],
        "spans": spans,
    }))


def serve_round(args) -> dict:
    from serve_load import ServeRound

    OUT.mkdir(exist_ok=True)
    server = ServeRound(OUT, args.seed, args.round)
    try:
        server.start()
        _ready()
        result = server.measure(bool(args.trace))
    finally:
        server.close()
    for record in result["records"]:
        if not record["ok"]:
            print(f"job {record['index']} ({record['key']}) failed: "
                  f"{record.get('error')}", file=sys.stderr)
    result["ops"] = [
        [record["key"], record["latency_s"], record["ok"]]
        for record in result["records"]
    ]
    result["linalg_backends"] = {}
    return result


def provenance() -> dict:
    """The host and library facts a result may only be compared under."""
    import numpy

    libraries = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        # which BLAS and LAPACK, not where numpy's build found them
        "blas": {
            kind: {key: info.get(key) for key in BLAS_FIELDS}
            for kind, info in libraries.items()
        },
        "scipy": importlib.util.find_spec("scipy") is not None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--round", type=int, required=True)
    parser.add_argument("--client", type=int, default=0)
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "serve_mixed":
        result = serve_round(args)
    else:
        result = inprocess_round(args)
    result["provenance"] = provenance()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
