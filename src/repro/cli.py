"""Command-line interface of the VASE reproduction.

Subcommands::

    vase compile  FILE [--entity NAME] [--dot]   # VASS -> VHIF report
    vase synth    FILE [--entity NAME]           # full flow -> netlist
                  [--trace] [--trace-json FILE]  #   + per-phase timing
                  [--cache [DIR]]                #   on-disk artifact cache
                  [--explore-solvers]            #   map all causalizations
                  [--executor serial|thread|process] [--workers N]
                  [--budget S]                   #   hard wall-clock budget
                  [--events FILE]                #   telemetry-bus JSONL
                  [--ledger PATH] [--no-ledger]  #   run-ledger control
    vase spice    FILE [--entity NAME]           # full flow -> SPICE deck
    vase verify   FILE [--amplitude A] [...]     # spec-vs-circuit check
    vase ac       FILE [--f-start F] [...]       # AC sweep of the circuit
    vase profile  FILE [--repeat N] [--cache]    # where does the time go
    vase explain  FILE [--jsonl F] [--dot F]     # why this architecture:
                  [--html F]                     #   decision-level replay
    vase metrics  [FILE] [--prom] [--json]       # metrics snapshot: table,
                  [--from-json F] [--out F]      #   Prometheus, or JSON
    vase bench-check [--update] [...]            # metrics regression gate
    vase check    FILE...                        # syntax check, all errors
    vase batch    DIR [--json F] [--strict]      # synthesize every file,
                  [--no-recovery]                #   per-file isolation
                  [--executor serial|thread|process] [--workers N]
                  [--cache [DIR]]                #   shared artifact cache
                  [--cache-stats F][--no-timing] #   deterministic output
                  [--events FILE] [--progress]   #   live telemetry
                  [--metrics-out FILE]           #   Prometheus dump
                  [--resume [JOURNAL]]           #   crash-safe resume
    vase serve    [--host H] [--port P]          # HTTP service: job queue,
                  [--executor thread|process]    #   SSE telemetry streams,
                  [--workers N] [--queue-limit N]#   /metrics, /history,
                  [--cache [DIR]] [--token T]    #   POST /jobs/<id>/cancel
                  [--drain-timeout S]            #   SIGTERM graceful drain
                  [--ledger PATH] [--no-ledger]
    vase watch    URL [--since N] [--verbose]    # tail a served job's SSE
                  [--token T] [--retries N]      #   with auto-reconnect
    vase history  [--limit N] [--outcome O]      # recent runs from the
                  [--source S] [--json]          #   persistent ledger
    vase stats    [--json]                       # ledger-wide aggregates
    vase table1                                  # reproduce Table 1
    vase examples                                # list bundled applications

``FILE`` may also be the name of a bundled application
(``receiver``, ``power_meter``, ``missile_solver``, ``iterative_solver``,
``function_generator``, ``biquad_filter``).

Exit codes: ``0`` success; ``1`` an analysis ran and failed its check
(verification miss, batch failure, syntax errors found, missing input
file); ``2`` the flow itself died on a :class:`VaseError` — printed as
``file:line:col: severity: message`` when the error is located.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from repro.diagnostics import VaseError


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_executor_args(parser, what: str) -> None:
    """The shared ``--executor`` / ``--workers`` pair."""
    parser.add_argument(
        "--executor", choices=("serial", "thread", "process"),
        default=None,
        help=f"execution backend for {what}: serial, the in-process "
        "thread pool, or process (multiprocessing spawn workers — "
        "true multi-core; output is identical across backends)",
    )
    parser.add_argument(
        "--workers", type=_positive_int, default=None, metavar="N",
        help="worker count for --executor (default: the CPU count "
        "when an executor is chosen, else 1)",
    )


def _resolve_parallel(args: argparse.Namespace):
    """A :class:`~repro.pipeline.ParallelOptions` from the CLI pair.

    ``--executor`` without ``--workers`` defaults to every available
    core; ``--workers`` without ``--executor`` picks the thread backend.
    """
    import os

    from repro.pipeline import ParallelOptions

    executor = getattr(args, "executor", None)
    workers = getattr(args, "workers", None)
    if executor is None and workers is None:
        return ParallelOptions()
    if workers is None:
        workers = 1 if executor == "serial" else (os.cpu_count() or 1)
    if executor is None:
        executor = "thread" if workers > 1 else "serial"
    return ParallelOptions(executor=executor, workers=workers)


def _load_source(spec: str) -> str:
    from repro.apps import ALL_APPLICATIONS, EXTRA_APPLICATIONS

    if spec in ALL_APPLICATIONS:
        return ALL_APPLICATIONS[spec].VASS_SOURCE
    if spec in EXTRA_APPLICATIONS:
        return EXTRA_APPLICATIONS[spec].VASS_SOURCE
    with open(spec, "r", encoding="utf-8") as handle:
        return handle.read()


def _source_filename(spec: str) -> str:
    """The name diagnostics should carry for ``spec``."""
    from repro.apps import ALL_APPLICATIONS, EXTRA_APPLICATIONS

    if spec in ALL_APPLICATIONS or spec in EXTRA_APPLICATIONS:
        return f"<{spec}>"
    return spec


def _cmd_compile(args: argparse.Namespace) -> int:
    from repro.compiler import compile_design
    from repro.vhif.dot import design_to_dot

    source = _load_source(args.file)
    design = compile_design(
        source,
        entity_name=args.entity,
        source_filename=_source_filename(args.file),
    )
    if args.dot:
        print(design_to_dot(design))
    else:
        print(design.describe())
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    from contextlib import ExitStack

    from repro.flow import FlowOptions, synthesize
    from repro.instrument import JsonlSink, TelemetryBus, resolve_ledger
    from repro.pipeline import ArtifactCache

    source = _load_source(args.file)
    want_trace = bool(args.trace or args.trace_json)
    cache = (
        ArtifactCache(disk_dir=args.cache)
        if args.cache is not None
        else None
    )
    with ExitStack() as stack:
        bus = None
        if args.events:
            bus = TelemetryBus()
            sink = stack.enter_context(JsonlSink(args.events))
            bus.subscribe(sink)
        options = FlowOptions(
            trace=want_trace,
            explore_solvers=args.explore_solvers,
            parallel=_resolve_parallel(args),
            cache=cache,
            telemetry=bus,
            ledger=resolve_ledger(args.ledger, args.no_ledger),
            deadline_s=args.budget,
        )
        result = synthesize(
            source,
            entity_name=args.entity,
            options=options,
            source_filename=_source_filename(args.file),
        )
        if bus is not None:
            print(
                f"telemetry: {bus.published()} event(s) "
                f"(run {result.run_id}) written to {args.events}",
                file=sys.stderr,
            )
    for diagnostic in result.diagnostics:
        print(str(diagnostic), file=sys.stderr)
    if cache is not None:
        print(cache.stats.describe(), file=sys.stderr)
    print(result.describe())
    print()
    print(result.netlist.describe())
    if result.trace is not None and want_trace:
        from repro.instrument import metrics

        print("\ntiming tree:")
        print(result.trace.format_tree())
        table = metrics().format_table()
        if table:
            print("\nmetrics:")
            print(table)
        if args.trace_json:
            with open(args.trace_json, "w", encoding="utf-8") as handle:
                handle.write(
                    result.trace.chrome_json(
                        metadata={"design": result.design.name}
                    )
                )
            print(f"\nChrome trace written to {args.trace_json}",
                  file=sys.stderr)
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.instrument import profile_flow

    source = _load_source(args.file)
    options = None
    cache = None
    if args.cache is not None:
        from repro.flow import FlowOptions
        from repro.pipeline import ArtifactCache

        cache = ArtifactCache(disk_dir=args.cache)
        options = FlowOptions(cache=cache)
    report = profile_flow(
        source, entity_name=args.entity, repeat=args.repeat,
        options=options,
    )
    if cache is not None:
        print(cache.stats.describe(), file=sys.stderr)
    print(report.describe())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(report.to_json())
        print(f"\nprofile JSON written to {args.json}", file=sys.stderr)
    if args.trace_json and report.last_trace is not None:
        with open(args.trace_json, "w", encoding="utf-8") as handle:
            handle.write(report.last_trace.chrome_json())
        print(f"Chrome trace written to {args.trace_json}", file=sys.stderr)
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro.flow import FlowOptions, synthesize
    from repro.instrument.explain import narrate, render_exploration_html
    from repro.vhif.dot import decision_tree_to_dot

    source = _load_source(args.file)
    options = FlowOptions(explog=True, trace=True)
    result = synthesize(
        source,
        entity_name=args.entity,
        options=options,
        source_filename=_source_filename(args.file),
    )
    for diagnostic in result.diagnostics:
        print(str(diagnostic), file=sys.stderr)
    print(narrate(result))
    jsonl_path = args.jsonl or f"{result.design.name}.explog.jsonl"
    result.explog.write(jsonl_path)
    print(f"\nexploration JSONL written to {jsonl_path}", file=sys.stderr)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(decision_tree_to_dot(result.explog))
        print(f"decision-tree DOT written to {args.dot}", file=sys.stderr)
    if args.html:
        with open(args.html, "w", encoding="utf-8") as handle:
            handle.write(render_exploration_html(result, title=args.file))
        print(f"exploration report written to {args.html}", file=sys.stderr)
    return 0


def _cmd_bench_check(args: argparse.Namespace) -> int:
    from repro.instrument.baseline import (
        DEFAULT_REL_TOLERANCE,
        check_baselines,
    )

    tolerance = (
        args.tolerance if args.tolerance is not None
        else DEFAULT_REL_TOLERANCE
    )
    report = check_baselines(
        args.baselines,
        args.metrics,
        rel_tolerance=tolerance,
        update=args.update,
        strict=args.strict,
    )
    print(report.describe())
    return 0 if report.passed else 1


def _cmd_spice(args: argparse.Namespace) -> int:
    from repro.flow import synthesize
    from repro.spice import to_spice_deck

    source = _load_source(args.file)
    result = synthesize(
        source,
        entity_name=args.entity,
        source_filename=_source_filename(args.file),
    )
    print(to_spice_deck(result.netlist))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    import math

    from repro.flow import synthesize
    from repro.verify import verify_equivalence

    source = _load_source(args.file)
    result = synthesize(
        source,
        entity_name=args.entity,
        source_filename=_source_filename(args.file),
    )
    inputs = {
        name: (lambda t, a=args.amplitude, f=args.frequency:
               a * math.sin(2.0 * math.pi * f * t))
        for name, info in result.design.ports.items()
        if info.direction == "in"
    }
    report = verify_equivalence(
        result, inputs=inputs, t_end=args.t_end, tolerance=args.tolerance
    )
    print(result.describe())
    print()
    print(report.describe())
    return 0 if report.passed else 1


def _cmd_ac(args: argparse.Namespace) -> int:
    from repro.flow import synthesize
    from repro.spice import ac_sweep, dc, elaborate

    source = _load_source(args.file)
    result = synthesize(
        source,
        entity_name=args.entity,
        source_filename=_source_filename(args.file),
    )
    in_ports = [
        name
        for name, info in result.design.ports.items()
        if info.direction == "in"
    ]
    out_ports = [
        name
        for name, info in result.design.ports.items()
        if info.direction == "out"
    ]
    if not in_ports or not out_ports:
        print("error: AC analysis needs one input and one output port",
              file=sys.stderr)
        return 1
    circuit = elaborate(
        result.netlist, input_waves={p: dc(0.0) for p in in_ports}
    )
    out = circuit.output_nodes[out_ports[0]]
    response = ac_sweep(
        circuit.circuit,
        args.f_start,
        args.f_stop,
        points_per_decade=args.points,
        probes=[out],
        ac_source=f"VIN_{in_ports[0]}",
    )
    print(f"* AC response {in_ports[0]} -> {out_ports[0]}")
    print(f"{'f [Hz]':>12}  {'mag [dB]':>9}  {'phase [deg]':>11}")
    mags = response.magnitude_db(out)
    phases = response.phase_deg(out)
    for f, m, p in zip(response.frequencies, mags, phases):
        print(f"{f:>12.2f}  {m:>9.2f}  {p:>11.1f}")
    print(f"* -3 dB corner: {response.cutoff_frequency(out):.1f} Hz")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.flow import synthesize
    from repro.report import generate_report

    source = _load_source(args.file)
    result = synthesize(
        source,
        entity_name=args.entity,
        source_filename=_source_filename(args.file),
    )
    print(
        generate_report(
            result,
            title=args.file,
            include_spice=not args.no_spice,
        )
    )
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.vass.parser import parse_source_collecting

    total_errors = 0
    for spec in args.files:
        source = _load_source(spec)
        _units, errors = parse_source_collecting(
            source, filename=_source_filename(spec)
        )
        for err in errors:
            print(_format_error(err), file=sys.stderr)
        total_errors += len(errors)
        status = "ok" if not errors else f"{len(errors)} error(s)"
        print(f"{spec}: {status}")
    return 0 if total_errors == 0 else 1


def _cmd_batch(args: argparse.Namespace) -> int:
    import json as json_module
    from contextlib import ExitStack
    from pathlib import Path

    from repro.flow import FlowOptions
    from repro.instrument import (
        JsonlSink,
        ProgressRenderer,
        TelemetryBus,
        resolve_ledger,
        telemetry,
    )
    from repro.pipeline import ArtifactCache
    from repro.robust.batch import find_sources, run_batch

    root = Path(args.directory)
    files = find_sources(root)
    if not files:
        print(f"error: no VASS sources under {root}", file=sys.stderr)
        return 1
    options = FlowOptions(recovery=not args.no_recovery)
    cache = (
        ArtifactCache(disk_dir=args.cache)
        if args.cache is not None
        else None
    )
    timing = not args.no_timing
    journal = None
    if args.resume is not None:
        from repro.robust.journal import BatchJournal

        journal = BatchJournal(args.resume)
    with ExitStack() as stack:
        if journal is not None:
            stack.callback(journal.close)
        bus = None
        if args.events or args.progress:
            bus = TelemetryBus()
            if args.events:
                sink = stack.enter_context(JsonlSink(args.events))
                bus.subscribe(sink)
            if args.progress:
                bus.subscribe(ProgressRenderer())
            stack.enter_context(telemetry(bus))
        report = run_batch(
            files,
            options=options,
            parallel=_resolve_parallel(args),
            cache=cache,
            ledger=resolve_ledger(args.ledger, args.no_ledger),
            source_label=str(root),
            journal=journal,
        )
        if bus is not None and args.events:
            print(
                f"telemetry: {bus.published()} event(s) written to "
                f"{args.events}",
                file=sys.stderr,
            )
    if args.metrics_out:
        from repro.instrument import metrics, render_prometheus

        target = Path(args.metrics_out)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(
            render_prometheus(metrics().snapshot()), encoding="utf-8"
        )
        print(f"Prometheus metrics written to {args.metrics_out}",
              file=sys.stderr)
    print(report.describe(timing=timing))
    if cache is not None:
        print(cache.stats.describe(), file=sys.stderr)
    if args.json:
        target = Path(args.json)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(report.to_json(timing=timing), encoding="utf-8")
        print(f"batch JSON written to {args.json}", file=sys.stderr)
    if args.cache_stats:
        stats = cache.stats.as_dict() if cache is not None else {}
        target = Path(args.cache_stats)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(
            json_module.dumps(stats, indent=2), encoding="utf-8"
        )
        print(f"cache stats written to {args.cache_stats}",
              file=sys.stderr)
    return report.exit_code(strict=args.strict)


def _cmd_metrics(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.flow import synthesize
    from repro.instrument import metrics, render_prometheus
    from repro.instrument.metrics import format_table

    if args.from_json:
        with open(args.from_json, "r", encoding="utf-8") as handle:
            snapshot = json_module.load(handle)
    else:
        if not args.file:
            print("error: vase metrics needs FILE (or --from-json SNAP)",
                  file=sys.stderr)
            return 1
        source = _load_source(args.file)
        registry = metrics()
        registry.reset()
        synthesize(
            source,
            entity_name=args.entity,
            source_filename=_source_filename(args.file),
        )
        snapshot = registry.snapshot()

    if args.prom:
        text = render_prometheus(snapshot)
    elif args.json:
        text = json_module.dumps(snapshot, indent=2) + "\n"
    else:
        text = format_table(snapshot) + "\n"

    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"metrics written to {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def _resolve_cli_ledger(flag):
    """The ledger a read-only verb should look at, or ``None``."""
    from repro.instrument import resolve_ledger

    return resolve_ledger(flag, disabled=False)


def _cmd_history(args: argparse.Namespace) -> int:
    import json as json_module

    ledger = _resolve_cli_ledger(args.ledger)
    if ledger is None or not ledger.exists():
        where = ledger.path if ledger is not None else "(disabled)"
        print(f"error: no run ledger at {where} — run `vase synth` or "
              "`vase batch` first", file=sys.stderr)
        return 1
    records = ledger.tail(
        limit=args.limit, outcome=args.outcome, source=args.source
    )
    if args.json:
        print(json_module.dumps(
            [record.as_dict() for record in records], indent=2
        ))
        return 0
    if not records:
        print("no matching runs")
        return 0
    for record in records:
        print(record.describe())
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.instrument import format_stats, summarize

    ledger = _resolve_cli_ledger(args.ledger)
    if ledger is None or not ledger.exists():
        where = ledger.path if ledger is not None else "(disabled)"
        print(f"error: no run ledger at {where} — run `vase synth` or "
              "`vase batch` first", file=sys.stderr)
        return 1
    records = ledger.records()
    stats = summarize(records)
    if ledger.skipped:
        print(f"warning: skipped {ledger.skipped} corrupt ledger line(s)",
              file=sys.stderr)
    if args.json:
        print(json_module.dumps(stats, indent=2))
    else:
        print(f"ledger: {ledger.path}")
        print(format_stats(stats))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.flow import FlowOptions
    from repro.instrument import TelemetryBus, resolve_ledger, telemetry
    from repro.pipeline import ArtifactCache, ParallelOptions
    from repro.serve import JobManager, create_server

    if args.token is None and args.host not in (
        "127.0.0.1", "localhost", "::1"
    ):
        print(
            f"error: refusing to bind non-loopback host {args.host!r} "
            "without --token (bearer-token authentication)",
            file=sys.stderr,
        )
        return 1
    width = args.workers or 2
    execution = ParallelOptions(
        executor=args.executor or "thread", workers=width,
    )
    # One shared two-tier cache for every served job: the resident
    # service is exactly the setting where warm stage artifacts pay off
    # — and, under --executor process, its on-disk tier is the store
    # the worker processes share.
    cache = ArtifactCache(disk_dir=args.cache)
    options = FlowOptions(
        trace=True, explog=True, recovery=True, cache=cache,
        ledger=resolve_ledger(args.ledger, args.no_ledger),
    )
    manager = JobManager(
        options,
        queue_limit=args.queue_limit,
        execution=execution,
    )
    bus = TelemetryBus()
    bus.subscribe(manager.route)
    server = create_server(
        args.host, args.port, manager,
        heartbeat_s=args.heartbeat, verbose=args.verbose,
        token=args.token,
    )
    host, port = server.server_address[:2]
    print(f"vase serve listening on http://{host}:{port} "
          f"({execution.describe()} worker(s), "
          f"queue limit {args.queue_limit}"
          f"{', bearer auth' if args.token else ''})",
          file=sys.stderr)

    def _request_stop(signum, frame):  # noqa: ARG001 - signal API
        del frame
        print(f"\nsignal {signum}: shutting down", file=sys.stderr)
        # serve_forever() must be stopped from another thread —
        # shutdown() blocks until the serve loop exits.
        threading.Thread(target=server.shutdown, daemon=True).start()

    try:
        signal.signal(signal.SIGTERM, _request_stop)
    except ValueError:  # pragma: no cover - not the main thread
        pass
    with telemetry(bus):
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            print("\nshutting down", file=sys.stderr)
        finally:
            server.server_close()
            # Graceful drain: admission is closed, running jobs may
            # finish within the timeout, the rest are cancelled
            # cooperatively.
            print(
                f"draining: waiting up to {args.drain_timeout:.0f} s "
                "for running jobs", file=sys.stderr,
            )
            counts = manager.drain(args.drain_timeout)
            print(
                f"drained: {counts['finished']} job(s) finished, "
                f"{counts['cancelled']} cancelled", file=sys.stderr,
            )
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    from repro.serve import watch

    try:
        return watch(
            args.url,
            since=args.since,
            verbose=args.verbose,
            token=args.token,
            max_retries=args.retries,
            retry_backoff_s=args.retry_backoff,
        )
    except OSError as err:  # URLError / ConnectionError / socket errors
        print(f"error: {err}", file=sys.stderr)
        return 1


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.apps import ALL_APPLICATIONS
    from repro.flow import synthesize

    del args
    header = (
        f"{'Application':<20} {'blocks':>6} {'states':>6} {'datapath':>8}  "
        "Synthesis Results"
    )
    print(header)
    print("-" * len(header))
    for name, module in ALL_APPLICATIONS.items():
        result = synthesize(module.VASS_SOURCE)
        stats = result.design.statistics()
        print(
            f"{name:<20} {stats.n_blocks:>6} {stats.n_states:>6} "
            f"{stats.n_datapath:>8}  {result.summary}"
        )
        print(f"{'  (paper)':<20} {module.PAPER_ROW['vhif_blocks']:>6} "
              f"{module.PAPER_ROW['vhif_states']:>6} "
              f"{module.PAPER_ROW['vhif_datapath']:>8}  "
              f"{module.PAPER_ROW['components']}")
    return 0


def _cmd_examples(args: argparse.Namespace) -> int:
    from repro.apps import ALL_APPLICATIONS, EXTRA_APPLICATIONS

    del args
    for name, module in {**ALL_APPLICATIONS, **EXTRA_APPLICATIONS}.items():
        doc = (module.__doc__ or "").strip().splitlines()[0]
        print(f"{name:<20} {doc}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vase",
        description=(
            "VASE reproduction: behavioral synthesis of analog systems "
            "from VHDL-AMS (Doboli & Vemuri, DATE 1999)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compile = sub.add_parser("compile", help="compile VASS to VHIF")
    p_compile.add_argument("file", help="VASS file or bundled app name")
    p_compile.add_argument("--entity", default=None)
    p_compile.add_argument("--dot", action="store_true",
                           help="emit Graphviz DOT instead of text")
    p_compile.set_defaults(func=_cmd_compile)

    p_synth = sub.add_parser("synth", help="run the full synthesis flow")
    p_synth.add_argument("file", help="VASS file or bundled app name")
    p_synth.add_argument("--entity", default=None)
    p_synth.add_argument("--trace", action="store_true",
                         help="print a per-phase timing tree and metrics")
    p_synth.add_argument("--trace-json", default=None, metavar="FILE",
                         help="write a Chrome trace_event JSON file")
    p_synth.add_argument(
        "--cache", nargs="?", const=".vase-cache", default=None,
        metavar="DIR",
        help="keep pipeline artifacts in an on-disk cache "
        "(default directory .vase-cache)",
    )
    p_synth.add_argument(
        "--explore-solvers", action="store_true",
        help="map every enumerated DAE causalization and keep the "
        "best-area feasible result",
    )
    _add_executor_args(p_synth, "--explore-solvers")
    p_synth.add_argument(
        "--budget", type=float, default=None, metavar="S",
        help="hard wall-clock budget for the whole flow in seconds: "
        "the run is checked at every stage boundary and inside the "
        "mapper search, and aborts with a deadline error once over "
        "budget (the mapper's own soft deadline truncates instead)",
    )
    p_synth.add_argument(
        "--events", default=None, metavar="FILE",
        help="stream every telemetry event of the run (spans, metric "
        "deltas, explog decisions, cache ops, lifecycle) as JSONL",
    )
    p_synth.add_argument(
        "--ledger", default=None, metavar="PATH",
        help="append the run record to this ledger (default "
        ".vase-ledger/, or the VASE_LEDGER environment variable)",
    )
    p_synth.add_argument(
        "--no-ledger", action="store_true",
        help="do not record this run in the ledger",
    )
    p_synth.set_defaults(func=_cmd_synth)

    p_profile = sub.add_parser(
        "profile",
        help="profile the flow: per-phase timings over repeated runs",
    )
    p_profile.add_argument("file", help="VASS file or bundled app name")
    p_profile.add_argument("--entity", default=None)
    p_profile.add_argument("--repeat", type=_positive_int, default=3)
    p_profile.add_argument("--json", default=None, metavar="FILE",
                           help="write the aggregated profile as JSON")
    p_profile.add_argument("--trace-json", default=None, metavar="FILE",
                           help="write the last run's Chrome trace")
    p_profile.add_argument(
        "--cache", nargs="?", const=".vase-cache", default=None,
        metavar="DIR",
        help="share an on-disk artifact cache across the repeats "
        "(the per-stage cache hits show what a warm run skips)",
    )
    p_profile.set_defaults(func=_cmd_profile)

    p_explain = sub.add_parser(
        "explain",
        help="replay the mapper's exploration: why this architecture, "
        "why not the alternatives",
    )
    p_explain.add_argument("file", help="VASS file or bundled app name")
    p_explain.add_argument("--entity", default=None)
    p_explain.add_argument(
        "--jsonl", default=None, metavar="FILE",
        help="where to write the exploration JSONL "
        "(default <design>.explog.jsonl)",
    )
    p_explain.add_argument("--dot", default=None, metavar="FILE",
                           help="write the Figure-6 decision tree as DOT")
    p_explain.add_argument(
        "--html", default=None, metavar="FILE",
        help="write a self-contained HTML exploration report",
    )
    p_explain.set_defaults(func=_cmd_explain)

    p_bench = sub.add_parser(
        "bench-check",
        help="diff benchmark metrics JSON against committed baselines",
    )
    p_bench.add_argument("--baselines", default="benchmarks/baselines",
                         metavar="DIR")
    p_bench.add_argument("--metrics", default="benchmarks/out",
                         metavar="DIR")
    p_bench.add_argument("--tolerance", type=float, default=None,
                         help="relative tolerance override (default 0.05)")
    p_bench.add_argument("--update", action="store_true",
                         help="re-pin the baselines from the current dumps")
    p_bench.add_argument("--strict", action="store_true",
                         help="fail when a baseline has no current dump")
    p_bench.set_defaults(func=_cmd_bench_check)

    p_spice = sub.add_parser("spice", help="synthesize and print SPICE deck")
    p_spice.add_argument("file", help="VASS file or bundled app name")
    p_spice.add_argument("--entity", default=None)
    p_spice.set_defaults(func=_cmd_spice)

    p_verify = sub.add_parser(
        "verify",
        help="check spec-vs-circuit equivalence on sine stimuli",
    )
    p_verify.add_argument("file", help="VASS file or bundled app name")
    p_verify.add_argument("--entity", default=None)
    p_verify.add_argument("--amplitude", type=float, default=0.5)
    p_verify.add_argument("--frequency", type=float, default=1000.0)
    p_verify.add_argument("--t-end", type=float, default=2e-3)
    p_verify.add_argument("--tolerance", type=float, default=0.08)
    p_verify.set_defaults(func=_cmd_verify)

    p_ac = sub.add_parser(
        "ac", help="AC sweep of the synthesized circuit"
    )
    p_ac.add_argument("file", help="VASS file or bundled app name")
    p_ac.add_argument("--entity", default=None)
    p_ac.add_argument("--f-start", type=float, default=10.0)
    p_ac.add_argument("--f-stop", type=float, default=1e5)
    p_ac.add_argument("--points", type=_positive_int, default=5)
    p_ac.set_defaults(func=_cmd_ac)

    p_report = sub.add_parser(
        "report", help="markdown design report for a specification"
    )
    p_report.add_argument("file", help="VASS file or bundled app name")
    p_report.add_argument("--entity", default=None)
    p_report.add_argument("--no-spice", action="store_true")
    p_report.set_defaults(func=_cmd_report)

    p_check = sub.add_parser(
        "check",
        help="syntax-check VASS files, reporting every error at once",
    )
    p_check.add_argument("files", nargs="+",
                         help="VASS files or bundled app names")
    p_check.set_defaults(func=_cmd_check)

    p_batch = sub.add_parser(
        "batch",
        help="synthesize every VASS file under a directory with "
        "per-file fault isolation",
    )
    p_batch.add_argument("directory", help="directory (or single file)")
    p_batch.add_argument("--json", default=None, metavar="FILE",
                         help="write the machine-readable summary JSON")
    p_batch.add_argument("--strict", action="store_true",
                         help="count degraded (recovered) results as "
                         "failures for the exit code")
    p_batch.add_argument("--no-recovery", action="store_true",
                         help="disable the recovery ladder (a failing "
                         "file fails outright)")
    _add_executor_args(
        p_batch, "concurrent file synthesis (output is identical "
        "to the serial run)",
    )
    p_batch.add_argument(
        "--cache", nargs="?", const=".vase-cache", default=None,
        metavar="DIR",
        help="share an on-disk artifact cache across files and runs "
        "(default directory .vase-cache)",
    )
    p_batch.add_argument(
        "--cache-stats", default=None, metavar="FILE",
        help="write the artifact-cache counters as JSON",
    )
    p_batch.add_argument(
        "--no-timing", action="store_true",
        help="zero the wall-clock fields so repeated runs produce "
        "byte-identical output",
    )
    p_batch.add_argument(
        "--events", default=None, metavar="FILE",
        help="stream the whole batch's telemetry events as JSONL "
        "(one shared run id; per-file lifecycle events included)",
    )
    p_batch.add_argument(
        "--progress", action="store_true",
        help="render live per-file progress from the telemetry bus",
    )
    p_batch.add_argument(
        "--metrics-out", default=None, metavar="FILE",
        help="write the metrics registry in Prometheus text "
        "exposition format after the run",
    )
    p_batch.add_argument(
        "--resume", nargs="?", const=".vase-batch.journal",
        default=None, metavar="JOURNAL",
        help="journal every completed file (fsync'd JSONL; default "
        ".vase-batch.journal) and, on restart after a crash or kill, "
        "skip files the journal already records for the same source "
        "content and options",
    )
    p_batch.add_argument(
        "--ledger", default=None, metavar="PATH",
        help="append the batch record to this ledger (default "
        ".vase-ledger/, or the VASE_LEDGER environment variable)",
    )
    p_batch.add_argument(
        "--no-ledger", action="store_true",
        help="do not record this run in the ledger",
    )
    p_batch.set_defaults(func=_cmd_batch)

    p_metrics = sub.add_parser(
        "metrics",
        help="metrics snapshot of one synthesis run (or a saved "
        "snapshot): text table, --prom, or --json",
    )
    p_metrics.add_argument(
        "file", nargs="?", default=None,
        help="VASS file or bundled app name (omit with --from-json)",
    )
    p_metrics.add_argument("--entity", default=None)
    p_metrics.add_argument(
        "--prom", action="store_true",
        help="render in Prometheus text exposition format",
    )
    p_metrics.add_argument(
        "--json", action="store_true",
        help="render the raw snapshot as JSON",
    )
    p_metrics.add_argument(
        "--from-json", default=None, metavar="SNAP",
        help="render a previously saved snapshot JSON instead of "
        "running a synthesis",
    )
    p_metrics.add_argument(
        "--out", default=None, metavar="FILE",
        help="write to FILE instead of stdout",
    )
    p_metrics.set_defaults(func=_cmd_metrics)

    p_serve = sub.add_parser(
        "serve",
        help="run the flow as an HTTP service: POST jobs, stream "
        "telemetry as SSE, scrape /metrics, browse /history",
    )
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=8626,
                         help="port (default 8626; 0 picks a free one)")
    p_serve.add_argument(
        "--executor", choices=("serial", "thread", "process"),
        default=None,
        help="resident execution backend: thread (default) or "
        "process (spawned synthesis workers off the GIL; pair with "
        "--cache so they share the on-disk artifact store)",
    )
    p_serve.add_argument(
        "--workers", type=_positive_int, default=None, metavar="N",
        help="resident synthesis workers (default 2)",
    )
    p_serve.add_argument(
        "--queue-limit", type=_positive_int, default=64, metavar="N",
        help="waiting jobs before POST /jobs returns 503 (default 64)",
    )
    p_serve.add_argument(
        "--cache", nargs="?", const=".vase-cache", default=None,
        metavar="DIR",
        help="back the shared artifact cache with an on-disk tier "
        "(default directory .vase-cache); in-memory only when omitted",
    )
    p_serve.add_argument(
        "--heartbeat", type=float, default=10.0, metavar="S",
        help="idle-stream SSE heartbeat interval (default 10 s)",
    )
    p_serve.add_argument(
        "--token", default=None, metavar="TOKEN",
        help="require 'Authorization: Bearer TOKEN' on every request "
        "except GET /healthz; mandatory for non-loopback --host",
    )
    p_serve.add_argument(
        "--drain-timeout", type=float, default=30.0, metavar="S",
        help="on SIGTERM/SIGINT, let running jobs finish for up to "
        "S seconds before cancelling them (default 30)",
    )
    p_serve.add_argument(
        "--verbose", action="store_true",
        help="log every HTTP request to stderr",
    )
    p_serve.add_argument(
        "--ledger", default=None, metavar="PATH",
        help="record served jobs in this ledger (default .vase-ledger/, "
        "or the VASE_LEDGER environment variable)",
    )
    p_serve.add_argument(
        "--no-ledger", action="store_true",
        help="do not record served jobs in a ledger",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_watch = sub.add_parser(
        "watch",
        help="tail a served job's SSE telemetry stream in the terminal",
    )
    p_watch.add_argument(
        "url",
        help="job URL, e.g. http://127.0.0.1:8626/jobs/<id> "
        "(/events is appended automatically)",
    )
    p_watch.add_argument(
        "--since", type=int, default=-1, metavar="SEQ",
        help="resume after this event seq (default: replay from 0)",
    )
    p_watch.add_argument(
        "--verbose", action="store_true",
        help="print every event as JSON instead of progress lines",
    )
    p_watch.add_argument(
        "--token", default=None, metavar="TOKEN",
        help="bearer token for token-protected servers",
    )
    p_watch.add_argument(
        "--retries", type=int, default=5, metavar="N",
        help="consecutive connection failures before giving up "
        "(default 5); any received event resets the budget",
    )
    p_watch.add_argument(
        "--retry-backoff", type=float, default=0.5, metavar="S",
        help="initial reconnect backoff in seconds, doubled per "
        "consecutive failure up to 15 s (default 0.5)",
    )
    p_watch.set_defaults(func=_cmd_watch)

    p_history = sub.add_parser(
        "history", help="recent runs from the persistent run ledger"
    )
    p_history.add_argument(
        "--ledger", default=None, metavar="PATH",
        help="ledger to read (default .vase-ledger/ or VASE_LEDGER)",
    )
    p_history.add_argument(
        "--limit", type=_positive_int, default=20, metavar="N",
        help="show at most N runs (default 20)",
    )
    p_history.add_argument(
        "--outcome", default=None,
        choices=["ok", "degraded", "failed", "cancelled"],
        help="only runs with this outcome",
    )
    p_history.add_argument(
        "--source", default=None, metavar="SUBSTR",
        help="only runs whose source matches this substring",
    )
    p_history.add_argument("--json", action="store_true",
                           help="emit the records as JSON")
    p_history.set_defaults(func=_cmd_history)

    p_stats = sub.add_parser(
        "stats",
        help="aggregates across the run ledger: outcome and "
        "degradation rates, cache hit rate, duration percentiles",
    )
    p_stats.add_argument(
        "--ledger", default=None, metavar="PATH",
        help="ledger to read (default .vase-ledger/ or VASE_LEDGER)",
    )
    p_stats.add_argument("--json", action="store_true",
                         help="emit the aggregates as JSON")
    p_stats.set_defaults(func=_cmd_stats)

    p_table = sub.add_parser("table1", help="reproduce the paper's Table 1")
    p_table.set_defaults(func=_cmd_table1)

    p_ex = sub.add_parser("examples", help="list bundled applications")
    p_ex.set_defaults(func=_cmd_examples)
    return parser


def _format_error(err: Exception) -> str:
    """Render a :class:`VaseError` as ``file:line:col: severity: message``.

    Located errors (lexer/parser/semantic/compile) carry a
    ``SourceLocation`` and the bare message; everything else falls back
    to a plain ``error:`` prefix.
    """
    location = getattr(err, "location", None)
    bare = getattr(err, "bare_message", None)
    if location is not None and bare is not None:
        return f"{location}: error: {bare}"
    return f"error: {err}"


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except VaseError as err:
        print(_format_error(err), file=sys.stderr)
        return 2
    except FileNotFoundError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
