"""Tests of the pluggable execution backends (`repro.pipeline.executor`).

Tentpole coverage of the executor redesign:

* the three backends (serial / thread / process) produce byte-identical
  ``--no-timing`` batch reports over the example corpus;
* ``map_ordered`` keeps submission order for any worker count, and
  cancels outstanding work before propagating a task exception;
* a crashed process worker surfaces a :class:`VaseError` — never a
  hang — and the pool keeps working afterwards (a replacement worker
  is spawned);
* two process-backend runs sharing one ``.vase-cache/`` directory see
  each other's stage results through the disk tier, and the workers'
  cache counters are merged back into the submitting run's stats;
* telemetry published inside a worker process is forwarded over the
  result channel and re-published on the submitting run's bus with
  dense per-run sequence numbers, and a worker task's metric counters
  are folded into the submitting process's registry;
* :class:`ParallelOptions` validates its knobs.

Process-backend task functions live at module level: the ``spawn``
start method pickles tasks by reference, so a worker re-imports this
module to find them.
"""

import os
import time
from pathlib import Path

import pytest

from repro.apps import ALL_APPLICATIONS
from repro.diagnostics import VaseError
from repro.instrument import (
    CATEGORY_METRIC,
    RingBuffer,
    TelemetryBus,
    active_bus,
    metrics,
    run_scope,
    telemetry,
)
from repro.pipeline import (
    EXECUTOR_KINDS,
    ArtifactCache,
    Executor,
    ParallelOptions,
    ProcessExecutor,
    SerialExecutor,
    Task,
    ThreadExecutor,
    create_executor,
)
from repro.robust.batch import run_batch
from repro.serve.queue import JobOptionsError, build_job_options

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


# ---------------------------------------------------------------------------
# Module-level task functions (picklable by reference for spawn workers).

def _double(x):
    return 2 * x


def _sleepy_identity(index, delay_s):
    time.sleep(delay_s)
    return index


def _worker_pid(_index):
    return os.getpid()


def _boom(message):
    raise RuntimeError(message)


def _hard_crash():
    os._exit(3)  # bypasses all exception handling, like a segfault


def _synthesize_biquad():
    from repro.flow import synthesize

    return synthesize((EXAMPLES / "biquad.vhd").read_text()).design.name


def _publish_metrics(count):
    bus = active_bus()
    assert bus is not None, "worker should see a forwarding bus"
    for n in range(count):
        bus.publish(CATEGORY_METRIC, {"n": n, "pid": os.getpid()})
    return count


@pytest.fixture
def corpus(tmp_path):
    root = tmp_path / "corpus"
    root.mkdir()
    (root / "a_biquad.vhd").write_text((EXAMPLES / "biquad.vhd").read_text())
    (root / "b_power_meter.vhd").write_text(
        ALL_APPLICATIONS["power_meter"].VASS_SOURCE
    )
    (root / "c_function_generator.vhd").write_text(
        ALL_APPLICATIONS["function_generator"].VASS_SOURCE
    )
    return sorted(root.iterdir())


class TestParallelOptions:
    def test_defaults_are_serial(self):
        options = ParallelOptions()
        assert options.executor == "serial"
        assert options.workers == 1

    @pytest.mark.parametrize("kind", EXECUTOR_KINDS)
    def test_accepts_every_kind(self, kind):
        assert ParallelOptions(executor=kind, workers=2).executor == kind

    def test_rejects_unknown_executor(self):
        with pytest.raises(ValueError, match="executor"):
            ParallelOptions(executor="fiber")

    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ValueError, match="workers"):
            ParallelOptions(workers=0)

    def test_bounded_clamps_width_to_task_count(self):
        wide = ParallelOptions(executor="process", workers=8)
        assert wide.bounded(3).workers == 3
        assert wide.bounded(3).executor == "process"
        assert wide.bounded(0).workers == 1

    def test_create_executor_kinds(self):
        assert isinstance(
            create_executor(ParallelOptions()), SerialExecutor
        )
        # A one-wide thread pool degrades to the serial fast path.
        assert isinstance(
            create_executor(ParallelOptions(executor="thread", workers=1)),
            SerialExecutor,
        )
        thread = create_executor(
            ParallelOptions(executor="thread", workers=2)
        )
        try:
            assert isinstance(thread, ThreadExecutor)
            assert isinstance(thread, Executor)
        finally:
            thread.shutdown()


class TestOrderingAndErrors:
    @pytest.mark.parametrize(
        "options",
        [
            ParallelOptions(),
            ParallelOptions(executor="thread", workers=4),
            ParallelOptions(executor="process", workers=2),
        ],
        ids=["serial", "thread", "process"],
    )
    def test_map_ordered_keeps_submission_order(self, options):
        # Earlier tasks sleep longer, so completion order is reversed
        # from submission order on any genuinely parallel backend.
        delays = [0.2, 0.1, 0.05, 0.0]
        tasks = [
            Task(_sleepy_identity, (i, delays[i]))
            for i in range(len(delays))
        ]
        with create_executor(options) as executor:
            assert executor.map_ordered(tasks) == [0, 1, 2, 3]

    def test_process_tasks_really_leave_the_process(self):
        with create_executor(
            ParallelOptions(executor="process", workers=2)
        ) as executor:
            pids = executor.map_ordered(
                [Task(_worker_pid, (i,)) for i in range(8)]
            )
        assert os.getpid() not in pids

    @pytest.mark.parametrize(
        "options",
        [
            ParallelOptions(executor="thread", workers=2),
            ParallelOptions(executor="process", workers=2),
        ],
        ids=["thread", "process"],
    )
    def test_task_exception_propagates(self, options):
        tasks = [Task(_double, (1,)), Task(_boom, ("kaboom",))]
        with create_executor(options) as executor:
            with pytest.raises(RuntimeError, match="kaboom"):
                executor.map_ordered(tasks)

    def test_map_ordered_cancels_queued_work_on_error(self):
        # One worker: the failing task runs first, the rest are still
        # queued and must be cancelled, not executed, once it raises.
        ran = []

        def record(i):
            ran.append(i)
            return i

        with ThreadExecutor(1) as executor:
            tasks = [Task(_boom, ("first",))] + [
                Task(record, (i,)) for i in range(32)
            ]
            with pytest.raises(RuntimeError, match="first"):
                executor.map_ordered(tasks)
        assert len(ran) < 32  # the queue was cancelled, not drained


class TestWorkerCrash:
    def test_crash_surfaces_vase_error_not_a_hang(self):
        with ProcessExecutor(2) as executor:
            future = executor.submit(_hard_crash)
            with pytest.raises(VaseError, match="worker crashed"):
                future.result(timeout=30.0)

    def test_pool_survives_a_crash(self):
        with ProcessExecutor(1) as executor:
            with pytest.raises(VaseError):
                executor.submit(_hard_crash).result(timeout=30.0)
            # The replacement worker picks the next task up.
            assert executor.submit(_double, 21).result(timeout=30.0) == 42

    def test_crash_inside_a_batch_fails_only_that_entry(self):
        with ProcessExecutor(2) as executor:
            tasks = [
                Task(_double, (1,)),
                Task(_hard_crash, ()),
                Task(_double, (3,)),
            ]
            futures = [executor.submit(t.fn, *t.args) for t in tasks]
            assert futures[0].result(timeout=30.0) == 2
            with pytest.raises(VaseError):
                futures[1].result(timeout=30.0)
            assert futures[2].result(timeout=30.0) == 6


class TestBackendByteIdentity:
    def test_batch_reports_identical_across_backends(self, corpus):
        reports = {
            kind: run_batch(
                corpus,
                parallel=ParallelOptions(
                    executor=kind, workers=1 if kind == "serial" else 2
                ),
            )
            for kind in EXECUTOR_KINDS
        }
        serial = reports["serial"].to_json(timing=False)
        assert reports["thread"].to_json(timing=False) == serial
        assert reports["process"].to_json(timing=False) == serial
        assert reports["process"].failed == 0
        assert [e.file for e in reports["process"].entries] == [
            str(p) for p in corpus
        ]


class TestSharedCacheAcrossProcesses:
    def test_second_process_run_hits_first_runs_disk_store(
        self, corpus, tmp_path
    ):
        store = tmp_path / "vase-cache"
        process = ParallelOptions(executor="process", workers=2)

        cold_cache = ArtifactCache(disk_dir=store)
        cold = run_batch(corpus, parallel=process, cache=cold_cache)
        # Worker-side counters were merged home over the result channel.
        assert cold_cache.stats.misses > 0
        assert cold_cache.stats.disk_stores > 0
        assert cold_cache.stats.hits == 0

        warm_cache = ArtifactCache(disk_dir=store)
        warm = run_batch(corpus, parallel=process, cache=warm_cache)
        assert warm_cache.stats.misses == 0
        assert warm_cache.stats.hits > 0
        assert warm_cache.stats.disk_hits == warm_cache.stats.hits
        assert warm.as_dict(timing=False) == cold.as_dict(timing=False)

    @pytest.mark.parametrize("kind", EXECUTOR_KINDS)
    def test_memory_cache_counts_match_serial(self, kind):
        """A memory-only cache counts the workers' stage work too."""
        biquad = [EXAMPLES / "biquad.vhd"]
        serial = run_batch(biquad, cache=ArtifactCache())
        report = run_batch(
            biquad,
            parallel=ParallelOptions(executor=kind, workers=2),
            cache=ArtifactCache(),
        )
        for name in ("misses", "stores"):
            assert report.cache[name] == serial.cache[name] > 0


class TestWorkerTelemetryForwarding:
    def test_worker_events_reach_the_submitting_bus_densely(self):
        bus = TelemetryBus()
        ring = RingBuffer(capacity=4096)
        bus.subscribe(ring)
        per_task = 25
        with telemetry(bus):
            with run_scope("forwarded-run"):
                with ProcessExecutor(2) as executor:
                    results = executor.map_ordered(
                        [Task(_publish_metrics, (per_task,))
                         for _ in range(4)]
                    )
        assert results == [per_task] * 4
        events = [e for e in ring.events() if e.category == CATEGORY_METRIC]
        total = 4 * per_task
        assert len(events) == total
        # Every event carries the submitting run's id, and the parent
        # bus assigned it a dense per-run sequence — exactly as if it
        # had been published in-process.
        assert {e.run_id for e in events} == {"forwarded-run"}
        assert sorted(e.seq for e in events) == list(range(total))
        # Events genuinely originated in the workers.
        assert os.getpid() not in {e.payload["pid"] for e in events}

    def test_no_bus_no_forwarding(self):
        with ProcessExecutor(1) as executor:
            future = executor.submit(_double, 5)
            assert future.result(timeout=30.0) == 10


class TestWorkerMetricCounters:
    @pytest.mark.parametrize("kind", EXECUTOR_KINDS)
    def test_task_counters_reach_the_submitting_registry(self, kind):
        """A task counts into the submitting process's registry on
        every backend: a process worker's counter delta rides home on
        its ``done`` message."""
        registry = metrics()
        before = registry.counters()
        with create_executor(
            ParallelOptions(executor=kind, workers=2)
        ) as executor:
            future = executor.submit(_synthesize_biquad)
            assert future.result(timeout=60.0)
        after = registry.counters()
        for name in ("mapper.runs", "frontend.parser.runs"):
            assert after.get(name, 0) - before.get(name, 0) == 1, name


class TestServeJobOptionValidation:
    BASE_KIND = "thread"

    def _base(self):
        from repro.flow import FlowOptions
        return FlowOptions()

    def test_accepts_executor_and_workers(self):
        options = build_job_options(
            self._base(), {"executor": "thread", "workers": 2}
        )
        assert options.parallel == ParallelOptions(
            executor="thread", workers=2
        )

    def test_rejects_unknown_executor(self):
        with pytest.raises(JobOptionsError, match="executor"):
            build_job_options(self._base(), {"executor": "fiber"})

    def test_rejects_out_of_range_workers(self):
        with pytest.raises(JobOptionsError, match="workers"):
            build_job_options(self._base(), {"workers": 99})
        with pytest.raises(JobOptionsError, match="workers"):
            build_job_options(self._base(), {"workers": 0})
