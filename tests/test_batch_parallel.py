"""Tests for parallel batch synthesis and the shared artifact cache.

Satellite coverage: ``vase batch --executor thread --workers 4 --json``
must be byte-identical to the serial run (with ``--no-timing``, since
wall-clock fields differ even between two serial runs), a shared
on-disk cache must make the second batch run all-hits (except for the
broken file: a failed run caches nothing), and the thread executor
must run its tasks concurrently yet return them in order.
"""

import json
import threading
import time
from pathlib import Path

import pytest

from repro.apps import ALL_APPLICATIONS
from repro.cli import main
from repro.instrument import metrics
from repro.pipeline import ArtifactCache, ParallelOptions, Task, ThreadExecutor
from repro.robust.batch import run_batch

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

BROKEN = """
entity broken is
  port (quantity u : in real
end entity
"""


@pytest.fixture
def corpus(tmp_path):
    """A small mixed batch: two good designs and one with syntax errors."""
    root = tmp_path / "corpus"
    root.mkdir()
    (root / "a_biquad.vhd").write_text(
        (EXAMPLES / "biquad.vhd").read_text()
    )
    (root / "b_power_meter.vhd").write_text(
        ALL_APPLICATIONS["power_meter"].VASS_SOURCE
    )
    (root / "c_broken.vhd").write_text(BROKEN)
    return root


#: stage hits of a warm batch over the corpus: each good design hits
#: every stage once (a ``compile`` hit never consults ``frontend``)
WARM_STAGE_HITS = {
    "compile": 2, "estimate": 2, "interfacing": 2, "map": 2,
    "optimize_vhif": 2, "realize_fsm": 2,
}


def run_on_threads(thunks, workers):
    with ThreadExecutor(workers) as pool:
        return pool.map_ordered([Task(thunk) for thunk in thunks])


class TestRunParallel:
    """Thunks on :meth:`ThreadExecutor.map_ordered`."""

    def test_results_keep_submission_order(self):
        delays = [0.05, 0.0, 0.02, 0.0]

        def thunk(index):
            def run():
                time.sleep(delays[index])
                return index
            return run

        results = run_on_threads([thunk(i) for i in range(4)], workers=4)
        assert results == [0, 1, 2, 3]

    def test_actually_concurrent(self):
        barrier = threading.Barrier(3, timeout=5.0)

        def wait():
            barrier.wait()
            return True

        # Three thunks all blocked on one barrier only finish if they
        # really run at the same time.
        assert run_on_threads([wait] * 3, workers=3) == [True, True, True]

    def test_rejects_nonpositive_jobs(self):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            run_on_threads([lambda: 1], workers=0)


class TestParallelBatchDeterminism:
    def test_report_is_identical_to_serial(self, corpus):
        serial = run_batch(sorted(corpus.iterdir()))
        parallel = run_batch(
            sorted(corpus.iterdir()),
            parallel=ParallelOptions(executor="thread", workers=4),
        )
        assert serial.as_dict(timing=False) == parallel.as_dict(
            timing=False
        )
        assert [e.file for e in parallel.entries] == [
            str(p) for p in sorted(corpus.iterdir())
        ]
        assert parallel.failed == 1

    def test_cli_json_byte_identical(self, corpus, tmp_path, capsys):
        out_serial = tmp_path / "serial.json"
        out_parallel = tmp_path / "parallel.json"
        code_serial = main([
            "batch", str(corpus), "--json", str(out_serial),
            "--no-timing",
        ])
        code_parallel = main([
            "batch", str(corpus), "--executor", "thread",
            "--workers", "4", "--json", str(out_parallel), "--no-timing",
        ])
        capsys.readouterr()
        assert code_serial == code_parallel == 1  # the broken file
        assert out_serial.read_bytes() == out_parallel.read_bytes()


class TestSharedBatchCache:
    def test_second_run_is_all_hits(self, corpus, tmp_path):
        store = tmp_path / "vase-cache"
        files = sorted(corpus.iterdir())

        cold_cache = ArtifactCache(disk_dir=store)
        cold = run_batch(files, cache=cold_cache)
        assert cold_cache.stats.misses > 0
        assert cold.cache is not None
        assert cold.cache["disk_stores"] > 0

        # A fresh cache over the same directory models a restart.
        warm_cache = ArtifactCache(disk_dir=store)
        warm = run_batch(
            files,
            parallel=ParallelOptions(executor="thread", workers=4),
            cache=warm_cache,
        )
        # The two good designs hit every stage; the broken file failed
        # in the front end, so its compile and frontend stages (and
        # nothing else) miss on every run.
        assert warm_cache.stats.stage_misses == {"compile": 1, "frontend": 1}
        assert warm_cache.stats.hits == 12
        assert warm_cache.stats.stage_hits == WARM_STAGE_HITS
        assert warm_cache.stats.disk_hits == warm_cache.stats.hits
        assert warm.as_dict(timing=False) == cold.as_dict(timing=False)

    def test_cli_cache_stats_artifact(self, corpus, tmp_path, capsys):
        store = tmp_path / "vase-cache"
        stats_path = tmp_path / "cache-stats.json"
        main([
            "batch", str(corpus), "--cache", str(store),
            "--cache-stats", str(stats_path),
        ])
        main([
            "batch", str(corpus), "--cache", str(store),
            "--cache-stats", str(stats_path),
        ])
        capsys.readouterr()
        stats = json.loads(stats_path.read_text())
        assert stats["stage_misses"] == {"compile": 1, "frontend": 1}
        assert stats["hits"] == 12
        assert stats["stage_hits"] == WARM_STAGE_HITS


class TestSingleParse:
    def test_batch_lexes_each_parseable_file_once(self, corpus):
        files = sorted(corpus.iterdir())[:2]  # the two good designs
        before = metrics().snapshot()["counters"].get(
            "frontend.lexer.runs", 0
        )
        report = run_batch(files)
        after = metrics().snapshot()["counters"].get(
            "frontend.lexer.runs", 0
        )
        assert report.ok == len(files)
        assert after - before == len(files)

