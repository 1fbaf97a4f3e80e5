"""Tests for the metrics regression gate (``vase bench-check``)."""

import json

import pytest

from repro.cli import main
from repro.instrument.baseline import (
    DEFAULT_REL_TOLERANCE,
    Regression,
    check_baselines,
    compare_metrics,
    extract_metrics,
)


def make_dump(**payload):
    """A minimal benchmark metrics document like benchmarks/out/ holds."""
    return {
        "benchmark": "table1",
        "payload": payload,
        "metrics": {
            "counters": {
                "mapper.nodes_visited": 120,
                "mapper.runtime_s": 0.004,  # timing: must be excluded
            },
            "gauges": {"mapper.best_area": 1.2e-7},
            "histograms": {
                "sizing.iterations": {"count": 8, "sum_s": 0.1},
            },
        },
    }


class TestExtractMetrics:
    def test_flattens_counters_gauges_histogram_counts(self):
        metrics = extract_metrics(make_dump())
        assert metrics["counters.mapper.nodes_visited"] == 120.0
        assert metrics["gauges.mapper.best_area"] == pytest.approx(1.2e-7)
        assert metrics["histograms.sizing.iterations.count"] == 8.0

    def test_payload_scalars_included(self):
        metrics = extract_metrics(make_dump(nodes=16, feasible=True))
        assert metrics["payload.nodes"] == 16.0
        assert metrics["payload.feasible"] == 1.0

    def test_timing_keys_excluded(self):
        metrics = extract_metrics(
            make_dump(runtime_s=0.5, elapsed_ms=2.0, phases={"map": 1.0})
        )
        assert not any("runtime" in k for k in metrics)
        assert not any(k.endswith("_ms") for k in metrics)
        assert not any("phases" in k for k in metrics)

    def test_nested_payload_flattened(self):
        metrics = extract_metrics(make_dump(search={"pruned": 9}))
        assert metrics["payload.search.pruned"] == 9.0

    def test_provenance_is_not_gated(self):
        # The host's core count describes the machine a dump came from;
        # gating it would fail every host but the baseline's.
        dump = make_dump(nodes=16)
        dump["provenance"] = {"cores": 2}
        assert extract_metrics(dump) == extract_metrics(make_dump(nodes=16))


class TestCompareMetrics:
    def test_identical_metrics_pass(self):
        base = {"payload.nodes": 16.0, "payload.pruned": 9.0}
        regressions, compared = compare_metrics("t", base, dict(base))
        assert regressions == []
        assert compared == 2

    def test_drift_beyond_tolerance_regresses(self):
        regressions, _ = compare_metrics(
            "t", {"payload.nodes": 100.0}, {"payload.nodes": 120.0},
            rel_tolerance=0.05,
        )
        (regression,) = regressions
        assert regression.metric == "payload.nodes"
        assert "drifted" in str(regression)
        assert "payload.nodes" in str(regression)

    def test_drift_within_tolerance_passes(self):
        regressions, _ = compare_metrics(
            "t", {"payload.nodes": 100.0}, {"payload.nodes": 102.0},
            rel_tolerance=0.05,
        )
        assert regressions == []

    def test_zero_baseline_flags_any_change(self):
        regressions, _ = compare_metrics(
            "t", {"payload.pruned": 0.0}, {"payload.pruned": 1.0}
        )
        assert regressions

    def test_missing_metric_regresses(self):
        regressions, _ = compare_metrics("t", {"payload.nodes": 16.0}, {})
        (regression,) = regressions
        assert regression.current is None
        assert "missing" in str(regression)

    def test_per_metric_tolerance_override(self):
        regressions, _ = compare_metrics(
            "t", {"payload.nodes": 100.0}, {"payload.nodes": 120.0},
            rel_tolerance=0.05, tolerances={"payload.nodes": 0.5},
        )
        assert regressions == []


class TestCheckBaselines:
    @pytest.fixture()
    def dirs(self, tmp_path):
        metrics = tmp_path / "out"
        baselines = tmp_path / "baselines"
        metrics.mkdir()
        (metrics / "table1.json").write_text(
            json.dumps(make_dump(nodes=16, pruned=9))
        )
        return str(baselines), str(metrics)

    def test_update_then_check_passes(self, dirs):
        baselines, metrics = dirs
        update = check_baselines(baselines, metrics, update=True)
        assert update.updated == ["table1.json"]
        report = check_baselines(baselines, metrics)
        assert report.passed
        assert report.metrics_compared > 0
        assert "PASS" in report.describe()

    def test_update_preserves_tolerance_overrides(self, dirs, tmp_path):
        baselines, metrics = dirs
        check_baselines(baselines, metrics, update=True)
        path = tmp_path / "baselines" / "table1.json"
        doc = json.loads(path.read_text())
        doc["tolerances"] = {"payload.nodes": 0.5}
        path.write_text(json.dumps(doc))
        check_baselines(baselines, metrics, update=True)
        doc = json.loads(path.read_text())
        assert doc["tolerances"] == {"payload.nodes": 0.5}

    def test_perturbed_baseline_fails_and_names_metric(self, dirs, tmp_path):
        baselines, metrics = dirs
        check_baselines(baselines, metrics, update=True)
        path = tmp_path / "baselines" / "table1.json"
        doc = json.loads(path.read_text())
        doc["metrics"]["payload.pruned"] = 42.0  # fabricated regression
        path.write_text(json.dumps(doc))
        report = check_baselines(baselines, metrics)
        assert not report.passed
        (regression,) = report.regressions
        assert regression.metric == "payload.pruned"
        assert "REGRESSION" in report.describe()
        assert "FAIL" in report.describe()

    def test_missing_dump_skips_unless_strict(self, dirs, tmp_path):
        baselines, metrics = dirs
        check_baselines(baselines, metrics, update=True)
        empty = tmp_path / "empty"
        empty.mkdir()
        report = check_baselines(baselines, str(empty))
        assert report.passed
        assert report.skipped == ["table1.json"]
        strict = check_baselines(baselines, str(empty), strict=True)
        assert not strict.passed
        assert "run the benchmarks first" in str(strict.regressions[0])

    def test_missing_baseline_dir_is_empty_pass(self, tmp_path):
        report = check_baselines(
            str(tmp_path / "nope"), str(tmp_path / "also-nope")
        )
        assert report.passed
        assert report.checked == []


class TestBenchCheckCli:
    def setup_dirs(self, tmp_path):
        metrics = tmp_path / "out"
        baselines = tmp_path / "baselines"
        metrics.mkdir()
        (metrics / "table1.json").write_text(
            json.dumps(make_dump(nodes=16, pruned=9))
        )
        return baselines, metrics

    def test_update_then_check_round_trip(self, tmp_path, capsys):
        baselines, metrics = self.setup_dirs(tmp_path)
        assert main([
            "bench-check", "--update",
            "--baselines", str(baselines), "--metrics", str(metrics),
        ]) == 0
        assert "updated baseline" in capsys.readouterr().out
        assert main([
            "bench-check",
            "--baselines", str(baselines), "--metrics", str(metrics),
        ]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_fabricated_regression_exits_non_zero(self, tmp_path, capsys):
        baselines, metrics = self.setup_dirs(tmp_path)
        main([
            "bench-check", "--update",
            "--baselines", str(baselines), "--metrics", str(metrics),
        ])
        capsys.readouterr()
        path = baselines / "table1.json"
        doc = json.loads(path.read_text())
        doc["metrics"]["counters.mapper.nodes_visited"] = 9999.0
        path.write_text(json.dumps(doc))
        assert main([
            "bench-check",
            "--baselines", str(baselines), "--metrics", str(metrics),
        ]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "counters.mapper.nodes_visited" in out

    def test_tolerance_flag(self, tmp_path, capsys):
        baselines, metrics = self.setup_dirs(tmp_path)
        main([
            "bench-check", "--update",
            "--baselines", str(baselines), "--metrics", str(metrics),
        ])
        (metrics / "table1.json").write_text(
            json.dumps(make_dump(nodes=17, pruned=9))  # ~6% drift
        )
        capsys.readouterr()
        assert main([
            "bench-check",
            "--baselines", str(baselines), "--metrics", str(metrics),
        ]) == 1
        capsys.readouterr()
        assert main([
            "bench-check", "--tolerance", "0.2",
            "--baselines", str(baselines), "--metrics", str(metrics),
        ]) == 0


def test_default_tolerance_is_tight():
    assert 0 < DEFAULT_REL_TOLERANCE <= 0.1


def test_regression_str_handles_missing_dump():
    text = str(Regression("table1", "<metrics dump>", None, None, 0.0))
    assert "table1" in text
    assert "run the benchmarks" in text
