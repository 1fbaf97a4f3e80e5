"""Tests for the pipeline's fingerprints and the artifact cache.

Satellite coverage of the staged-pipeline refactor: changing *any*
field of the relevant options subtrees (or the component library) must
change the stage key, and a warm on-disk cache must survive a process
restart (modelled here as a fresh :class:`ArtifactCache` instance over
the same directory).
"""

import dataclasses
from pathlib import Path

import pytest

from repro.compiler import CompilerOptions
from repro.estimation import ConstraintSet
from repro.flow import FlowOptions, synthesize
from repro.library import ComponentLibrary, default_library
from repro.pipeline import (
    COMPILE,
    MAP,
    MISS,
    ArtifactCache,
    PipelineSession,
    fingerprint,
    library_fingerprint,
)
from repro.synth import MapperOptions

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"
BIQUAD = (EXAMPLES / "biquad.vhd").read_text()


def _mutated(value):
    """A different-but-type-compatible value for any options field."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value * 2.0 + 1.0
    if isinstance(value, str):
        return value + "_x"
    if value is None:
        return 1.0
    raise AssertionError(f"unhandled field type: {value!r}")


class TestFingerprint:
    def test_stable_across_calls(self):
        options = CompilerOptions()
        assert fingerprint(options) == fingerprint(options)
        assert fingerprint(options) == fingerprint(CompilerOptions())

    @pytest.mark.parametrize(
        "options_type", [CompilerOptions, MapperOptions, ConstraintSet]
    )
    def test_every_field_changes_the_key(self, options_type):
        base = options_type()
        base_print = fingerprint(base)
        for field in dataclasses.fields(base):
            changed = dataclasses.replace(
                base, **{field.name: _mutated(getattr(base, field.name))}
            )
            assert fingerprint(changed) != base_print, (
                f"{options_type.__name__}.{field.name} did not change "
                "the fingerprint"
            )

    def test_stage_keys_are_namespaced(self):
        assert COMPILE.key("x") != MAP.key("x")
        assert COMPILE.key("x") != COMPILE.key("y")
        bumped = dataclasses.replace(COMPILE, version=COMPILE.version + 1)
        assert bumped.key("x") != COMPILE.key("x")

    def test_library_fingerprint_sees_spec_changes(self):
        base = default_library()
        base_print = library_fingerprint(base)
        assert library_fingerprint(default_library()) == base_print

        spec = base.specs()[0]
        grown = ComponentLibrary(specs=base.specs(), name=base.name)
        grown.add(dataclasses.replace(spec, name=spec.name + "_alt"))
        assert library_fingerprint(grown) != base_print

        changed_specs = [
            dataclasses.replace(s, passives=s.passives + 1)
            if index == 0 else s
            for index, s in enumerate(base.specs())
        ]
        changed = ComponentLibrary(specs=changed_specs, name=base.name)
        assert library_fingerprint(changed) != base_print

    def test_default_library_fingerprinted_once(self, monkeypatch):
        from repro.pipeline import stages

        calls = []

        def counting(library):
            calls.append(library)
            return library_fingerprint(library)

        monkeypatch.setattr(stages, "library_fingerprint", counting)
        stages._default_library_fingerprint.cache_clear()
        first = PipelineSession(BIQUAD)
        second = PipelineSession(BIQUAD, options=FlowOptions())
        assert len(calls) == 1
        assert first.library_fp == second.library_fp
        assert first.library_fp == library_fingerprint(default_library())

        # An explicit library is fingerprinted by every session.
        PipelineSession(BIQUAD, library=default_library())
        assert len(calls) == 2

    def test_session_keys_track_source_and_options(self):
        session = PipelineSession(BIQUAD, options=FlowOptions())
        other_source = PipelineSession(
            BIQUAD + "\n-- tail\n", options=FlowOptions()
        )
        assert session.frontend_key() != other_source.frontend_key()

        other_solver = PipelineSession(
            BIQUAD,
            options=FlowOptions(compiler=CompilerOptions(solver_index=1)),
        )
        assert session.frontend_key() == other_solver.frontend_key()
        assert session.compile_key() != other_solver.compile_key()
        # The explicit-index form matches the equivalent options form.
        assert session.compile_key(1) == other_solver.compile_key()


class TestArtifactCache:
    def test_miss_then_hit(self):
        cache = ArtifactCache()
        assert cache.get("k", stage="compile") is MISS
        cache.put("k", {"a": 1}, stage="compile")
        assert cache.get("k", stage="compile") == {"a": 1}
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.stage_hits == {"compile": 1}
        assert cache.stats.stage_misses == {"compile": 1}

    def test_get_returns_the_stored_artifact(self, tmp_path):
        cache = ArtifactCache(disk_dir=tmp_path / "store")
        original = {"nets": ["n1"]}
        cache.put("k", original)
        assert cache.get("k") is original
        assert cache.get("k") is original

        # A restart: the disk hit unpickles a new object, and every
        # later memory hit hands out that same object.
        restarted = ArtifactCache(disk_dir=tmp_path / "store")
        from_disk = restarted.get("k")
        assert from_disk == original
        assert from_disk is not original
        assert restarted.get("k") is from_disk
        assert restarted.stats.disk_hits == 1

    def test_lru_eviction_is_counted(self):
        cache = ArtifactCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        assert cache.get("a") is MISS
        assert cache.get("c") == 3

    def test_disk_tier_survives_restart(self, tmp_path):
        first = ArtifactCache(disk_dir=tmp_path / "store")
        first.put("k", [1, 2, 3], stage="map")
        assert first.stats.disk_stores == 1

        # A fresh instance over the same directory models a restart.
        second = ArtifactCache(disk_dir=tmp_path / "store")
        assert second.get("k", stage="map") == [1, 2, 3]
        assert second.stats.disk_hits == 1
        # Now resident in memory: the next hit skips the disk.
        assert second.get("k", stage="map") == [1, 2, 3]
        assert second.stats.disk_hits == 1
        assert second.stats.hits == 2

    def test_unpicklable_artifacts_skip_the_disk_tier(self, tmp_path):
        cache = ArtifactCache(disk_dir=tmp_path / "store")
        cache.put("k", lambda: 42)
        assert cache.stats.disk_errors == 1
        assert cache.stats.disk_stores == 0
        assert cache.get("k")() == 42

    def test_clear_memory_keeps_disk(self, tmp_path):
        cache = ArtifactCache(disk_dir=tmp_path / "store")
        cache.put("k", "v")
        cache.clear_memory()
        assert len(cache) == 0
        assert cache.get("k") == "v"
        assert cache.stats.disk_hits == 1


class TestWarmFlowCache:
    def test_full_flow_warm_restart(self, tmp_path):
        """A second process over the same disk cache recomputes nothing."""
        cold_cache = ArtifactCache(disk_dir=tmp_path / "vase-cache")
        cold = synthesize(
            BIQUAD, options=FlowOptions(cache=cold_cache)
        )
        assert cold_cache.stats.hits == 0
        assert cold_cache.stats.misses > 0

        warm_cache = ArtifactCache(disk_dir=tmp_path / "vase-cache")
        warm = synthesize(
            BIQUAD, options=FlowOptions(cache=warm_cache)
        )
        assert warm_cache.stats.misses == 0
        # One fewer hit than the cold run's misses: a compile hit never
        # even consults the frontend stage.
        assert warm_cache.stats.hits == cold_cache.stats.misses - 1
        assert warm_cache.stats.disk_hits == warm_cache.stats.hits
        assert warm.estimate.area == pytest.approx(cold.estimate.area)
        assert warm.summary == cold.summary

    def test_source_change_invalidates_everything(self, tmp_path):
        cache = ArtifactCache(disk_dir=tmp_path / "vase-cache")
        synthesize(BIQUAD, options=FlowOptions(cache=cache))
        before = cache.stats.misses
        synthesize(
            BIQUAD + "\n-- trailing comment\n",
            options=FlowOptions(cache=cache),
        )
        assert cache.stats.misses == 2 * before
