"""The incremental CandidateIndex must not change mapper decisions.

The index is a pure speed refactor: identical candidate ordering,
identical alloc/share/prune/complete sequence, identical best mapping.
The exploration log records every decision the search makes, so
comparing full (timestamp-stripped) event streams between the
production mapper and the ``naive_mapper`` reference (per-node
re-enumeration, see the root ``conftest.py``) proves behavioral
equivalence end to end.
"""

import os
from unittest import mock

import pytest

from repro.apps import ALL_APPLICATIONS, biquad_filter
from repro.flow import FlowOptions, synthesize
from repro.instrument import explogging, metrics
from repro.synth import ArchitectureMapper, MapperOptions
from repro.synth import mapper as mapper_module

#: every event type the mapper search emits
MAPPER_EVENTS = {
    "search_start", "candidates", "alloc", "share", "prune",
    "complete", "dead_end", "truncated", "search_end",
}

#: wall-clock fields that legitimately differ between two runs
TIMING_FIELDS = {"ts", "runtime_s"}

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "examples")


def biquad_source() -> str:
    path = os.path.join(EXAMPLES, "biquad.vhd")
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def mapper_decisions(
    source: str, mapper_cls=ArchitectureMapper, **mapper_kwargs
):
    """The decision sequence of one synthesis run mapped by ``mapper_cls``."""
    with explogging() as log, mock.patch.object(
        mapper_module, "ArchitectureMapper", mapper_cls
    ):
        result = synthesize(
            source, options=FlowOptions(mapper=MapperOptions(**mapper_kwargs))
        )
    decisions = [
        {k: v for k, v in event.items() if k not in TIMING_FIELDS}
        for event in log.events
        if event["event"] in MAPPER_EVENTS
    ]
    return decisions, result


class TestDecisionParity:
    def test_biquad_explog_sequence_identical(self, naive_mapper):
        indexed, indexed_result = mapper_decisions(biquad_source())
        reference, reference_result = mapper_decisions(
            biquad_source(), naive_mapper
        )
        assert indexed == reference
        assert (
            indexed_result.mapping.estimate.area
            == reference_result.mapping.estimate.area
        )
        assert (
            indexed_result.netlist.describe()
            == reference_result.netlist.describe()
        )

    @pytest.mark.parametrize(
        "sequencing", ["largest_first", "smallest_first", "arbitrary"]
    )
    def test_sequencing_modes_identical(self, naive_mapper, sequencing):
        indexed, _ = mapper_decisions(biquad_source(), sequencing=sequencing)
        reference, _ = mapper_decisions(
            biquad_source(), naive_mapper, sequencing=sequencing
        )
        assert indexed == reference

    @pytest.mark.parametrize("app", sorted(ALL_APPLICATIONS))
    def test_table1_apps_identical(self, naive_mapper, app):
        source = ALL_APPLICATIONS[app].VASS_SOURCE
        indexed, _ = mapper_decisions(source)
        reference, _ = mapper_decisions(source, naive_mapper)
        assert indexed
        assert indexed == reference


class TestMinAreaMemoBound:
    """Sharing off: the memo bound prunes more, never a different best."""

    def _map(self, mapper_cls=ArchitectureMapper):
        with mock.patch.object(
            mapper_module, "ArchitectureMapper", mapper_cls
        ):
            return synthesize(
                biquad_filter.VASS_SOURCE,
                options=FlowOptions(
                    mapper=MapperOptions(enable_sharing=False)
                ),
            ).mapping

    def test_same_best_area_smaller_search(self, naive_mapper, monkeypatch):
        indexed = self._map()
        # The reference without the memo bound: the plain exact bound.
        monkeypatch.setattr(
            naive_mapper, "_min_alloc_area", lambda self, root: None
        )
        reference = self._map(naive_mapper)
        assert indexed.estimate.area == pytest.approx(reference.estimate.area)
        # The tighter bound cuts subtrees earlier, so the indexed
        # search never visits more nodes (a branch pruned at its root
        # also records *fewer* individual prune events than pruning
        # each of its children would).
        assert (
            indexed.statistics.nodes_visited
            <= reference.statistics.nodes_visited
        )
        assert (
            indexed.statistics.feasible_mappings
            >= 1
        )


class TestIndexMechanics:
    def _mapper(self):
        from repro.compiler import compile_design

        design = compile_design(biquad_filter.VASS_SOURCE)
        return ArchitectureMapper(design.sfgs[0])

    def test_enumerates_each_root_once(self):
        mapper = self._mapper()
        registry = metrics()
        calls_before = registry.counter("patterns.candidate_calls")
        mapper.run()
        index = mapper._index
        # One matcher enumeration per distinct root, by construction.
        assert (
            registry.counter("patterns.candidate_calls") - calls_before
            == index.misses
        )
        assert index.misses == len(index._entries)

    def test_hit_rate_published(self):
        registry = metrics()
        hits_before = registry.counter("mapper.index.hits")
        misses_before = registry.counter("mapper.index.misses")
        self._mapper().run()
        assert registry.counter("mapper.index.misses") > misses_before
        # Any search deeper than one node re-queries enumerated roots.
        assert registry.counter("mapper.index.hits") >= hits_before

    def test_cover_uncover_roundtrip(self):
        mapper = self._mapper()
        index = mapper._index
        root = mapper.sfg.block(max(mapper._initial_pending()))
        full = index.candidates(root)
        assert full, "biquad root should have candidates"
        cone = full[0].cone
        index.cover(cone)
        filtered = index.candidates(root)
        assert all(not (m.cone & cone) for m in filtered)
        index.uncover(cone)
        assert index.candidates(root) == full
