"""Repo-wide pytest configuration.

``VASE_EXPLOG`` smoke mode: when the environment variable is set, the
whole suite runs with a process-wide exploration recorder active, so
every synthesis run in every test exercises the instrumented decision
paths (CI uses this to prove the explog layer stays healthy under
load).  Set it to ``1`` to record in memory, or to a path ending in
``.jsonl`` to also stream the events to disk.
"""

import os

import pytest


@pytest.fixture(autouse=True)
def _no_default_ledger(monkeypatch):
    """Keep test runs from appending to a ``.vase-ledger/`` in the cwd.

    The CLI's run ledger is on by default; tests that want one pass an
    explicit ``--ledger`` path (which overrides the environment).
    """
    monkeypatch.setenv("VASE_LEDGER", "off")


@pytest.fixture
def fault_injector():
    """Deterministic fault injection with guaranteed teardown.

    Yields a :class:`repro.robust.faultinject.FaultInjector`; any sites
    still armed when the test ends (including on failure) are cleared so
    no fault leaks into the rest of the suite.
    """
    from repro.robust.faultinject import pytest_fixture

    yield from pytest_fixture()


@pytest.fixture
def force_backend(monkeypatch):
    """Pin the SPICE engines to one linear-solver backend.

    The engines pick their backend themselves through
    ``resolve_backend``; tests that compare backends substitute that
    selector in both engines that call it (the AC sweep and the MNA
    bias/transient solves), undone at teardown.  Yields a function
    taking ``"dense"``, ``"batched"`` or ``"sparse"``.
    """
    from repro.spice import ac, linalg, mna

    solvers = {
        "dense": linalg.DenseSolver,
        "batched": linalg.BatchedSolver,
        "sparse": linalg.SparseSolver,
    }

    def force(name):
        solver = solvers[name]
        for module in (ac, mna):
            monkeypatch.setattr(
                module, "resolve_backend",
                lambda size=0, grid=1: solver(),
            )

    return force


@pytest.fixture
def naive_mapper():
    """The reference mapper the candidate-index parity tests compare to.

    An :class:`~repro.synth.mapper.ArchitectureMapper` that re-runs the
    pattern matcher at every decision node, then filters out cones
    overlapping the covered set and sorts by the sequencing rule — the
    enumeration the incremental ``CandidateIndex`` replaces.  Its
    matches are rebuilt per node and die young, so the area lookup
    skips the identity memo (a dead match's ``id`` can be reused).
    """
    from repro.synth import mapper

    class NaiveMapper(mapper.ArchitectureMapper):
        def _ordered_candidates(self, root):
            candidates = self.matcher.candidates(
                self.sfg, root, max_size=self.options.max_cone_size
            )
            if not self.options.enable_transforms:
                candidates = [c for c in candidates if c.transform is None]
            candidates = [
                c for c in candidates if not (c.cone & self._covered)
            ]
            sort_key = mapper._SEQUENCING_KEYS.get(self.options.sequencing)
            if sort_key is not None:
                candidates.sort(key=sort_key)
            return candidates

        _instance_area = mapper.ArchitectureMapper._keyed_area

    return NaiveMapper


class _BoundedLog:
    """Session-wide recorder that trims its in-memory buffer.

    The suite performs thousands of synthesis runs; streaming keeps the
    full record on disk while the in-memory event list stays bounded.
    """

    LIMIT = 20_000

    @staticmethod
    def make(stream):
        from repro.instrument import ExplorationLog

        class Bounded(ExplorationLog):
            def emit(self, event, **fields):
                record = super().emit(event, **fields)
                if len(self.events) > _BoundedLog.LIMIT:
                    del self.events[: _BoundedLog.LIMIT // 2]
                return record

        return Bounded(stream=stream)


@pytest.fixture(scope="session", autouse=True)
def _explog_smoke():
    target = os.environ.get("VASE_EXPLOG")
    if not target:
        yield
        return
    from repro.instrument import disable_explog, enable_explog

    handle = None
    if target != "1" and target.endswith(".jsonl"):
        handle = open(target, "w", encoding="utf-8")
    enable_explog(_BoundedLog.make(handle))
    try:
        yield
    finally:
        disable_explog()
        if handle is not None:
            handle.close()
