"""Decision-level exploration recorder for the synthesis search.

PR 1 gave the flow phase-level spans and counters; this module records
*why* the Figure-5 branch-and-bound search did what it did.  While a
recorder is active, the mapper streams one structured event per
decision — candidate enumeration (with the sequencing order actually
used), allocate vs. share branches, prune events carrying both bound
values and the incumbent area they lost to, complete/infeasible
outcomes with the concrete constraint violations, truncation — and the
DAE compiler records which causalization alternative each solver SFG
uses.  The log renders as JSON Lines (one event per line) and is the
input of ``vase explain``.

The activation pattern mirrors the tracer: hot call sites capture
``active_explog()`` once per run and guard every emit with an
``is None`` test, so the disabled path costs one global load at search
start and nothing per decision — no events, no allocations.

Event vocabulary (the ``event`` field):

``search_start``
    one per mapper run: SFG name, search options, ``min_area``.
``candidates``
    one per visited frontier block: the root block and the candidate
    cones in the order the sequencing rule will try them.
``alloc`` / ``share``
    one branch taken: the component (or reused instance), the covered
    cone, and the op-amp count after the branch.
``prune``
    a partial mapping abandoned by the bounding rule; carries
    ``minarea_bound``, ``exact_bound``, the effective ``lower_bound``
    and the ``incumbent_area`` it lost to.
``complete``
    a complete mapping reached the estimator; carries the estimated
    area/power/op-amps, ``feasible``, and — when infeasible — the
    violated constraint names and messages.
``dead_end``
    a frontier block with no candidate cones (or an uncovered
    fragment).
``truncated``
    the search stopped early; ``reason`` says what expired (``nodes``
    for the ``max_nodes`` budget, ``deadline`` for the wall-clock
    ``deadline_s``).
``search_end``
    one per mapper run: the final :class:`MappingStatistics` dict.
``causalization``
    one per DAE solver emission: how many alternatives were
    enumerated, which one was chosen, its states and evaluation order.
``recovery``
    one per recovery-ladder attempt (``FlowOptions.recovery``): the
    rung, the action tried, and whether it ``failed`` / ``recovered`` /
    was ``skipped``.

Every event also carries ``seq`` (a per-recorder monotonically
increasing sequence number), ``ts`` (the wall-clock epoch time of the
decision, so exploration JSONL correlates with trace spans and
telemetry events).  Every decision event of a mapper run also carries
integer decision-tree ids: ``node`` (the root is node 0, each
``alloc``/``share``/``prune`` branch takes the next id) and, on
branches, ``parent``.  :func:`decision_tree` replays them into the
Figure-6 tree ``vase explain --dot`` renders, from a live log or from
JSONL read back from disk.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Dict, IO, Iterable, Iterator, List, Optional

from repro.instrument.events import CATEGORY_EXPLOG, active_bus


class ExplorationLog:
    """Collects exploration events; optionally streams them as JSONL.

    Events are plain dicts (JSON-ready).  With a ``stream``, each event
    is additionally written as one JSON line the moment it is emitted,
    so a crashed or truncated search still leaves a usable log.
    """

    def __init__(self, stream: Optional[IO[str]] = None):
        self.events: List[Dict[str, object]] = []
        self._stream = stream
        self._seq = 0

    # -- publishing (hot path while enabled) -------------------------------

    def emit(self, event: str, **fields: object) -> Dict[str, object]:
        """Record one event; returns the stored dict."""
        record: Dict[str, object] = {
            "seq": self._seq,
            "ts": time.time(),
            "event": event,
        }
        self._seq += 1
        record.update(fields)
        self.events.append(record)
        if self._stream is not None:
            self._stream.write(json.dumps(record, default=str) + "\n")
        bus = active_bus()
        if bus is not None:
            bus.publish(CATEGORY_EXPLOG, dict(record))
        return record

    # -- reading -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[Dict[str, object]]:
        return iter(self.events)

    def of_kind(self, event: str) -> List[Dict[str, object]]:
        """All events with the given ``event`` kind, in emission order."""
        return [e for e in self.events if e["event"] == event]

    def prune_breakdown(self) -> Dict[str, int]:
        """Prune counts keyed by the bound that was decisive.

        ``minarea`` — the paper's op-amp-count bound was the tighter
        one; ``exact`` — the accumulated exact area was; ``tie`` —
        both bounds agree.
        """
        breakdown: Dict[str, int] = {}
        for event in self.of_kind("prune"):
            minarea = float(event["minarea_bound"])  # type: ignore[arg-type]
            exact = float(event["exact_bound"])  # type: ignore[arg-type]
            if minarea > exact:
                key = "minarea"
            elif exact > minarea:
                key = "exact"
            else:
                key = "tie"
            breakdown[key] = breakdown.get(key, 0) + 1
        return breakdown

    # -- serialization -----------------------------------------------------

    def to_jsonl(self) -> str:
        """The whole log as JSON Lines text."""
        return "\n".join(
            json.dumps(event, default=str) for event in self.events
        ) + ("\n" if self.events else "")

    def write(self, path: str) -> None:
        """Write the log as a ``.jsonl`` file."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_jsonl())

    @classmethod
    def read(cls, path: str) -> "ExplorationLog":
        """Load a previously written JSONL log."""
        log = cls()
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    log.events.append(json.loads(line))
        log._seq = len(log.events)
        return log


def decision_tree(
    events: Iterable[Dict[str, object]],
) -> List[Dict[str, object]]:
    """The Figure-6 decision tree of the last mapper search in ``events``.

    One dict per node, in id order: ``node``, ``parent``, ``decision``
    (``root`` / ``alloc <component> for <cone>`` / ``share <instance>
    for <cone>``), ``opamps``, ``status`` (``open`` / ``pruned`` /
    ``complete`` / ``infeasible`` / ``dead-end``) and ``detail`` — the
    estimated area of a complete node, the violated constraints of an
    infeasible one, the losing bound of a pruned one.
    """
    nodes: List[Dict[str, object]] = []

    def branch(event, decision, status="open", detail=""):
        nodes.append({
            "node": event["node"], "parent": event["parent"],
            "decision": decision, "opamps": event["opamps"],
            "status": status, "detail": detail,
        })

    for event in events:
        kind = event["event"]
        if kind == "search_start":
            nodes = [{
                "node": 0, "parent": None, "decision": "root",
                "opamps": 0, "status": "open", "detail": "",
            }]
        elif kind == "alloc":
            branch(event, f"alloc {event['component']} for {event['cone']}")
        elif kind == "share":
            branch(event, f"share {event['instance']} for {event['cone']}")
        elif kind == "prune":
            branch(
                event, f"alloc {event['component']} for {event['cone']}",
                "pruned",
                f"bound {event['lower_bound'] * 1e12:,.0f} >= "
                f"incumbent {event['incumbent_area'] * 1e12:,.0f} um^2",
            )
        elif kind == "complete":
            node = nodes[event["node"]]
            if event["feasible"]:
                node["status"] = "complete"
                node["detail"] = f"area {event['area'] * 1e12:,.0f} um^2"
            else:
                node["status"] = "infeasible"
                node["detail"] = ", ".join(event["violations"])
        elif kind == "dead_end":
            nodes[event["node"]]["status"] = "dead-end"
    return nodes


# -- the active recorder (per thread) --------------------------------------
#
# Thread-local for the same reason as the tracer: the recorder's event
# list and sequence counter are not thread-safe, and the pipeline's
# worker pools run mapper searches on worker threads.  Workers see no
# recorder and emit nothing; the enabling thread's log is unchanged,
# and the solver-space exploration emits its per-solver events from
# the calling thread after the pool has joined.

_TLS = threading.local()


def active_explog() -> Optional[ExplorationLog]:
    """This thread's recorder, or ``None`` while logging is off.

    Hot call sites capture this once per run and guard each emit with
    an ``is None`` test — the whole disabled cost.
    """
    return getattr(_TLS, "explog", None)


def enable_explog(log: Optional[ExplorationLog] = None) -> ExplorationLog:
    """Install ``log`` (or a fresh one) as this thread's recorder."""
    # ``is None``, not truthiness: an empty log is falsy via __len__.
    _TLS.explog = log if log is not None else ExplorationLog()
    return _TLS.explog


def disable_explog() -> Optional[ExplorationLog]:
    """Deactivate exploration logging; returns the recorder that was on."""
    log = active_explog()
    _TLS.explog = None
    return log


class explogging:
    """Context manager: activate a recorder, restoring the previous one.

    >>> with explogging() as log:
    ...     map_sfg(sfg)
    >>> log.of_kind("prune")
    """

    def __init__(self, log: Optional[ExplorationLog] = None):
        self._log = log if log is not None else ExplorationLog()
        self._previous: Optional[ExplorationLog] = None

    def __enter__(self) -> ExplorationLog:
        self._previous = active_explog()
        _TLS.explog = self._log
        return self._log

    def __exit__(self, *exc) -> bool:
        _TLS.explog = self._previous
        return False
