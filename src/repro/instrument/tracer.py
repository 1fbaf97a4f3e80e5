"""Hierarchical span tracing for the synthesis flow.

Stages of the flow mark their work with::

    with trace_phase("map") as span:
        ...
        span.annotate(nodes_visited=stats.nodes_visited)

``trace_phase`` is safe to leave in hot code: while no tracer is active
it returns one shared no-op span object and never allocates, so the
disabled cost is a single global load plus an ``is None`` test.  When a
:class:`Tracer` is active (``tracing()`` context manager,
``enable_tracing()``, or ``FlowOptions.trace``) every phase becomes a
:class:`Span` timed with the monotonic clock, nested under the
innermost open span.

A finished tracer renders two ways:

* :meth:`Tracer.format_tree` — a human-readable timing tree with the
  span annotations inline;
* :meth:`Tracer.chrome_trace` / :meth:`Tracer.chrome_json` — the Chrome
  ``trace_event`` format (complete ``"ph": "X"`` events, microsecond
  timestamps) that ``chrome://tracing`` and Perfetto load directly.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.instrument.events import CATEGORY_SPAN, active_bus


@dataclass
class Span:
    """One timed phase, possibly with nested child phases."""

    name: str
    start_s: float
    duration_s: float = 0.0
    attrs: Dict[str, object] = field(default_factory=dict)
    children: List["Span"] = field(default_factory=list)

    @property
    def self_time_s(self) -> float:
        """Time spent in this span outside any child span."""
        return max(0.0, self.duration_s - sum(c.duration_s for c in self.children))


class _NullSpan:
    """The shared span handed out while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def annotate(self, **attrs) -> None:
        pass


NULL_SPAN = _NullSpan()


class _LiveSpan:
    """Context manager that closes its span on exit."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> "_LiveSpan":
        return self

    def __exit__(self, *exc) -> bool:
        self._tracer._close(self._span)
        return False

    def annotate(self, **attrs) -> None:
        """Attach key/value facts (counters, sizes) to the span."""
        self._span.attrs.update(attrs)


class Tracer:
    """Collects a tree of timed spans."""

    def __init__(self):
        self.roots: List[Span] = []
        self._stack: List[Span] = []

    def span(self, name: str, **attrs) -> _LiveSpan:
        span = Span(name=name, start_s=time.perf_counter(), attrs=dict(attrs))
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)
        bus = active_bus()
        if bus is not None:
            bus.publish(
                CATEGORY_SPAN,
                {"phase": "open", "name": name, "depth": len(self._stack)},
            )
        return _LiveSpan(self, span)

    def _close(self, span: Span) -> None:
        now = time.perf_counter()
        # An exception may have skipped inner __exit__ calls; close any
        # dangling children so the tree stays consistent.
        while self._stack and self._stack[-1] is not span:
            dangling = self._stack.pop()
            dangling.duration_s = now - dangling.start_s
            self._publish_close(dangling)
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        span.duration_s = now - span.start_s
        self._publish_close(span)

    def _publish_close(self, span: Span) -> None:
        bus = active_bus()
        if bus is not None:
            bus.publish(
                CATEGORY_SPAN,
                {
                    "phase": "close",
                    "name": span.name,
                    "duration_s": span.duration_s,
                    "attrs": {
                        k: _jsonable(v) for k, v in span.attrs.items()
                    },
                },
            )

    # -- rendering ---------------------------------------------------------------

    def format_tree(self) -> str:
        """Indented per-phase timing tree with annotations inline."""
        lines: List[str] = []

        def fmt(value: object) -> str:
            if isinstance(value, float):
                return f"{value:g}"
            return str(value)

        def walk(span: Span, prefix: str, is_last: bool, is_root: bool) -> None:
            branch = "" if is_root else ("`- " if is_last else "|- ")
            attrs = ""
            if span.attrs:
                attrs = "  [" + ", ".join(
                    f"{k}={fmt(v)}" for k, v in span.attrs.items()
                ) + "]"
            lines.append(
                f"{prefix}{branch}{span.name:<24} "
                f"{span.duration_s * 1e3:>9.3f} ms{attrs}"
            )
            child_prefix = prefix if is_root else prefix + ("   " if is_last else "|  ")
            for i, child in enumerate(span.children):
                walk(child, child_prefix, i == len(span.children) - 1, False)

        for root in self.roots:
            walk(root, "", True, True)
        return "\n".join(lines)

    def chrome_trace(self, metadata: Optional[Dict[str, object]] = None) -> Dict:
        """The trace as a Chrome ``trace_event`` JSON object."""
        if self.roots:
            t0 = min(span.start_s for span in self.roots)
        else:
            t0 = 0.0
        events: List[Dict[str, object]] = []

        def emit(span: Span) -> None:
            events.append(
                {
                    "name": span.name,
                    "cat": "vase",
                    "ph": "X",
                    "pid": 1,
                    "tid": 1,
                    "ts": (span.start_s - t0) * 1e6,
                    "dur": span.duration_s * 1e6,
                    "args": {k: _jsonable(v) for k, v in span.attrs.items()},
                }
            )
            for child in span.children:
                emit(child)

        for root in self.roots:
            emit(root)
        trace: Dict[str, object] = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
        }
        if metadata:
            trace["otherData"] = {k: _jsonable(v) for k, v in metadata.items()}
        return trace

    def chrome_json(self, metadata: Optional[Dict[str, object]] = None) -> str:
        return json.dumps(self.chrome_trace(metadata=metadata), indent=2)

    # -- queries -----------------------------------------------------------------

    def find(self, name: str) -> List[Span]:
        """All spans with ``name``, depth-first."""
        out: List[Span] = []

        def walk(span: Span) -> None:
            if span.name == name:
                out.append(span)
            for child in span.children:
                walk(child)

        for root in self.roots:
            walk(root)
        return out


def _jsonable(value: object) -> object:
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return str(value)


# -- the active tracer (per thread) ---------------------------------------------
#
# Thread-local, not a module global: a Tracer's span stack is not
# thread-safe, and the thread executor (explore_solvers, ``vase batch
# --executor thread``) runs flow stages on worker threads.  Workers
# simply see no active tracer (their spans are no-ops); the thread
# that enabled tracing keeps its tree exactly as before.

_TLS = threading.local()


def _active() -> Optional[Tracer]:
    return getattr(_TLS, "tracer", None)


def trace_phase(name: str, **attrs):
    """Open a span on this thread's active tracer, or a no-op."""
    tracer = _active()
    if tracer is None:
        return NULL_SPAN
    return tracer.span(name, **attrs)


def active_tracer() -> Optional[Tracer]:
    return _active()


def enable_tracing(tracer: Optional[Tracer] = None) -> Tracer:
    """Install ``tracer`` (or a fresh one) as this thread's tracer."""
    _TLS.tracer = tracer or Tracer()
    return _TLS.tracer


class tracing:
    """Context manager: activate a tracer, restoring the previous one.

    >>> with tracing() as tracer:
    ...     with trace_phase("work"):
    ...         pass
    >>> print(tracer.format_tree())
    """

    def __init__(self, tracer: Optional[Tracer] = None):
        self._tracer = tracer or Tracer()
        self._previous: Optional[Tracer] = None

    def __enter__(self) -> Tracer:
        self._previous = _active()
        _TLS.tracer = self._tracer
        return self._tracer

    def __exit__(self, *exc) -> bool:
        _TLS.tracer = self._previous
        return False
