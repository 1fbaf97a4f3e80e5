"""Process-wide metrics registry: counters, gauges, histograms.

Hot paths of the flow publish effort counters here so a run can answer
"why was this slow" questions without a debugger:

* ``mapper.*`` — branch-and-bound decision nodes visited / pruned /
  shared, complete and feasible mappings, truncation events;
* ``patterns.*`` — candidate enumerations, cones examined, matches
  produced by the pattern matcher;
* ``estimator.*`` — per-instance estimates and two-stage op-amp sizing
  runs (cache misses);
* ``spice.*`` — MNA system factorizations and AC sweep points;
* ``frontend.*`` — lexer tokens and parser AST nodes.

The registry is deliberately primitive — dict updates under one lock,
guarded by an ``enabled`` flag — so publishing from a hot loop is
cheap (and safe from the pipeline's worker threads), and
:func:`MetricsRegistry.disable` turns every publish into one attribute
test.  Use ``metrics()`` for the process-wide instance; tests create
private registries.  A task on a ``process`` executor counts into its
worker's registry; the executor folds the task's counter delta into
the submitting process's registry, so counters read the same on every
backend (histograms and gauges stay per process).

:func:`format_table` renders any snapshot — a live registry's or one
loaded from JSON — as the CLI's text table.  Histogram quantiles use
the run ledger's nearest-rank :func:`~repro.instrument.ledger.percentile`.
"""

from __future__ import annotations

import random
import threading
from typing import Dict, Optional

from repro.instrument.events import CATEGORY_METRIC, active_bus
from repro.instrument.ledger import percentile

#: reservoir size per histogram — enough for stable p50/p95 at the
#: observation counts the flow produces, small enough to stay cheap
RESERVOIR_SIZE = 512


class Histogram:
    """Streaming summary of observed values.

    Besides the exact count/sum/min/max running aggregates, a bounded
    reservoir (algorithm R with a fixed seed, so snapshots are
    deterministic for a given observation sequence) retains a sample
    of the values, from which :meth:`quantile` estimates p50/p95 for
    snapshots and the Prometheus summary export.
    """

    __slots__ = ("count", "total", "min", "max", "_reservoir", "_rng")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._reservoir: list = []
        self._rng = random.Random(0)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if len(self._reservoir) < RESERVOIR_SIZE:
            self._reservoir.append(value)
        else:
            slot = self._rng.randrange(self.count)
            if slot < RESERVOIR_SIZE:
                self._reservoir[slot] = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile estimate from the reservoir."""
        return percentile(self._reservoir, q)

    def snapshot(self) -> Dict[str, float]:
        if not self.count:
            return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0}
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
        }


class MetricsRegistry:
    """Named counters, gauges and histograms for one process (or test)."""

    def __init__(self):
        self.enabled = True
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._lock = threading.Lock()

    # -- publishing (hot path) ---------------------------------------------------

    def inc(self, name: str, value: float = 1, publish: bool = True) -> None:
        """Add ``value`` to counter ``name``.

        ``publish=False`` skips the telemetry-bus mirror of the delta —
        required when the increment happens *inside* bus dispatch (the
        ``telemetry.subscriber_errors`` counter), where re-publishing
        would recurse into the failing subscriber forever.
        """
        if not self.enabled:
            return
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value
        if not publish:
            return
        bus = active_bus()
        if bus is not None:
            bus.publish(
                CATEGORY_METRIC,
                {"kind": "counter", "name": name, "delta": value},
            )

    def gauge(self, name: str, value: float) -> None:
        if not self.enabled:
            return
        with self._lock:
            self._gauges[name] = value
        bus = active_bus()
        if bus is not None:
            bus.publish(
                CATEGORY_METRIC,
                {"kind": "gauge", "name": name, "value": value},
            )

    def observe(self, name: str, value: float) -> None:
        if not self.enabled:
            return
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = Histogram()
            histogram.observe(value)
        bus = active_bus()
        if bus is not None:
            bus.publish(
                CATEGORY_METRIC,
                {"kind": "histogram", "name": name, "value": value},
            )

    # -- switches ----------------------------------------------------------------

    def disable(self) -> None:
        self.enabled = False

    def enable(self) -> None:
        self.enabled = True

    def reset(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

    # -- reading -----------------------------------------------------------------

    def counter(self, name: str) -> float:
        return self._counters.get(name, 0)

    def counters(self) -> Dict[str, float]:
        """A copy of every counter (cheaper than :meth:`snapshot`)."""
        with self._lock:
            return dict(self._counters)

    def gauge_value(self, name: str) -> Optional[float]:
        return self._gauges.get(name)

    def histogram(self, name: str) -> Optional[Histogram]:
        return self._histograms.get(name)

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Plain-data copy of everything, ready for ``json.dumps``."""
        return {
            "counters": dict(sorted(self._counters.items())),
            "gauges": dict(sorted(self._gauges.items())),
            "histograms": {
                name: histogram.snapshot()
                for name, histogram in sorted(self._histograms.items())
            },
        }

    def format_table(self) -> str:
        """Aligned text table of all metrics (for CLI output)."""
        return format_table(self.snapshot())


def format_table(snapshot: Dict[str, Dict[str, object]]) -> str:
    """Aligned text table of a :meth:`MetricsRegistry.snapshot`."""
    lines = []
    for name, value in sorted(snapshot.get("counters", {}).items()):
        lines.append(f"{name:<40} {value:>12g}")
    for name, value in sorted(snapshot.get("gauges", {}).items()):
        lines.append(f"{name:<40} {value:>12g}  (gauge)")
    for name, hist in sorted(snapshot.get("histograms", {}).items()):
        lines.append(
            f"{name:<40} {hist['count']:>12g}  "
            f"(mean {hist['mean']:g}, min {hist['min']:g}, "
            f"max {hist['max']:g})"
        )
    return "\n".join(lines)


#: The process-wide registry the flow publishes into.
_GLOBAL = MetricsRegistry()


def metrics() -> MetricsRegistry:
    """The process-wide metrics registry."""
    return _GLOBAL
