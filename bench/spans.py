"""Spans recorded by the benchmark around its calls into each layer.

The benchmark times layers from the outside: it calls each layer's
public function itself and wraps the call in a span.  The only code of
the program it wraps is the linear-solver backends of
``repro.spice.linalg`` (:func:`solver_shim`), because those are called
from inside the MNA and AC engines and have no other boundary.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from typing import Iterator, List, Optional

_NULL = nullcontext()


class Tracer:
    """In-memory span recorder for one thread.

    Each span is ``[name, start, end, parent, op]``: ``parent`` is the
    index of the enclosing span, ``op`` the id of the operation that
    caused it.  Spans stay in memory until the round ends.
    """

    def __init__(self):
        self.spans: List[list] = []
        self.op: Optional[int] = None
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        record = [
            name, time.perf_counter(), None,
            self._stack[-1] if self._stack else None, self.op,
        ]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()


class NullTracer:
    """Records nothing: runs the same layer chain with tracing off."""

    def span(self, name: str):
        return _NULL


@contextmanager
def solver_shim(tracer: Tracer) -> Iterator[None]:
    """Give every ``LinearSolver.solve``/``solve_grid`` call a span.

    The methods are patched on the backend classes and restored on
    exit, so spans appear wherever the engines solve (Newton steps,
    the AC bias point and the frequency grid).
    """
    from repro.spice import linalg

    patched = []
    for cls in (linalg.DenseSolver, linalg.BatchedSolver,
                linalg.SparseSolver):
        for method in ("solve", "solve_grid"):
            original = cls.__dict__[method]
            patched.append((cls, method, original))
            setattr(cls, method, _timed(tracer, f"spice.linalg.{method}",
                                        original))
    try:
        yield
    finally:
        for cls, method, original in patched:
            setattr(cls, method, original)


def _timed(tracer: Tracer, name: str, function):
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return function(*args, **kwargs)

    return wrapper
