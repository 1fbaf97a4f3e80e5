"""Pluggable linear-solver backends for the SPICE substrate.

The MNA and AC engines used to call ``np.linalg.solve`` inline, each
wrapping the call in its own copy of the numerical guards
(singular-suspect naming, the once-per-analysis condition estimate,
factorization counters).  This module extracts that solve path behind
one :class:`LinearSolver` interface with three implementations:

``dense``
    the reference: one LAPACK solve per system, exactly the seed
    semantics;
``batched``
    one vectorized complex LU over a whole frequency grid — the
    ``(n_points, n, n)`` tensor goes through a single stacked
    ``np.linalg.solve`` call instead of a Python loop.  On a singular
    point the stacked factorization cannot name the offending
    frequency, so the caller falls back to the dense per-point loop to
    reproduce the located error;
``sparse``
    ``scipy.sparse.linalg.splu``, worthwhile past a node-count
    threshold.  scipy is an *optional* dependency: without it the
    sparse backend is never selected.

The guards live at this boundary, in :class:`AnalysisGuard`, instead of
being duplicated per call site: the singular error message (assembled
by a ``repro.robust.guards`` helper), the once-per-analysis condition
estimate, and the factorization counts.  The guard counts successful
factorizations, and the engine publishes that count on
``spice.mna.factorizations`` once per analysis, when the analysis
ends; each failure lands on ``spice.mna.factorization_failures`` at
once.

Backend selection is the code's, not the caller's: each analysis asks
:func:`resolve_backend` with its unknown count and grid size, which
picks ``sparse`` past :data:`SPARSE_THRESHOLD` unknowns when scipy is
present, ``batched`` for grid solves, and ``dense`` otherwise.  There
is no option, environment variable or parameter that overrides it.
The engine counts each choice on ``spice.linalg.backend.<name>``.
"""

from __future__ import annotations

import warnings
from typing import Sequence

import numpy as np

from repro.diagnostics import SimulationError
from repro.instrument import metrics
from repro.robust.guards import (
    ILL_CONDITION_THRESHOLD,
    NumericalWarning,
    condition_estimate,
    describe_singular_system,
)

#: unknown count from which the sparse backend is selected
SPARSE_THRESHOLD = 64

try:  # scipy is optional: without it the sparse backend is never selected
    from scipy.sparse import csc_matrix as _csc_matrix
    from scipy.sparse.linalg import splu as _splu

    HAVE_SCIPY = True
except ImportError:  # pragma: no cover - exercised on the no-scipy CI leg
    _csc_matrix = None
    _splu = None
    HAVE_SCIPY = False


class LinearSolver:
    """One way of factorizing and solving the assembled MNA systems."""

    name = "abstract"

    def solve(self, A: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Solve one ``A x = b`` system (raises ``LinAlgError``)."""
        raise NotImplementedError

    def solve_grid(self, A_stack: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Solve ``A_stack[i] x_i = b`` for every grid point.

        ``A_stack`` is ``(m, n, n)``, ``b`` is one shared ``(n,)``
        right-hand side; returns ``(m, n)``.  Raises ``LinAlgError``
        when *any* point is singular.
        """
        raise NotImplementedError


class DenseSolver(LinearSolver):
    """The reference backend: one LAPACK solve per system."""

    name = "dense"

    def solve(self, A: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.linalg.solve(A, b)

    def solve_grid(self, A_stack: np.ndarray, b: np.ndarray) -> np.ndarray:
        out = np.empty((A_stack.shape[0], b.shape[-1]), dtype=A_stack.dtype)
        for i in range(A_stack.shape[0]):
            out[i] = np.linalg.solve(A_stack[i], b)
        return out


class BatchedSolver(LinearSolver):
    """Stacked LU over the whole grid in one gufunc call."""

    name = "batched"

    def solve(self, A: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.linalg.solve(A, b)

    def solve_grid(self, A_stack: np.ndarray, b: np.ndarray) -> np.ndarray:
        # The shared RHS is broadcast to a stack of (n, 1) column
        # matrices: unambiguous under both numpy RHS-interpretation
        # rules (a 2-D b would be read as one matrix, not a stack).
        rhs = np.broadcast_to(
            b[:, np.newaxis], (A_stack.shape[0], b.shape[-1], 1)
        )
        return np.linalg.solve(A_stack, rhs)[..., 0]


class SparseSolver(LinearSolver):
    """``scipy.sparse.linalg.splu`` — pays off on large systems."""

    name = "sparse"

    def solve(self, A: np.ndarray, b: np.ndarray) -> np.ndarray:
        try:
            factored = _splu(_csc_matrix(A))
            return factored.solve(np.asarray(b, dtype=A.dtype))
        except (RuntimeError, ValueError) as err:
            # splu reports exact singularity as RuntimeError; normalize
            # onto the one exception type the guard boundary handles.
            raise np.linalg.LinAlgError(str(err)) from err

    def solve_grid(self, A_stack: np.ndarray, b: np.ndarray) -> np.ndarray:
        out = np.empty((A_stack.shape[0], b.shape[-1]), dtype=A_stack.dtype)
        for i in range(A_stack.shape[0]):
            out[i] = self.solve(A_stack[i], b)
        return out


# ---------------------------------------------------------------------------
# Backend selection
# ---------------------------------------------------------------------------

def resolve_backend(size: int = 0, grid: int = 1) -> LinearSolver:
    """Pick the backend instance for one analysis of ``size`` unknowns
    solving ``grid`` systems: sparse from :data:`SPARSE_THRESHOLD`
    unknowns (when scipy is importable), batched for a grid of
    systems, dense otherwise."""
    if HAVE_SCIPY and size >= SPARSE_THRESHOLD:
        return SparseSolver()
    if grid > 1:
        return BatchedSolver()
    return DenseSolver()


# ---------------------------------------------------------------------------
# The guard boundary
# ---------------------------------------------------------------------------


class AnalysisGuard:
    """Per-analysis numerical-guard state, shared by every backend.

    Owns what the engines used to duplicate around each inline solve:
    the singular error (with suspect naming and a location clause), the
    once-per-analysis condition estimate, and the count of successful
    factorizations, which the engine publishes when its analysis ends.
    One guard instance spans one analysis (a DC solve, a transient, an
    AC sweep); :meth:`reset` rearms the condition check for the next
    analysis on the same solver.
    """

    def __init__(
        self,
        system: str,
        title: str,
        labels: Sequence[str],
        condition_text: str,
    ):
        self.system = system
        self.title = title
        self.labels = labels
        self.condition_text = condition_text
        self.condition_checked = False
        #: successful factorizations over the guard's life
        self.factorizations = 0

    def reset(self) -> None:
        self.condition_checked = False

    def singular_error(
        self, A: np.ndarray, err: Exception, where: str = ""
    ) -> SimulationError:
        return SimulationError(
            describe_singular_system(
                self.system, A, self.labels, err, where=where
            )
        )

    def check_condition(self, A: np.ndarray) -> None:
        """Once per analysis: flag systems whose factorization succeeds
        but whose solution is numerically meaningless."""
        if self.condition_checked:
            return
        self.condition_checked = True
        cond = condition_estimate(A)
        if cond > ILL_CONDITION_THRESHOLD:
            warnings.warn(
                f"{self.system} system of {self.title!r} is "
                f"ill-conditioned (cond ~ {cond:.2e} > "
                f"{ILL_CONDITION_THRESHOLD:.0e}); {self.condition_text}",
                NumericalWarning,
                stacklevel=4,
            )


def guarded_solve(
    backend: LinearSolver,
    A: np.ndarray,
    b: np.ndarray,
    guard: AnalysisGuard,
    where: str = "",
) -> np.ndarray:
    """One guarded point solve: the engines' shared factorization path.

    Counts a success on the guard (a failed factorization lands on
    ``spice.mna.factorization_failures`` at once), then runs the
    guard's once-per-analysis condition estimate.
    """
    try:
        x = backend.solve(A, b)
    except np.linalg.LinAlgError as err:
        metrics().inc("spice.mna.factorization_failures")
        raise guard.singular_error(A, err, where=where)
    guard.factorizations += 1
    guard.check_condition(A)
    return x
