"""Small dense linear-programming oracle and direct linear algebra.

Every closed-form contract in this package is certified against brute
force: a standard-form LP (min c.x, Ax = b, x >= 0) is solved by
enumerating *all* basic points, which doubles as an exhaustive optimality
certificate at the problem sizes that arise here (n <= 12). Vertex
enumeration is deliberately preferred over simplex pivoting: oracle
credibility over speed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .domain import freeze
from .errors import EnumerationTooLargeError, NumericalError, SingularMatrixError

PRIMAL_TOL = 1e-10
DUAL_TOL = 1e-9
DEDUP_RESOLUTION = 1e-10
MAX_VARIABLES = 12


def solve_linear_system(matrix, rhs, *, pivot_tol: float = 1e-12) -> np.ndarray:
    """Solve a square system by Gaussian elimination with partial pivoting.

    Raises SingularMatrixError when the best available pivot falls below
    ``pivot_tol``. The returned solution satisfies
    ``|Ax - b|_inf <= 1e-9 * (1 + |b|_inf)``; a violation raises.
    """
    a = np.array(matrix, dtype=float)
    b = np.array(rhs, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n) or b.shape != (n,):
        raise ValueError(f"need square matrix and matching rhs, got {a.shape} and {b.shape}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("non-finite entries in linear system")

    aug = np.hstack([a, b[:, None]])
    for col in range(n):
        pivot_row = col + int(np.argmax(np.abs(aug[col:, col])))
        pivot = aug[pivot_row, col]
        if abs(pivot) <= pivot_tol:
            raise SingularMatrixError(f"pivot {pivot:.3e} below tolerance {pivot_tol:.1e}")
        if pivot_row != col:
            aug[[col, pivot_row]] = aug[[pivot_row, col]]
        aug[col + 1 :] -= np.outer(aug[col + 1 :, col] / aug[col, col], aug[col])

    x = np.zeros(n)
    for row in range(n - 1, -1, -1):
        x[row] = (aug[row, -1] - aug[row, row + 1 : n] @ x[row + 1 :]) / aug[row, row]

    residual = float(np.max(np.abs(a @ x - b)))
    if residual > 1e-9 * (1.0 + float(np.max(np.abs(b)))):
        raise NumericalError(f"linear solve residual {residual:.3e} out of envelope")
    return x


@dataclass(frozen=True)
class StandardFormLP:
    """min objective.x subject to eq_matrix @ x = eq_rhs and x >= 0."""

    objective: np.ndarray
    eq_matrix: np.ndarray
    eq_rhs: np.ndarray

    def __post_init__(self) -> None:
        freeze(self, "objective", "eq_matrix", "eq_rhs")
        c, a, b = self.objective, self.eq_matrix, self.eq_rhs
        if a.ndim != 2 or c.ndim != 1 or b.ndim != 1:
            raise ValueError("objective/rhs must be vectors and eq_matrix a matrix")
        m, n = a.shape
        if c.shape != (n,) or b.shape != (m,):
            raise ValueError("inconsistent LP dimensions")
        if m > n:
            raise ValueError(f"more equality rows ({m}) than variables ({n})")
        for arr in (c, a, b):
            if not np.all(np.isfinite(arr)):
                raise ValueError("non-finite entries in LP data")


@dataclass(frozen=True)
class BasicPoint:
    """One basic solution: basis index set, full vector, and feasibility."""

    basis: tuple[int, ...]
    solution: np.ndarray
    primal_feasible: bool
    dual_feasible: bool
    value: float

    def __post_init__(self) -> None:
        freeze(self, "solution")


def enumerate_basic_points(lp: StandardFormLP) -> list[BasicPoint]:
    """All basic points of ``lp``, one per distinct solution vector.

    Degenerate points reachable through several bases are deduplicated by
    hashing the solution vector at 1e-10 resolution; a merged point is
    dual feasible when any of its bases is.
    """
    m, n = lp.eq_matrix.shape
    if n > MAX_VARIABLES:
        raise EnumerationTooLargeError(f"enumeration limited to {MAX_VARIABLES} variables, got {n}")

    a, b, c = lp.eq_matrix, lp.eq_rhs, lp.objective
    by_key: dict[tuple, BasicPoint] = {}
    for basis in itertools.combinations(range(n), m):
        cols = list(basis)
        try:
            x_basis = solve_linear_system(a[:, cols], b)
            y = solve_linear_system(a[:, cols].T, c[cols])
        except SingularMatrixError:
            continue
        x = np.zeros(n)
        x[cols] = x_basis
        reduced = c - a.T @ y
        point = BasicPoint(
            basis=basis,
            solution=x,
            primal_feasible=bool(np.all(x >= -PRIMAL_TOL)),
            dual_feasible=bool(np.all(reduced >= -DUAL_TOL)),
            value=float(c @ x),
        )
        key = tuple(np.round(x / DEDUP_RESOLUTION).astype(np.int64))
        kept = by_key.get(key)
        if kept is None or (point.dual_feasible and not kept.dual_feasible):
            by_key[key] = point
    return list(by_key.values())


@dataclass(frozen=True)
class LPResult:
    """Outcome of brute-force solving: status plus the optimal face."""

    status: str  # "optimal" | "infeasible" | "unbounded"
    value: float | None
    optimal_points: tuple[BasicPoint, ...]
    n_basic_points: int


def solve_lp(lp: StandardFormLP) -> LPResult:
    """Minimum over primal-feasible basic points, with status detection.

    A feasible bounded LP always carries an optimal basis that is both
    primal and dual feasible, so feasible points without any dual-feasible
    one among them indicate unboundedness. Requires ``eq_matrix`` to have
    full row rank: it has exactly when some basis is nonsingular, so no
    basic point at all means rank deficiency.
    """
    points = enumerate_basic_points(lp)
    if not points:
        raise NumericalError("equality matrix is row-rank deficient")
    feasible = [p for p in points if p.primal_feasible]
    if not feasible:
        return LPResult("infeasible", None, (), len(points))
    if not any(p.dual_feasible for p in feasible):
        return LPResult("unbounded", None, (), len(points))
    value = min(p.value for p in feasible)
    optimal = tuple(
        sorted(
            (p for p in feasible if p.value <= value + PRIMAL_TOL),
            key=lambda p: p.basis,
        )
    )
    return LPResult("optimal", value, optimal, len(points))
