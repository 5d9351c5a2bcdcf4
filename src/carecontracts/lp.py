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
import math
from dataclasses import dataclass

import numpy as np

from .errors import EnumerationTooLargeError, NumericalError, SingularMatrixError

PRIMAL_TOL = 1e-10
DUAL_TOL = 1e-9
DEDUP_RESOLUTION = 1e-10
ENUMERATION_CAP = 10_000
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
class RrefResult:
    matrix: np.ndarray
    rank: int
    pivot_cols: tuple[int, ...]
    min_pivot: float

    def __post_init__(self) -> None:
        arr = np.array(self.matrix, dtype=float)
        arr.flags.writeable = False
        object.__setattr__(self, "matrix", arr)


def rref(matrix, *, pivot_tol: float = 1e-12) -> RrefResult:
    """Reduced row echelon form with partial pivoting.

    ``min_pivot`` is the smallest pivot magnitude seen before row scaling;
    callers use it to flag nearly rank-deficient systems.
    """
    a = np.array(matrix, dtype=float)
    if a.ndim != 2:
        raise ValueError("rref expects a 2-d matrix")
    if not np.all(np.isfinite(a)):
        raise ValueError("non-finite entries in matrix")
    rows, cols = a.shape
    scale = max(1.0, float(np.max(np.abs(a))) if a.size else 0.0)
    tol = pivot_tol * scale

    pivot_cols: list[int] = []
    min_pivot = math.inf
    row = 0
    for col in range(cols):
        if row >= rows:
            break
        pivot_row = row + int(np.argmax(np.abs(a[row:, col])))
        pivot = a[pivot_row, col]
        if abs(pivot) <= tol:
            a[row:, col][np.abs(a[row:, col]) <= tol] = 0.0
            continue
        min_pivot = min(min_pivot, abs(pivot))
        if pivot_row != row:
            a[[row, pivot_row]] = a[[pivot_row, row]]
        a[row] = a[row] / a[row, col]
        others = [r for r in range(rows) if r != row]
        a[others] -= np.outer(a[others, col], a[row])
        pivot_cols.append(col)
        row += 1

    rank = len(pivot_cols)
    return RrefResult(
        matrix=a,
        rank=rank,
        pivot_cols=tuple(pivot_cols),
        min_pivot=0.0 if rank == 0 else min_pivot,
    )


@dataclass(frozen=True)
class StandardFormLP:
    """min objective.x subject to eq_matrix @ x = eq_rhs and x >= 0."""

    objective: np.ndarray
    eq_matrix: np.ndarray
    eq_rhs: np.ndarray

    def __post_init__(self) -> None:
        c = np.array(self.objective, dtype=float)
        a = np.array(self.eq_matrix, dtype=float)
        b = np.array(self.eq_rhs, dtype=float)
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
            arr.flags.writeable = False
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "eq_matrix", a)
        object.__setattr__(self, "eq_rhs", b)

    @property
    def n_vars(self) -> int:
        return self.eq_matrix.shape[1]

    @property
    def n_rows(self) -> int:
        return self.eq_matrix.shape[0]


@dataclass(frozen=True)
class BasicPoint:
    """One basic solution: basis index set, full vector, and feasibility."""

    basis: tuple[int, ...]
    solution: np.ndarray
    primal_feasible: bool
    dual_feasible: bool
    value: float

    def __post_init__(self) -> None:
        arr = np.array(self.solution, dtype=float)
        arr.flags.writeable = False
        object.__setattr__(self, "solution", arr)


def enumerate_basic_points(
    lp: StandardFormLP,
    *,
    primal_tol: float = PRIMAL_TOL,
    dual_tol: float = DUAL_TOL,
    cap: int = ENUMERATION_CAP,
) -> list[BasicPoint]:
    """All basic points of ``lp``, one per distinct solution vector.

    Degenerate points reachable through several bases are deduplicated by
    hashing the solution vector at 1e-10 resolution; a merged point is
    dual feasible when any of its bases is.
    """
    m, n = lp.n_rows, lp.n_vars
    if n > MAX_VARIABLES:
        raise EnumerationTooLargeError(f"enumeration limited to {MAX_VARIABLES} variables, got {n}")
    if math.comb(n, m) > cap:
        raise EnumerationTooLargeError(f"C({n},{m}) exceeds cap {cap}")

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
            primal_feasible=bool(np.all(x >= -primal_tol)),
            dual_feasible=bool(np.all(reduced >= -dual_tol)),
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


def solve_lp(lp: StandardFormLP, **enum_kwargs) -> LPResult:
    """Minimum over primal-feasible basic points, with status detection.

    A feasible bounded LP always carries an optimal basis that is both
    primal and dual feasible, so feasible points without any dual-feasible
    one among them indicate unboundedness. Requires ``eq_matrix`` to have
    full row rank, which is checked.
    """
    if rref(lp.eq_matrix).rank < lp.n_rows:
        raise NumericalError("equality matrix is row-rank deficient")
    points = enumerate_basic_points(lp, **enum_kwargs)
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
