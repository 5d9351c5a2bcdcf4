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
from .errors import InvalidParamsError, NumericalError, SingularMatrixError

PRIMAL_TOL = 1e-10
DUAL_TOL = 1e-9
DEDUP_RESOLUTION = 1e-10
MAX_VARIABLES = 12


def solve_linear_systems(matrices, rhs, *, pivot_tol: float = 1e-12):
    """Solve a stack of square systems by Gaussian elimination with partial pivoting.

    Takes (k, m, m) matrices and (k, m) right-hand sides; returns the (k, m)
    solutions and the mask of nonsingular systems. A system whose best pivot
    is at most ``pivot_tol`` in absolute value is singular: it becomes [I | 0]
    and solves to zero, leaving the others alone and raising no numpy warning.
    Any other solution off ``|Ax - b|_inf <= 1e-9 (1 + |b|_inf)`` raises NumericalError.
    """
    a = np.asarray(matrices, dtype=float)
    b = np.asarray(rhs, dtype=float)
    if a.ndim != 3 or a.shape[1] != a.shape[2] or b.shape != a.shape[:2]:
        raise ValueError(f"need square matrices and matching rhs, got {a.shape} and {b.shape}")
    k, m = b.shape
    aug = np.empty((k, m, m + 1))
    aug[:, :, :m] = a
    aug[:, :, m] = b
    if not np.isfinite(aug).all():
        raise ValueError("non-finite entries in linear system")

    members = np.arange(k)
    nonsingular = np.ones(k, dtype=bool)
    for col in range(m):
        pivot_row = col + np.argmax(np.abs(aug[:, col:, col]), axis=1)
        singular = np.abs(aug[members, pivot_row, col]) <= pivot_tol
        if singular.any():
            nonsingular &= ~singular
            aug[singular] = np.eye(m, m + 1)
            pivot_row[singular] = col
        if (pivot_row != col).any():
            aug[members, col], aug[members, pivot_row] = aug[members, pivot_row], aug[members, col]
        if col + 1 == m:
            break
        factors = aug[:, col + 1 :, col] / aug[:, col, col, None]
        aug[:, col + 1 :] -= factors[:, :, None] * aug[:, col, None, :]

    # Back-substitution through a stacked matmul: it reproduces the 1-D `@` bit for bit,
    # where einsum or a sum over products do not (DECISIONS.md).
    x = np.zeros((k, m))
    for row in range(m - 1, -1, -1):
        done = np.matmul(aug[:, row, None, row + 1 :m], x[:, row + 1 :, None])[:, 0, 0]
        x[:, row] = (aug[:, row, m] - done) / aug[:, row, row]

    residual = np.max(np.abs(np.matmul(a, x[:, :, None])[:, :, 0] - b), axis=1, initial=0.0)
    envelope = 1e-9 * (1.0 + np.max(np.abs(b), axis=1, initial=0.0))
    out = nonsingular & (residual > envelope)
    if out.any():
        raise NumericalError(f"linear solve residual {residual[out].max():.3e} out of envelope")
    return x, nonsingular


def solve_linear_system(matrix, rhs, *, pivot_tol: float = 1e-12) -> np.ndarray:
    """Solve one square system: :func:`solve_linear_systems` with k = 1,
    raising SingularMatrixError where that reports the system singular."""
    x, nonsingular = solve_linear_systems([matrix], [rhs], pivot_tol=pivot_tol)
    if not nonsingular[0]:
        raise SingularMatrixError(f"a pivot is at most the tolerance {pivot_tol:.1e}")
    return x[0]


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

    One stacked solve covers every basis, and one more the duals of the
    nonsingular ones. Points reachable through several bases are merged by
    their solution vector at 1e-10 resolution, in first-seen order; the first
    basis is kept unless a later one is dual feasible and it is not.
    """
    m, n = lp.eq_matrix.shape
    if n > MAX_VARIABLES:
        raise InvalidParamsError(f"enumeration limited to {MAX_VARIABLES} variables, got {n}")

    a, b, c = lp.eq_matrix, lp.eq_rhs, lp.objective
    bases = np.array(list(itertools.combinations(range(n), m)), dtype=np.intp)
    blocks = a[:, bases].transpose(1, 0, 2)  # blocks[i] == a[:, bases[i]]
    x_basis, primal_ok = solve_linear_systems(blocks, np.broadcast_to(b, bases.shape))
    y, dual_ok = solve_linear_systems(blocks[primal_ok].transpose(0, 2, 1), c[bases[primal_ok]])
    kept = np.flatnonzero(primal_ok)[dual_ok]
    bases, x = bases[kept], np.zeros((len(kept), n))
    x[np.arange(len(kept))[:, None], bases] = x_basis[kept]
    # Stacked matmuls give each point the bits of its own `c @ x` and `a.T @ y`; `x @ c` does not.
    values = np.matmul(x[:, None, :], c[:, None])[:, 0, 0].tolist()
    reduced = c - np.matmul(a.T, y[dual_ok, :, None])[:, :, 0]
    primal = np.all(x >= -PRIMAL_TOL, axis=1).tolist()
    dual = np.all(reduced >= -DUAL_TOL, axis=1).tolist()

    chosen: dict[tuple, int] = {}
    for i, key in enumerate(map(tuple, np.round(x / DEDUP_RESOLUTION).astype(np.int64).tolist())):
        if key not in chosen or (dual[i] and not dual[chosen[key]]):
            chosen[key] = i
    return [
        BasicPoint(tuple(bases[i].tolist()), x[i], primal[i], dual[i], values[i])
        for i in chosen.values()
    ]


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
