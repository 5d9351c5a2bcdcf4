import ast
import itertools
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import carecontracts.lp
from carecontracts.domain import build_normalized_system
from carecontracts.errors import InvalidParamsError, NumericalError, SingularMatrixError
from carecontracts.lp import (
    DUAL_TOL,
    PRIMAL_TOL,
    StandardFormLP,
    enumerate_basic_points,
    solve_linear_system,
    solve_linear_systems,
    solve_lp,
)
from carecontracts.solvers import non_negative_lp
from carecontracts.synthetic import sample_model_params


class TestSolveLinearSystem:
    def test_identity(self):
        rhs = np.array([3.0, -1.0, 2.5])
        assert solve_linear_system(np.eye(3), rhs) == pytest.approx(rhs, abs=0)

    def test_singular_detected(self):
        with pytest.raises(SingularMatrixError):
            solve_linear_system([[1.0, 2.0], [2.0, 4.0]], [1.0, 2.0])

    def test_binding_system_matches_closed_form(self, icp_params):
        system = build_normalized_system(icp_params)
        stacked = system.stacked()
        rhs = system.rhs() - stacked[:, 3] * 1.0
        head = solve_linear_system(stacked[:, :3], rhs)
        assert head == pytest.approx([-1.2602, -1.1359, 0.1637], abs=1e-4)

    @given(st.integers(0, 10**6))
    @settings(max_examples=100, deadline=None)
    def test_residual_envelope(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 7))
        a = rng.normal(size=(n, n)) + n * np.eye(n)
        b = rng.normal(size=n)
        x = solve_linear_system(a, b)
        assert float(np.max(np.abs(a @ x - b))) <= 1e-9 * (1 + float(np.max(np.abs(b))))


def _reference_solve(matrix, rhs, pivot_tol):
    """Gaussian elimination on one system, a row at a time, with 1-D `@`
    in back-substitution; None when a pivot is at most ``pivot_tol``."""
    aug = np.hstack([np.array(matrix, dtype=float), np.array(rhs, dtype=float)[:, None]])
    n = len(aug)
    for col in range(n):
        pivot_row = col + int(np.argmax(np.abs(aug[col:, col])))
        if abs(aug[pivot_row, col]) <= pivot_tol:
            return None
        aug[[col, pivot_row]] = aug[[pivot_row, col]]
        aug[col + 1 :] -= np.outer(aug[col + 1 :, col] / aug[col, col], aug[col])
    x = np.zeros(n)
    for row in range(n - 1, -1, -1):
        x[row] = (aug[row, -1] - aug[row, row + 1 : n] @ x[row + 1 :]) / aug[row, row]
    return x


class TestSolveLinearSystems:
    @given(st.integers(0, 10**6))
    @settings(max_examples=300, deadline=None)
    def test_each_member_matches_its_single_solve(self, seed):
        """Row i of a stacked solve is byte for byte the k = 1 solve of
        system i and the row-at-a-time reference, or both call it singular."""
        rng = np.random.default_rng(seed)
        m, k = int(rng.integers(1, 6)), int(rng.integers(1, 8))
        matrices = rng.normal(size=(k, m, m)) * 10.0 ** rng.integers(-3, 4, size=(k, 1, 1))
        for matrix in matrices:
            if m > 1 and rng.random() < 0.5:  # an exactly repeated or 1e-13-scaled column
                src, dst = rng.choice(m, 2, replace=False)
                matrix[:, dst] = matrix[:, src] * rng.choice([1.0, 1e-13])
        rhs = rng.normal(size=(k, m))
        pivot_tol = rng.choice([1e-12, 1e-10])
        x, nonsingular = solve_linear_systems(matrices, rhs, pivot_tol=pivot_tol)
        assert x.shape == (k, m) and nonsingular.shape == (k,)
        for i in range(k):
            reference = _reference_solve(matrices[i], rhs[i], pivot_tol)
            assert nonsingular[i] == (reference is not None)
            if nonsingular[i]:
                single = solve_linear_system(matrices[i], rhs[i], pivot_tol=pivot_tol)
                assert x[i].tobytes() == single.tobytes() == reference.tobytes()
            else:
                with pytest.raises(SingularMatrixError):
                    solve_linear_system(matrices[i], rhs[i], pivot_tol=pivot_tol)

    def test_singular_members_are_quiet(self):
        """Singular members, a zero matrix among them, neither disturb the
        others nor raise a numpy warning."""
        regular = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 4.0]])
        rhs = np.array([1.0, -2.0, 0.5])
        matrices = [regular, np.zeros((3, 3)), regular.T, np.ones((3, 3)), regular]
        repeated = regular.copy()
        repeated[:, 2] = repeated[:, 0]
        matrices.append(repeated)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x, nonsingular = solve_linear_systems(matrices, np.tile(rhs, (6, 1)))
        assert nonsingular.tolist() == [True, False, True, False, True, False]
        assert x[0].tobytes() == solve_linear_system(regular, rhs).tobytes()
        assert x[2].tobytes() == solve_linear_system(regular.T, rhs).tobytes()
        assert x[4].tobytes() == x[0].tobytes()
        assert not x[~nonsingular].any()

    @pytest.mark.parametrize("pivot, singular", [(1e-12, True), (-1e-12, True), (1.5e-12, False)])
    def test_pivot_at_the_tolerance_is_singular(self, pivot, singular):
        _, nonsingular = solve_linear_systems([[[1.0, 0.0], [0.0, pivot]]], [[1.0, 1e-12]])
        assert nonsingular.tolist() == [not singular]

    def test_transposed_stack_matches_single_solves(self):
        """A non-contiguous stack, like the transposed bases of the dual solve,
        solves each member byte for byte as its own single solve does."""
        rng = np.random.default_rng(1)
        matrices = rng.normal(size=(40, 6, 6)).transpose(0, 2, 1)
        rhs = rng.normal(size=(40, 6))
        x, nonsingular = solve_linear_systems(matrices, rhs)
        assert nonsingular.all()
        for i in range(40):
            assert x[i].tobytes() == solve_linear_system(matrices[i], rhs[i]).tobytes()

    def test_empty_stack(self):
        x, nonsingular = solve_linear_systems(np.zeros((0, 2, 2)), np.zeros((0, 2)))
        assert x.shape == (0, 2) and nonsingular.shape == (0,)

    def test_residual_envelope_raises(self):
        # condition number near 4e9: the rounded solution misses b by about 2e-8
        with pytest.raises(NumericalError, match="out of envelope"):
            solve_linear_systems([np.eye(2), [[1.0, 1.0], [1.0, 1.0 + 1e-9]]], [[1.0, 0.1]] * 2)

    @pytest.mark.parametrize(
        "matrices, rhs",
        [
            (np.eye(2), np.ones(2)),
            (np.ones((1, 2, 3)), np.ones((1, 2))),
            (np.eye(2)[None], np.ones((1, 3))),
        ],
    )
    def test_shape_mismatch_rejected(self, matrices, rhs):
        with pytest.raises(ValueError, match="need square matrices"):
            solve_linear_systems(matrices, rhs)


def test_oracle_imports_none_of_what_it_certifies():
    """The LP oracle takes only ``domain.freeze`` and the error classes from
    this package, so it shares no code with the closed forms it certifies."""
    tree = ast.parse(Path(carecontracts.lp.__file__).read_text(encoding="utf-8"))
    internal = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(alias.name.startswith("carecontracts") for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.level or "carecontracts" in (node.module or "")):
            internal += [(node.module, alias.name) for alias in node.names]
    modules = {module for module, _ in internal}
    assert modules <= {"domain", "errors"}, modules
    assert not modules & {"solvers", "estimation", "synthetic", "simulation"}
    assert [name for module, name in internal if module == "domain"] == ["freeze"]


def _reference_basic_points(lp: StandardFormLP) -> dict:
    """basis -> (solution, primal feasible, dual feasible), one entry per
    basis that LAPACK solves with a condition number below 1e12."""
    a, b, c = lp.eq_matrix, lp.eq_rhs, lp.objective
    m, n = a.shape
    points = {}
    for basis in itertools.combinations(range(n), m):
        block = a[:, list(basis)]
        if np.linalg.cond(block) >= 1e12:
            continue
        x = np.zeros(n)
        x[list(basis)] = np.linalg.solve(block, b)
        y = np.linalg.solve(block.T, c[list(basis)])
        points[basis] = (x, bool(np.all(x >= -PRIMAL_TOL)), bool(np.all(c - a.T @ y >= -DUAL_TOL)))
    return points


@pytest.mark.parametrize("noisy", [False, True], ids=["plain", "noisy-objective"])
def test_enumeration_matches_lapack_per_basis(noisy):
    """On 200 sampled LPs the oracle keeps the bases LAPACK finds
    nonsingular, with the same solutions and feasibility flags."""
    rng = np.random.default_rng(2024)
    for _ in range(100):
        params = sample_model_params(rng, with_noise=noisy)
        lp = non_negative_lp(params)
        expected = _reference_basic_points(lp)
        points = enumerate_basic_points(lp)
        assert sorted(p.basis for p in points) == sorted(expected)
        for point in points:
            x, primal, dual = expected[point.basis]
            scale = max(1.0, float(np.max(np.abs(x))))
            np.testing.assert_allclose(point.solution, x, rtol=0, atol=1e-12 * scale)
            assert (point.primal_feasible, point.dual_feasible) == (primal, dual)
            assert point.value == float(lp.objective @ point.solution)


class TestEnumeration:
    def test_case_study_two_optimal_vertices(self, icp_params):
        points = enumerate_basic_points(non_negative_lp(icp_params))
        both = [p for p in points if p.primal_feasible and p.dual_feasible]
        assert len(both) == 2
        solutions = sorted(p.solution[3] for p in both)
        expected = sorted([1.0, 1 / 0.85])
        assert solutions == pytest.approx(expected, abs=1e-10)
        by_p01 = {round(p.solution[1], 6): p for p in both}
        assert by_p01[1.0].solution == pytest.approx([0, 1, 0, 1, 0, 0], abs=1e-10)
        assert by_p01[0.0].solution == pytest.approx(
            [0, 0, 0, 1 / 0.85, 0, 1 - 0.75 / 0.85], abs=1e-10
        )

    def test_identity_rows_origin(self):
        lp = StandardFormLP(
            objective=np.ones(3),
            eq_matrix=np.eye(3),
            eq_rhs=np.zeros(3),
        )
        points = enumerate_basic_points(lp)
        assert len(points) == 1
        assert points[0].solution == pytest.approx(np.zeros(3), abs=0)

    @pytest.mark.parametrize(
        "objective, rhs, bases",
        [
            ([3.0, 1.0, 2.0], 0.0, [(1,)]),  # a later dual-feasible basis displaces the first
            ([1.0, 1.0, 2.0], 0.0, [(0,)]),  # of two dual-feasible bases the first stays
            ([1.0, 2.0, 3.0], 1.0, [(0,), (1,), (2,)]),  # distinct points, first-seen order
        ],
    )
    def test_merge_rule_and_order(self, objective, rhs, bases):
        """With rhs 0 every basis of x1 + x2 + x3 = 0 is the origin."""
        lp = StandardFormLP(np.array(objective), np.ones((1, 3)), np.array([rhs]))
        assert [p.basis for p in enumerate_basic_points(lp)] == bases

    def test_variable_cap(self):
        with pytest.raises(InvalidParamsError, match="enumeration limited to"):
            enumerate_basic_points(
                StandardFormLP(np.ones(13), np.ones((1, 13)), np.ones(1))
            )


class TestSolveLP:
    def test_case_study_value(self, icp_params):
        result = solve_lp(non_negative_lp(icp_params))
        assert result.status == "optimal"
        assert result.value == pytest.approx(0.44, abs=1e-12)
        assert len(result.optimal_points) == 2

    def test_random_params_value_is_gamma(self, rng):
        for _ in range(25):
            params = sample_model_params(rng)
            result = solve_lp(non_negative_lp(params))
            assert result.status == "optimal"
            assert result.value == pytest.approx(params.gamma, abs=1e-10)

    def test_zero_objective_everything_optimal(self, icp_params):
        lp = replace(non_negative_lp(icp_params), objective=np.zeros(6))
        result = solve_lp(lp)
        assert result.status == "optimal"
        assert result.value == 0.0
        feasible = [p for p in enumerate_basic_points(lp) if p.primal_feasible]
        assert len(result.optimal_points) == len(feasible)

    def test_infeasible(self):
        # x1 + x2 = -1 with x >= 0 has no solution
        lp = StandardFormLP(np.ones(2), np.array([[1.0, 1.0]]), np.array([-1.0]))
        assert solve_lp(lp).status == "infeasible"

    def test_unbounded(self):
        # min -x1 with x1 - x2 = 0: ray (t, t) drops the objective forever
        lp = StandardFormLP(np.array([-1.0, 0.0]), np.array([[1.0, -1.0]]), np.array([0.0]))
        assert solve_lp(lp).status == "unbounded"

    @pytest.mark.parametrize(
        "rows, rhs",
        [
            ([[1, 2, 3], [1, 2, 3]], [1, 1]),  # duplicate rows
            ([[1, 2, 3], [1, 2, 3]], [1, 2]),  # inconsistent duplicates
            ([[0.1, 0.2, 0.3], [0.3, 0.6, 0.9]], [1, 3]),  # inexact multiple
            ([[1, 2, 3], [0, 0, 0]], [1, 0]),  # zero row
            ([[1e5, 2e5, 3e5], [3e5, 6e5, 9e5]], [1e6, 3e6]),  # large entries
            ([[1, 1, 1], [1, 1 + 1e-13, 1]], [1, 1]),  # below the pivot tolerance
        ],
    )
    def test_row_rank_deficient_rejected(self, rows, rhs):
        lp = StandardFormLP(np.ones(3), np.array(rows, dtype=float), np.array(rhs, dtype=float))
        with pytest.raises(NumericalError, match="row-rank deficient"):
            solve_lp(lp)

    @pytest.mark.parametrize("eps", [1e-9, 1e-11])
    def test_near_singular_full_rank_solved(self, eps):
        lp = StandardFormLP(np.ones(3), np.array([[1, 1, 1], [1, 1 + eps, 1]]), np.ones(2))
        result = solve_lp(lp)
        assert result.status == "optimal"
        assert result.value == pytest.approx(1.0, abs=1e-12)

    def test_strong_duality_at_optimum(self, rng):
        for _ in range(10):
            params = sample_model_params(rng)
            result = solve_lp(non_negative_lp(params))
            assert any(p.dual_feasible for p in result.optimal_points)
            for point in result.optimal_points:
                assert point.value == pytest.approx(result.value, abs=1e-10)
