import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carecontracts.domain import build_normalized_system
from carecontracts.errors import EnumerationTooLargeError, NumericalError, SingularMatrixError
from carecontracts.lp import (
    StandardFormLP,
    enumerate_basic_points,
    solve_linear_system,
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

    def test_variable_cap(self):
        with pytest.raises(EnumerationTooLargeError):
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
        lp = non_negative_lp(icp_params, objective=np.zeros(4))
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
