import csv

import numpy as np
import pytest

from carecontracts import simulation
from carecontracts.domain import AssignmentRule, ModelParams, expected_survival
from carecontracts.simulation import (
    CSV_HEADER,
    Policy,
    compare_policies,
    export_report_csv,
    simulate_policy,
)
from carecontracts.solvers import solve_non_negative, solve_non_negative_misclassified
from carecontracts.synthetic import sample_model_params


def max_gap_contract(params):
    return solve_non_negative(params, 0.0).contract


class TestSimulatePolicy:
    def test_matched_matches_analytics(self, icp_params):
        contract = max_gap_contract(icp_params)
        report = simulate_policy(
            icp_params, Policy(AssignmentRule.MATCHED, contract), n=400_000, seed=5
        )
        assert report.survival_rate == pytest.approx(0.6596, abs=0.003)
        assert report.mean_payment == pytest.approx(0.44, abs=0.004)

    def test_pure_low_pays_nothing(self, icp_params):
        contract = max_gap_contract(icp_params)
        report = simulate_policy(
            icp_params, Policy(AssignmentRule.PURE_LOW, contract), n=50_000, seed=5
        )
        assert report.mean_payment == 0.0
        assert report.avg_ratio is None and report.marginal_ratio is None
        assert report.survival_rate == pytest.approx(0.576, abs=0.01)

    def test_converges_to_analytics_across_seeds(self, rng):
        """Monte Carlo error stays inside 4 binomial standard deviations."""
        params = sample_model_params(rng)
        contract = max_gap_contract(params)
        n = 50_000
        analytic = {
            AssignmentRule.MATCHED: expected_survival(params, "matched"),
            AssignmentRule.PURE_HIGH: expected_survival(params, "pure-high"),
            AssignmentRule.PURE_LOW: expected_survival(params, "pure-low"),
        }
        for seed in range(20):
            for rule, expected in analytic.items():
                report = simulate_policy(params, Policy(rule, contract), n=n, seed=seed)
                bound = 4 * np.sqrt(expected * (1 - expected) / n)
                assert abs(report.survival_rate - expected) <= bound

    def test_mean_payment_is_gamma_for_any_family_member(self, rng):
        for _ in range(5):
            params = sample_model_params(rng)
            t = float(rng.uniform(0, 1))
            contract = solve_non_negative(params, t).contract
            report = simulate_policy(
                params, Policy(AssignmentRule.MATCHED, contract), n=200_000, seed=11
            )
            assert report.mean_payment == pytest.approx(
                params.gamma, abs=5 * report.ci95_payment / 1.96
            )

    def test_single_draw_rejected(self, icp_params):
        """One draw leaves the payment interval undefined (NaN), so n < 2 is refused."""
        contract = max_gap_contract(icp_params)
        with pytest.raises(ValueError, match="at least two"):
            simulate_policy(icp_params, Policy(AssignmentRule.MATCHED, contract), n=1)
        with pytest.raises(ValueError, match="at least two"):
            compare_policies(icp_params, contract, n=1)
        assert compare_policies(icp_params, contract, n=2).matched.n == 2

    def test_reproducible_bits(self, icp_params):
        contract = max_gap_contract(icp_params)
        policy = Policy(AssignmentRule.MATCHED, contract, w0=0.05, w1=0.1)
        a = simulate_policy(icp_params, policy, n=10_000, seed=77)
        b = simulate_policy(icp_params, policy, n=10_000, seed=77)
        assert a == b

    def test_misclassification_shifts_survival_by_derived_amount(self, rng):
        """Survival moves by -g*w0*(pi11-pi10) + (1-g)*w1*(pi01-pi00)."""
        for _ in range(5):
            params = sample_model_params(rng, with_noise=True)
            contract = max_gap_contract(params)
            n = 400_000
            noisy = simulate_policy(
                params,
                Policy(AssignmentRule.MATCHED, contract, w0=params.w0, w1=params.w1),
                n=n,
                seed=3,
            )
            clean = expected_survival(params, "matched")
            shift = -params.gamma * params.w0 * (params.pi11 - params.pi10) + (
                1 - params.gamma
            ) * params.w1 * (params.pi01 - params.pi00)
            assert noisy.survival_rate == pytest.approx(clean + shift, abs=0.004)

    def test_misclassified_payment_matches_value_formula(self, rng):
        for _ in range(5):
            params = sample_model_params(rng, with_noise=True)
            solution = solve_non_negative_misclassified(params)
            report = simulate_policy(
                params,
                Policy(AssignmentRule.MATCHED, solution.contract, w0=params.w0, w1=params.w1),
                n=400_000,
                seed=9,
            )
            assert report.mean_payment == pytest.approx(solution.optimal_value, abs=0.005)


class TestComparePolicies:
    def test_common_random_numbers_reproducible(self, icp_params):
        contract = max_gap_contract(icp_params)
        a = compare_policies(icp_params, contract, n=20_000, seed=123)
        b = compare_policies(icp_params, contract, n=20_000, seed=123)
        assert a == b

    def test_average_ratio_dominance_case_study(self, icp_params):
        comparison = compare_policies(icp_params, max_gap_contract(icp_params), n=300_000, seed=17)
        assert comparison.avg_ratio_dominates

    def test_dominance_flags_follow_reported_ratios(self, icp_params):
        comparison = compare_policies(icp_params, max_gap_contract(icp_params), n=100_000, seed=29)
        assert comparison.avg_ratio_dominates == (
            comparison.matched.avg_ratio > comparison.pure_high.avg_ratio
        )
        assert comparison.marginal_ratio_dominates == (
            comparison.matched.marginal_ratio > comparison.pure_high.marginal_ratio
        )

    def test_marginal_baseline_is_simulated_pure_low(self, icp_params):
        comparison = compare_policies(icp_params, max_gap_contract(icp_params), n=100_000, seed=29)
        matched = comparison.matched
        rebuilt = (matched.survival_rate - comparison.pure_low.survival_rate) / matched.mean_payment
        assert matched.marginal_ratio == pytest.approx(rebuilt, abs=1e-15)

    def test_ratios_do_not_depend_on_phi(self, icp_params):
        reweighted = ModelParams(0.51, 0.75, 0.66, 0.85, 0.44, phi=7.0)
        contract = max_gap_contract(icp_params)
        a = compare_policies(icp_params, contract, n=50_000, seed=41)
        b = compare_policies(reweighted, contract, n=50_000, seed=41)
        for ra, rb in zip(a.reports, b.reports):
            assert ra.avg_ratio == rb.avg_ratio
            assert ra.marginal_ratio == rb.marginal_ratio

    @pytest.mark.parametrize("n", [2, 3, 30_001])
    def test_reports_equal_plain_table_lookups(self, icp_params, n):
        """Each report is bit-identical to 2x2 lookups with int64 indices and
        numpy's own mean and ``std(ddof=1)`` on the same draws."""
        contract = max_gap_contract(icp_params)
        w0, w1 = 0.1, 0.2
        draws = simulation._draw_population(icp_params, n, 8)
        comparison = compare_policies(icp_params, contract, n=n, seed=8, w0=w0, w1=w1)
        pi_cells = np.array([[icp_params.pi00, icp_params.pi01], [icp_params.pi10, icp_params.pi11]])
        pay_cells = contract.as_array().reshape(2, 2)
        observed_good = np.where(
            draws.true_good, draws.label_uniform >= w0, draws.label_uniform < w1
        )
        for report, expenditure in zip(
            comparison.reports,
            (observed_good.astype(int), np.ones(n, dtype=int), np.zeros(n, dtype=int)),
        ):
            survived = draws.outcome_uniform < pi_cells[draws.true_good.astype(int), expenditure]
            payments = pay_cells[survived.astype(int), expenditure]
            assert report.survival_rate == float(survived.mean())
            assert report.mean_payment == float(payments.mean())
            assert report.ci95_payment == 1.96 * float(payments.std(ddof=1) / np.sqrt(n))

    def test_almost_all_good_responders(self):
        params = ModelParams(0.51, 0.75, 0.66, 0.85, gamma=0.999)
        comparison = compare_policies(params, max_gap_contract(params), n=200_000, seed=53)
        gap = abs(comparison.matched.survival_rate - comparison.pure_high.survival_rate)
        assert gap <= comparison.matched.ci95_survival + comparison.pure_high.ci95_survival


class TestExport:
    def _reports(self, icp_params):
        return list(
            compare_policies(icp_params, max_gap_contract(icp_params), n=5_000, seed=2).reports
        )

    def test_csv_header_golden(self, tmp_path, icp_params):
        path = tmp_path / "report.csv"
        export_report_csv(self._reports(icp_params), path)
        assert path.read_text().splitlines()[0] == ",".join(CSV_HEADER)
        assert CSV_HEADER == ["policy", "n", "survival", "payment", "avg_ratio", "marginal_ratio"]

    def test_csv_round_trip_exact(self, tmp_path, icp_params):
        """%.17g fields parse back to the very same floats."""
        reports = self._reports(icp_params)
        path = tmp_path / "report.csv"
        export_report_csv(reports, path)
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(reports)
        for report, row in zip(reports, rows):
            assert row["policy"] == report.policy
            assert int(row["n"]) == report.n
            assert float(row["survival"]) == report.survival_rate
            assert float(row["payment"]) == report.mean_payment
            for key in ("avg_ratio", "marginal_ratio"):
                parsed = float(row[key]) if row[key] else None
                assert parsed == getattr(report, key)

    def test_empty_report_list(self, tmp_path):
        path = tmp_path / "empty.csv"
        export_report_csv([], path)
        assert path.read_text() == ",".join(CSV_HEADER) + "\n"
