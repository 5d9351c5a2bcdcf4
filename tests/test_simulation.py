import csv
import tracemalloc

import numpy as np
import pytest

from carecontracts import simulation
from carecontracts.domain import AssignmentRule, ModelParams, expected_payment, expected_survival
from carecontracts.simulation import (
    CSV_HEADER,
    Policy,
    compare_policies,
    export_report_csv,
    simulate_policy,
)
from carecontracts.solvers import solve_non_negative, solve_non_negative_misclassified
from carecontracts.synthetic import sample_model_params

# the simulation kernel's block size: the bit-identity cases straddle its edges
BLOCK = simulation._BLOCK


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
        analytic = {rule: expected_survival(params, rule) for rule in AssignmentRule}
        for seed in range(20):
            for rule, expected in analytic.items():
                report = simulate_policy(params, Policy(rule, contract), n=n, seed=seed)
                bound = 4 * np.sqrt(expected * (1 - expected) / n)
                assert abs(report.survival_rate - expected) <= bound

    def test_inverse_matches_analytics(self, icp_params):
        """Bad responders treated intensively and good ones palliatively:
        (1 - g) * pi01 + g * pi10 = 0.7104 lies inside the 95% interval."""
        policy = Policy(AssignmentRule.INVERSE, max_gap_contract(icp_params))
        report = simulate_policy(icp_params, policy, n=1_000_000, seed=13)
        assert abs(report.survival_rate - 0.7104) <= report.ci95_survival

    def test_noisy_matched_closed_forms_match_the_simulation(self, icp_params):
        """At w0 = 0.2, w1 = 0.1 the closed forms price the label-noise optimum
        under the noise, as the simulation does; both lie in its 95% intervals."""
        params = icp_params.with_misclassification(0.2, 0.1)
        contract = solve_non_negative_misclassified(params).contract
        survival = expected_survival(params, AssignmentRule.MATCHED)
        payment = expected_payment(params, contract, AssignmentRule.MATCHED)
        assert survival == pytest.approx(0.65632, abs=1e-12)
        assert payment == pytest.approx(0.4014118, abs=1e-7)
        report = compare_policies(params, contract, n=1_000_000, seed=13).matched
        assert abs(report.survival_rate - survival) <= report.ci95_survival
        assert abs(report.mean_payment - payment) <= report.ci95_payment

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
            clean = expected_survival(params.with_misclassification(0.0, 0.0), "matched")
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


# Three points of the 5x5 label-noise sweep (w0, w1 on linspace(0, 0.4, 5),
# the case-study point estimates, the misclassified optimal contract under the
# matched policy) at 1e5 draws and seed 13. The figures were recorded from
# whole-array draws, before the kernel ran in blocks.
SWEEP_FIGURES = {
    (0, 0): (0.65927, 0.439564705882353, 0.0035275701711329414),
    (2, 1): (0.65577, 0.3989529411764706, 0.0034520271744587707),
    (4, 4): (0.68043, 0.46103529411764704, 0.0035596763256691287),
}


@pytest.mark.parametrize("point", sorted(SWEEP_FIGURES))
def test_sweep_figures_pinned(point):
    grid = np.linspace(0.0, 0.4, 5)
    base = ModelParams(pi00=0.51, pi01=0.75, pi10=0.66, pi11=0.85, gamma=0.44)
    params = base.with_misclassification(float(grid[point[0]]), float(grid[point[1]]))
    contract = solve_non_negative_misclassified(params).contract
    policy = Policy(AssignmentRule.MATCHED, contract, w0=params.w0, w1=params.w1)
    report = simulate_policy(params, policy, n=100_000, seed=13)
    assert (report.survival_rate, report.mean_payment, report.ci95_payment) == SWEEP_FIGURES[point]


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

    @pytest.mark.parametrize("n", [2, 3, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3, 30_001])
    def test_reports_equal_plain_table_lookups(self, icp_params, n):
        """Each report is bit-identical to 2x2 lookups with int64 indices and
        numpy's own mean and ``std(ddof=1)`` over whole-array draws: one
        ``random(n)`` call on each stream of ``SeedSequence(seed).spawn(3)``."""
        contract = max_gap_contract(icp_params)
        w0, w1 = 0.1, 0.2
        status, label, outcome = (
            np.random.default_rng(s).random(n) for s in np.random.SeedSequence(8).spawn(3)
        )
        true_good = status < icp_params.gamma
        pi_cells = np.array([[icp_params.pi00, icp_params.pi01], [icp_params.pi10, icp_params.pi11]])
        pay_cells = contract.as_array().reshape(2, 2)

        def assert_plain(report, expenditure):
            survived = outcome < pi_cells[true_good.astype(int), expenditure]
            payments = pay_cells[survived.astype(int), expenditure]
            assert report.survival_rate == float(survived.mean())
            assert report.mean_payment == float(payments.mean())
            assert report.ci95_payment == 1.96 * float(payments.std(ddof=1) / np.sqrt(n))

        def observed_good(w0, w1):
            return np.where(true_good, label >= w0, label < w1).astype(int)

        noisy = icp_params.with_misclassification(w0, w1)
        comparison = compare_policies(noisy, contract, n=n, seed=8)
        for report, expenditure in zip(
            comparison.reports,
            (observed_good(w0, w1), np.ones(n, dtype=int), np.zeros(n, dtype=int)),
        ):
            assert_plain(report, expenditure)
        policy = Policy(AssignmentRule.INVERSE, contract, w0=w0, w1=w1)
        assert_plain(simulate_policy(icp_params, policy, n=n, seed=8), 1 - observed_good(w0, w1))
        for w0, w1 in ((0.3, 0.05), (0.0, 0.4)):
            policy = Policy(AssignmentRule.MATCHED, contract, w0=w0, w1=w1)
            assert_plain(simulate_policy(icp_params, policy, n=n, seed=8), observed_good(w0, w1))

    def test_traced_peak_is_one_payment_column(self, icp_params):
        """Under tracemalloc, a run holds one 8-byte payment per draw plus at
        most 3 MiB of block buffers; whole-array draws peaked at 11.3 MB
        here."""
        n = 400_000
        contract = max_gap_contract(icp_params)
        policy = Policy(AssignmentRule.MATCHED, contract, w0=0.1, w1=0.2)
        noisy = icp_params.with_misclassification(0.1, 0.2)
        runs = (
            lambda: simulate_policy(icp_params, policy, n=n, seed=3),
            lambda: compare_policies(noisy, contract, n=n, seed=3),
        )
        for run in runs:
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 8 * n + 3 * 2**20

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
