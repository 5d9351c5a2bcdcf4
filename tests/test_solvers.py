import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carecontracts.domain import (
    AssignmentRule,
    Contract,
    ModelParams,
    build_normalized_system,
    payment_coefficients,
)
from carecontracts.errors import InvalidParamsError
from carecontracts import solvers
from carecontracts.lp import solve_lp
from carecontracts.solvers import (
    CERTIFIED_CLAIMS,
    MODELS,
    UtilityTransform,
    binding_system_solution,
    certify,
    misclassification_raises_cost,
    non_negative_lp,
    solve_free_payment,
    solve_non_negative,
    solve_non_negative_misclassified,
    solve_report,
    solve_risk_averse,
    verify_contract,
)
from carecontracts.synthetic import sample_model_params


# pi01 == pi11: good and bad responders survive intensive care alike.
EQUAL_HIGH_SURVIVAL = ModelParams(0.4, 0.8, 0.6, 0.8, 0.44)


def solvable_params(seed: int) -> ModelParams:
    return sample_model_params(np.random.default_rng(seed))


def uniform_high_survival(solution) -> float:
    """s1 read back from the family's slope dp01/dp11 = -s1 / (1 - s1)."""
    slope = float(solution.sensitivity[1])
    return slope / (slope - 1.0)


class TestBindingSolvability:
    def test_case_study(self, icp_params):
        solution = solve_free_payment(icp_params)
        assert uniform_high_survival(solution) == pytest.approx(0.794, abs=1e-12)

    def test_boundary_fails_strictness(self):
        params = ModelParams(0.2, 0.999999, 0.3, 0.999999, 0.5)
        with pytest.raises(InvalidParamsError, match=r"s1=0\.999999 is not < 1"):
            solve_free_payment(params)

    def test_equal_high_columns_still_solvable(self):
        params = ModelParams(0.5, 0.9, 0.7, 0.9, 0.5)
        solution = solve_free_payment(params)
        assert uniform_high_survival(solution) == pytest.approx(0.9, abs=1e-12)
        assert np.all(np.isfinite(solution.contract.as_array()))


class TestFreePayment:
    def test_case_study_contract(self, icp_params):
        solution = solve_free_payment(icp_params, p11=1.0)
        p = solution.contract.as_array()
        assert p[:3] == pytest.approx([-1.2602, -1.1359, 0.1637], abs=1e-4)

        c0, c1, c2 = build_normalized_system(icp_params)
        assert float(c0 @ p) == pytest.approx(0.0, abs=1e-6)
        assert float(c1 @ p) == pytest.approx(1.0, abs=1e-6)
        assert float(c2 @ p) == pytest.approx(-1.0, abs=1e-6)

    def test_matches_direct_binding_solve(self, icp_params):
        closed = solve_free_payment(icp_params, p11=1.0).contract.as_array()
        direct = binding_system_solution(icp_params, 1.0)
        assert closed == pytest.approx(direct, abs=1e-9)

    def test_case_study_sensitivity(self, icp_params):
        solution = solve_free_payment(icp_params, p11=1.0)
        assert solution.sensitivity[1] == pytest.approx(-3.8544, abs=1e-4)
        assert solution.sensitivity[1] == pytest.approx(-0.794 / 0.206, abs=1e-9)

    @given(st.integers(0, 10**6))
    @settings(max_examples=100, deadline=None)
    def test_family_is_affine(self, seed):
        params = solvable_params(seed)
        rng = np.random.default_rng(seed + 1)
        a, b = rng.uniform(-2, 2, 2)
        solution = solve_free_payment(params, a)
        pa = solution.contract.as_array()
        pb = solve_free_payment(params, b).contract.as_array()
        direction = np.append(solution.sensitivity, 1.0)
        assert pb - pa == pytest.approx((b - a) * direction, abs=1e-9)

    @given(st.integers(0, 10**6))
    @settings(max_examples=100, deadline=None)
    def test_sensitivity_signs_and_finite_differences(self, seed):
        params = solvable_params(seed)
        sens = solve_free_payment(params).sensitivity
        assert sens[0] < 0 and sens[1] < 0 and sens[2] > 0
        h = 1e-4
        hi = solve_free_payment(params, 1.0 + h).contract.as_array()
        lo = solve_free_payment(params, 1.0 - h).contract.as_array()
        fd = (hi - lo)[:3] / (2 * h)
        assert sens == pytest.approx(fd, abs=1e-6)

    def test_degenerate_denominator(self):
        params = ModelParams(0.4, 0.6, 0.4, 0.7, 0.5)
        with pytest.raises(InvalidParamsError, match="denominator vanishes"):
            solve_free_payment(params)

    def test_unsolvable_raises(self):
        params = ModelParams(0.2, 0.999999, 0.3, 0.999999, 0.5)
        with pytest.raises(InvalidParamsError, match="binding system unsolvable"):
            solve_free_payment(params)


class TestNonNegative:
    def test_max_gap_member(self, icp_params):
        solution = solve_non_negative(icp_params, t=0.0)
        assert solution.contract.as_array() == pytest.approx([0, 0, 0, 1 / 0.85], abs=1e-15)
        assert solution.slack_v1 == 0.0
        assert solution.slack_v2 == pytest.approx(1 - 0.75 / 0.85, abs=1e-12)
        assert solution.optimal_value == pytest.approx(0.44, abs=0)

    def test_zero_gap_member(self, icp_params):
        solution = solve_non_negative(icp_params, t=1.0)
        assert solution.contract.as_array() == pytest.approx([0, 1, 0, 1], abs=1e-15)
        assert solution.slack_v2 == pytest.approx(0.0, abs=1e-15)
        assert solution.optimal_value == pytest.approx(0.44, abs=0)

    def test_family_equivalence(self, rng):
        """Every member pays gamma in expectation and binds the first incentive."""
        for _ in range(50):
            params = sample_model_params(rng)
            c0, c1, _ = build_normalized_system(params)
            for t in np.linspace(0.0, 1.0, 11):
                p = solve_non_negative(params, float(t)).contract.as_array()
                assert float(c0 @ p) == pytest.approx(params.gamma, abs=1e-10)
                assert float(c1 @ p) == pytest.approx(1.0, abs=1e-10)
                assert np.all(p >= 0)

    def test_t_out_of_range(self, icp_params):
        with pytest.raises(ValueError):
            solve_non_negative(icp_params, t=1.5)

    def test_equal_high_survival_rejected(self):
        """At pi01 == pi11 the vertex (0, 1/(1 - pi11), 0, 0) also costs gamma, off
        the closed-form segment; both non-negative solvers refuse the point."""
        for solve in (solve_non_negative, solve_non_negative_misclassified):
            with pytest.raises(InvalidParamsError, match=r"^pi01 == pi11: "):
                solve(EQUAL_HIGH_SURVIVAL)

    def test_equal_benefit_ratio_rejected(self):
        # 0.6 * 0.6 == 0.5 * 0.72 exactly
        params = ModelParams(0.5, 0.6, 0.6, 0.72, 0.5)
        with pytest.raises(InvalidParamsError, match="responder benefit is identical"):
            solve_non_negative(params)

    @given(st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_max_gap_p11_decreasing_in_pi11(self, seed):
        rng = np.random.default_rng(seed)
        params = sample_model_params(rng)
        if params.pi11 + 0.01 >= 1 - 1e-9:
            return
        bumped = ModelParams(
            params.pi00, params.pi01, params.pi10, params.pi11 + 0.01, params.gamma
        )
        if abs(bumped.distinct_benefit_margin()) <= 1e-12:
            return
        assert (
            solve_non_negative(bumped, 0.0).contract.p11
            < solve_non_negative(params, 0.0).contract.p11
        )


class TestMisclassified:
    def test_no_noise_reduces_to_max_gap(self, icp_params):
        solution = solve_non_negative_misclassified(icp_params)
        baseline = solve_non_negative(icp_params, t=0.0)
        assert solution.contract == baseline.contract
        assert solution.optimal_value == pytest.approx(0.44, abs=1e-15)

    def test_case_study_noise_value(self, icp_params):
        params = icp_params.with_misclassification(0.1, 0.2)
        solution = solve_non_negative_misclassified(params)
        assert solution.optimal_value == pytest.approx(0.4948235294117647, abs=1e-10)
        # the value formula must agree with evaluating the noisy objective
        objective = payment_coefficients(params, AssignmentRule.MATCHED)
        evaluated = float(objective @ solution.contract.as_array())
        assert solution.optimal_value == pytest.approx(evaluated, abs=1e-12)
        # and enumeration confirms this vertex is the unique optimum
        oracle = solve_lp(non_negative_lp(params))
        assert oracle.status == "optimal"
        assert oracle.value == pytest.approx(solution.optimal_value, abs=1e-12)
        assert len(oracle.optimal_points) == 1
        assert oracle.optimal_points[0].solution[:4] == pytest.approx(
            solution.contract.as_array(), abs=1e-10
        )

    def test_case_study_sign_condition(self, icp_params):
        params = icp_params.with_misclassification(0.1, 0.2)
        ratio = 0.75 * 0.2 / (0.85 * 0.1 + 0.75 * 0.2)
        assert ratio == pytest.approx(0.6383, abs=1e-4)
        assert misclassification_raises_cost(params)
        assert solve_non_negative_misclassified(params).optimal_value > params.gamma

    def test_sign_equivalence_on_random_draws(self, rng):
        """Noise raises the optimal cost exactly when the mix ratio beats gamma."""
        checked = 0
        for _ in range(200):
            params = sample_model_params(rng, with_noise=True)
            solution = solve_non_negative_misclassified(params)
            ratio_gap = (
                params.pi01 * params.w1 / (params.pi11 * params.w0 + params.pi01 * params.w1)
                - params.gamma
                if params.pi11 * params.w0 + params.pi01 * params.w1 > 0
                else 0.0
            )
            value_gap = solution.optimal_value - params.gamma
            if abs(ratio_gap) <= 1e-10 or abs(value_gap) <= 1e-10:
                continue
            assert (value_gap > 0) == (ratio_gap > 0)
            checked += 1
        assert checked > 150

    def test_objective_is_the_noisy_cell_mix(self, rng):
        """Coefficient (q, e) is P(outcome q and expenditure e) when a good
        responder is labelled bad at rate w0 and a bad one good at rate w1."""
        for _ in range(50):
            params = sample_model_params(rng, with_noise=True)
            g, w0, w1 = params.gamma, params.w0, params.w1
            intensive = {0: w1, 1: 1.0 - w0}  # P(E = 1 | true status)
            expected = np.zeros(4)
            for s, share in ((0, 1.0 - g), (1, g)):
                for e, weight in ((0, 1.0 - intensive[s]), (1, intensive[s])):
                    pi = params.pi(s, e)
                    expected[e] += share * weight * (1.0 - pi)  # p0e
                    expected[2 + e] += share * weight * pi  # p1e
            objective = payment_coefficients(params, AssignmentRule.MATCHED)
            assert objective == pytest.approx(expected, abs=1e-15)
            assert float(objective.sum()) == pytest.approx(1.0, abs=1e-12)

    def test_from_solver_contract_is_the_noisy_optimum(self):
        """``simulate --contract from-solver`` prices ``solve_non_negative(params,
        0.0)``; under label noise that is the optimum too, bit for bit."""
        rng = np.random.default_rng(22)
        for _ in range(1000):
            params = sample_model_params(rng, with_noise=True)
            plain = solve_non_negative(params, 0.0).contract.as_array()
            noisy = solve_non_negative_misclassified(params).contract.as_array()
            assert plain.tobytes() == noisy.tobytes()

    def test_oracle_confirms_unique_optimum(self, rng):
        for _ in range(30):
            params = sample_model_params(rng, with_noise=True)
            solution = solve_non_negative_misclassified(params)
            result = solve_lp(non_negative_lp(params))
            assert result.status == "optimal"
            assert result.value == pytest.approx(solution.optimal_value, abs=1e-10)
            distances = [
                float(np.max(np.abs(p.solution[:4] - solution.contract.as_array())))
                for p in result.optimal_points
            ]
            assert min(distances) <= 1e-9


class TestUtilityTransform:
    """A transform is checked when it is built, so every one that exists is valid."""

    def test_power_round_trip(self):
        g = UtilityTransform.power(0.5)
        x = np.linspace(0.0, 3.0, 20)
        assert np.asarray(g.inverse(g.forward(x))) == pytest.approx(x, abs=1e-10)

    def test_log_round_trip(self):
        g = UtilityTransform.log()
        x = np.linspace(0.0, 3.0, 20)
        assert np.asarray(g.inverse(g.forward(x))) == pytest.approx(x, abs=1e-10)

    def test_identity_is_admissible(self):
        assert UtilityTransform.power(1.0).name == "power:1"

    def test_convex_transform_rejected(self):
        with pytest.raises(InvalidParamsError, match="midpoint concavity"):
            UtilityTransform(
                name="square",
                forward=lambda x: np.asarray(x) ** 2,
                inverse=lambda y: np.sqrt(y),
                inverse_derivative=lambda y: 0.5 / np.sqrt(np.maximum(y, 1e-300)),
            )

    def test_shifted_transform_rejected(self):
        with pytest.raises(InvalidParamsError, match="expected 0"):
            UtilityTransform(
                name="shifted",
                forward=lambda x: np.asarray(x) + 1.0,
                inverse=lambda y: np.asarray(y) - 1.0,
                inverse_derivative=lambda y: np.ones_like(np.asarray(y, dtype=float)),
            )

    def test_replace_is_checked_too(self):
        with pytest.raises(InvalidParamsError, match="finite differences"):
            dataclasses.replace(UtilityTransform.log(), inverse_derivative=np.exp2)

    def test_parse(self):
        assert UtilityTransform.parse("log").name == "log"
        assert UtilityTransform.parse("power:0.7").name == "power:0.7"
        with pytest.raises(InvalidParamsError, match="unknown transform spec"):
            UtilityTransform.parse("cube")
        with pytest.raises(InvalidParamsError, match="power exponent"):
            UtilityTransform.parse("power:1.5")


class TestRiskAverse:
    def test_sqrt_transform(self, icp_params):
        solution = solve_risk_averse(icp_params, UtilityTransform.power(0.5))
        assert solution.w_contract == pytest.approx([0, 1, 0, 1], abs=0)
        assert solution.contract.as_array() == pytest.approx([0, 1, 0, 1], abs=1e-12)
        assert solution.optimal_value == pytest.approx(0.44, abs=1e-12)
        assert solution.kkt.max_residual <= 1e-8

    def test_sqrt_lambda2_is_zero(self, icp_params):
        solution = solve_risk_averse(icp_params, UtilityTransform.power(0.5))
        assert abs(solution.lambda2) <= 1e-10

    def test_log_transform(self, icp_params):
        solution = solve_risk_averse(icp_params, UtilityTransform.log())
        e1 = math.expm1(1.0)
        assert solution.contract.as_array() == pytest.approx([0, e1, 0, e1], abs=1e-12)
        assert solution.optimal_value == pytest.approx(0.44 * e1, abs=1e-12)

    def test_identity_coincides_with_zero_gap_member(self, icp_params):
        solution = solve_risk_averse(icp_params, UtilityTransform.power(1.0))
        reference = solve_non_negative(icp_params, t=1.0)
        assert solution.contract.as_array() == pytest.approx(
            reference.contract.as_array(), abs=1e-12
        )
        assert solution.optimal_value == pytest.approx(reference.optimal_value, abs=1e-12)

    @pytest.mark.parametrize("spec", ["power:0.5", "log"])
    def test_equal_high_survival_rejected(self, spec):
        """At pi01 == pi11 the stationarity matrix [c1 | c2 | e1 | e3] is
        singular and the multipliers are a ray, so the solver refuses the point."""
        with pytest.raises(InvalidParamsError, match=r"^pi01 == pi11: "):
            solve_risk_averse(EQUAL_HIGH_SURVIVAL, UtilityTransform.parse(spec))

    def test_multipliers_nonnegative_on_random_draws(self, rng):
        transforms = [UtilityTransform.power(0.5), UtilityTransform.power(0.9), UtilityTransform.log()]
        for i in range(60):
            params = sample_model_params(rng)
            solution = solve_risk_averse(params, transforms[i % 3])
            assert solution.lambda1 >= -1e-12
            assert solution.lambda2 >= -1e-12
            assert np.all(solution.mu >= -1e-12)
            assert solution.kkt.max_residual <= 1e-8


class TestVerifyContract:
    def test_near_optimal_rounded_contract(self, icp_params):
        certificate = verify_contract(icp_params, Contract(0, 0, 0, 1.18), "nonneg")
        assert certificate.feasible
        assert certificate.expected_payment == pytest.approx(0.44132, abs=1e-5)
        assert certificate.near_optimal

    def test_zero_contract_infeasible(self, icp_params):
        certificate = verify_contract(icp_params, Contract(0, 0, 0, 0), "nonneg")
        assert not certificate.feasible
        broken = {c.name: c for c in certificate.constraints}["treat-good-responders"]
        assert broken.value == 0.0 and broken.bound == 1.0 and not broken.satisfied

    def test_free_optimum_binding(self, icp_params):
        contract = solve_free_payment(icp_params, p11=1.0).contract
        certificate = verify_contract(icp_params, contract, "free")
        assert certificate.feasible
        assert certificate.expected_payment == pytest.approx(0.0, abs=1e-9)
        slacks = {c.name: c.slack for c in certificate.constraints}
        assert slacks["treat-good-responders"] == pytest.approx(0.0, abs=1e-9)
        assert slacks["spare-bad-responders"] == pytest.approx(0.0, abs=1e-9)
        assert certificate.near_optimal

    def test_risk_averse_certificate(self, icp_params):
        g = UtilityTransform.log()
        contract = solve_risk_averse(icp_params, g).contract
        certificate = verify_contract(icp_params, contract, "risk-averse", g=g)
        assert certificate.feasible and certificate.near_optimal


class TestSolveReport:
    SHARED = {
        "model",
        "f_dollars",
        "params",
        "optimal_value",
        "contract",
        "contract_dollars",
        "expected_payment",
        "expected_payment_dollars",
        "certificate",
    }
    OWN = {
        "free": {"free_p11", "sensitivity"},
        "nonneg": {"t", "slacks", "incentive_gap_dollars"},
        "nonneg-w": {"noise_raises_cost", "slacks", "incentive_gap_dollars"},
        "risk-averse": {"transform", "w_contract", "multipliers", "kkt"},
    }

    @pytest.mark.parametrize("model", MODELS)
    def test_every_model_is_certified(self, icp_params, model):
        report = solve_report(
            icp_params, model, t=0.0, p11=1.0, g=UtilityTransform.log(), f_dollars=10_000.0
        )
        assert set(report) == self.SHARED | self.OWN[model]
        assert report["model"] == report["certificate"]["model"] == model
        assert report["certificate"]["feasible"] and report["certificate"]["near_optimal"]

    def test_unknown_model_rejected(self, icp_params):
        with pytest.raises(ValueError, match="^unknown model 'cubic', expected one of free, "):
            solve_report(icp_params, "cubic", t=0.0, p11=1.0, g=UtilityTransform.log(), f_dollars=1.0)


class TestCertify:
    TRANSFORMS = (UtilityTransform.power(0.5), UtilityTransform.log())

    def test_every_claim_holds_on_random_draws(self, rng):
        for i in range(50):
            params = sample_model_params(rng, with_noise=True)
            verdicts = certify(params, self.TRANSFORMS[i % 2])
            assert verdicts == dict.fromkeys(CERTIFIED_CLAIMS, True)

    def test_equal_high_survival_raises(self):
        """certify refuses pi01 == pi11 instead of reporting the wider
        non-negative face as a failed claim."""
        with pytest.raises(InvalidParamsError, match=r"^pi01 == pi11: "):
            certify(EQUAL_HIGH_SURVIVAL, self.TRANSFORMS[0])

    @pytest.mark.parametrize(
        "claim, closed_form",
        list(
            zip(
                CERTIFIED_CLAIMS,
                (
                    "solve_non_negative",
                    "solve_free_payment",
                    "solve_non_negative_misclassified",
                    "solve_risk_averse",
                ),
            )
        ),
    )
    @pytest.mark.parametrize("transform", TRANSFORMS, ids=lambda g: g.name)
    def test_perturbed_closed_form_fails_its_claim(self, monkeypatch, claim, closed_form, transform):
        original = getattr(solvers, closed_form)

        def perturbed(*args, **kwargs):
            solution = original(*args, **kwargs)
            shifted = Contract(*map(float, solution.contract.as_array() + 1e-3))
            return dataclasses.replace(solution, contract=shifted)

        monkeypatch.setattr(solvers, closed_form, perturbed)
        params = sample_model_params(
            np.random.default_rng(5), with_noise=True
        )
        verdicts = certify(params, transform)
        assert verdicts == {name: name != claim for name in CERTIFIED_CLAIMS}
