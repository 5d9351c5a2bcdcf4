from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carecontracts.domain import (
    REDUCED_RHS,
    AssignmentRule,
    Contract,
    ModelParams,
    build_normalized_system,
    dump_params,
    expected_payment,
    expected_survival,
    freeze,
    load_params,
    params_from_dict,
    params_to_dict,
    payer_utility,
    payment_coefficients,
    provider_expected_payment,
    provider_utility,
)
from carecontracts.errors import InvalidParamsError
from carecontracts.solvers import non_negative_lp
from carecontracts.synthetic import sample_model_params


def random_params(seed: int) -> ModelParams:
    return sample_model_params(np.random.default_rng(seed))


class TestModelParams:
    def test_rejects_out_of_range_probability(self):
        with pytest.raises(InvalidParamsError):
            ModelParams(pi00=0.0, pi01=0.5, pi10=0.5, pi11=0.6, gamma=0.5)
        with pytest.raises(InvalidParamsError):
            ModelParams(pi00=0.2, pi01=0.5, pi10=0.5, pi11=1.0, gamma=0.5)
        with pytest.raises(InvalidParamsError):
            ModelParams(pi00=0.2, pi01=0.5, pi10=0.5, pi11=0.6, gamma=0.5, phi=-1.0)
        with pytest.raises(InvalidParamsError):
            ModelParams(pi00=0.2, pi01=0.5, pi10=0.5, pi11=0.6, gamma=0.5, w0=1.0)

    def test_ordering_violations_listed(self):
        params = ModelParams(pi00=0.5, pi01=0.4, pi10=0.6, pi11=0.5, gamma=0.5)
        assert params.ordering_violations() == ["pi01 >= pi00", "pi11 >= pi10"]

    def test_pi_lookup(self, icp_params):
        assert icp_params.pi(0, 0) == 0.51
        assert icp_params.pi(0, 1) == 0.75
        assert icp_params.pi(1, 0) == 0.66
        assert icp_params.pi(1, 1) == 0.85


class TestNormalizedSystem:
    def test_case_study_c0(self, icp_params):
        system = build_normalized_system(icp_params)
        assert system.shape == (3, 4) and not system.flags.writeable
        assert system[0] == pytest.approx([0.2744, 0.0660, 0.2856, 0.3740], abs=1e-9)
        assert REDUCED_RHS == (0.0, 1.0, -1.0)

    def test_symmetric_c1(self):
        params = ModelParams(pi00=0.5, pi01=0.5, pi10=0.5, pi11=0.5, gamma=0.5)
        _, c1, _ = build_normalized_system(params)
        assert c1 == pytest.approx([-0.5, 0.5, -0.5, 0.5], abs=0)

    def test_ordering_violation_rejected(self):
        params = ModelParams(pi00=0.6, pi01=0.5, pi10=0.7, pi11=0.8, gamma=0.5)
        with pytest.raises(InvalidParamsError):
            build_normalized_system(params)

    @given(st.integers(0, 10**6))
    @settings(max_examples=100, deadline=None)
    def test_c0_sums_to_one(self, seed):
        c0, _, _ = build_normalized_system(random_params(seed))
        assert float(c0.sum()) == pytest.approx(1.0, abs=1e-12)
        assert np.all(c0 > 0)


@pytest.mark.parametrize("dtype", [float, int, None])
def test_freeze_stores_read_only_copies(dtype):
    @dataclass(frozen=True)
    class Holder:
        a: np.ndarray
        b: np.ndarray

    source = np.array([3, 1, 2])
    holder = Holder(a=source, b=source)
    freeze(holder, "a", "b", dtype=dtype)
    for arr in (holder.a, holder.b):
        assert arr.dtype == np.dtype(dtype or source.dtype)
        assert not arr.flags.writeable
        assert not np.shares_memory(arr, source)
    assert source.flags.writeable


class TestExpectedSurvival:
    def test_case_study_values(self, icp_params):
        assert expected_survival(icp_params, "matched") == pytest.approx(0.6596, abs=1e-12)
        assert expected_survival(icp_params, "pure-high") == pytest.approx(0.7940, abs=1e-12)
        assert expected_survival(icp_params, "pure-low") == pytest.approx(0.5760, abs=1e-12)
        assert expected_survival(icp_params, "inverse") == pytest.approx(0.7104, abs=1e-12)

    def test_degenerate_symmetry(self):
        params = ModelParams(pi00=0.3, pi01=0.3, pi10=0.3, pi11=0.3, gamma=0.7)
        for rule in AssignmentRule:
            assert expected_survival(params, rule) == pytest.approx(0.3, abs=1e-12)

    def test_s0_s1_monotone_in_gamma(self):
        grid = np.linspace(0.05, 0.95, 50)
        params = [ModelParams(0.51, 0.75, 0.66, 0.85, g) for g in grid]
        s0 = np.array([expected_survival(p, AssignmentRule.PURE_LOW) for p in params])
        s1 = np.array([expected_survival(p, AssignmentRule.PURE_HIGH) for p in params])
        assert np.all(np.diff(s0) >= -1e-15)
        assert np.all(np.diff(s1) >= -1e-15)


class TestPayerUtility:
    def test_zero_contract(self, icp_params):
        zero = Contract(0, 0, 0, 0)
        assert payer_utility(icp_params, zero, "matched") == pytest.approx(0.6596, abs=1e-12)

    def test_max_gap_contract(self, icp_params):
        contract = Contract(0, 0, 0, 1 / 0.85)
        assert payer_utility(icp_params, contract, "matched") == pytest.approx(
            0.6596 - 0.44, abs=1e-12
        )

    @given(st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_phi_zero_reduces_to_survival(self, seed):
        rng = np.random.default_rng(seed)
        base = sample_model_params(rng)
        params = ModelParams(
            base.pi00, base.pi01, base.pi10, base.pi11, base.gamma, phi=1e-12
        )
        contract = Contract(*rng.uniform(-2, 2, 4))
        # phi is validated positive, so use the smallest admissible weight
        assert payer_utility(params, contract, "matched") == pytest.approx(
            expected_survival(params, "matched"), abs=1e-9
        )


class TestProviderPayments:
    def test_binding_incentive(self, icp_params):
        contract = Contract(0, 0, 0, 1 / 0.85)
        assert provider_expected_payment(icp_params, contract, 1, 1) == pytest.approx(1.0, abs=1e-12)
        assert provider_expected_payment(icp_params, contract, 0, 1) == pytest.approx(
            0.75 / 0.85, abs=1e-12
        )

    def test_zero_contract(self, icp_params):
        zero = Contract(0, 0, 0, 0)
        for s in (0, 1):
            for e in (0, 1):
                assert provider_expected_payment(icp_params, zero, s, e) == 0.0

    @given(st.integers(0, 10**6))
    @settings(max_examples=100, deadline=None)
    def test_incentive_rows_match_provider_payments(self, seed):
        """c1.P - b1 and c2.P - b2 are exactly the provider's incentive margins."""
        rng = np.random.default_rng(seed)
        params = sample_model_params(rng)
        contract = Contract(*rng.uniform(-3, 3, 4))
        _, c1, c2 = build_normalized_system(params)
        _, b1, b2 = REDUCED_RHS
        p = contract.as_array()

        lhs1 = float(c1 @ p - b1)
        rhs1 = provider_utility(params, contract, 1, 1) - provider_utility(params, contract, 1, 0)
        assert lhs1 == pytest.approx(rhs1, abs=1e-12)

        lhs2 = float(c2 @ p - b2)
        rhs2 = provider_utility(params, contract, 0, 0) - provider_utility(params, contract, 0, 1)
        assert lhs2 == pytest.approx(rhs2, abs=1e-12)

    def test_pure_rule_payments(self, icp_params):
        contract = Contract(0, 0, 0, 1 / 0.85)
        # everyone intensive: pay p11 on survival, survival rate s1
        assert expected_payment(icp_params, contract, "pure-high") == pytest.approx(
            0.794 / 0.85, abs=1e-12
        )
        # everyone palliative: the low-expenditure payments are zero
        assert expected_payment(icp_params, contract, "pure-low") == 0.0

    @given(st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_matched_payment_is_c0_dot_p(self, seed):
        rng = np.random.default_rng(seed)
        params = sample_model_params(rng)
        contract = Contract(*rng.uniform(-3, 3, 4))
        c0, _, _ = build_normalized_system(params)
        expected = float(c0 @ contract.as_array())
        assert expected_payment(params, contract, "matched") == expected


def _paper_formulas(params: ModelParams) -> tuple[np.ndarray, ...]:
    """c0, c1, c2 and the label-noise objective typed out entry by entry from
    the paper, independent of the payment-row helper they check."""
    g, w0, w1 = params.gamma, params.w0, params.w1
    pi00, pi01, pi10, pi11 = params.pi00, params.pi01, params.pi10, params.pi11
    c0 = [(1 - g) * (1 - pi00), g * (1 - pi11), (1 - g) * pi00, g * pi11]
    c1 = [pi10 - 1.0, 1.0 - pi11, -pi10, pi11]
    c2 = [1.0 - pi00, pi01 - 1.0, pi00, -pi01]
    noisy = [
        (1 - w1) * (1 - g) * (1 - pi00) + w0 * g * (1 - pi10),
        w1 * (1 - g) * (1 - pi01) + (1 - w0) * g * (1 - pi11),
        (1 - w1) * (1 - g) * pi00 + w0 * g * pi10,
        w1 * (1 - g) * pi01 + (1 - w0) * g * pi11,
    ]
    return tuple(np.array(row) for row in (c0, c1, c2, noisy))


def test_payment_rows_give_the_paper_formulas_bit_for_bit(icp_params):
    """The system, the noisy objective and the LP objective built from the
    payment rows equal the typed-out formulas byte for byte, at the case
    study, with and without noise, and on 1,000 noisy draws."""
    rng = np.random.default_rng(2026)
    draws = [icp_params, icp_params.with_misclassification(0.1, 0.2)]
    draws += [sample_model_params(rng, with_noise=True) for _ in range(1000)]
    for params in draws:
        c0, c1, c2, noisy = _paper_formulas(params)
        assert build_normalized_system(params).tobytes() == np.vstack([c0, c1, c2]).tobytes()
        assert payment_coefficients(params, AssignmentRule.MATCHED).tobytes() == noisy.tobytes()
        assert non_negative_lp(params).objective[:4].tobytes() == noisy.tobytes()
        clean = params.with_misclassification(0.0, 0.0)
        assert payment_coefficients(clean, AssignmentRule.MATCHED).tobytes() == c0.tobytes()


def _noisy_figures(params: ModelParams, contract: Contract, rule: AssignmentRule):
    """Survival and expected payment of ``rule``'s map when a true good
    responder is observed bad at rate w0 and a bad one good at rate w1,
    typed out apart from the cell helper they check."""
    e_bad, e_good = rule.response
    g, w0, w1 = params.gamma, params.w0, params.w1
    seen_good = {0: w1, 1: 1.0 - w0}  # P(observed good | true status)
    survival = payment = 0.0
    for s, share in ((0, 1.0 - g), (1, g)):
        for e, weight in ((e_bad, 1.0 - seen_good[s]), (e_good, seen_good[s])):
            pi = params.pi(s, e)
            survival += share * weight * pi
            payment += share * weight * (
                (1 - pi) * contract.payment(0, e) + pi * contract.payment(1, e)
            )
    return survival, payment


class TestNoisyClosedForms:
    @staticmethod
    def draws(icp_params):
        rng = np.random.default_rng(23)
        params = [icp_params, icp_params.with_misclassification(0.2, 0.1)]
        params += [sample_model_params(rng, with_noise=True) for _ in range(1000)]
        contracts = [Contract(*rng.uniform(-2, 2, 4)) for _ in params]
        return list(zip(params, contracts))

    def test_every_map_matches_the_cell_algebra(self, icp_params):
        for params, contract in self.draws(icp_params):
            for p in (params, params.with_misclassification(0.0, 0.0)):
                for rule in AssignmentRule:
                    survival, payment = _noisy_figures(p, contract, rule)
                    assert expected_survival(p, rule) == pytest.approx(survival, abs=1e-15)
                    assert expected_payment(p, contract, rule) == pytest.approx(payment, abs=1e-15)

    def test_bit_for_bit_where_the_labels_do_not_matter(self, icp_params):
        """Without noise a map is the per-class sum; a constant map never
        reads the labels, so noise leaves its figures' bits alone."""
        for params, contract in self.draws(icp_params):
            clean = params.with_misclassification(0.0, 0.0)
            g = params.gamma
            for rule in AssignmentRule:
                e_bad, e_good = rule.response
                per_class = (1 - g) * params.pi(0, e_bad) + g * params.pi(1, e_good)
                assert expected_survival(clean, rule) == per_class
                if e_bad == e_good:
                    assert expected_survival(params, rule) == per_class
                    assert expected_payment(params, contract, rule) == expected_payment(
                        clean, contract, rule
                    )
            c0 = build_normalized_system(params)[0]
            matched = expected_payment(clean, contract, AssignmentRule.MATCHED)
            assert matched == float(c0 @ contract.as_array())


class TestParamsJson:
    def test_schema_field_names(self, icp_params):
        data = params_to_dict(icp_params)
        assert set(data) == {"pi", "gamma", "phi", "F", "w0", "w1"}
        assert set(data["pi"]) == {"00", "01", "10", "11"}

    def test_round_trip(self, tmp_path, icp_params):
        path = tmp_path / "params.json"
        dump_params(icp_params, path)
        assert load_params(path) == icp_params

    def test_defaults_applied(self):
        params = params_from_dict(
            {"pi": {"00": 0.51, "01": 0.75, "10": 0.66, "11": 0.85}, "gamma": 0.44}
        )
        assert params.phi == 1.0
        assert params_to_dict(params)["F"] == 1.0
        assert params.w0 == 0.0 and params.w1 == 0.0

    def test_malformed_file_rejected(self):
        with pytest.raises(InvalidParamsError):
            params_from_dict({"gamma": 0.44})

    def test_dump_rejects_nan(self, tmp_path, icp_params):
        # validation keeps NaN out of ModelParams; the writer refuses it as a second line
        object.__setattr__(icp_params, "phi", float("nan"))
        with pytest.raises(ValueError):
            dump_params(icp_params, tmp_path / "params.json")
