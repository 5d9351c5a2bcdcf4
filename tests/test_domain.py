from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carecontracts.domain import (
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
    provider_expected_payment,
    provider_utility,
)
from carecontracts.errors import InvalidParamsError
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
        assert system.c0 == pytest.approx([0.2744, 0.0660, 0.2856, 0.3740], abs=1e-9)
        assert (system.b0, system.b1, system.b2) == (0.0, 1.0, -1.0)

    def test_symmetric_c1(self):
        params = ModelParams(pi00=0.5, pi01=0.5, pi10=0.5, pi11=0.5, gamma=0.5)
        system = build_normalized_system(params)
        assert system.c1 == pytest.approx([-0.5, 0.5, -0.5, 0.5], abs=0)

    def test_ordering_violation_rejected(self):
        params = ModelParams(pi00=0.6, pi01=0.5, pi10=0.7, pi11=0.8, gamma=0.5)
        with pytest.raises(InvalidParamsError):
            build_normalized_system(params)

    @given(st.integers(0, 10**6))
    @settings(max_examples=100, deadline=None)
    def test_c0_sums_to_one(self, seed):
        system = build_normalized_system(random_params(seed))
        assert float(system.c0.sum()) == pytest.approx(1.0, abs=1e-12)
        assert np.all(system.c0 > 0)


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
        system = build_normalized_system(params)
        p = contract.as_array()

        lhs1 = float(system.c1 @ p - system.b1)
        rhs1 = provider_utility(params, contract, 1, 1) - provider_utility(params, contract, 1, 0)
        assert lhs1 == pytest.approx(rhs1, abs=1e-12)

        lhs2 = float(system.c2 @ p - system.b2)
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
        system = build_normalized_system(params)
        assert expected_payment(params, contract, "matched") == pytest.approx(
            float(system.c0 @ contract.as_array()), abs=1e-13
        )


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
        assert params.disutility_f == 1.0
        assert params.w0 == 0.0 and params.w1 == 0.0

    def test_malformed_file_rejected(self):
        with pytest.raises(InvalidParamsError):
            params_from_dict({"gamma": 0.44})

    def test_dump_rejects_nan(self, tmp_path, icp_params):
        # validation keeps NaN out of ModelParams; the writer refuses it as a second line
        object.__setattr__(icp_params, "phi", float("nan"))
        with pytest.raises(ValueError):
            dump_params(icp_params, tmp_path / "params.json")
