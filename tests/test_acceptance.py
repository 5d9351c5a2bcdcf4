"""Acceptance gate: every shipped guarantee, at its stated tolerance.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see
them live). Criterion 7's marginal-dominance clause is expected to fail:
with the case-study parameters the model-implied marginal
cost-effectiveness ratio of the matched policy is provably below the
pure-high policy's, see the assertion message.
"""

import json
import time

import numpy as np

from carecontracts.cli import main
from carecontracts.domain import ModelParams, build_normalized_system, dump_params
from carecontracts.estimation import cox_partial_likelihood, run_pipeline
from carecontracts.lp import solve_lp
from carecontracts.simulation import compare_policies
from carecontracts.solvers import (
    UtilityTransform,
    non_negative_lp,
    solve_free_payment,
    solve_non_negative,
    solve_non_negative_misclassified,
    solve_risk_averse,
)
from carecontracts.synthetic import sample_model_params

CASE_STUDY = ModelParams(pi00=0.51, pi01=0.75, pi10=0.66, pi11=0.85, gamma=0.44)


def report(number: int, label: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE criterion {number} {status} - {label}{suffix}", flush=True)
    return ok


def segment_distance(x, a, b):
    d = b - a
    t = min(1.0, max(0.0, float((x - a) @ d) / float(d @ d)))
    return float(np.linalg.norm(x - (a + t * d)))


def test_criterion_1_non_negative_reproduction(tmp_path):
    solve_non_negative(CASE_STUDY, 0.0)  # warm up
    start = time.perf_counter()
    solution = solve_non_negative(CASE_STUDY, 0.0)
    elapsed = time.perf_counter() - start

    ok = abs(solution.contract.p11 - 1 / 0.85) <= 1e-9
    ok &= abs(solution.slack_v2 - (1 - 0.75 / 0.85)) <= 1e-9
    ok &= abs(solution.optimal_value - 0.44) <= 1e-9
    ok &= elapsed < 0.010

    params_path = tmp_path / "params.json"
    dump_params(CASE_STUDY, params_path)
    out = tmp_path / "solution.json"
    assert main(["solve", "--model", "nonneg", "--params", str(params_path), "--t", "0", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    nearest_hundred = lambda x: round(x / 100.0) * 100.0
    ok &= nearest_hundred(data["contract_dollars"]["p11"]) == 11800.0
    ok &= nearest_hundred(data["incentive_gap_dollars"]) == 1200.0
    ok &= nearest_hundred(data["expected_payment_dollars"]) == 4400.0

    assert report(1, "non-negative model reproduction", ok, f"solve {elapsed * 1e3:.3f} ms")


def test_criterion_2_oracle_equivalence():
    rng = np.random.default_rng(2)
    start = time.perf_counter()
    ok = True
    for _ in range(500):
        params = sample_model_params(rng)
        result = solve_lp(non_negative_lp(params))
        ok &= result.status == "optimal"
        ok &= abs(result.value - params.gamma) <= 1e-8
        lo = solve_non_negative(params, 0.0).contract.as_array()
        hi = solve_non_negative(params, 1.0).contract.as_array()
        ok &= all(
            segment_distance(point.solution[:4], lo, hi) <= 1e-8
            for point in result.optimal_points
        )
        if not ok:
            break
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    assert report(2, "oracle equivalence over 500 draws", ok, f"{elapsed:.2f} s")


def test_criterion_3_free_payment_certification():
    rng = np.random.default_rng(3)
    ok = True
    for _ in range(200):
        params = sample_model_params(rng)
        p11 = float(rng.uniform(-1.0, 2.0))
        solution = solve_free_payment(params, p11)
        p = solution.contract.as_array()
        system = build_normalized_system(params)
        ok &= abs(float(system.c0 @ p)) <= 1e-8
        ok &= abs(float(system.c1 @ p) - 1.0) <= 1e-8
        ok &= abs(float(system.c2 @ p) + 1.0) <= 1e-8
        sens = solution.sensitivity
        ok &= sens[0] < 0 and sens[1] < 0 and sens[2] > 0
        h = 1e-4
        fd = (
            solve_free_payment(params, p11 + h).contract.as_array()
            - solve_free_payment(params, p11 - h).contract.as_array()
        )[:3] / (2 * h)
        ok &= float(np.max(np.abs(sens - fd))) <= 1e-6
        if not ok:
            break
    assert report(3, "free-payment closed form certified on 200 draws", ok)


def test_criterion_4_misclassification():
    rng = np.random.default_rng(4)
    ok = True
    sign_checks = 0
    for _ in range(200):
        params = sample_model_params(rng, with_noise=True)
        solution = solve_non_negative_misclassified(params)
        evaluated = float(solution.objective @ solution.contract.as_array())
        ok &= abs(evaluated - solution.optimal_value) <= 1e-10
        oracle = solve_lp(non_negative_lp(params))
        ok &= oracle.status == "optimal" and abs(oracle.value - solution.optimal_value) <= 1e-8

        mix = params.pi11 * params.w0 + params.pi01 * params.w1
        if mix > 0:
            ratio_gap = params.pi01 * params.w1 / mix - params.gamma
            value_gap = solution.optimal_value - params.gamma
            if abs(ratio_gap) > 1e-10 and abs(value_gap) > 1e-10:
                ok &= (value_gap > 0) == (ratio_gap > 0)
                sign_checks += 1
        if not ok:
            break
    ok &= sign_checks >= 150
    assert report(4, "misclassification value and sign rule on 200 draws", ok, f"{sign_checks} sign checks")


def _grid_search_minimum(params: ModelParams, g: UtilityTransform) -> float:
    """Brute-force minimum of the transformed objective over [0,3]^4 at
    step 0.01, restricted to the two candidate binding patterns."""
    system = build_normalized_system(params)
    c0, c1, c2 = system.c0, system.c1, system.c2
    grid = np.round(np.arange(0.0, 3.0 + 1e-12, 0.01), 10)
    a, b = np.meshgrid(grid, grid, indexing="ij")

    def objective(w00, w01, w10, w11):
        total = np.zeros_like(w01)
        for coeff, w in zip(c0, (w00, w01, w10, w11)):
            total = total + coeff * np.asarray(g.inverse(w))
        return total

    best = np.inf

    # pattern 1: zero transformed payment on death cells
    zero = np.zeros_like(a)
    feasible = (c1[1] * a + c1[3] * b >= 1.0 - 1e-12) & (c2[1] * a + c2[3] * b >= -1.0 - 1e-12)
    if np.any(feasible):
        values = objective(zero, a, zero, b)
        best = min(best, float(np.min(values[feasible])))

    # pattern 2: both incentive constraints binding, death cells on the grid
    det = c1[1] * c2[3] - c1[3] * c2[1]
    rhs1 = 1.0 - c1[0] * a - c1[2] * b
    rhs2 = -1.0 - c2[0] * a - c2[2] * b
    w01 = (rhs1 * c2[3] - rhs2 * c1[3]) / det
    w11 = (rhs2 * c1[1] - rhs1 * c2[1]) / det
    feasible = (w01 >= -1e-12) & (w11 >= -1e-12) & (w01 <= 3.0) & (w11 <= 3.0)
    if np.any(feasible):
        values = objective(a, np.maximum(w01, 0.0), b, np.maximum(w11, 0.0))
        best = min(best, float(np.min(values[feasible])))
    return best


def test_criterion_5_risk_averse_kkt_and_grid():
    rng = np.random.default_rng(5)
    transforms = [UtilityTransform.power(0.5), UtilityTransform.power(0.9), UtilityTransform.log()]
    start = time.perf_counter()
    ok = True
    for i in range(100):
        params = sample_model_params(rng)
        g = transforms[i % 3]
        solution = solve_risk_averse(params, g)
        ok &= solution.kkt.stationarity <= 1e-8
        ok &= solution.kkt.complementarity <= 1e-8
        ok &= solution.lambda1 >= -1e-12 and solution.lambda2 >= -1e-12
        ok &= bool(np.all(solution.mu >= -1e-12))
        grid_best = _grid_search_minimum(params, g)
        ok &= grid_best >= solution.optimal_value - 1e-6
        if not ok:
            break
    elapsed = time.perf_counter() - start
    ok &= elapsed < 60.0
    assert report(5, "risk-averse KKT + grid-search optimality on 100 draws", ok, f"{elapsed:.1f} s")


def test_criterion_6_estimation_recovery(bundled_cohort):
    spec, cohort, truth = bundled_cohort
    start = time.perf_counter()
    result = run_pipeline(cohort)
    elapsed = time.perf_counter() - start
    params = result.params

    ok = abs(params.pi00 - spec.pi00) <= 0.02
    ok &= abs(params.pi01 - spec.pi01) <= 0.02
    ok &= abs(params.pi10 - spec.pi10) <= 0.02
    ok &= abs(params.pi11 - spec.pi11) <= 0.02
    ok &= abs(params.gamma - spec.gamma) <= 0.02
    ok &= elapsed < 120.0

    # analytic Cox gradient vs central finite differences on one matched arm
    arm = cohort.take(np.flatnonzero(cohort.e == 1)[:3000])
    times, events, z = arm.t.astype(float), arm.event, arm.z
    rng = np.random.default_rng(6)
    for _ in range(3):
        beta = rng.uniform(-0.5, 0.5, z.shape[1])
        _, grad, _ = cox_partial_likelihood(beta, times, events, z)
        h = 1e-5
        for k in range(z.shape[1]):
            step = np.zeros(z.shape[1])
            step[k] = h
            up, _, _ = cox_partial_likelihood(beta + step, times, events, z)
            down, _, _ = cox_partial_likelihood(beta - step, times, events, z)
            fd = (up - down) / (2 * h)
            ok &= abs(grad[k] - fd) <= 1e-6 * max(1.0, abs(fd))

    assert report(6, "estimation recovery on the bundled fixture", ok, f"pipeline {elapsed:.1f} s")


def test_criterion_7_simulation_consistency():
    contract = solve_non_negative(CASE_STUDY, 0.0).contract
    comparison = compare_policies(CASE_STUDY, contract, n=1_000_000, seed=170)

    quantities_ok = abs(comparison.matched.survival_rate - 0.6596) <= 0.004
    quantities_ok &= abs(comparison.matched.mean_payment - 0.44) <= 0.004
    quantities_ok &= abs(comparison.pure_high.survival_rate - 0.794) <= 0.004
    quantities_ok &= abs(comparison.pure_high.mean_payment - 0.937) <= 0.005
    quantities_ok &= abs(comparison.pure_low.survival_rate - 0.576) <= 0.004
    report(7, "simulated quantities at stated tolerances", quantities_ok)

    # the published simulation triple is not reproducible from the fitted model
    published = {"matched": 0.64, "pure-high": 0.83, "pure-low": 0.35}
    flags_ok = abs(comparison.matched.survival_rate - published["matched"]) > 0.004
    flags_ok &= abs(comparison.pure_low.survival_rate - published["pure-low"]) > 0.004
    report(7, "published 0.64/0.55/0.35 flagged as not model-reproducible", flags_ok)

    avg_ok = comparison.avg_ratio_dominates
    report(7, "average-ratio dominance of the matched policy", avg_ok)
    marginal_ok = comparison.marginal_ratio_dominates
    report(7, "marginal-ratio dominance of the matched policy", marginal_ok)

    assert quantities_ok and flags_ok and avg_ok
    assert marginal_ok, (
        "model-implied marginal cost-effectiveness does not favor the matched policy: "
        f"matched ({comparison.matched.marginal_ratio:.4f}) < pure-high "
        f"({comparison.pure_high.marginal_ratio:.4f}). With the case-study parameters the "
        "matched policy gains (0.6596-0.576)/0.44 = 0.190 survival per unit payment over "
        "pure-low while pure-high gains (0.794-0.576)/0.934 = 0.233; the inequality is "
        "impossible anywhere inside this criterion's own tolerance bands "
        "(max LHS 0.210 < min RHS 0.223). See the decisions ledger."
    )


def test_criterion_8_determinism(tmp_path):
    params_path = tmp_path / "params.json"
    dump_params(CASE_STUDY, params_path)

    outputs = []
    for name in ("a", "b"):
        sim_json = tmp_path / f"sim_{name}.json"
        sim_csv = tmp_path / f"sim_{name}.csv"
        solve_out = tmp_path / f"solve_{name}.json"
        assert main(["simulate", "--params", str(params_path), "--n", "50000", "--seed", "31", "--out", str(sim_json)]) == 0
        assert main(["simulate", "--params", str(params_path), "--n", "50000", "--seed", "31", "--format", "csv", "--out", str(sim_csv)]) == 0
        assert main(["solve", "--model", "nonneg", "--params", str(params_path), "--out", str(solve_out)]) == 0
        outputs.append((sim_json.read_bytes(), sim_csv.read_bytes(), solve_out.read_bytes()))
    ok = outputs[0] == outputs[1]
    assert report(8, "bit-identical machine output under a fixed seed", ok)
