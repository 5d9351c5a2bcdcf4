"""Cross-checks against scipy's optimizers.

scipy is used here only, never by the package, and these tests skip
where it is not installed. Each check compares one of the package's own
routines with an independent scipy solution of the same problem: the LP
oracle with HiGHS, the IRLS propensity fit and the Newton Cox fit with a
direct ``minimize`` of their negative log-likelihoods. The likelihoods
are taken per patient, so BFGS's gradient tolerance does not scale with
the sample size.
"""

import numpy as np
import pytest

optimize = pytest.importorskip("scipy.optimize")

from carecontracts.estimation import Cohort, fit_cox, fit_propensity  # noqa: E402
from carecontracts.lp import solve_lp  # noqa: E402
from carecontracts.solvers import misclassified_objective, non_negative_lp  # noqa: E402
from carecontracts.synthetic import sample_model_params  # noqa: E402


def _cohort(z, e=0, t=10, event=1) -> Cohort:
    n = len(z)
    return Cohort(
        ids=[f"r{i}" for i in range(n)],
        e=np.broadcast_to(e, n),
        t=np.broadcast_to(t, n),
        los=np.full(n, 1.0),
        event=np.broadcast_to(event, n),
        z=z,
    )


@pytest.mark.parametrize("noisy", [False, True], ids=["plain", "noisy-objective"])
def test_lp_oracle_matches_highs(noisy):
    rng = np.random.default_rng(31)
    for _ in range(40):
        params = sample_model_params(rng, with_noise=noisy)
        lp = non_negative_lp(params, objective=misclassified_objective(params) if noisy else None)
        ours = solve_lp(lp)
        highs = optimize.linprog(
            lp.objective, A_eq=lp.eq_matrix, b_eq=lp.eq_rhs, bounds=(0, None), method="highs"
        )
        assert ours.status == "optimal" and highs.status == 0
        assert ours.value == pytest.approx(highs.fun, abs=1e-9)
        # HiGHS returns a vertex of the optimal face, and enumeration lists every one
        assert any(
            np.max(np.abs(point.solution - highs.x)) <= 1e-7 for point in ours.optimal_points
        )


def test_propensity_matches_direct_likelihood_maximum():
    rng = np.random.default_rng(7)
    z = rng.normal(size=(2000, 3))
    x = np.hstack([np.ones((2000, 1)), z])
    e = (rng.random(2000) < 1.0 / (1.0 + np.exp(-(x @ [-0.3, 0.8, -0.5, 0.3])))).astype(int)

    def negative_log_likelihood(beta):
        eta = x @ beta
        prob = 0.5 * (1.0 + np.tanh(0.5 * eta))
        return np.mean(np.logaddexp(0.0, eta) - e * eta), x.T @ (prob - e) / len(e)

    direct = optimize.minimize(
        negative_log_likelihood, np.zeros(4), jac=True, method="BFGS", options={"gtol": 1e-9}
    )
    assert direct.success
    assert fit_propensity(_cohort(z, e=e)).coefficients == pytest.approx(direct.x, abs=1e-6)


def test_cox_matches_direct_breslow_maximum():
    """Whole-day death times give tied events; a quarter of them are censored."""
    rng = np.random.default_rng(11)
    n = 300
    z = rng.normal(size=(n, 2))
    days = np.ceil(rng.exponential(1.0 / (0.05 * np.exp(z @ [0.6, -0.4])))).astype(int)
    event = (rng.random(n) >= 0.25).astype(int)
    assert len(np.unique(days[event == 1])) < event.sum()  # ties are present
    # at_risk[i, j]: patient j is still at risk when patient i dies
    at_risk = days[None, :] >= days[:, None]

    def negative_partial_likelihood(beta):
        w = np.exp(z @ beta)
        denominator = at_risk @ w
        risk_mean = (at_risk @ (w[:, None] * z)) / denominator[:, None]
        value = -np.sum(event * (z @ beta - np.log(denominator)))
        return value / n, -np.sum(event[:, None] * (z - risk_mean), axis=0) / n

    direct = optimize.minimize(
        negative_partial_likelihood, np.zeros(2), jac=True, method="BFGS", options={"gtol": 1e-9}
    )
    assert direct.success
    fit = fit_cox(_cohort(z, t=days, event=event))
    assert fit.beta == pytest.approx(direct.x, abs=1e-6)
    assert fit.log_partial_likelihood == pytest.approx(-n * direct.fun, abs=1e-8)
