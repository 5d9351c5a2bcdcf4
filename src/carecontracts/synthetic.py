"""Synthetic cohorts with planted ground truth.

Real cohort extraction is out of scope, so estimation is exercised on
generated data where every quantity the pipeline should recover is
planted explicitly:

* treatment assignment follows a logistic model in the covariates, with
  the intercept solved so the realized treated share hits its target;
* death times are exponential proportional-hazards draws with a known
  per-arm coefficient vector, rounded up to whole days (so tied event
  times occur, as in real registries);
* the true responder class is the sign of the planted coefficient
  difference, and the covariate mean is placed so the good-responder
  share hits ``gamma``;
* death-before-discharge is Bernoulli per (true class, treatment) cell,
  realized by positioning the length of stay on either side of the death
  time.

The propensity direction is orthogonal to the response-score direction,
so matching does not tilt the responder mix. Default cell survival rates
and the responder share replicate the bundled ICP-monitoring case study,
which :func:`reproduce_case_study` runs end to end.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from statistics import NormalDist

import numpy as np

from .domain import ModelParams, dollars, expected_survival, params_to_dict
from .errors import EstimationError
from .estimation import Cohort, PipelineConfig, run_pipeline
from .simulation import PolicyComparison, comparison_to_dict, compare_policies
from .solvers import solve_non_negative

# Published case-study figures for the bundled ICP-monitoring cohort; the
# simulated survival/payment triple came from a procedure that the fitted
# Bernoulli model does not reproduce (see README), so those three carry a
# model_reproducible=False flag in the reproduction report.
PUBLISHED_CONTRACT = {"p11": 1.18, "incentive_gap": 0.12, "expected_payment": 0.44}
PUBLISHED_DOLLARS = {"p11": 11800.0, "incentive_gap": 1200.0, "expected_payment": 4400.0}
PUBLISHED_POLICY_FIGURES = {
    "matched": {"survival": 0.64, "payment": 0.55},
    "pure-high": {"survival": 0.83, "payment": 0.94},
    "pure-low": {"survival": 0.35},
}


@dataclass(frozen=True)
class SyntheticCohortSpec:
    """Planted truth for one generated cohort."""

    n: int = 100_000
    treated_fraction: float = 0.10
    beta_control: tuple[float, ...] = (0.5, -0.3, 0.2)
    beta_treated: tuple[float, ...] = (-0.2, 0.4, -0.3)
    propensity_slopes: tuple[float, ...] = (0.4, 0.4, 0.0)
    # survival-to-discharge probability per (true responder class, treatment)
    pi00: float = 0.51
    pi01: float = 0.75
    pi10: float = 0.66
    pi11: float = 0.85
    gamma: float = 0.44
    baseline_hazard_control: float = 0.04
    baseline_hazard_treated: float = 0.03

    def survival(self, r: int, e: int) -> float:
        return ((self.pi00, self.pi01), (self.pi10, self.pi11))[r][e]

    def planted_params(self, *, phi: float = 1.0) -> ModelParams:
        return ModelParams(
            pi00=self.pi00,
            pi01=self.pi01,
            pi10=self.pi10,
            pi11=self.pi11,
            gamma=self.gamma,
            phi=phi,
        )


@dataclass(frozen=True)
class SyntheticTruth:
    """Everything the generator decided, for use as a test oracle."""

    spec: SyntheticCohortSpec
    covariate_mean: np.ndarray
    propensity_intercept: float
    true_classes: np.ndarray
    n_treated: int

    def __post_init__(self) -> None:
        for name in ("covariate_mean", "true_classes"):
            arr = np.array(getattr(self, name))
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def _solve_intercept(linear: np.ndarray, target: float) -> float:
    """Intercept that makes the mean logistic probability hit ``target``."""
    lo, hi = -30.0, 30.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if float(np.mean(1.0 / (1.0 + np.exp(-(mid + linear))))) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def generate_cohort(spec: SyntheticCohortSpec, seed: int) -> tuple[Cohort, SyntheticTruth]:
    p = len(spec.beta_control)
    if len(spec.beta_treated) != p or len(spec.propensity_slopes) != p:
        raise EstimationError("planted coefficient vectors must share one length")
    delta = np.array(spec.beta_treated) - np.array(spec.beta_control)
    norm = float(np.linalg.norm(delta))
    if norm == 0.0:
        raise EstimationError("planted Cox coefficients must differ between arms")
    # place the covariate mean so P(delta . Z > 0) equals gamma
    mean = NormalDist().inv_cdf(spec.gamma) / norm * delta

    rng = np.random.default_rng(seed)
    z = rng.normal(0.0, 1.0, size=(spec.n, p)) + mean

    linear = z @ np.array(spec.propensity_slopes)
    intercept = _solve_intercept(linear, spec.treated_fraction)
    treated = rng.random(spec.n) < 1.0 / (1.0 + np.exp(-(intercept + linear)))

    d_true = z @ delta
    good = d_true > 0.0

    beta = np.where(treated[:, None], spec.beta_treated, spec.beta_control)
    hazard = np.where(treated, spec.baseline_hazard_treated, spec.baseline_hazard_control)
    rates = hazard * np.exp(np.sum(z * beta, axis=1))
    death_days = np.maximum(1, np.ceil(rng.exponential(1.0 / rates))).astype(int)

    survival = np.where(
        good,
        np.where(treated, spec.pi11, spec.pi10),
        np.where(treated, spec.pi01, spec.pi00),
    )
    died_before_discharge = rng.random(spec.n) >= survival
    los = np.where(
        died_before_discharge,
        death_days + rng.uniform(0.5, 5.0, spec.n),
        death_days * rng.uniform(0.3, 0.95, spec.n),
    )

    width = len(str(spec.n))
    cohort = Cohort(
        ids=tuple(f"p{i:0{width}d}" for i in range(spec.n)),
        e=treated.astype(int),
        t=death_days,
        los=los,
        event=np.ones(spec.n, dtype=int),
        z=z,
    )
    truth = SyntheticTruth(
        spec=spec,
        covariate_mean=mean,
        propensity_intercept=intercept,
        true_classes=good.astype(int),
        n_treated=int(treated.sum()),
    )
    return cohort, truth


# --- random model parameters ---------------------------------------------------


def sample_model_params(
    rng: np.random.Generator,
    *,
    require_free_solvable: bool = False,
    with_noise: bool = False,
    benefit_margin: float = 1e-3,
    max_draws: int = 10_000,
) -> ModelParams:
    """Random parameters satisfying the solver preconditions with margins.

    Draws respect the monotone ordering strictly, keep the benefit margin
    ``|pi01*pi10 - pi00*pi11|`` away from zero, and (optionally) keep the
    uniform-high survival rate below one so the free-payment family exists.
    """
    for _ in range(max_draws):
        pi00 = rng.uniform(0.05, 0.55)
        pi01 = rng.uniform(pi00 + 0.02, 0.8)
        pi10 = rng.uniform(pi00 + 0.02, 0.8)
        pi11 = rng.uniform(max(pi01, pi10) + 0.02, 0.97)
        gamma = rng.uniform(0.1, 0.9)
        if abs(pi01 * pi10 - pi00 * pi11) <= benefit_margin:
            continue
        if require_free_solvable:
            s1 = (1 - gamma) * pi01 + gamma * pi11
            if s1 >= 0.98 or pi10 - pi00 <= 0.02:
                continue
        w0 = rng.uniform(0.0, 0.4) if with_noise else 0.0
        w1 = rng.uniform(0.0, 0.4) if with_noise else 0.0
        return ModelParams(
            pi00=pi00, pi01=pi01, pi10=pi10, pi11=pi11, gamma=gamma, w0=w0, w1=w1
        )
    raise RuntimeError(f"no valid parameter draw in {max_draws} attempts")


# --- the case study ---------------------------------------------------------------


def _verdict(name: str, obtained: float, expected: float, tol: float) -> dict:
    return {
        "name": name,
        "obtained": obtained,
        "expected": expected,
        "tolerance": tol,
        "passed": bool(abs(obtained - expected) <= tol),
    }


def reproduce_case_study(
    cohort: Cohort, spec: SyntheticCohortSpec, sim_n: int, seed: int
) -> tuple[ModelParams, PolicyComparison, dict]:
    """Estimate, solve and simulate the case study on ``cohort``.

    Returns the estimated parameters, the policy comparison on ``sim_n``
    draws from ``seed``, and the report: obtained-vs-expected verdicts
    against the planted truth of ``spec`` and the published figures, and
    the published simulation figures side by side with the simulated ones.
    """
    estimated = run_pipeline(cohort, PipelineConfig()).params
    planted = spec.planted_params()
    verdicts = [
        _verdict(name, getattr(estimated, name), getattr(planted, name), 0.02)
        for name in ("pi00", "pi01", "pi10", "pi11", "gamma")
    ]

    solution = solve_non_negative(estimated, 0.0)
    verdicts += [
        _verdict("p11 = 1/pi11", solution.contract.p11, 1.0 / estimated.pi11, 1e-9),
        _verdict("p11 vs published 1.18", solution.contract.p11, PUBLISHED_CONTRACT["p11"], 0.05),
        _verdict(
            "incentive gap vs published 0.12",
            solution.slack_v2,
            PUBLISHED_CONTRACT["incentive_gap"],
            0.03,
        ),
        _verdict(
            "expected payment vs published 0.44",
            solution.optimal_value,
            PUBLISHED_CONTRACT["expected_payment"],
            0.02,
        ),
    ]

    # dollar renderings at the published point estimates themselves
    reference = solve_non_negative(planted, 0.0)
    reference_dollars = {
        "p11": dollars(reference.contract.p11),
        "incentive_gap": dollars(reference.slack_v2),
        "expected_payment": dollars(reference.optimal_value),
    }
    for key, value in reference_dollars.items():
        verdicts.append(
            _verdict(
                f"{key} dollars rounded to $100",
                round(value / 100.0) * 100.0,
                PUBLISHED_DOLLARS[key],
                0.0,
            )
        )

    comparison = compare_policies(estimated, solution.contract, n=sim_n, seed=seed)
    reports = {report.policy: report for report in comparison.reports}
    model_survival = {policy: expected_survival(estimated, policy) for policy in reports}
    for policy, report in reports.items():
        verdicts.append(
            _verdict(
                f"simulated {policy} survival vs model",
                report.survival_rate,
                model_survival[policy],
                0.004,
            )
        )
    verdicts.append(
        _verdict(
            "pure-high payment vs published 0.94",
            comparison.pure_high.mean_payment,
            PUBLISHED_POLICY_FIGURES["pure-high"]["payment"],
            0.02,
        )
    )

    side_by_side = []
    for policy, figures in PUBLISHED_POLICY_FIGURES.items():
        report = reports[policy]
        entry = {
            "policy": policy,
            "published_survival": figures["survival"],
            "simulated_survival": report.survival_rate,
            "model_survival": model_survival[policy],
            "survival_model_reproducible": abs(report.survival_rate - figures["survival"]) <= 0.02,
        }
        if "payment" in figures:
            entry["published_payment"] = figures["payment"]
            entry["simulated_payment"] = report.mean_payment
            entry["payment_model_reproducible"] = (
                abs(report.mean_payment - figures["payment"]) <= 0.02
            )
        side_by_side.append(entry)

    report = {
        "simulation_seed": seed,
        "estimated_params": params_to_dict(estimated),
        "planted_params": params_to_dict(planted),
        "contract": asdict(solution.contract),
        "reference_dollars": reference_dollars,
        "policy_comparison": comparison_to_dict(comparison),
        "published_policy_figures": PUBLISHED_POLICY_FIGURES,
        "side_by_side": side_by_side,
        "verdicts": verdicts,
        "all_passed": all(v["passed"] for v in verdicts),
    }
    return estimated, comparison, report
