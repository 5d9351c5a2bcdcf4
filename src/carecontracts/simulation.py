"""Monte Carlo comparison of payment policies.

A population of patients is drawn from the fitted Bernoulli model and
run through three expenditure policies: matched (treat observed good
responders intensively), pure high, and pure low. All policies share the
same patient draws (common random numbers), so ranking noise reflects the
policies rather than the sampling. Payments always use the contract's
(outcome, expenditure) lookup, with no renegotiation under the pure
policies.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import TextIO

import numpy as np

from .domain import AssignmentRule, Contract, ModelParams

DEFAULT_N = 1_000_000
PAYING_TOL = 1e-12


@dataclass(frozen=True)
class Policy:
    """An expenditure rule, the contract priced under it, and label noise."""

    kind: AssignmentRule
    contract: Contract
    w0: float = 0.0
    w1: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", AssignmentRule(self.kind))


@dataclass(frozen=True)
class PolicyReport:
    """Simulated survival, payment, and cost-effectiveness of one policy.

    ``avg_ratio`` is survival per unit payment; ``marginal_ratio`` is the
    survival gain over the supplied baseline per unit payment. Both are
    None for non-paying policies.
    """

    policy: str
    n: int
    survival_rate: float
    mean_payment: float
    ci95_survival: float
    ci95_payment: float
    avg_ratio: float | None
    marginal_ratio: float | None

    def row(self) -> list:
        return [
            self.policy,
            self.n,
            self.survival_rate,
            self.mean_payment,
            self.avg_ratio,
            self.marginal_ratio,
        ]


@dataclass(frozen=True)
class PolicyComparison:
    """Three-way comparison on common random numbers, with the two
    cost-effectiveness dominance indicators."""

    matched: PolicyReport
    pure_high: PolicyReport
    pure_low: PolicyReport
    avg_ratio_dominates: bool
    marginal_ratio_dominates: bool
    n: int
    seed: int

    @property
    def reports(self) -> tuple[PolicyReport, PolicyReport, PolicyReport]:
        return (self.matched, self.pure_high, self.pure_low)


@dataclass(frozen=True)
class _PopulationDraws:
    true_good: np.ndarray
    label_uniform: np.ndarray
    outcome_uniform: np.ndarray


def _draw_population(params: ModelParams, n: int, seed: int) -> _PopulationDraws:
    # independent, named streams: one per random source, all from the master seed
    status_rng, label_rng, outcome_rng = (
        np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(3)
    )
    return _PopulationDraws(
        true_good=status_rng.random(n) < params.gamma,
        label_uniform=label_rng.random(n),
        outcome_uniform=outcome_rng.random(n),
    )


def _evaluate(
    params: ModelParams,
    policy: Policy,
    draws: _PopulationDraws,
    baseline_survival: float | None,
) -> PolicyReport:
    n = draws.true_good.size
    true_good = draws.true_good
    if policy.kind is AssignmentRule.MATCHED:
        observed_good = np.where(
            true_good,
            draws.label_uniform >= policy.w0,
            draws.label_uniform < policy.w1,
        )
        expenditure = observed_good.astype(int)
    elif policy.kind is AssignmentRule.PURE_HIGH:
        expenditure = np.ones(n, dtype=int)
    else:
        expenditure = np.zeros(n, dtype=int)

    pi_cells = np.array(
        [[params.pi00, params.pi01], [params.pi10, params.pi11]], dtype=float
    )
    survived = draws.outcome_uniform < pi_cells[true_good.astype(int), expenditure]
    pay_cells = np.array(
        [
            [policy.contract.p00, policy.contract.p01],
            [policy.contract.p10, policy.contract.p11],
        ],
        dtype=float,
    )
    payments = pay_cells[survived.astype(int), expenditure]

    survival_rate = float(survived.mean())
    mean_payment = float(payments.mean())
    paying = abs(mean_payment) > PAYING_TOL
    return PolicyReport(
        policy=policy.kind.value,
        n=n,
        survival_rate=survival_rate,
        mean_payment=mean_payment,
        ci95_survival=1.96 * float(np.sqrt(survival_rate * (1 - survival_rate) / n)),
        ci95_payment=1.96 * float(payments.std(ddof=1) / np.sqrt(n)),
        avg_ratio=survival_rate / mean_payment if paying else None,
        marginal_ratio=(survival_rate - baseline_survival) / mean_payment
        if paying and baseline_survival is not None
        else None,
    )


def simulate_policy(
    params: ModelParams,
    policy: Policy,
    n: int = DEFAULT_N,
    seed: int = 0,
    *,
    baseline_survival: float | None = None,
) -> PolicyReport:
    """Simulate one policy on ``n`` model draws; deterministic in ``seed``."""
    if n < 2:
        raise ValueError(f"n={n}: need at least two simulated patients for the 95% intervals")
    return _evaluate(params, policy, _draw_population(params, n, seed), baseline_survival)


def compare_policies(
    params: ModelParams,
    contract: Contract,
    n: int = DEFAULT_N,
    seed: int = 0,
    *,
    w0: float = 0.0,
    w1: float = 0.0,
) -> PolicyComparison:
    """Run matched / pure-high / pure-low on one shared population.

    The marginal baseline is the simulated pure-low survival rate. The
    dominance indicators compare the matched policy against pure high on
    the average and marginal cost-effectiveness ratios.
    """
    if n < 2:
        raise ValueError(f"n={n}: need at least two simulated patients for the 95% intervals")
    draws = _draw_population(params, n, seed)
    low = _evaluate(params, Policy(AssignmentRule.PURE_LOW, contract), draws, None)
    baseline = low.survival_rate
    matched = _evaluate(
        params, Policy(AssignmentRule.MATCHED, contract, w0=w0, w1=w1), draws, baseline
    )
    high = _evaluate(params, Policy(AssignmentRule.PURE_HIGH, contract), draws, baseline)

    def beats(a: float | None, b: float | None) -> bool:
        return a is not None and b is not None and a > b

    return PolicyComparison(
        matched=matched,
        pure_high=high,
        pure_low=low,
        avg_ratio_dominates=beats(matched.avg_ratio, high.avg_ratio),
        marginal_ratio_dominates=beats(matched.marginal_ratio, high.marginal_ratio),
        n=n,
        seed=seed,
    )


# --- report export -------------------------------------------------------------

CSV_HEADER = ["policy", "n", "survival", "payment", "avg_ratio", "marginal_ratio"]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def export_report_csv(reports: list[PolicyReport], out: str | Path | TextIO) -> None:
    """Tidy CSV, one row per policy; None ratios render as empty fields.

    ``out`` is a file path or an open text stream such as ``sys.stdout``;
    either way the rows end in ``\\r\\n``.
    """
    if isinstance(out, (str, Path)):
        with open(out, "w", encoding="utf-8", newline="") as fh:
            export_report_csv(reports, fh)
        return
    writer = csv.writer(out)
    writer.writerow(CSV_HEADER)
    for report in reports:
        writer.writerow([_fmt(v) for v in report.row()])


def report_to_dict(report: PolicyReport) -> dict:
    return {
        "policy": report.policy,
        "n": report.n,
        "survival": report.survival_rate,
        "payment": report.mean_payment,
        "ci95_survival": report.ci95_survival,
        "ci95_payment": report.ci95_payment,
        "avg_ratio": report.avg_ratio,
        "marginal_ratio": report.marginal_ratio,
    }


def comparison_to_dict(comparison: PolicyComparison) -> dict:
    return {
        "n": comparison.n,
        "seed": comparison.seed,
        "policies": [report_to_dict(r) for r in comparison.reports],
        "avg_ratio_dominates": comparison.avg_ratio_dominates,
        "marginal_ratio_dominates": comparison.marginal_ratio_dominates,
    }
