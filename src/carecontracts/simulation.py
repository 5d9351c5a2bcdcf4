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

from .domain import AssignmentRule, Contract, ModelParams, check_noise_rate

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
        check_noise_rate("w0", self.w0)
        check_noise_rate("w1", self.w1)


@dataclass(frozen=True)
class PolicyReport:
    """Simulated survival, payment, and cost-effectiveness of one policy.

    ``avg_ratio`` is survival per unit payment; ``marginal_ratio`` is the
    survival gain over pure-low per unit payment, set only by
    ``compare_policies``. Both are None for non-paying policies.
    """

    policy: str
    n: int
    survival_rate: float
    mean_payment: float
    ci95_survival: float
    ci95_payment: float
    avg_ratio: float | None
    marginal_ratio: float | None


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
    if n < 2:
        raise ValueError(f"n={n}: need at least two simulated patients for the 95% intervals")
    # independent, named streams: one per random source, all from the master seed
    status_rng, label_rng, outcome_rng = (
        np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(3)
    )
    return _PopulationDraws(
        true_good=status_rng.random(n) < params.gamma,
        label_uniform=label_rng.random(n),
        outcome_uniform=outcome_rng.random(n),
    )


def _cell_index(row: np.ndarray, column: np.ndarray) -> np.ndarray:
    """``2 * row + column`` per draw, one byte each: the flat index of a
    draw's cell in a 2x2 table."""
    cell = row.astype(np.uint8)
    cell <<= 1
    cell |= column
    return cell


def _evaluate(
    params: ModelParams,
    policy: Policy,
    draws: _PopulationDraws,
    baseline_survival: float | None,
) -> PolicyReport:
    n = draws.true_good.size
    if policy.kind is AssignmentRule.MATCHED:
        high = np.where(
            draws.true_good,
            draws.label_uniform >= policy.w0,
            draws.label_uniform < policy.w1,
        )
    else:
        high = np.full(n, policy.kind is AssignmentRule.PURE_HIGH)

    # Flat 2x2 tables indexed by one-byte cell numbers: the only n-float
    # arrays are the survival thresholds, freed at once, and the payments.
    pi_cells = np.array([params.pi00, params.pi01, params.pi10, params.pi11])
    survived = draws.outcome_uniform < pi_cells[_cell_index(draws.true_good, high)]
    payments = policy.contract.as_array()[_cell_index(survived, high)]

    survival_rate = float(survived.mean())
    mean_payment = float(payments.mean())
    # payments.std(ddof=1), step for step, in place of its n-float temporary
    payments -= mean_payment
    payments *= payments
    sd_payment = np.sqrt(payments.sum() / (n - 1))
    paying = abs(mean_payment) > PAYING_TOL
    return PolicyReport(
        policy=policy.kind.value,
        n=n,
        survival_rate=survival_rate,
        mean_payment=mean_payment,
        ci95_survival=1.96 * float(np.sqrt(survival_rate * (1 - survival_rate) / n)),
        ci95_payment=1.96 * float(sd_payment / np.sqrt(n)),
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
) -> PolicyReport:
    """Simulate one policy on ``n`` model draws; deterministic in ``seed``."""
    return _evaluate(params, policy, _draw_population(params, n, seed), None)


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
        row = report_to_dict(report)
        writer.writerow([_fmt(row[key]) for key in CSV_HEADER])


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
