"""Monte Carlo comparison of payment policies.

A population of patients is drawn from the fitted Bernoulli model and
run through expenditure policies. A policy is a response map
``(e_bad, e_good)``, the expenditure each observed responder class gets
(``domain.AssignmentRule``); ``compare_policies`` runs matched (0, 1),
pure high (1, 1) and pure low (0, 0). All policies share the same
patient draws (common random numbers), so ranking noise reflects the
policies rather than the sampling. The draws are not kept: each policy
draws them again from the same seed, a block at a time, so a run holds
one n-float payment column. Payments always use the contract's
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
# Draws per block of the kernel: 512 KB of float64, inside a 2 MB L2 cache.
_BLOCK = 1 << 16


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


def _simulate(
    params: ModelParams,
    policy: Policy,
    n: int,
    seed: int,
    baseline_survival: float | None,
) -> PolicyReport:
    """One policy on ``n`` model draws, ``_BLOCK`` draws at a time.

    Each call spawns the same three streams from ``seed`` (status, label,
    outcome), so every policy sees the same patients. The streams fill one
    block buffer in turn, and blocks in sequence draw exactly what one
    ``random(n)`` call would. The response map is folded into the two
    lookup tables once per call: cell ``2 * row + o`` holds the survival
    probability or payment at expenditure ``response[o]`` for observed
    class ``o``, one byte per draw. The label stream is drawn only when the
    map is not constant; otherwise ``o`` is 0. The one n-long array is the
    payment column, which also holds each block's scratch until its
    payments are written.
    """
    if n < 2:
        raise ValueError(f"n={n}: need at least two simulated patients for the 95% intervals")
    status_rng, label_rng, outcome_rng = (
        np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(3)
    )
    response = policy.kind.response
    pi_cells = np.array([params.pi(s, response[o]) for s in (0, 1) for o in (0, 1)])
    pay_cells = np.array([policy.contract.payment(q, response[o]) for q in (0, 1) for o in (0, 1)])
    label_cuts = np.array([policy.w1, policy.w0])
    observed = np.uint8(0)
    payments = np.empty(n)
    uniform = np.empty(min(n, _BLOCK))
    survivors = 0
    # Cell numbers are always in range, so mode="clip" skips take's bounds
    # check and the copy of ``out`` it makes under mode="raise".
    for start in range(0, n, _BLOCK):
        u = uniform[: n - start]
        column = payments[start : start + u.size]
        good = (status_rng.random(out=u) < params.gamma).view(np.uint8)
        if response[0] != response[1]:
            # observed good: u >= w0 for a good responder, u < w1 for a bad one
            cuts = np.take(label_cuts, good, out=column, mode="clip")
            observed = (label_rng.random(out=u) < cuts) ^ good
        thresholds = np.take(pi_cells, good << 1 | observed, out=column, mode="clip")
        survived = outcome_rng.random(out=u) < thresholds
        survivors += int(np.count_nonzero(survived))
        np.take(pay_cells, survived.view(np.uint8) << 1 | observed, out=column, mode="clip")

    survival_rate = survivors / n
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
    return _simulate(params, policy, n, seed, None)


def compare_policies(
    params: ModelParams,
    contract: Contract,
    n: int = DEFAULT_N,
    seed: int = 0,
) -> PolicyComparison:
    """Run matched / pure-high / pure-low on one shared population, each under
    the params' label noise (only the matched map reads the labels).

    The marginal baseline is the simulated pure-low survival rate. The
    dominance indicators compare the matched policy against pure high on
    the average and marginal cost-effectiveness ratios.
    """

    def policy(rule: AssignmentRule) -> Policy:
        return Policy(rule, contract, w0=params.w0, w1=params.w1)

    low = _simulate(params, policy(AssignmentRule.PURE_LOW), n, seed, None)
    baseline = low.survival_rate
    matched = _simulate(params, policy(AssignmentRule.MATCHED), n, seed, baseline)
    high = _simulate(params, policy(AssignmentRule.PURE_HIGH), n, seed, baseline)

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
