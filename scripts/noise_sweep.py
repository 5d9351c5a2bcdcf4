#!/usr/bin/env python3
"""Sweep responder-label noise and report how the optimal contract degrades.

For each (w0, w1) on a grid, prints the optimal-value formula m_w, the
simulated payment and survival under the matched policy, and whether the
noise makes the payer worse off than with perfect labels.
"""

import argparse

import numpy as np

from carecontracts.domain import AssignmentRule, expected_survival, load_params
from carecontracts.simulation import Policy, simulate_policy
from carecontracts.solvers import misclassification_raises_cost, solve_non_negative_misclassified
from carecontracts.synthetic import CASE_STUDY


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--params", default=None, help="parameter JSON (default: bundled case study)")
    parser.add_argument("--steps", type=int, default=5, help="grid points per noise axis")
    parser.add_argument("--max-noise", type=float, default=0.4)
    parser.add_argument("--n", type=int, default=200_000)
    parser.add_argument("--seed", type=int, default=13)
    args = parser.parse_args()

    base = load_params(args.params) if args.params else CASE_STUDY

    clean_survival = expected_survival(base.with_misclassification(0.0, 0.0), "matched")
    print(f"noise-free matched survival {clean_survival:.4f}, expected payment {base.gamma:.4f}")
    print(f"{'w0':>5} {'w1':>5} {'m_w':>8} {'sim pay':>8} {'sim surv':>9} {'costlier':>8}")
    grid = np.linspace(0.0, args.max_noise, args.steps)
    for w0 in grid:
        for w1 in grid:
            params = base.with_misclassification(float(w0), float(w1))
            solution = solve_non_negative_misclassified(params)
            report = simulate_policy(
                params,
                Policy(AssignmentRule.MATCHED, solution.contract, w0=params.w0, w1=params.w1),
                n=args.n,
                seed=args.seed,
            )
            costlier = "yes" if misclassification_raises_cost(params) else "no"
            print(
                f"{w0:5.2f} {w1:5.2f} {solution.optimal_value:8.4f}"
                f" {report.mean_payment:8.4f} {report.survival_rate:9.4f} {costlier:>8}"
            )


if __name__ == "__main__":
    main()
