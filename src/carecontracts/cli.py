"""Command-line interface: solve / estimate / simulate / verify / reproduce.

All randomness flows from a single ``--seed`` (default 13, never
time-based), machine-readable output carries full precision, and dollar
columns are the only rounded rendering. :mod:`carecontracts.errors`
states the exit codes.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import re
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import estimation, simulation, synthetic
from .domain import (
    DEFAULT_F_DOLLARS,
    Contract,
    ModelParams,
    dollars,
    dump_params,
    load_params,
    params_to_dict,
    read_json,
    write_json,
)
from .errors import CareContractsError
from .solvers import (
    CERTIFIED_CLAIMS,
    UtilityTransform,
    certify,
    misclassification_raises_cost,
    solve_free_payment,
    solve_non_negative,
    solve_non_negative_misclassified,
    solve_risk_averse,
    verify_contract,
)

DEFAULT_SEED = 13


# --- solve ----------------------------------------------------------------------


@np.errstate(all="ignore")  # an overflow is named by its flag before the write
def _cmd_solve(args: argparse.Namespace) -> int:
    if not math.isfinite(args.p11):
        raise ValueError(f"--p11 must be finite, got {args.p11}")
    if not 0 < args.f_dollars < math.inf:
        raise ValueError(f"--f-dollars must be finite and positive, got {args.f_dollars}")
    params = load_params(args.params)
    f_dollars = args.f_dollars
    payload: dict = {
        "model": args.model,
        "f_dollars": f_dollars,
        "params": params_to_dict(params),
    }

    if args.model == "free":
        solution = solve_free_payment(params, args.p11)
        contract = solution.contract
        payload["free_p11"] = contract.p11
        payload["sensitivity"] = {
            "dp00_dp11": solution.sensitivity[0],
            "dp01_dp11": solution.sensitivity[1],
            "dp10_dp11": solution.sensitivity[2],
        }
        payload["optimal_value"] = 0.0
    elif args.model == "nonneg":
        solution = solve_non_negative(params, args.t)
        contract = solution.contract
        payload["t"] = solution.t
        payload["slacks"] = {"v1": solution.slack_v1, "v2": solution.slack_v2}
        payload["incentive_gap_dollars"] = dollars(solution.slack_v2, f_dollars)
        payload["optimal_value"] = solution.optimal_value
    elif args.model == "nonneg-w":
        solution = solve_non_negative_misclassified(params)
        contract = solution.contract
        payload["slacks"] = {"v1": solution.slack_v1, "v2": solution.slack_v2}
        payload["incentive_gap_dollars"] = dollars(solution.slack_v2, f_dollars)
        payload["optimal_value"] = solution.optimal_value
        payload["noise_raises_cost"] = misclassification_raises_cost(params)
    else:
        solution = solve_risk_averse(params, args.g)
        contract = solution.contract
        payload["transform"] = args.g.name
        payload["w_contract"] = list(solution.w_contract)
        payload["multipliers"] = {
            "lambda1": solution.lambda1,
            "lambda2": solution.lambda2,
            "mu00": solution.mu[0],
            "mu01": solution.mu[1],
            "mu10": solution.mu[2],
            "mu11": solution.mu[3],
        }
        payload["kkt"] = asdict(solution.kkt)
        payload["optimal_value"] = solution.optimal_value

    certificate = verify_contract(params, contract, args.model, g=args.g)
    payload["contract"] = asdict(contract)
    payload["contract_dollars"] = {
        key: dollars(value, f_dollars) for key, value in payload["contract"].items()
    }
    payload["expected_payment"] = certificate.expected_payment
    payload["expected_payment_dollars"] = dollars(payload["expected_payment"], f_dollars)
    payload["certificate"] = asdict(certificate)
    # Of the flags, only a large --p11 can take a value in F units out of range.
    if not _finite({key: value for key, value in payload.items() if not key.endswith("_dollars")}):
        raise ValueError(f"--p11 must keep the contract finite, got {args.p11}")
    if not _finite(payload):
        raise ValueError(f"--f-dollars must keep every dollar amount finite, got {args.f_dollars}")
    write_json(payload, args.out)
    return 0


def _finite(value) -> bool:
    """Whether a JSON-bound value holds no NaN and no infinity."""
    if isinstance(value, dict):
        return all(map(_finite, value.values()))
    if isinstance(value, (list, tuple)):
        return all(map(_finite, value))
    return not isinstance(value, float) or math.isfinite(value)


# --- estimate -------------------------------------------------------------------


def _cmd_estimate(args: argparse.Namespace) -> int:
    config = estimation.PipelineConfig(
        cutoff=args.cutoff,
        caliper=args.caliper,
        criterion=args.criterion,
        orientation=args.orientation,
    )
    out = Path(args.out)
    if not out.parent.is_dir():
        raise ValueError(f"--out directory {out.parent} does not exist")
    result = estimation.run_pipeline(estimation.load_cohort(args.cohort), config)

    dump_params(result.params, out)
    diag_path = out.with_name(out.stem + ".diagnostics.json")
    write_json(asdict(result.diagnostics), diag_path)
    scores_path = out.with_name(out.stem + ".scores.csv")
    hist = result.diagnostics.histogram
    with open(scores_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("bin_left,bin_right,count\n")
        for left, right, count in zip(hist["bin_edges"], hist["bin_edges"][1:], hist["counts"]):
            fh.write(f"{left:.17g},{right:.17g},{count}\n")

    print(f"estimated parameters -> {out}")
    print(f"diagnostics -> {diag_path}")
    print(f"score histogram -> {scores_path}")
    for warning in result.diagnostics.assumption_warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return 0


# --- simulate -------------------------------------------------------------------


def _load_contract(spec: str, params: ModelParams) -> Contract:
    if spec == "from-solver":
        return solve_non_negative(params, 0.0).contract
    data = read_json(spec)
    try:
        payments = {key: float(data[key]) for key in ("p00", "p01", "p10", "p11")}
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed contract file {spec}: missing or bad field {exc}") from exc
    for key, value in payments.items():
        if not np.isfinite(value):
            raise ValueError(f"malformed contract file {spec}: {key}={value!r} is not finite")
    return Contract(**payments)


def _cmd_simulate(args: argparse.Namespace) -> int:
    params = load_params(args.params)
    contract = _load_contract(args.contract, params)
    with np.errstate(all="ignore"):  # an overflow is named by its file before the write
        comparison = simulation.compare_policies(params, contract, n=args.n, seed=args.seed)
    payload = simulation.comparison_to_dict(comparison)
    if not _finite(payload):
        raise ValueError(f"--contract {args.contract}: a simulated figure is not finite")
    if args.format == "csv":
        simulation.export_report_csv(list(comparison.reports), args.out or sys.stdout)
    else:
        write_json(payload, args.out)
    return 0


# --- verify ---------------------------------------------------------------------


def _cmd_verify(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    tallies = dict.fromkeys(CERTIFIED_CLAIMS, 0)
    for trial in range(args.trials):
        params = synthetic.sample_model_params(rng, with_noise=True)
        transform = UtilityTransform.parse(("power:0.5", "log")[trial % 2])  # checked per trial
        for claim, agreed in certify(params, transform).items():
            tallies[claim] += agreed
    for claim, count in tallies.items():
        print(f"{claim}: {count}/{args.trials}")
    print(f"total agreements: {sum(tallies.values())}/{args.trials * len(tallies)}")
    return 0 if all(count == args.trials for count in tallies.values()) else 1


# --- reproduce -------------------------------------------------------------------


def _cmd_reproduce(args: argparse.Namespace) -> int:
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    spec = synthetic.SyntheticCohortSpec(n=args.n)
    if args.fixture:
        fixture_path = Path(args.fixture)
        cohort = estimation.load_cohort(args.fixture)
        saving = contextlib.nullcontext()
    else:
        fixture_path = outdir / "cohort.csv"
        cohort, _ = synthetic.generate_cohort(spec, args.fixture_seed)
        saving = estimation.saving_cohort(cohort, fixture_path)
    with saving:  # forked children format the CSV while the case study runs
        result, comparison, report = synthetic.reproduce_case_study(
            cohort, spec, args.sim_n, args.seed
        )
    dump_params(result.params, outdir / "params.json")
    simulation.export_report_csv(list(comparison.reports), outdir / "policy_comparison.csv")
    report["fixture"] = str(fixture_path)
    report["fixture_seed"] = None if args.fixture else args.fixture_seed
    write_json(report, outdir / "report.json")

    width = max(len(v["name"]) for v in report["verdicts"])
    for v in report["verdicts"]:
        status = "PASS" if v["passed"] else "FAIL"
        print(
            f"{status}  {v['name']:<{width}}  obtained={v['obtained']:.6g}"
            f"  expected={v['expected']:.6g}  tol={v['tolerance']:g}"
        )
    print(f"report bundle -> {outdir / 'report.json'}")
    for warning in result.diagnostics.assumption_warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return 0 if report["all_passed"] else 1


# --- parser ----------------------------------------------------------------------


def _caliper(text: str) -> float | None:
    try:
        return None if text == "none" else float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number or 'none', got {text!r}") from None


def _at_least(low: int):
    """An argparse type for an integer flag of at least ``low``."""

    def integer(text: str) -> int:
        if int(text) < low:  # a ValueError reads "invalid integer value"
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        return int(text)

    return integer


def _draws(text: str) -> int:
    """An argparse type for a draw count: at least 2, with its 8-byte payments
    within physical memory, so that a count that cannot run fails at once."""
    n = _at_least(2)(text)
    if hasattr(os, "sysconf") and 8 * n > os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"):
        raise argparse.ArgumentTypeError(f"must fit in physical memory at 8 bytes a draw, got {n}")
    return n


def _transform(text: str) -> UtilityTransform:
    try:
        return UtilityTransform.parse(text)
    except ValueError as exc:  # a transform that fails its probes, or a bad power:<a>
        raise argparse.ArgumentTypeError(str(exc)) from None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: parse_args leaves it unchanged
    and returns a fresh Namespace, so every main() call reuses it (DECISIONS.md)."""
    parser = argparse.ArgumentParser(
        prog="carecontracts",
        description="Optimal outcome-contingent payment contracts for end-of-life care",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    solve = subparsers.add_parser("solve", help="compute an optimal contract")
    solve.add_argument("--model", required=True, choices=["free", "nonneg", "nonneg-w", "risk-averse"])
    solve.add_argument("--params", required=True, help="model parameter JSON file")
    solve.add_argument("--t", type=float, default=0.0, help="non-negative family parameter in [0,1]")
    solve.add_argument("--p11", type=float, default=1.0, help="free-payment family parameter")
    solve.add_argument("--g", type=_transform, default="power:0.5", help="transform g: power:<a> or log")
    solve.add_argument("--f-dollars", type=float, default=DEFAULT_F_DOLLARS)
    solve.add_argument("--out", default=None, help="output JSON path (default stdout)")
    solve.set_defaults(handler=_cmd_solve)

    estimate = subparsers.add_parser("estimate", help="estimate parameters from a cohort CSV")
    estimate.add_argument("--cohort", required=True)
    estimate.add_argument("--cutoff", type=float, default=0.0)
    estimate.add_argument("--caliper", type=_caliper, default="none", help="matching caliper or 'none'")
    estimate.add_argument(
        "--criterion",
        default="death-before-discharge",
        help="death-before-discharge or death-within:<days>",
    )
    estimate.add_argument("--orientation", choices=estimation.ORIENTATIONS, default="survival")
    estimate.add_argument("--out", required=True, help="output parameter JSON path")
    estimate.set_defaults(handler=_cmd_estimate)

    simulate = subparsers.add_parser("simulate", help="compare payment policies by simulation")
    simulate.add_argument("--params", required=True)
    simulate.add_argument("--contract", default="from-solver", help="contract JSON or 'from-solver'")
    simulate.add_argument("--n", type=_draws, default=simulation.DEFAULT_N)
    simulate.add_argument("--seed", type=_at_least(0), default=DEFAULT_SEED)
    simulate.add_argument("--out", default=None)
    simulate.add_argument("--format", choices=["csv", "json"], default="json")
    simulate.set_defaults(handler=_cmd_simulate)

    verify = subparsers.add_parser("verify", help="closed forms vs brute-force oracle")
    verify.add_argument("--trials", type=_at_least(1), default=100)
    verify.add_argument("--seed", type=_at_least(0), default=DEFAULT_SEED)
    verify.set_defaults(handler=_cmd_verify)

    reproduce = subparsers.add_parser(
        "reproduce", help="estimate, solve, and simulate the bundled case study"
    )
    reproduce.add_argument("--out", default="reproduction", help="output directory")
    reproduce.add_argument("--fixture", default=None, help="existing cohort CSV to reuse")
    reproduce.add_argument("--n", type=_at_least(1), default=100_000, help="generated cohort size")
    reproduce.add_argument("--fixture-seed", type=_at_least(0), default=DEFAULT_SEED)
    reproduce.add_argument("--seed", type=_at_least(0), default=DEFAULT_SEED)
    reproduce.add_argument("--sim-n", type=_draws, default=1_000_000)
    reproduce.set_defaults(handler=_cmd_reproduce)

    # Python 3.11 reads only -<digits>[.<digits>] as a negative number. No option here
    # looks like one, so "-1e-3" and the like are values too, as in newer releases.
    for sub in subparsers.choices.values():
        sub._negative_number_matcher = re.compile(r"-\.?\d")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (CareContractsError, OSError, ValueError, MemoryError) as exc:  # see errors.py
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 2)


if __name__ == "__main__":
    sys.exit(main())
