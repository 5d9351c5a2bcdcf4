"""Command-line interface: solve / estimate / simulate / verify / reproduce.

All randomness flows from a single ``--seed`` (default 13, never
time-based), machine-readable output carries full precision, and dollar
columns are the only rounded rendering. Exit codes: 0 success, 1 model
error (parameter/assumption violations), 2 I/O or parse error.
"""

from __future__ import annotations

import argparse
import json
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
    expected_payment,
    load_params,
    params_to_dict,
)
from .errors import CareContractsError, CohortFormatError
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


def _emit_json(payload: dict, out: str | Path | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


# --- solve ----------------------------------------------------------------------


def _cmd_solve(args: argparse.Namespace) -> int:
    params = load_params(args.params)
    f_dollars = args.f_dollars
    payload: dict = {
        "model": args.model,
        "f_dollars": f_dollars,
        "params": params_to_dict(params),
    }
    transform = None

    if args.model == "free":
        solution = solve_free_payment(params, args.p11)
        contract = solution.contract
        payload["free_p11"] = solution.free_p11
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
        transform = UtilityTransform.parse(args.g)
        solution = solve_risk_averse(params, transform)
        contract = solution.contract
        payload["transform"] = transform.name
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

    certificate = verify_contract(params, contract, args.model, g=transform)
    payload["contract"] = asdict(contract)
    payload["contract_dollars"] = {
        key: dollars(value, f_dollars) for key, value in payload["contract"].items()
    }
    payload["expected_payment"] = expected_payment(params, contract, "matched")
    payload["expected_payment_dollars"] = dollars(payload["expected_payment"], f_dollars)
    payload["certificate"] = asdict(certificate)
    _emit_json(payload, args.out)
    return 0


# --- estimate -------------------------------------------------------------------


def _cmd_estimate(args: argparse.Namespace) -> int:
    cohort = estimation.load_cohort(args.cohort)
    caliper = None if args.caliper in (None, "none") else float(args.caliper)
    config = estimation.PipelineConfig(
        cutoff=args.cutoff,
        caliper=caliper,
        criterion=args.criterion,
        orientation=args.orientation,
    )
    result = estimation.run_pipeline(cohort, config)

    out = Path(args.out)
    dump_params(result.params, out)
    diag_path = out.with_name(out.stem + ".diagnostics.json")
    _emit_json(asdict(result.diagnostics), diag_path)
    scores_path = out.with_name(out.stem + ".scores.csv")
    hist = result.diagnostics.histogram
    with open(scores_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("bin_left,bin_right,count\n")
        edges, counts = hist["bin_edges"], hist["counts"]
        for i, count in enumerate(counts):
            fh.write(f"{edges[i]:.17g},{edges[i + 1]:.17g},{count}\n")

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
    with open(spec, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    try:
        return Contract(*(float(data[key]) for key in ("p00", "p01", "p10", "p11")))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed contract file {spec}: missing or bad field {exc}") from exc


def _cmd_simulate(args: argparse.Namespace) -> int:
    params = load_params(args.params)
    contract = _load_contract(args.contract, params)
    comparison = simulation.compare_policies(
        params, contract, n=args.n, seed=args.seed, w0=args.w0, w1=args.w1
    )
    if args.format == "csv":
        simulation.export_report_csv(list(comparison.reports), args.out or sys.stdout)
    else:
        _emit_json(simulation.comparison_to_dict(comparison), args.out)
    return 0


# --- verify ---------------------------------------------------------------------


def _cmd_verify(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    transforms = (UtilityTransform.power(0.5), UtilityTransform.log())
    tallies = dict.fromkeys(CERTIFIED_CLAIMS, 0)
    for trial in range(args.trials):
        params = synthetic.sample_model_params(rng, require_free_solvable=True, with_noise=True)
        for claim, agreed in certify(params, transforms[trial % len(transforms)]).items():
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
    else:
        fixture_path = outdir / "cohort.csv"
        cohort, _ = synthetic.generate_cohort(spec, args.fixture_seed)
        estimation.save_cohort(cohort, fixture_path)

    estimated, comparison, report = synthetic.reproduce_case_study(
        cohort, spec, args.sim_n, args.seed
    )
    dump_params(estimated, outdir / "params.json")
    simulation.export_report_csv(list(comparison.reports), outdir / "policy_comparison.csv")
    report["fixture"] = str(fixture_path)
    report["fixture_seed"] = None if args.fixture else args.fixture_seed
    _emit_json(report, outdir / "report.json")

    width = max(len(v["name"]) for v in report["verdicts"])
    for v in report["verdicts"]:
        status = "PASS" if v["passed"] else "FAIL"
        print(
            f"{status}  {v['name']:<{width}}  obtained={v['obtained']:.6g}"
            f"  expected={v['expected']:.6g}  tol={v['tolerance']:g}"
        )
    print(f"report bundle -> {outdir / 'report.json'}")
    return 0 if report["all_passed"] else 1


# --- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
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
    solve.add_argument("--g", default="power:0.5", help="utility transform: power:<a> or log")
    solve.add_argument("--f-dollars", type=float, default=DEFAULT_F_DOLLARS)
    solve.add_argument("--out", default=None, help="output JSON path (default stdout)")
    solve.set_defaults(handler=_cmd_solve)

    estimate = subparsers.add_parser("estimate", help="estimate parameters from a cohort CSV")
    estimate.add_argument("--cohort", required=True)
    estimate.add_argument("--cutoff", type=float, default=0.0)
    estimate.add_argument("--caliper", default="none", help="matching caliper, or 'none'")
    estimate.add_argument(
        "--criterion",
        default="death-before-discharge",
        help="death-before-discharge or death-within:<days>",
    )
    estimate.add_argument("--orientation", choices=["survival", "mortality"], default="survival")
    estimate.add_argument("--out", required=True, help="output parameter JSON path")
    estimate.set_defaults(handler=_cmd_estimate)

    simulate = subparsers.add_parser("simulate", help="compare payment policies by simulation")
    simulate.add_argument("--params", required=True)
    simulate.add_argument("--contract", default="from-solver", help="contract JSON or 'from-solver'")
    simulate.add_argument("--n", type=int, default=simulation.DEFAULT_N)
    simulate.add_argument("--seed", type=int, default=DEFAULT_SEED)
    simulate.add_argument("--w0", type=float, default=0.0)
    simulate.add_argument("--w1", type=float, default=0.0)
    simulate.add_argument("--out", default=None)
    simulate.add_argument("--format", choices=["csv", "json"], default="json")
    simulate.set_defaults(handler=_cmd_simulate)

    verify = subparsers.add_parser("verify", help="closed forms vs brute-force oracle")
    verify.add_argument("--trials", type=int, default=100)
    verify.add_argument("--seed", type=int, default=DEFAULT_SEED)
    verify.set_defaults(handler=_cmd_verify)

    reproduce = subparsers.add_parser(
        "reproduce", help="estimate, solve, and simulate the bundled case study"
    )
    reproduce.add_argument("--out", default="reproduction", help="output directory")
    reproduce.add_argument("--fixture", default=None, help="existing cohort CSV to reuse")
    reproduce.add_argument("--n", type=int, default=100_000, help="generated cohort size")
    reproduce.add_argument("--fixture-seed", type=int, default=DEFAULT_SEED)
    reproduce.add_argument("--seed", type=int, default=DEFAULT_SEED)
    reproduce.add_argument("--sim-n", type=int, default=1_000_000)
    reproduce.set_defaults(handler=_cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (CohortFormatError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CareContractsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # out-of-range flags (e.g. --t, --n)
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
