"""The benchmark workloads and the checks on their outputs.

Each workload drives the program as a user does: ``cli.main`` in process,
and for ``certify`` also the label-noise sweep loop of
``scripts/noise_sweep.py`` written against the library. A workload is
built from its seed alone; the program receives only the generated
inputs. ``timed`` is the measured pass; ``prepare`` and ``check`` run
outside the measured time.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import re
import shutil
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from carecontracts import cli, domain, estimation, simulation, solvers, synthetic

DEFAULT_SEED = 13
REFERENCE = Path(__file__).with_name("reference.json")

SIZES = {
    "full": {"reproduce_n": 200_000, "estimate_n": 400_000, "trials": 300, "steps": 5, "draws": 1_000_000},
    # self-test sizes: the smallest cohorts on which every reproduce verdict still passes
    "tiny": {"reproduce_n": 40_000, "estimate_n": 40_000, "trials": 3, "steps": 2, "draws": 100_000},
}

# Keys of the JSON outputs that hold timings; they may differ between
# same-seed runs and are left out of the digests.
TIMING_KEY = re.compile(r"time|timing|elapsed|duration|seconds|_s$|_ms$")


@dataclass
class PassOutcome:
    """What one pass did: CLI call latencies, operation counts, problems."""

    calls_ms: list[float]
    attempted: int
    problems: list[str] = field(default_factory=list)
    failed: int = 0
    digest: dict[str, str] = field(default_factory=dict)
    extra: dict[str, float] = field(default_factory=dict)

    def fail(self, problem: str) -> None:
        self.problems.append(problem)
        self.failed = min(self.attempted, self.failed + 1)


def call_cli(argv: list[str]) -> tuple[int | None, str, float]:
    """Run ``cli.main(argv)``; return its exit code (None on an exception),
    its standard output and its wall time in seconds."""
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    except Exception:  # counted as a failed operation by the check
        traceback.print_exc()
        code = None
    return code, out.getvalue(), time.perf_counter() - start


def file_digest(path: Path) -> str:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return "missing"


def _without_timings(value):
    if isinstance(value, dict):
        return {k: _without_timings(v) for k, v in value.items() if not TIMING_KEY.search(k)}
    if isinstance(value, list):
        return [_without_timings(v) for v in value]
    return value


def json_digest(path: Path) -> str:
    """Digest of a JSON output with its timing fields removed."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return "missing"
    text = json.dumps(_without_timings(data), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def pairs_digest(pairs_seen: list[tuple]) -> str:
    text = "\n".join(f"{t},{c}" for pairs in pairs_seen for t, c in pairs)
    return hashlib.sha256(text.encode()).hexdigest()


def platform_key() -> str:
    """Machine, numpy version and the SIMD targets numpy dispatches to:
    bit-identical outputs are only promised within one such platform."""
    try:
        from numpy._core import _multiarray_umath as umath

        targets = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    except (ImportError, AttributeError):
        targets = ["unknown"]
    return f"{platform.machine()} numpy-{np.__version__} {'+'.join(targets)}"


def load_reference(workload: str, seed: int, size: str) -> tuple[dict, str]:
    """Recorded digests for this run, and a note on whether they apply."""
    recorded = json.loads(REFERENCE.read_text(encoding="utf-8"))
    digests = recorded["digests"].get(workload)
    if size != "full" or seed != recorded["seed"] or not digests:
        return {}, f"none recorded for {workload} at seed {seed}, size {size}"
    if recorded["platform"] != platform_key():
        return {}, f"not compared: recorded on another platform ({recorded['platform']})"
    return digests, "compared with the recorded reference"


class DigestBook:
    """Checks each pass's digests against the first pass and the reference."""

    def __init__(self, reference: dict) -> None:
        self.first: dict[str, str] = {}
        self.reference = reference

    def problems(self, digest: dict[str, str]) -> list[str]:
        found = []
        for key, value in digest.items():
            if value != self.first.setdefault(key, value):
                found.append(f"{key} differs from the first pass")
            if key in self.reference and value != self.reference[key]:
                found.append(f"{key} differs from the recorded reference")
        return found


def _fresh(directory: Path) -> None:
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)


class Workload:
    """Steps a workload may leave out; each runs outside the timed pass."""

    def setup(self) -> None:
        """Build the fixture; timed as part of ``setup_s``."""

    def open(self) -> None:
        """Pick up the fixture in the measuring process."""

    def prepare(self) -> None:
        """Clear the previous pass's outputs."""


class Reproduce(Workload):
    """``carecontracts reproduce``: generate, save, estimate, solve, simulate."""

    def __init__(self, seed: int, work: Path, sizes: dict) -> None:
        self.seed = seed
        self.rows = sizes["reproduce_n"]
        self.out = work / "out"
        self.seeds = {"workload": seed, "fixture_seed": seed, "simulation_seed": seed}

    def prepare(self) -> None:
        _fresh(self.out)

    def timed(self):
        seed = str(self.seed)
        argv = ["reproduce", "--n", str(self.rows), "--fixture-seed", seed, "--seed", seed]
        return call_cli(argv + ["--out", str(self.out)])

    def check(self, raw) -> PassOutcome:
        code, _, seconds = raw
        outcome = PassOutcome([seconds * 1e3], attempted=1, extra={"rows": self.rows})
        if code != 0:
            outcome.fail(f"reproduce exited with {code}")
        try:
            report = json.loads((self.out / "report.json").read_text(encoding="utf-8"))
            failing = [v["name"] for v in report["verdicts"] if v["passed"] is not True]
            if failing or report["all_passed"] is not True:
                outcome.fail(f"report.json verdicts failed: {failing}")
        except (OSError, ValueError, KeyError, TypeError) as exc:
            outcome.fail(f"report.json unreadable: {exc!r}")
        for name in ("cohort.csv", "params.json", "policy_comparison.csv"):
            outcome.digest[name] = file_digest(self.out / name)
        outcome.digest["report.json"] = json_digest(self.out / "report.json")
        return outcome


class Estimate(Workload):
    """``carecontracts estimate`` on a planted cohort CSV written at set-up."""

    TOLERANCE = 0.02  # the tolerance reproduce's own verdicts use

    def __init__(self, seed: int, work: Path, sizes: dict) -> None:
        self.seed = seed
        self.spec = synthetic.SyntheticCohortSpec(n=sizes["estimate_n"], treated_fraction=0.10)
        self.cohort = work / "cohort.csv"
        self.out = work / "out"
        self.cohort_digest = ""
        self.seeds = {"workload": seed, "fixture_seed": seed}

    def setup(self) -> None:
        self.cohort.parent.mkdir(parents=True, exist_ok=True)
        self.cohort.unlink(missing_ok=True)
        records, _ = synthetic.generate_cohort(self.spec, self.seed)
        estimation.save_cohort(records, self.cohort)

    def open(self) -> None:
        self.cohort_digest = file_digest(self.cohort)

    def prepare(self) -> None:
        _fresh(self.out)

    def timed(self):
        return call_cli(["estimate", "--cohort", str(self.cohort), "--out", str(self.out / "params.json")])

    def check(self, raw) -> PassOutcome:
        code, _, seconds = raw
        outcome = PassOutcome([seconds * 1e3], attempted=1, extra={"rows": self.spec.n})
        if code != 0:
            outcome.fail(f"estimate exited with {code}")
        planted = self.spec.planted_params()
        try:
            params = json.loads((self.out / "params.json").read_text(encoding="utf-8"))
            diagnostics = json.loads(
                (self.out / "params.diagnostics.json").read_text(encoding="utf-8")
            )
            estimated = {f"pi{cell}": params["pi"][cell] for cell in ("00", "01", "10", "11")}
            estimated["gamma"] = params["gamma"]
            off = {
                k: v for k, v in estimated.items()
                if not abs(v - getattr(planted, k)) <= self.TOLERANCE
            }
            if off:
                outcome.fail(f"estimates further than {self.TOLERANCE} from the planted truth: {off}")
            if diagnostics["n_input"] != self.spec.n:
                outcome.fail(f"diagnostics n_input {diagnostics['n_input']} != {self.spec.n}")
        except (OSError, ValueError, KeyError, TypeError) as exc:
            outcome.fail(f"estimate outputs unreadable: {exc!r}")
        outcome.digest["cohort.csv"] = self.cohort_digest
        outcome.digest["params.json"] = file_digest(self.out / "params.json")
        outcome.digest["params.diagnostics.json"] = json_digest(self.out / "params.diagnostics.json")
        outcome.digest["params.scores.csv"] = file_digest(self.out / "params.scores.csv")
        return outcome


def noisy_matched_figures(params: domain.ModelParams, contract: domain.Contract):
    """Exact survival and expected payment of the matched policy when a
    true good responder is labelled bad with probability w0 and a bad one
    good with probability w1; derived here, apart from the solvers."""
    g, w0, w1 = params.gamma, params.w0, params.w1
    # P(intensive care | responder status), then the cell mix
    intensive = {0: w1, 1: 1.0 - w0}
    share = {0: 1.0 - g, 1: g}
    survival = payment = 0.0
    for s in (0, 1):
        for e, weight in ((0, 1.0 - intensive[s]), (1, intensive[s])):
            pi = params.pi(s, e)
            survival += share[s] * weight * pi
            payment += share[s] * weight * (
                (1 - pi) * contract.payment(0, e) + pi * contract.payment(1, e)
            )
    return survival, payment


class Certify(Workload):
    """Oracle trials through ``carecontracts verify``, then the noise sweep."""

    # the case-study point estimates scripts/noise_sweep.py sweeps around
    BASE = domain.ModelParams(pi00=0.51, pi01=0.75, pi10=0.66, pi11=0.85, gamma=0.44)
    MAX_NOISE = 0.4

    def __init__(self, seed: int, work: Path, sizes: dict) -> None:
        self.seed = seed
        self.trial_seeds = [int(s) for s in np.random.SeedSequence(seed).generate_state(sizes["trials"])]
        self.grid = [float(w) for w in np.linspace(0.0, self.MAX_NOISE, sizes["steps"])]
        self.draws = sizes["draws"]
        self.seeds = {
            "workload": seed,
            "trial_seeds": f"numpy SeedSequence({seed}).generate_state({len(self.trial_seeds)})",
            "first_trial_seeds": self.trial_seeds[:3],
            "sweep_seed": seed,
        }

    def timed(self):
        trials = [call_cli(["verify", "--trials", "1", "--seed", str(s)]) for s in self.trial_seeds]
        points = []
        for w0 in self.grid:
            for w1 in self.grid:
                start = time.perf_counter()
                params = self.BASE.with_misclassification(w0, w1)
                try:
                    solution = solvers.solve_non_negative_misclassified(params)
                    policy = simulation.Policy(
                        domain.AssignmentRule.MATCHED, solution.contract, w0=params.w0, w1=params.w1
                    )
                    report = simulation.simulate_policy(params, policy, n=self.draws, seed=self.seed)
                    costlier = solvers.misclassification_raises_cost(params)
                    result = (solution, report, costlier)
                except Exception:  # counted as a failed operation by the check
                    traceback.print_exc()
                    result = None
                points.append((params, result, time.perf_counter() - start))
        return trials, points

    def check(self, raw) -> PassOutcome:
        trials, points = raw
        outcome = PassOutcome(
            [seconds * 1e3 for _, _, seconds in trials],
            attempted=len(trials) + len(points),
            extra={
                "sweep_s": sum(seconds for _, _, seconds in points),
                "draws": self.draws * len(points),
            },
        )
        text = []
        for seed, (code, out, _) in zip(self.trial_seeds, trials):
            if code != 0 or "total agreements: 4/4" not in out:
                outcome.fail(f"verify --seed {seed} exited with {code}: {out.strip()[-200:]}")
            text.append(out)
        for params, result, _ in points:
            label = f"sweep point w0={params.w0:g} w1={params.w1:g}"
            if result is None:
                outcome.fail(f"{label} raised")
                continue
            solution, report, costlier = result
            survival, payment = noisy_matched_figures(params, solution.contract)
            if not abs(solution.optimal_value - payment) <= 1e-9:
                outcome.fail(f"{label}: optimal value {solution.optimal_value} != exact {payment}")
            if not abs(report.mean_payment - payment) <= 3 * report.ci95_payment + 1e-12:
                outcome.fail(f"{label}: simulated payment {report.mean_payment} far from {payment}")
            if not abs(report.survival_rate - survival) <= 3 * report.ci95_survival + 1e-12:
                outcome.fail(f"{label}: simulated survival {report.survival_rate} far from {survival}")
            text.append(
                f"{params.w0!r} {params.w1!r} {solution.optimal_value!r}"
                f" {report.mean_payment!r} {report.survival_rate!r} {costlier}"
            )
        outcome.digest["certify"] = hashlib.sha256("\n".join(text).encode()).hexdigest()
        return outcome


WORKLOADS = {"reproduce": Reproduce, "estimate": Estimate, "certify": Certify}
