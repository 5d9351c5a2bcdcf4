"""Parameter estimation from patient-level survival data.

The pipeline mirrors how the contract parameters are produced from an
observational cohort:

1. fit a logistic propensity model of treatment on baseline covariates,
2. 1-1 greedy nearest-neighbor matching on the propensity score,
3. fit separate Cox proportional-hazards models on the treated and
   control arms of the matched cohort,
4. score each patient by the covariate-weighted difference of the two
   coefficient vectors (positive score = good responder),
5. estimate per-cell outcome rates and the good-responder share.

Cohort files are CSV with header ``id,e,t,los,event,z1..zp``: treatment
indicator e, death-in-days t (positive integer), ICU length of stay los
(positive real), censoring indicator event (1 = death observed).
"""

from __future__ import annotations

import bisect
import csv
import logging
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .domain import ModelParams
from .errors import (
    CohortFormatError,
    CollinearCovariatesError,
    ConvergenceError,
    EstimationError,
    InsufficientControlsError,
    MonotoneLikelihoodError,
    SeparationError,
    SingularMatrixError,
    StageError,
)
from .lp import solve_linear_system

log = logging.getLogger(__name__)

SCORE_TOL = 1e-8
MAX_ITER = 100
SEPARATION_BAND = 1e-12
DIVERGENT_BETA = 50.0


class AssumptionWarning(UserWarning):
    """Estimated rates violate a solver precondition; solvers may reject them."""


@dataclass(frozen=True)
class PatientRecord:
    """One ICU stay: covariates, treatment, death-in-days, length of stay."""

    id: str
    covariates: tuple[float, ...]
    treatment: int
    event_time: int
    los: float
    event_observed: int = 1

    def __post_init__(self) -> None:
        if self.treatment not in (0, 1) or self.event_observed not in (0, 1):
            raise EstimationError(f"record {self.id}: e and event must be 0/1")
        if self.event_time <= 0:
            raise EstimationError(f"record {self.id}: event_time must be a positive integer")
        if not (self.los > 0):
            raise EstimationError(f"record {self.id}: los must be positive")


def covariate_matrix(cohort: Sequence[PatientRecord]) -> np.ndarray:
    widths = {len(r.covariates) for r in cohort}
    if len(widths) != 1:
        raise EstimationError(f"covariate vectors have mixed lengths: {sorted(widths)}")
    return np.array([r.covariates for r in cohort], dtype=float)


# --- cohort CSV schema --------------------------------------------------------


def load_cohort(path: str | Path) -> list[PatientRecord]:
    """Parse a cohort CSV; any malformed field is a hard error with its line."""
    records: list[PatientRecord] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CohortFormatError(f"{path}: empty file") from None
        fixed = ["id", "e", "t", "los", "event"]
        if header[: len(fixed)] != fixed or len(header) == len(fixed):
            raise CohortFormatError(
                f"{path}: line 1: header must be id,e,t,los,event,z1..zp, got {','.join(header)}"
            )
        p = len(header) - len(fixed)
        if header[len(fixed) :] != [f"z{i}" for i in range(1, p + 1)]:
            raise CohortFormatError(f"{path}: line 1: covariate columns must be z1..z{p}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise CohortFormatError(
                    f"{path}: line {lineno}: expected {len(header)} fields, got {len(row)}"
                )
            try:
                records.append(
                    PatientRecord(
                        id=row[0],
                        covariates=tuple(float(v) for v in row[5:]),
                        treatment=int(row[1]),
                        event_time=int(row[2]),
                        los=float(row[3]),
                        event_observed=int(row[4]),
                    )
                )
            except (ValueError, EstimationError) as exc:
                raise CohortFormatError(f"{path}: line {lineno}: {exc}") from exc
    return records


def save_cohort(cohort: Sequence[PatientRecord], path: str | Path) -> None:
    p = len(cohort[0].covariates) if cohort else 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "e", "t", "los", "event"] + [f"z{i}" for i in range(1, p + 1)])
        for r in cohort:
            writer.writerow(
                [r.id, r.treatment, r.event_time, f"{r.los:.17g}", r.event_observed]
                + [f"{z:.17g}" for z in r.covariates]
            )


# --- propensity model ---------------------------------------------------------


@dataclass(frozen=True)
class PropensityModel:
    """Logistic fit of treatment on covariates; intercept first."""

    coefficients: np.ndarray
    scores: np.ndarray
    standard_errors: np.ndarray
    iterations: int
    score_norm: float

    def __post_init__(self) -> None:
        for name in ("coefficients", "scores", "standard_errors"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def _sigmoid(eta: np.ndarray) -> np.ndarray:
    out = np.empty_like(eta)
    pos = eta >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
    expo = np.exp(eta[~pos])
    out[~pos] = expo / (1.0 + expo)
    return out


def fit_propensity(cohort: Sequence[PatientRecord]) -> PropensityModel:
    """Maximum-likelihood logistic regression via iteratively reweighted
    least squares; converges when the score vector drops below 1e-8."""
    z = covariate_matrix(cohort)
    y = np.array([r.treatment for r in cohort], dtype=float)
    n, p = z.shape
    for arm, label in ((1, "treated"), (0, "control")):
        count = int(np.sum(y == arm))
        if count < p + 1:
            raise EstimationError(
                f"need at least {p + 1} {label} records for {p} covariates, got {count}"
            )
    x = np.hstack([np.ones((n, 1)), z])

    beta = np.zeros(p + 1)
    for iteration in range(1, MAX_ITER + 1):
        prob = _sigmoid(x @ beta)
        if np.any(prob <= SEPARATION_BAND) or np.any(prob >= 1.0 - SEPARATION_BAND):
            raise SeparationError("fitted propensity reached 0/1: data are (quasi-)separated")
        score = x.T @ (y - prob)
        score_norm = float(np.max(np.abs(score)))
        if score_norm <= SCORE_TOL:
            weights = prob * (1.0 - prob)
            info = (x.T * weights) @ x / n
            try:
                covariance = np.linalg.inv(info) / n
            except np.linalg.LinAlgError as exc:
                raise CollinearCovariatesError(str(exc)) from exc
            return PropensityModel(
                coefficients=beta,
                scores=prob,
                standard_errors=np.sqrt(np.diag(covariance)),
                iterations=iteration - 1,
                score_norm=score_norm,
            )
        weights = prob * (1.0 - prob)
        info = (x.T * weights) @ x / n
        try:
            step = solve_linear_system(info, score / n, pivot_tol=1e-10)
        except SingularMatrixError as exc:
            raise CollinearCovariatesError(f"covariates are collinear: {exc}") from exc
        beta = beta + step
    raise ConvergenceError(f"IRLS did not converge in {MAX_ITER} iterations")


# --- 1-1 propensity matching ----------------------------------------------------


@dataclass(frozen=True)
class MatchResult:
    """Treated/control pairing on propensity score."""

    records: tuple[PatientRecord, ...]
    pairs: tuple[tuple[str, str], ...]
    dropped_treated: tuple[str, ...]
    mean_pair_distance: float


def match_one_to_one(
    cohort: Sequence[PatientRecord],
    scores: np.ndarray,
    *,
    caliper: float | None = None,
) -> MatchResult:
    """Greedy 1-1 nearest-neighbor matching without replacement.

    Treated records are processed in descending score order; each takes
    the closest remaining control (ties go to the lower score). With a
    caliper, treated with no control inside it are dropped and logged;
    without one, fewer controls than treated is an error.
    """
    scores = np.asarray(scores, dtype=float)
    if scores.shape != (len(cohort),):
        raise EstimationError("scores must align one-to-one with the cohort")
    treated = [i for i, r in enumerate(cohort) if r.treatment == 1]
    controls = [i for i, r in enumerate(cohort) if r.treatment == 0]
    if caliper is None and len(controls) < len(treated):
        raise InsufficientControlsError(
            f"{len(controls)} controls for {len(treated)} treated and no caliper"
        )

    treated.sort(key=lambda i: (-scores[i], i))
    pool = sorted((float(scores[i]), i) for i in controls)
    pool_scores = [s for s, _ in pool]

    kept: list[tuple[int, int]] = []
    dropped: list[str] = []
    for ti in treated:
        target = float(scores[ti])
        pos = bisect.bisect_left(pool_scores, target)
        candidates = [j for j in (pos - 1, pos) if 0 <= j < len(pool)]
        if not candidates:
            if caliper is None:
                raise InsufficientControlsError("control pool exhausted")
            dropped.append(cohort[ti].id)
            continue
        best = min(candidates, key=lambda j: (abs(pool_scores[j] - target), pool_scores[j]))
        distance = abs(pool_scores[best] - target)
        if caliper is not None and distance > caliper:
            dropped.append(cohort[ti].id)
            continue
        kept.append((ti, pool[best][1]))
        del pool[best]
        del pool_scores[best]

    if dropped:
        log.info("matching dropped %d treated outside caliper %s", len(dropped), caliper)
    records = [cohort[t] for t, _ in kept] + [cohort[c] for _, c in kept]
    distances = [abs(scores[t] - scores[c]) for t, c in kept]
    return MatchResult(
        records=tuple(records),
        pairs=tuple((cohort[t].id, cohort[c].id) for t, c in kept),
        dropped_treated=tuple(dropped),
        mean_pair_distance=float(np.mean(distances)) if distances else 0.0,
    )


# --- Cox proportional hazards ----------------------------------------------------


@dataclass(frozen=True)
class CoxFit:
    """Partial-likelihood maximum with its convergence trace."""

    beta: np.ndarray
    log_partial_likelihood: float
    iterations: int
    gradient_norm: float
    ll_trace: tuple[float, ...]

    def __post_init__(self) -> None:
        arr = np.array(self.beta, dtype=float)
        arr.flags.writeable = False
        object.__setattr__(self, "beta", arr)


def cox_partial_likelihood(
    beta: np.ndarray,
    times: np.ndarray,
    events: np.ndarray,
    covariates: np.ndarray,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Breslow partial log-likelihood with gradient and Hessian.

    Tied event times share the full risk-set denominator; censored
    records enter risk sets only.
    """
    times = np.asarray(times, dtype=float)
    events = np.asarray(events, dtype=int)
    x = np.asarray(covariates, dtype=float)
    n, p = x.shape
    order = np.lexsort((np.arange(n), times))
    t, d, x = times[order], events[order], x[order]

    eta = x @ np.asarray(beta, dtype=float)
    w = np.exp(eta)
    wx = w[:, None] * x
    wxx = w[:, None, None] * (x[:, :, None] * x[:, None, :])
    s0 = np.cumsum(w[::-1])[::-1]
    s1 = np.cumsum(wx[::-1], axis=0)[::-1]
    s2 = np.cumsum(wxx[::-1], axis=0)[::-1]

    mask = d == 1
    event_times = t[mask]
    taus, counts = np.unique(event_times, return_counts=True)
    if taus.size == 0:
        raise EstimationError("no observed events")
    starts = np.searchsorted(t, taus, side="left")
    bounds = np.searchsorted(event_times, taus, side="left")
    eta_sums = np.add.reduceat(eta[mask], bounds)
    x_sums = np.add.reduceat(x[mask], bounds, axis=0)

    s0_tau = s0[starts]
    mean_tau = s1[starts] / s0_tau[:, None]
    ll = float(np.sum(eta_sums - counts * np.log(s0_tau)))
    grad = np.sum(x_sums - counts[:, None] * mean_tau, axis=0)
    curvature = s2[starts] / s0_tau[:, None, None] - mean_tau[:, :, None] * mean_tau[:, None, :]
    hess = -np.einsum("k,kij->ij", counts.astype(float), curvature)
    return ll, grad, hess


def fit_cox(group: Sequence[PatientRecord]) -> CoxFit:
    """Newton-Raphson maximization of the Breslow partial likelihood with
    step-halving; the accepted likelihood path never decreases."""
    x = covariate_matrix(group)
    times = np.array([r.event_time for r in group], dtype=float)
    events = np.array([r.event_observed for r in group], dtype=int)
    n, p = x.shape
    n_events = int(events.sum())
    if n_events < p + 1:
        raise EstimationError(f"need at least {p + 1} events for {p} covariates, got {n_events}")
    if np.unique(times[events == 1]).size < 2:
        raise EstimationError("need at least 2 distinct event times")
    center = x.mean(axis=0)
    xc = x - center  # location shift leaves the partial likelihood invariant

    beta = np.zeros(p)
    ll, grad, hess = cox_partial_likelihood(beta, times, events, xc)
    trace = [ll]
    for iteration in range(1, MAX_ITER + 1):
        grad_norm = float(np.max(np.abs(grad)))
        if grad_norm <= SCORE_TOL:
            return CoxFit(
                beta=beta,
                log_partial_likelihood=ll,
                iterations=iteration - 1,
                gradient_norm=grad_norm,
                ll_trace=tuple(trace),
            )
        try:
            direction = solve_linear_system(-hess, grad, pivot_tol=1e-10)
        except SingularMatrixError as exc:
            raise CollinearCovariatesError(
                f"Cox information matrix is singular (flat or collinear covariate): {exc}"
            ) from exc
        step = 1.0
        for _ in range(40):
            candidate = beta + step * direction
            cand_ll, cand_grad, cand_hess = cox_partial_likelihood(candidate, times, events, xc)
            if cand_ll >= ll - 1e-12 * (1.0 + abs(ll)):
                break
            step *= 0.5
        else:
            raise ConvergenceError("step-halving failed to improve the partial likelihood")
        beta, ll, grad, hess = candidate, cand_ll, cand_grad, cand_hess
        trace.append(ll)
        if float(np.max(np.abs(beta))) > DIVERGENT_BETA:
            raise MonotoneLikelihoodError(
                "coefficients diverged; the partial likelihood has no finite maximum"
            )
    raise ConvergenceError(f"Cox fit did not converge in {MAX_ITER} iterations")


# --- response scores ---------------------------------------------------------


@dataclass(frozen=True)
class ResponseScoreTable:
    """Per-patient treatment-response scores and responder classes.

    A patient is a good responder when the score strictly exceeds the
    cutoff.
    """

    ids: tuple[str, ...]
    scores: np.ndarray
    classes: np.ndarray
    cutoff: float

    def __post_init__(self) -> None:
        for name in ("scores", "classes"):
            arr = np.array(getattr(self, name))
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def response_scores(
    fit0: CoxFit,
    fit1: CoxFit,
    cohort: Sequence[PatientRecord],
    *,
    cutoff: float = 0.0,
) -> ResponseScoreTable:
    """Score = covariates . (treated beta - control beta)."""
    if fit0.beta.shape != fit1.beta.shape:
        raise EstimationError(
            f"coefficient dimension mismatch: {fit0.beta.shape} vs {fit1.beta.shape}"
        )
    z = covariate_matrix(cohort)
    if z.shape[1] != fit0.beta.shape[0]:
        raise EstimationError(
            f"cohort has {z.shape[1]} covariates, fits have {fit0.beta.shape[0]}"
        )
    scores = z @ (fit1.beta - fit0.beta)
    return ResponseScoreTable(
        ids=tuple(r.id for r in cohort),
        scores=scores,
        classes=(scores > cutoff).astype(int),
        cutoff=float(cutoff),
    )


# --- outcome rates -----------------------------------------------------------

OutcomeCriterion = Callable[[PatientRecord], int]


def death_before_discharge(record: PatientRecord) -> int:
    """1 when an observed death happened before ICU discharge."""
    return int(record.event_observed == 1 and record.event_time < record.los)


def death_within(days: float) -> OutcomeCriterion:
    def criterion(record: PatientRecord) -> int:
        return int(record.event_observed == 1 and record.event_time <= days)

    criterion.__name__ = f"death_within_{days:g}"
    return criterion


def criterion_from_name(name: str) -> OutcomeCriterion:
    if name == "death-before-discharge":
        return death_before_discharge
    if name.startswith("death-within:"):
        return death_within(float(name.split(":", 1)[1]))
    raise EstimationError(f"unknown outcome criterion {name!r}")


@dataclass(frozen=True)
class OutcomeRateTable:
    """Cell rates by (responder class, expenditure) plus the class share.

    ``raw_rate`` is the criterion (death) frequency per cell; ``pi_hat``
    carries the rate in the requested orientation. Empty cells keep rate
    None and are flagged.
    """

    counts: dict[tuple[int, int], int]
    raw_rate: dict[tuple[int, int], float | None]
    pi_hat: dict[tuple[int, int], float | None]
    gamma_hat: float
    orientation: str
    empty_cells: tuple[tuple[int, int], ...]

    def to_model_params(self, *, phi: float = 1.0, disutility_f: float = 1.0) -> ModelParams:
        values = {}
        for cell in ((0, 0), (0, 1), (1, 0), (1, 1)):
            rate = self.pi_hat[cell]
            if rate is None:
                raise EstimationError(f"cell {cell} is empty, outcome rate undefined")
            values[cell] = rate
        return ModelParams(
            pi00=values[(0, 0)],
            pi01=values[(0, 1)],
            pi10=values[(1, 0)],
            pi11=values[(1, 1)],
            gamma=self.gamma_hat,
            phi=phi,
            disutility_f=disutility_f,
        )


def outcome_rates(
    table: ResponseScoreTable,
    cohort: Sequence[PatientRecord],
    criterion: OutcomeCriterion = death_before_discharge,
    *,
    orientation: str = "survival",
) -> OutcomeRateTable:
    """Per-cell criterion rates and the good-responder share.

    The criterion counts deaths; ``orientation="survival"`` reports the
    complement so the rates line up with survival probabilities.
    """
    if orientation not in ("survival", "mortality"):
        raise EstimationError(f"orientation must be survival or mortality, got {orientation!r}")
    if len(table.classes) != len(cohort):
        raise EstimationError("score table and cohort are misaligned")
    counts: dict[tuple[int, int], int] = {}
    raw: dict[tuple[int, int], float | None] = {}
    oriented: dict[tuple[int, int], float | None] = {}
    empty: list[tuple[int, int]] = []
    flags = np.array([criterion(r) for r in cohort], dtype=float)
    treatments = np.array([r.treatment for r in cohort], dtype=int)
    for r_class in (0, 1):
        for e in (0, 1):
            mask = (table.classes == r_class) & (treatments == e)
            count = int(mask.sum())
            counts[(r_class, e)] = count
            if count == 0:
                raw[(r_class, e)] = None
                oriented[(r_class, e)] = None
                empty.append((r_class, e))
                continue
            rate = float(flags[mask].mean())
            raw[(r_class, e)] = rate
            oriented[(r_class, e)] = 1.0 - rate if orientation == "survival" else rate
    if empty:
        log.warning("empty outcome cells: %s", empty)
    return OutcomeRateTable(
        counts=counts,
        raw_rate=raw,
        pi_hat=oriented,
        gamma_hat=float(np.mean(table.classes)),
        orientation=orientation,
        empty_cells=tuple(empty),
    )


# --- end-to-end pipeline -------------------------------------------------------


@dataclass(frozen=True)
class PipelineConfig:
    cutoff: float = 0.0
    caliper: float | None = None
    criterion: str = "death-before-discharge"
    orientation: str = "survival"
    phi: float = 1.0
    disutility_f: float = 1.0
    histogram_bins: int = 40


@dataclass(frozen=True)
class PipelineDiagnostics:
    n_input: int
    n_treated: int
    n_matched: int
    n_dropped_treated: int
    mean_pair_distance: float
    propensity_iterations: int
    cox_control: dict
    cox_treated: dict
    score_summary: dict
    histogram: dict
    cell_counts: dict
    assumption_warnings: tuple[str, ...]


@dataclass(frozen=True)
class PipelineResult:
    params: ModelParams
    rates: OutcomeRateTable
    score_table: ResponseScoreTable
    diagnostics: PipelineDiagnostics


def _stage(name: str, func, *args, **kwargs):
    try:
        return func(*args, **kwargs)
    except EstimationError as exc:
        if isinstance(exc, StageError):
            raise
        raise StageError(name, exc) from exc


def run_pipeline(cohort: Sequence[PatientRecord], config: PipelineConfig = PipelineConfig()) -> PipelineResult:
    """Chain propensity fit, matching, the two Cox fits, scoring, and rates."""
    propensity = _stage("fit_propensity", fit_propensity, cohort)
    match = _stage("match_one_to_one", match_one_to_one, cohort, propensity.scores, caliper=config.caliper)
    matched = list(match.records)
    control_arm = [r for r in matched if r.treatment == 0]
    treated_arm = [r for r in matched if r.treatment == 1]
    fit0 = _stage("fit_cox_control", fit_cox, control_arm)
    fit1 = _stage("fit_cox_treated", fit_cox, treated_arm)
    table = _stage("response_scores", response_scores, fit0, fit1, matched, cutoff=config.cutoff)
    rates = _stage(
        "outcome_rates",
        outcome_rates,
        table,
        matched,
        criterion_from_name(config.criterion),
        orientation=config.orientation,
    )
    params = _stage(
        "parameter_mapping",
        rates.to_model_params,
        phi=config.phi,
        disutility_f=config.disutility_f,
    )

    notes = [f"ordering violated: {v}" for v in params.ordering_violations()]
    if abs(params.distinct_benefit_margin()) <= 1e-6:
        notes.append("pi01*pi10 is within 1e-6 of pi00*pi11 (degenerate benefit margin)")
    for note in notes:
        warnings.warn(note, AssumptionWarning, stacklevel=2)

    scores = table.scores
    hist_counts, hist_edges = np.histogram(scores, bins=config.histogram_bins)
    quartiles = np.percentile(scores, [25, 50, 75])
    diagnostics = PipelineDiagnostics(
        n_input=len(cohort),
        n_treated=len(treated_arm),
        n_matched=len(matched),
        n_dropped_treated=len(match.dropped_treated),
        mean_pair_distance=match.mean_pair_distance,
        propensity_iterations=propensity.iterations,
        cox_control={
            "beta": fit0.beta.tolist(),
            "iterations": fit0.iterations,
            "gradient_norm": fit0.gradient_norm,
            "log_partial_likelihood": fit0.log_partial_likelihood,
        },
        cox_treated={
            "beta": fit1.beta.tolist(),
            "iterations": fit1.iterations,
            "gradient_norm": fit1.gradient_norm,
            "log_partial_likelihood": fit1.log_partial_likelihood,
        },
        score_summary={
            "mean": float(scores.mean()),
            "std": float(scores.std(ddof=1)),
            "min": float(scores.min()),
            "q25": float(quartiles[0]),
            "median": float(quartiles[1]),
            "q75": float(quartiles[2]),
            "max": float(scores.max()),
            "fraction_positive": float(np.mean(scores > config.cutoff)),
        },
        histogram={
            "bin_edges": hist_edges.tolist(),
            "counts": hist_counts.tolist(),
        },
        cell_counts={f"r{r}e{e}": rates.counts[(r, e)] for r in (0, 1) for e in (0, 1)},
        assumption_warnings=tuple(notes),
    )
    return PipelineResult(params=params, rates=rates, score_table=table, diagnostics=diagnostics)
