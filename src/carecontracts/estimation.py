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

import csv
import logging
import warnings
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

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


# Cohort columns after ``id``, in CSV order, with their dtypes.
_COLUMNS = {"e": int, "t": int, "los": float, "event": int, "z": float}
# Rows per ``csv.writer.writerows`` call in ``save_cohort``; bounds the
# Python objects alive at once.
_WRITE_CHUNK = 65_536
_exact = "{:.17g}".format


class AssumptionWarning(UserWarning):
    """Estimated rates violate a solver precondition; solvers may reject them."""


@dataclass(frozen=True)
class Cohort:
    """ICU stays as columns of the CSV schema, one entry per patient.

    ``e`` treatment, ``t`` death in days, ``event`` censoring indicator
    (integer columns), ``los`` length of stay, and ``z`` the n x p
    covariate matrix. Rows are validated on construction.
    """

    ids: tuple[str, ...]
    e: np.ndarray
    t: np.ndarray
    los: np.ndarray
    event: np.ndarray
    z: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "ids", tuple(self.ids))
        for name, dtype in _COLUMNS.items():
            arr = np.asarray(getattr(self, name)).astype(dtype, casting="same_kind")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        fault = _first_invalid_row(self.ids, self.e, self.t, self.los, self.event, self.z)
        if fault is not None:
            raise EstimationError(f"record {self.ids[fault[0]]}: {fault[1]}")

    def __len__(self) -> int:
        return len(self.ids)

    def take(self, rows) -> Cohort:
        """The sub-cohort at ``rows``, in that order."""
        rows = np.asarray(rows, dtype=int)
        columns = {name: getattr(self, name)[rows] for name in _COLUMNS}
        return Cohort(ids=tuple(map(self.ids.__getitem__, rows.tolist())), **columns)


def _first_invalid_row(ids, e, t, los, event, z) -> tuple[int, str] | None:
    """The first row that breaks a cohort rule, and the rule; columns of
    the wrong length are not a row fault and raise."""
    n = len(ids)
    if z.ndim != 2 or any(len(column) != n for column in (e, t, los, event, z)):
        raise EstimationError(f"cohort columns must have one entry per id ({n}) and z must be 2-D")
    repeated = np.zeros(n, dtype=bool)
    if len(set(ids)) < n:
        first = dict(zip(reversed(ids), range(n - 1, -1, -1)))  # id -> its first row
        repeated[:] = True
        repeated[list(first.values())] = False
    rules = (
        ((e < 0) | (e > 1) | (event < 0) | (event > 1), "e and event must be 0/1"),
        (t <= 0, "t must be a positive integer"),
        (~(los > 0), "los must be positive"),
        (~np.isfinite(los) | ~np.isfinite(z).all(axis=1), "los and z must be finite"),
        (repeated, "duplicate id"),
    )
    faults = [(int(np.argmax(bad)), message) for bad, message in rules if bad.any()]
    return min(faults, key=lambda fault: fault[0]) if faults else None


# --- cohort CSV schema --------------------------------------------------------


def load_cohort(path: str | Path) -> Cohort:
    """Parse a cohort CSV; any malformed field is a hard error with its line."""
    ids: list[str] = []
    e, t, event = array("q"), array("q"), array("q")
    los, z = array("d"), array("d")
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
                e.append(int(row[1]))
                t.append(int(row[2]))
                los.append(float(row[3]))
                event.append(int(row[4]))
                z.extend(map(float, row[5:]))
            except (ValueError, OverflowError) as exc:
                raise CohortFormatError(f"{path}: line {lineno}: {exc}") from exc
            ids.append(row[0])
    columns = dict(
        ids=tuple(ids),
        e=np.asarray(e),
        t=np.asarray(t),
        los=np.asarray(los),
        event=np.asarray(event),
        z=np.reshape(z, (len(ids), p)),
    )
    fault = _first_invalid_row(**columns)
    if fault is not None:
        raise CohortFormatError(f"{path}: line {fault[0] + 2}: {fault[1]}")
    return Cohort(**columns)


def save_cohort(cohort: Cohort, path: str | Path) -> None:
    """Write ``cohort`` as CSV; floats use ``%.17g`` and so load back exactly."""
    p = cohort.z.shape[1]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "e", "t", "los", "event"] + [f"z{i}" for i in range(1, p + 1)])
        for start in range(0, len(cohort), _WRITE_CHUNK):
            rows = slice(start, start + _WRITE_CHUNK)
            writer.writerows(
                zip(
                    cohort.ids[rows],
                    cohort.e[rows].tolist(),
                    cohort.t[rows].tolist(),
                    map(_exact, cohort.los[rows].tolist()),
                    cohort.event[rows].tolist(),
                    *(map(_exact, column.tolist()) for column in cohort.z[rows].T),
                )
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


def fit_propensity(cohort: Cohort) -> PropensityModel:
    """Maximum-likelihood logistic regression via iteratively reweighted
    least squares; converges when the score vector drops below 1e-8."""
    z = cohort.z
    y = cohort.e.astype(float)
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
        weights = prob * (1.0 - prob)
        info = (x.T * weights) @ x / n
        if score_norm <= SCORE_TOL:
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
        try:
            step = solve_linear_system(info, score / n, pivot_tol=1e-10)
        except SingularMatrixError as exc:
            raise CollinearCovariatesError(f"covariates are collinear: {exc}") from exc
        beta = beta + step
    raise ConvergenceError(f"IRLS did not converge in {MAX_ITER} iterations")


# --- 1-1 propensity matching ----------------------------------------------------


@dataclass(frozen=True)
class MatchResult:
    """Treated/control pairing on propensity score.

    ``treated`` and ``controls`` are cohort row indices in pair order.
    """

    treated: np.ndarray
    controls: np.ndarray
    pairs: tuple[tuple[str, str], ...]
    dropped_treated: tuple[str, ...]
    mean_pair_distance: float

    def __post_init__(self) -> None:
        for name in ("treated", "controls"):
            arr = np.array(getattr(self, name), dtype=int)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def match_one_to_one(
    cohort: Cohort,
    scores: np.ndarray,
    *,
    caliper: float | None = None,
) -> MatchResult:
    """Greedy 1-1 nearest-neighbor matching without replacement.

    Treated records are processed in descending score order, equal scores
    in row order, and each takes the nearest remaining control:

    - of two equally near controls, the lower score wins;
    - among equal-score controls at or above the treated score, the lower
      row index wins;
    - among equal-score controls below the treated score, the higher row
      index wins (see ``DECISIONS.md``);
    - with a caliper, a treated record whose nearest control lies beyond
      it is dropped and logged, and that control stays in the pool.

    Without a caliper, fewer controls than treated is an error. The
    controls are sorted once by (score, index) and never moved; used slots
    are skipped through union-find links, so the cost is O(n log n).
    """
    scores = np.asarray(scores, dtype=float)
    if scores.shape != (len(cohort),):
        raise EstimationError("scores must align one-to-one with the cohort")
    treated = np.flatnonzero(cohort.e == 1)
    controls = np.flatnonzero(cohort.e == 0)
    if caliper is None and len(controls) < len(treated):
        raise InsufficientControlsError(
            f"{len(controls)} controls for {len(treated)} treated and no caliper"
        )

    treated = treated[np.lexsort((treated, -scores[treated]))]
    pool = controls[np.lexsort((controls, scores[controls]))]
    pool_scores = scores[pool]
    targets = scores[treated]
    starts = np.searchsorted(pool_scores, targets, side="left")
    # Indexing a memoryview yields Python floats without boxing the pool.
    slot_score = memoryview(pool_scores)
    m = len(pool)
    # Union-find links over the static pool, kept only for used slots, so
    # they cost memory per pair and not per control. Following ``right``
    # from i reaches the first live slot >= i (m: none); following ``left``
    # from i reaches one past the last live slot < i (0: none).
    right: dict[int, int] = {}
    left: dict[int, int] = {}

    def find(links: dict[int, int], i: int) -> int:
        root = i
        while root in links:
            root = links[root]
        while i != root:
            links[i], i = root, links[i]
        return root

    ids = cohort.ids
    kept_treated: list[int] = []
    kept_slots: list[int] = []
    dropped: list[str] = []
    for ti, target, start in zip(treated.tolist(), targets.tolist(), starts.tolist()):
        candidates = [j for j in (find(left, start) - 1, find(right, start)) if 0 <= j < m]
        if not candidates:
            if caliper is None:
                raise InsufficientControlsError("control pool exhausted")
            dropped.append(ids[ti])
            continue
        best = min(candidates, key=lambda j: (abs(slot_score[j] - target), slot_score[j]))
        distance = abs(slot_score[best] - target)
        if caliper is not None and distance > caliper:
            dropped.append(ids[ti])
            continue
        kept_treated.append(ti)
        kept_slots.append(best)
        right[best] = best + 1
        left[best + 1] = best

    kept_controls = pool[kept_slots].tolist()
    if dropped:
        log.info("matching dropped %d treated outside caliper %s", len(dropped), caliper)
    distances = np.abs(scores[kept_treated] - scores[kept_controls])
    return MatchResult(
        treated=kept_treated,
        controls=kept_controls,
        pairs=tuple(zip(map(ids.__getitem__, kept_treated), map(ids.__getitem__, kept_controls))),
        dropped_treated=tuple(dropped),
        mean_pair_distance=float(np.mean(distances)) if distances.size else 0.0,
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


def fit_cox(group: Cohort) -> CoxFit:
    """Newton-Raphson maximization of the Breslow partial likelihood with
    step-halving; the accepted likelihood path never decreases."""
    x = group.z
    times = group.t.astype(float)
    events = group.event
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
    cohort: Cohort,
    *,
    cutoff: float = 0.0,
) -> ResponseScoreTable:
    """Score = covariates . (treated beta - control beta)."""
    if fit0.beta.shape != fit1.beta.shape:
        raise EstimationError(
            f"coefficient dimension mismatch: {fit0.beta.shape} vs {fit1.beta.shape}"
        )
    z = cohort.z
    if z.shape[1] != fit0.beta.shape[0]:
        raise EstimationError(
            f"cohort has {z.shape[1]} covariates, fits have {fit0.beta.shape[0]}"
        )
    scores = z @ (fit1.beta - fit0.beta)
    return ResponseScoreTable(
        ids=cohort.ids,
        scores=scores,
        classes=(scores > cutoff).astype(int),
        cutoff=float(cutoff),
    )


# --- outcome rates -----------------------------------------------------------

OutcomeCriterion = Callable[[Cohort], np.ndarray]


def death_before_discharge(cohort: Cohort) -> np.ndarray:
    """1 for each patient whose observed death came before ICU discharge."""
    return ((cohort.event == 1) & (cohort.t < cohort.los)).astype(int)


def death_within(days: float) -> OutcomeCriterion:
    def criterion(cohort: Cohort) -> np.ndarray:
        return ((cohort.event == 1) & (cohort.t <= days)).astype(int)

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
    cohort: Cohort,
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
    flags = criterion(cohort).astype(float)
    for r_class in (0, 1):
        for e in (0, 1):
            mask = (table.classes == r_class) & (cohort.e == e)
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


def run_pipeline(cohort: Cohort, config: PipelineConfig = PipelineConfig()) -> PipelineResult:
    """Chain propensity fit, matching, the two Cox fits, scoring, and rates."""
    propensity = _stage("fit_propensity", fit_propensity, cohort)
    match = _stage("match_one_to_one", match_one_to_one, cohort, propensity.scores, caliper=config.caliper)
    matched = cohort.take(np.concatenate([match.treated, match.controls]))
    control_arm = cohort.take(match.controls)
    treated_arm = cohort.take(match.treated)
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
