import csv
import functools
import io
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from carecontracts import estimation, synthetic
from carecontracts.domain import ModelParams
from carecontracts.errors import CohortFormatError, EstimationError, StageError
from carecontracts.estimation import (
    Cohort,
    cox_partial_likelihood,
    criterion_from_name,
    death_before_discharge,
    fit_cox,
    fit_propensity,
    load_cohort,
    match_one_to_one,
    outcome_rates,
    response_scores,
    run_pipeline,
    save_cohort,
)
from carecontracts.synthetic import SyntheticCohortSpec, generate_cohort


def make_cohort(z, e, t=10, los=5.0, event=1):
    """Cohort with ids r0, r1, ...; scalar columns are repeated for every row."""
    z = np.asarray(z, dtype=float)
    n = len(z)
    return Cohort(
        ids=tuple(f"r{i}" for i in range(n)),
        e=np.broadcast_to(e, n),
        t=np.broadcast_to(t, n),
        los=np.broadcast_to(los, n),
        event=np.broadcast_to(event, n),
        z=z,
    )


def logistic_cohort(rng, n, coefficients, intercept=0.0):
    p = len(coefficients)
    z = rng.normal(size=(n, p))
    prob = 1.0 / (1.0 + np.exp(-(intercept + z @ np.asarray(coefficients))))
    e = (rng.random(n) < prob).astype(int)
    return make_cohort(z, e), z, e


def survival_cohort(rng, n, beta, censor_scale=None):
    """Exponential proportional-hazards sample rounded up to whole days."""
    p = len(beta)
    z = rng.normal(size=(n, p))
    rate = 0.02 * np.exp(z @ np.asarray(beta))
    death = rng.exponential(1.0 / rate)
    if censor_scale is not None:
        censor = rng.exponential(censor_scale, n)
        observed = (death <= censor).astype(int)
        time = np.minimum(death, censor)
    else:
        observed = np.ones(n, dtype=int)
        time = death
    days = np.maximum(1, np.ceil(time)).astype(int)
    return make_cohort(z, 0, t=days, los=days + 1.0, event=observed)


class TestFitPropensity:
    def test_recovers_planted_coefficients(self, rng):
        truth = np.array([0.8, -0.5, 0.3])
        cohort, _, _ = logistic_cohort(rng, 5000, truth, intercept=-0.4)
        model = fit_propensity(cohort)
        assert model.coefficients[0] == pytest.approx(-0.4, abs=0.15)
        assert model.coefficients[1:] == pytest.approx(truth, abs=0.1)
        x = np.column_stack([np.ones(len(cohort)), cohort.z])
        assert np.max(np.abs(x.T @ (cohort.e - model.scores))) <= 1e-8
        assert np.all((model.scores > 0) & (model.scores < 1))

    def test_null_model_slopes_near_zero(self, rng):
        cohort, _, _ = logistic_cohort(rng, 4000, [0.0, 0.0, 0.0])
        model = fit_propensity(cohort)
        x = np.column_stack([np.ones(len(cohort)), cohort.z])
        weights = model.scores * (1.0 - model.scores)
        standard_errors = np.sqrt(np.diag(np.linalg.inv((x.T * weights) @ x)))
        for slope, se in zip(model.coefficients[1:], standard_errors[1:]):
            assert abs(slope) <= 3 * se

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("n", [500, 20_000])
    def test_fit_gives_the_bits_of_the_hstack_formulation(self, seed, n):
        """The IRLS of an ``np.hstack`` design and a float copy of ``e``,
        typed out, gives the fit's coefficients and scores byte for byte."""
        cohort, _ = generate_cohort(SyntheticCohortSpec(n=n, treated_fraction=0.3), seed)
        x = np.hstack([np.ones((n, 1)), cohort.z])
        y = cohort.e.astype(float)
        beta = np.zeros(x.shape[1])
        for _ in range(estimation.MAX_ITER):
            prob = estimation._sigmoid(x @ beta)
            score = x.T @ (y - prob)
            info = (x.T * (prob * (1.0 - prob))) @ x / n
            step = estimation.solve_linear_system(info, score / n, pivot_tol=1e-10)
            if float(np.max(np.abs(score))) <= estimation.SCORE_TOL:
                break
            beta = beta + step
        model = fit_propensity(cohort)
        assert model.coefficients.tobytes() == beta.tobytes()
        assert model.scores.tobytes() == prob.tobytes()

    def test_all_treated_rejected(self, rng):
        cohort = make_cohort(rng.normal(size=(50, 2)), 1)
        with pytest.raises(EstimationError):
            fit_propensity(cohort)

    def test_collinear_covariates_rejected(self, rng):
        z = rng.normal(size=200)
        cohort = make_cohort(np.column_stack([z, 2.0 * z]), (rng.random(200) < 0.5).astype(int))
        with pytest.raises(EstimationError, match="covariates are collinear"):
            fit_propensity(cohort)

    def test_separated_treatment_rejected(self, rng):
        z = rng.normal(size=(200, 2))
        with pytest.raises(EstimationError, match="separated"):
            fit_propensity(make_cohort(z, (z[:, 0] > 0).astype(int)))

    @pytest.mark.parametrize(
        "eta",
        [
            np.array([0.0, -0.0, 700.0, -700.0, 800.0, -800.0]),
            np.random.default_rng(3).normal(scale=20.0, size=10_001),
            np.random.default_rng(4).uniform(-1e3, 1e3, size=10_000),
        ],
    )
    def test_sigmoid_gives_the_bits_of_the_masked_formula(self, eta):
        masked = np.empty_like(eta)
        pos = eta >= 0
        masked[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
        expo = np.exp(eta[~pos])
        masked[~pos] = expo / (1.0 + expo)
        assert estimation._sigmoid(eta).tobytes() == masked.tobytes()


class TestMatching:
    def test_case_study_shape(self, rng):
        """728 treated out of 25,934 yields a matched cohort of 1,456."""
        n = 25_934
        scores = rng.uniform(0.01, 0.99, n)
        treated = rng.choice(n, size=728, replace=False)
        cohort = make_cohort(np.zeros((n, 1)), np.isin(np.arange(n), treated).astype(int))
        result = match_one_to_one(cohort, scores)
        matched = np.concatenate([result.treated, result.controls])
        assert matched.size == 1456
        assert np.unique(matched).size == 1456
        assert np.all(cohort.e[result.treated] == 1) and np.all(cohort.e[result.controls] == 0)
        assert len(result.pairs) == 728
        assert result.pairs == tuple(
            zip(np.array(cohort.ids)[result.treated], np.array(cohort.ids)[result.controls])
        )

    def test_unique_nearest_neighbors(self):
        cohort = make_cohort(np.zeros((4, 1)), [1, 1, 0, 0])
        scores = np.array([0.2, 0.8, 0.21, 0.79])
        result = match_one_to_one(cohort, scores)
        assert set(result.pairs) == {("r1", "r3"), ("r0", "r2")}

    def test_caliper_drops_isolated_treated(self):
        cohort = make_cohort(np.zeros((2, 1)), [1, 0])
        scores = np.array([0.5, 0.55])
        result = match_one_to_one(cohort, scores, caliper=0.01)
        assert result.dropped_treated == ("r0",)
        assert result.treated.size == 0 and result.controls.size == 0
        assert result.pairs == ()

    def test_insufficient_controls(self):
        cohort = make_cohort(np.zeros((3, 1)), [1, 1, 0])
        with pytest.raises(EstimationError, match="controls for 2 treated and no caliper"):
            match_one_to_one(cohort, np.array([0.4, 0.5, 0.45]))

    @pytest.mark.parametrize("scores", [[0.4, 0.5], [0.4, 0.5, 0.45, 0.6], [[0.4, 0.5, 0.45]]])
    def test_scores_of_the_wrong_shape_rejected(self, scores):
        cohort = make_cohort(np.zeros((3, 1)), [1, 0, 0])
        with pytest.raises(EstimationError, match="^scores must align one-to-one with the cohort$"):
            match_one_to_one(cohort, scores)

    def test_tie_rules(self):
        """Dyadic scores make the distances tie exactly."""
        # treated with equal scores go in index order: r0 takes the exact match
        result = match_one_to_one(make_cohort(np.zeros((4, 1)), [1, 1, 0, 0]), [0.5, 0.5, 0.5, 0.75])
        assert result.pairs == (("r0", "r2"), ("r1", "r3"))
        # of two equally near controls, the lower score wins, whatever the index
        result = match_one_to_one(make_cohort(np.zeros((3, 1)), [1, 0, 0]), [0.5, 0.75, 0.25])
        assert result.pairs == (("r0", "r2"),)
        # of equal-score controls at or above the target, the lower index wins
        for score in (0.5, 0.75):
            result = match_one_to_one(make_cohort(np.zeros((3, 1)), [1, 0, 0]), [0.5, score, score])
            assert result.pairs == (("r0", "r1"),)
        # below the target the nearest is the last of the equal run: the higher index
        result = match_one_to_one(make_cohort(np.zeros((3, 1)), [1, 0, 0]), [0.5, 0.25, 0.25])
        assert result.pairs == (("r0", "r2"),)
        # a control beyond the caliper drops the treated patient; one at it does not
        cohort = make_cohort(np.zeros((2, 1)), [1, 0])
        result = match_one_to_one(cohort, [0.5, 0.75], caliper=0.125)
        assert result.dropped_treated == ("r0",) and result.pairs == ()
        result = match_one_to_one(cohort, [0.5, 0.75], caliper=0.25)
        assert result.dropped_treated == () and result.pairs == (("r0", "r1"),)
        assert result.mean_pair_distance == 0.25

    def test_greedy_local_optimality(self, rng):
        """Swapping the controls of any two pairs never shrinks the total distance."""
        n = 400
        scores = rng.uniform(0, 1, n)
        cohort = make_cohort(np.zeros((n, 1)), (np.arange(n) < 60).astype(int))
        result = match_one_to_one(cohort, scores)
        index = {f"r{i}": i for i in range(n)}
        pairs = [(index[a], index[b]) for a, b in result.pairs]
        for i in range(0, len(pairs), 7):
            for j in range(i + 1, len(pairs), 11):
                (t1, c1), (t2, c2) = pairs[i], pairs[j]
                current = abs(scores[t1] - scores[c1]) + abs(scores[t2] - scores[c2])
                swapped = abs(scores[t1] - scores[c2]) + abs(scores[t2] - scores[c1])
                assert current <= swapped + 1e-12


def reference_match(cohort, scores, caliper=None):
    """Greedy matching by a full scan of the live controls for each treated
    patient, following the documented rules; the oracle for the matcher."""
    treated = sorted(np.flatnonzero(cohort.e == 1).tolist(), key=lambda i: (-scores[i], i))
    live = np.flatnonzero(cohort.e == 0).tolist()
    if caliper is None and len(live) < len(treated):
        raise EstimationError("fewer controls than treated and no caliper")
    kept, dropped = [], []
    for ti in treated:
        target = scores[ti]

        def rank(ci):
            # nearest first, then lower score, then the index rule for equal scores
            return (abs(scores[ci] - target), scores[ci], ci if scores[ci] >= target else -ci)

        best = min(live, key=rank, default=None)  # None only with a caliper
        if best is None or (caliper is not None and abs(scores[best] - target) > caliper):
            dropped.append(cohort.ids[ti])
            continue
        live.remove(best)
        kept.append((ti, best))
    kept_t = [t for t, _ in kept]
    kept_c = [c for _, c in kept]
    distances = np.abs(scores[kept_t] - scores[kept_c])
    return (
        kept_t,
        kept_c,
        tuple((cohort.ids[t], cohort.ids[c]) for t, c in kept),
        tuple(dropped),
        float(np.mean(distances)) if distances.size else 0.0,
    )


@settings(max_examples=300, deadline=None)
@given(
    rows=st.lists(st.tuples(st.integers(0, 1), st.integers(0, 8)), min_size=1, max_size=30),
    caliper=st.sampled_from([None, 0.0, 0.125, 0.3]),
)
def test_matching_agrees_with_full_scan(rows, caliper):
    """Dyadic scores (eighths) make distances and scores tie exactly and often."""
    e = [flag for flag, _ in rows]
    scores = np.array([eighths / 8 for _, eighths in rows])
    cohort = make_cohort(np.zeros((len(rows), 1)), e)
    try:
        expected = reference_match(cohort, scores, caliper)
    except EstimationError:
        with pytest.raises(EstimationError, match="and no caliper"):
            match_one_to_one(cohort, scores, caliper=caliper)
        return
    result = match_one_to_one(cohort, scores, caliper=caliper)
    assert (
        result.treated.tolist(),
        result.controls.tolist(),
        result.pairs,
        result.dropped_treated,
        result.mean_pair_distance,
    ) == expected


@settings(max_examples=300, deadline=None)
@given(
    arms=st.lists(st.integers(0, 8), min_size=1, max_size=15).flatmap(
        lambda treated: st.tuples(
            st.just(treated), st.lists(st.integers(0, 8), min_size=len(treated), max_size=30)
        )
    ),
    random=st.randoms(use_true_random=False),
)
def test_enough_controls_pair_every_treated(arms, random):
    """Without a caliper, at least as many controls as treated leaves a live
    control for every treated record, whatever the ties (dyadic scores)."""
    rows = [(1, eighths) for eighths in arms[0]] + [(0, eighths) for eighths in arms[1]]
    random.shuffle(rows)
    cohort = make_cohort(np.zeros((len(rows), 1)), [flag for flag, _ in rows])
    result = match_one_to_one(cohort, np.array([eighths / 8 for _, eighths in rows]))
    assert result.dropped_treated == ()
    assert sorted(result.treated.tolist()) == np.flatnonzero(cohort.e == 1).tolist()
    assert len(set(result.controls.tolist())) == len(arms[0])


class TestFitCox:
    def test_recovers_planted_coefficients(self, rng):
        truth = (0.5, -0.3)
        cohort = survival_cohort(rng, 10_000, truth, censor_scale=200.0)
        events = int(cohort.event.sum())
        assert 0.1 < 1 - events / len(cohort) < 0.35  # meaningful censoring share
        fit = fit_cox(cohort)
        assert fit.beta == pytest.approx(truth, abs=0.05)
        assert fit.gradient_norm <= 1e-8

    def test_likelihood_never_decreases(self, rng):
        fit = fit_cox(survival_cohort(rng, 800, (0.7, -0.4, 0.2)))
        assert all(b >= a - 1e-9 for a, b in zip(fit.ll_trace, fit.ll_trace[1:]))

    def test_flat_covariate_rejected(self, rng):
        z = np.column_stack([np.ones(100), rng.normal(size=100)])
        cohort = make_cohort(z, 0, t=np.arange(100) % 17 + 1)
        with pytest.raises(EstimationError, match="Cox information matrix is singular"):
            fit_cox(cohort)

    def test_monotone_likelihood_rejected(self, rng):
        """Death order follows z1 exactly, so the partial likelihood has no finite maximum."""
        z = rng.normal(size=(200, 2))
        days = np.argsort(np.argsort(z[:, 0])) + 1
        with pytest.raises(EstimationError, match="no finite maximum"):
            fit_cox(make_cohort(z, 0, t=days))

    def test_gradient_matches_finite_differences(self, rng):
        cohort = survival_cohort(rng, 300, (0.4, -0.2))
        times, events, z = cohort.t.astype(float), cohort.event, cohort.z
        for _ in range(5):
            beta = rng.uniform(-0.8, 0.8, 2)
            _, grad, _ = cox_partial_likelihood(beta, times, events, z)
            h = 1e-6
            for k in range(2):
                step = np.zeros(2)
                step[k] = h
                up, _, _ = cox_partial_likelihood(beta + step, times, events, z)
                down, _, _ = cox_partial_likelihood(beta - step, times, events, z)
                fd = (up - down) / (2 * h)
                assert grad[k] == pytest.approx(fd, rel=1e-6, abs=1e-8)

    def test_censored_records_enter_risk_sets_only(self, rng):
        """Censoring a record changes the likelihood only through event terms."""
        cohort = survival_cohort(rng, 120, (0.3,))
        beta = np.array([0.1])
        times, z = cohort.t.astype(float), cohort.z
        all_events = np.ones(len(cohort), dtype=int)
        ll_all, _, _ = cox_partial_likelihood(beta, times, all_events, z)
        one_censored = all_events.copy()
        one_censored[0] = 0
        ll_cens, _, _ = cox_partial_likelihood(beta, times, one_censored, z)
        assert ll_cens != ll_all


class TestResponseScores:
    def _fit_like(self, beta):
        return estimation.CoxFit(
            beta=np.asarray(beta, dtype=float),
            log_partial_likelihood=0.0,
            iterations=0,
            gradient_norm=0.0,
            ll_trace=(0.0,),
        )

    def test_identical_fits_give_zero_scores(self, rng):
        cohort = make_cohort(rng.normal(size=(10, 2)), 0)
        fit = self._fit_like([0.5, -0.2])
        assert np.all(response_scores(fit, fit, cohort) == 0.0)

    def test_dot_product(self):
        cohort = make_cohort([[2.0, 1.0]], 0)
        scores = response_scores(self._fit_like([0.0, 1.0]), self._fit_like([1.0, 0.0]), cohort)
        assert scores[0] == pytest.approx(1.0, abs=1e-15)

    def test_dimension_mismatch(self, rng):
        cohort = make_cohort([[1.0, 2.0]], 0)
        with pytest.raises(EstimationError):
            response_scores(self._fit_like([1.0]), self._fit_like([1.0, 2.0]), cohort)

    def test_planted_class_agreement(self, rng):
        spec = SyntheticCohortSpec(n=5000, treated_fraction=0.5)
        cohort, true_classes = generate_cohort(spec, 99)
        arm0 = cohort.take(np.flatnonzero(cohort.e == 0))
        arm1 = cohort.take(np.flatnonzero(cohort.e == 1))
        classes = response_scores(fit_cox(arm0), fit_cox(arm1), cohort) > 0.0
        agreement = float(np.mean(classes == true_classes))
        assert agreement >= 0.95
        assert true_classes.dtype.kind == "i" and not true_classes.flags.writeable


class TestOutcomeRates:
    def test_planted_cell_rates(self, rng):
        spec = SyntheticCohortSpec(n=100_000, treated_fraction=0.5)
        cohort, true_classes = generate_cohort(spec, 7)
        rates = outcome_rates(true_classes, cohort, death_before_discharge)
        for (r, e), expected in {
            (0, 0): 0.51,
            (0, 1): 0.75,
            (1, 0): 0.66,
            (1, 1): 0.85,
        }.items():
            assert rates.pi_hat[(r, e)] == pytest.approx(expected, abs=0.01)
        assert rates.gamma_hat == pytest.approx(0.44, abs=0.01)
        assert rates.counts.sum() == len(cohort)

    def test_empty_cell_flagged(self, caplog, recwarn):
        cohort = make_cohort(np.zeros((2, 1)), 1, t=[3, 9], los=[10.0, 2.0])
        with caplog.at_level("WARNING", logger=estimation.__name__):
            rates = outcome_rates(np.array([1, 1]), cohort)
        assert "empty outcome cells: [(0, 0), (0, 1), (1, 0)]" in caplog.text
        assert not recwarn.list  # an empty cell is NaN without a numpy warning
        assert np.isnan(rates.pi_hat).tolist() == [[True, True], [True, False]]
        assert rates.counts.tolist() == [[0, 0], [0, 2]]
        assert not rates.counts.flags.writeable and not rates.pi_hat.flags.writeable
        with pytest.raises(EstimationError, match=r"^cell \(0, 0\) is empty, outcome rate undefined$"):
            rates.to_model_params()

    def test_class_shares_sum_to_one(self, rng):
        spec = SyntheticCohortSpec(n=1000, treated_fraction=0.5)
        cohort, true_classes = generate_cohort(spec, 5)
        rates = outcome_rates(true_classes, cohort)
        share_bad = float(np.mean(true_classes == 0))
        assert rates.gamma_hat + share_bad == 1.0

    def test_misaligned_classes_rejected(self):
        cohort = make_cohort(np.zeros((3, 1)), [1, 0, 0])
        with pytest.raises(EstimationError, match="^responder classes and cohort are misaligned$"):
            outcome_rates(np.array([1, 0]), cohort)

    @pytest.mark.parametrize("classes", [[2, 0, 0], [-1, 0, 0], [0.5, 0, 1.0]])
    def test_classes_other_than_0_and_1_rejected(self, classes):
        cohort = make_cohort(np.zeros((3, 1)), [1, 0, 0])
        with pytest.raises(EstimationError, match="^responder classes must be 0 or 1$"):
            outcome_rates(np.array(classes), cohort)

    def test_criterion_parsing(self):
        cohort = make_cohort([[0.0]], 0, t=10, los=20.0)
        assert criterion_from_name("death-before-discharge")(cohort).tolist() == [1]
        assert criterion_from_name("death-within:9")(cohort).tolist() == [0]
        assert criterion_from_name("death-within:10")(cohort).tolist() == [1]
        for bad in ("readmission", "death-within:-5", "death-within:nan", "death-within:x"):
            with pytest.raises(ValueError, match="criterion must be"):
                criterion_from_name(bad)


class TestCohort:
    def test_columns_are_read_only(self):
        cohort = make_cohort([[1.0], [2.0]], [1, 0])
        for column in ("ids", "e", "t", "los", "event", "z"):
            assert not getattr(cohort, column).flags.writeable
        assert len(cohort) == 2

    def test_ids_are_one_string_column(self):
        """16 bytes a row for short ids, and no Python object per row."""
        n = 1_000
        cohort, _ = generate_cohort(SyntheticCohortSpec(n=n), 3)
        assert isinstance(cohort.ids.dtype, np.dtypes.StringDType)
        assert cohort.ids.nbytes == 16 * n
        assert cohort.ids.tolist() == [f"p{i:04d}" for i in range(n)]
        assert isinstance(cohort.take([1]).ids.dtype, np.dtypes.StringDType)

    def test_lone_surrogate_id_is_an_estimation_error(self):
        columns = dict(e=[1, 0], t=[1, 2], los=[1.0, 2.0], event=[1, 1], z=np.ones((2, 1)))
        with pytest.raises(EstimationError, match="ids must be UTF-8 text"):
            Cohort(ids=("a", "b\ud800"), **columns)

    def test_take_keeps_row_order(self):
        cohort = make_cohort([[1.0], [2.0], [3.0]], [1, 0, 1], t=[4, 5, 6])
        part = cohort.take([2, 0])
        assert part.ids.tolist() == ["r2", "r0"]
        assert part.t.tolist() == [6, 4]
        assert part.z.tolist() == [[3.0], [1.0]]

    def test_take_at_repeated_rows_names_the_duplicate(self):
        cohort = make_cohort([[1.0], [2.0], [3.0]], [1, 0, 1])
        with pytest.raises(EstimationError, match="record r1: duplicate id"):
            cohort.take([0, 1, 2, 1])
        with pytest.raises(EstimationError, match="record r2: duplicate id"):
            cohort.take([2, -1])  # a negative row is its positive twin
        assert cohort.take([]).ids.tolist() == []

    @pytest.mark.parametrize(
        "column, value, message",
        [
            ("e", 2, "e and event must be 0/1"),
            ("event", -1, "e and event must be 0/1"),
            ("t", 0, "t must be a positive integer"),
            ("los", 0.0, "los must be positive"),
            ("los", np.nan, "los must be positive"),
            ("los", np.inf, "los and z must be finite"),
            ("z", np.nan, "los and z must be finite"),
            ("z", -np.inf, "los and z must be finite"),
        ],
    )
    def test_row_rules_name_the_record(self, column, value, message):
        columns = {"e": [1, 0, 1], "t": [4, 5, 6], "los": [1.0, 2.0, 3.0], "event": [1, 1, 1]}
        z = np.ones((3, 2))
        if column == "z":
            z[1, 1] = value
        else:
            columns[column][1] = value
        with pytest.raises(EstimationError, match=f"record r1: {message}"):
            make_cohort(z, **columns)

    def test_duplicate_id_names_it(self):
        columns = dict(e=[1, 0, 1], t=[1, 1, 1], los=[1.0] * 3, event=[1] * 3, z=np.ones((3, 1)))
        with pytest.raises(EstimationError, match="record a: duplicate id"):
            Cohort(ids=("a", "b", "a"), **columns)

    @settings(max_examples=200, deadline=None)
    @given(
        ids=st.lists(
            st.sampled_from(["a", "b", "c", "d", "é", "a" * 20, "\U0001f600"]), min_size=1, max_size=12
        )
    )
    def test_duplicate_rule_names_the_first_later_copy(self, ids):
        """The first row whose id an earlier row holds, as the rule read
        before ids were a string column: every row but each id's first."""
        n = len(ids)
        first = dict(zip(reversed(ids), range(n - 1, -1, -1)))
        repeated = sorted(set(range(n)) - set(first.values()))
        ones = np.ones(n, dtype=int)
        fault = estimation._first_invalid_row(
            np.array(ids, dtype=estimation._ID), ones, ones, ones + 0.5, ones, np.ones((n, 1))
        )
        assert fault == ((repeated[0], "duplicate id") if repeated else None)

    def test_shape_and_dtype_rules(self):
        ok = dict(
            ids=("a", "b"), e=[1, 0], t=[1, 2], los=[1.0, 2.0], event=[1, 1], z=np.ones((2, 1))
        )
        Cohort(**ok)
        for change in ({"t": [1]}, {"z": np.ones(2)}, {"z": np.ones((3, 1))}):
            with pytest.raises(EstimationError):
                Cohort(**{**ok, **change})
        with pytest.raises(TypeError):  # a fractional day would be truncated
            Cohort(**{**ok, "t": [1.5, 2.0]})


def _write_rows(path, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(rows)


class TestCohortCsv:
    def test_round_trip(self, tmp_path, rng):
        spec = SyntheticCohortSpec(n=50, treated_fraction=0.4)
        cohort, _ = generate_cohort(spec, 11)
        path = tmp_path / "cohort.csv"
        save_cohort(cohort, path)
        assert estimation._load_bulk(path) is not None  # a saved file takes the bulk parse
        loaded = load_cohort(path)
        assert loaded.ids.tolist() == cohort.ids.tolist()
        for column in ("e", "t", "los", "event", "z"):
            assert getattr(loaded, column).dtype == getattr(cohort, column).dtype
            assert np.array_equal(getattr(loaded, column), getattr(cohort, column))
        assert {f.name for f in fields(Cohort)} == {"ids", "e", "t", "los", "event", "z"}

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,treat,t,los,event,z1\n")
        with pytest.raises(CohortFormatError, match="line 1"):
            load_cohort(path)

    def test_bad_row_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,e,t,los,event,z1\np1,1,5,3.0,1,0.2\np2,1,oops,3.0,1,0.2\n")
        with pytest.raises(CohortFormatError, match="line 3"):
            load_cohort(path)

    def test_nonpositive_time_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,e,t,los,event,z1\np1,1,0,3.0,1,0.2\n")
        with pytest.raises(CohortFormatError, match="line 2"):
            load_cohort(path)

    @pytest.mark.parametrize("field, value", [(3, "inf"), (5, "nan"), (6, "-inf"), (7, "1e400")])
    def test_non_finite_value_rejected(self, tmp_path, field, value):
        path = tmp_path / "bad.csv"
        row = ["p2", "1", "5", "3.0", "1", "0.2", "0.1", "0.3"]
        row[field] = value
        header = ["id", "e", "t", "los", "event", "z1", "z2", "z3"]
        _write_rows(path, [header, ["p1", "0", "5", "3.0", "1", "0.2", "0.1", "0.3"], row])
        with pytest.raises(CohortFormatError, match="line 3: los and z must be finite"):
            load_cohort(path)

    def test_duplicate_id_names_second_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,e,t,los,event,z1\np1,1,5,3.0,1,0.2\np2,0,5,3.0,1,0.2\np1,0,5,3.0,1,0.2\n")
        with pytest.raises(CohortFormatError, match="line 4: duplicate id"):
            load_cohort(path)

    def test_chunked_write_matches_row_by_row_csv(self, tmp_path, rng):
        """A cohort longer than one write chunk, whose last chunk has ids that
        need quoting, gives the bytes of a plain row-by-row csv.writer and
        loads back."""
        n = estimation._WRITE_CHUNK + 4
        cohort = Cohort(
            ids=tuple(f"p{i}" for i in range(n - 4)) + ("p,1", 'p"2"', "p\r3", "p\n4"),
            e=rng.integers(0, 2, n),
            t=rng.integers(1, 90, n),
            los=rng.exponential(5.0, n) + 0.1,
            event=rng.integers(0, 2, n),
            z=rng.normal(size=(n, 2)),
        )
        path, reference = tmp_path / "cohort.csv", tmp_path / "reference.csv"
        save_cohort(cohort, path)
        with open(reference, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "e", "t", "los", "event", "z1", "z2"])
            for i in range(n):
                writer.writerow(
                    [cohort.ids[i], int(cohort.e[i]), int(cohort.t[i]), f"{cohort.los[i]:.17g}"]
                    + [int(cohort.event[i])]
                    + [f"{v:.17g}" for v in cohort.z[i]]
                )
        assert path.read_bytes() == reference.read_bytes()
        loaded = load_cohort(path)
        assert loaded.ids.tolist() == cohort.ids.tolist()
        for column in ("e", "t", "los", "event", "z"):
            assert np.array_equal(getattr(loaded, column), getattr(cohort, column))

    @pytest.mark.parametrize("parts", [2, 3])
    def test_forked_save_writes_the_serial_bytes(
        self, tmp_path, rng, monkeypatch, force_parts, parts
    ):
        """Quoted and non-ASCII ids on both sides of every part boundary."""
        n = 12
        ids = [f"p{i}" for i in range(n)]
        for i in range(3, 10):  # boundaries at 6 (two parts), 4 and 8 (three)
            ids[i] = f'\u00e9,"{i}"' if i % 2 else f"\u00df{i}"
        cohort = Cohort(
            ids=tuple(ids),
            e=rng.integers(0, 2, n),
            t=rng.integers(1, 90, n),
            los=rng.exponential(5.0, n) + 0.1,
            event=rng.integers(0, 2, n),
            z=rng.normal(size=(n, 2)),
        )
        serial, forked = tmp_path / "serial.csv", tmp_path / "forked.csv"
        save_cohort(cohort, serial)
        forks = force_parts(monkeypatch, parts)
        save_cohort(cohort, forked)
        assert len(forks) == parts  # the parent formats no part
        assert forked.read_bytes() == serial.read_bytes()
        assert load_cohort(forked).ids.tolist() == cohort.ids.tolist()

    @pytest.mark.parametrize("parts", [1, 3])
    def test_longest_id_round_trips(self, tmp_path, monkeypatch, force_parts, parts):
        """Ids of the csv module's 131,072-character field limit, in the middle
        and at the end, save and load back whole."""
        longest = csv.field_size_limit()
        cohort, _ = generate_cohort(SyntheticCohortSpec(n=12, treated_fraction=0.4), 5)
        ids = cohort.ids.tolist()
        ids[6], ids[-1] = "a" * longest, "\u00e9" * longest
        cohort = Cohort(ids, cohort.e, cohort.t, cohort.los, cohort.event, cohort.z)
        forks = force_parts(monkeypatch, parts)
        path = tmp_path / "cohort.csv"
        save_cohort(cohort, path)
        loaded = load_cohort(path)
        assert len(forks) > 3 if parts > 1 else forks == []  # the load forked as well
        assert loaded.ids.tolist() == ids
        assert np.array_equal(loaded.z, cohort.z)

    def test_forked_load_gives_the_serial_cohort(self, tmp_path, monkeypatch, force_parts):
        path = tmp_path / "cohort.csv"
        save_cohort(generate_cohort(SyntheticCohortSpec(n=50, treated_fraction=0.4), 5)[0], path)
        serial = _outcome(load_cohort, path)
        forks = force_parts(monkeypatch, 3)
        assert _outcome(load_cohort, path) == serial
        assert len(forks) == 2  # the parent parses the first part itself

    def test_one_part_forks_nothing(self, tmp_path, monkeypatch, force_parts):
        """A one-part save and load fork no child and give the bytes and
        arrays of a three-part run."""
        cohort = generate_cohort(SyntheticCohortSpec(n=50, treated_fraction=0.4), 5)[0]
        single, split = tmp_path / "single.csv", tmp_path / "split.csv"
        with monkeypatch.context() as patch:
            forks = force_parts(patch, 3)
            save_cohort(cohort, split)
            expected = _outcome(load_cohort, split)
            assert len(forks) == 3 + 2
        forks = force_parts(monkeypatch, 1)
        save_cohort(cohort, single)
        assert single.read_bytes() == split.read_bytes()
        assert _outcome(load_cohort, single) == expected
        assert forks == []

    def test_unplain_first_part_takes_the_row_reader(self, tmp_path, monkeypatch, force_parts):
        """A quoted id in the parent's own part takes the row reader at once,
        without waiting for children that would parse for a minute, and
        leaves no child unreaped."""
        cohort = generate_cohort(SyntheticCohortSpec(n=50, treated_fraction=0.4), 5)[0]
        ids = ["p,0", *cohort.ids[1:].tolist()]
        path = tmp_path / "cohort.csv"
        save_cohort(Cohort(ids, cohort.e, cohort.t, cohort.los, cohort.event, cohort.z), path)
        expected = _outcome(estimation._load_rows, path)
        assert expected[0] == ids
        forks = force_parts(monkeypatch, 3)
        monkeypatch.setattr(estimation, "_sent_part", lambda *args: time.sleep(60))
        started = time.monotonic()
        assert _outcome(load_cohort, path) == expected
        assert time.monotonic() - started < 30
        assert len(forks) == 2

    @pytest.mark.parametrize("direction", ["save", "load"])
    def test_failed_child_falls_back_and_is_reaped(
        self, tmp_path, monkeypatch, force_parts, direction
    ):
        """A child that raises leaves the serial result, and no child behind."""
        path = tmp_path / "cohort.csv"
        cohort = generate_cohort(SyntheticCohortSpec(n=50, treated_fraction=0.4), 5)[0]
        save_cohort(cohort, path)
        if direction == "save":
            expected = path.read_bytes()
        else:
            expected = _outcome(estimation._load_rows, path)
        parent = os.getpid()
        name = "_row_blocks" if direction == "save" else "_plain_part"
        work = getattr(estimation, name)

        def fails_in_a_child(*args):
            if os.getpid() != parent:
                raise RuntimeError("worker failure")
            return work(*args)

        forks = force_parts(monkeypatch, 2)
        monkeypatch.setattr(estimation, name, fails_in_a_child)
        if direction == "save":
            path.unlink()
            save_cohort(cohort, path)
            assert path.read_bytes() == expected
        else:
            assert _outcome(load_cohort, path) == expected
        assert len(forks) == (2 if direction == "save" else 1)

    def test_body_that_raises_still_completes_the_write(self, tmp_path, monkeypatch, force_parts):
        """The file is whole before the body's exception goes on, and no
        child is left behind; ``reproduce`` tests a failed child as well."""
        cohort = generate_cohort(SyntheticCohortSpec(n=50, treated_fraction=0.4), 5)[0]
        serial, path = tmp_path / "serial.csv", tmp_path / "cohort.csv"
        save_cohort(cohort, serial)
        forks = force_parts(monkeypatch, 3)
        with pytest.raises(KeyError, match="the body"):
            with estimation.saving_cohort(cohort, path):
                assert len(forks) == 3  # every part is a child's while the body runs
                raise KeyError("the body")
        assert path.read_bytes() == serial.read_bytes()

    def test_integer_overflow_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,e,t,los,event,z1\np1,1,5,3.0,1,0.2\np2,0,99999999999999999999,3.0,1,0.2\n")
        with pytest.raises(CohortFormatError, match="line 3"):
            load_cohort(path)

    def test_astral_integer_field_is_a_format_error_every_time(self, tmp_path):
        """numpy 2.4's loadtxt can crash the process on an integer field that
        holds a code point above about U+40000, so such a file must never
        reach it. A child process runs the loads, so that a crash fails this
        test and not the whole test run."""
        paths = []
        for char in ("\U000f0000", "\U000afe5a"):
            path = tmp_path / f"u{ord(char):x}.csv"
            path.write_text(f"id,e,t,los,event,z1\np1,1,5,3.0,1,0.2\np2,0,{char},3.0,1,0.2\n")
            paths.append(str(path))
        child = (
            "import sys\n"
            "from carecontracts.errors import CohortFormatError\n"
            "from carecontracts.estimation import load_cohort\n"
            "for path in sys.argv[1:]:\n"
            "    for _ in range(30):\n"
            "        try:\n"
            "            load_cohort(path)\n"
            "        except CohortFormatError as exc:\n"
            "            print(exc)\n"
        )
        package_root = str(Path(estimation.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-c", child, *paths],
            capture_output=True,
            text=True,
            encoding="utf-8",
            env={**os.environ, "PYTHONPATH": package_root, "PYTHONIOENCODING": "utf-8"},
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        messages = result.stdout.splitlines()
        assert len(messages) == 60
        for path, message in zip([p for p in paths for _ in range(30)], messages):
            assert message.startswith(f"{path}: line 3: invalid literal for int()")


@functools.cache
def _base_rows() -> tuple[tuple[str, ...], ...]:
    """Header and 20 rows of a valid cohort CSV, as text fields."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cohort.csv"
        save_cohort(generate_cohort(SyntheticCohortSpec(n=20, treated_fraction=0.4), 4)[0], path)
        with open(path, encoding="utf-8", newline="") as fh:
            return tuple(tuple(row) for row in csv.reader(fh))


def _lines(rows) -> list[str]:
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue().split("\n")[:-1]


# File layouts of the mutated rows: ``lines`` as csv.writer renders them,
# and ``row`` the mutated one. The first four keep every row intact.
_LAYOUTS = {
    "crlf": lambda lines, row: "\r\n".join(lines) + "\r\n",
    "lf": lambda lines, row: "\n".join(lines) + "\n",
    "cr": lambda lines, row: "\r".join(lines) + "\r",
    "no-final-newline": lambda lines, row: "\r\n".join(lines),
    "blank-line": lambda lines, row: "\r\n".join([*lines[: row + 1], "", *lines[row + 1 :]]),
    "extra-field": lambda lines, row: "\r\n".join(
        [*lines[:row], lines[row] + ",0", *lines[row + 1 :]]
    ),
    "missing-field": lambda lines, row: "\r\n".join(
        [*lines[:row], lines[row].rsplit(",", 1)[0], *lines[row + 1 :]]
    ),
    "header-only": lambda lines, row: lines[0] + "\r\n",
}
_ROWS_INTACT = ("crlf", "lf", "cr", "no-final-newline")


def _outcome(load, path):
    """What ``load`` makes of ``path``: ids and column bits, or the error text."""
    try:
        cohort = load(path)
    except CohortFormatError as exc:
        return str(exc)
    columns = (cohort.e, cohort.t, cohort.los, cohort.event, cohort.z)
    return cohort.ids.tolist(), [(c.dtype, c.shape, c.tobytes()) for c in columns]


@settings(max_examples=200, deadline=None)
@given(
    row=st.integers(1, 20),
    field=st.integers(0, 7),
    text=st.text(st.characters(blacklist_characters="\r\n", blacklist_categories=("Cs",))),
    layout=st.sampled_from(sorted(_LAYOUTS)),
)
@example(row=4, field=2, text="\u00e9", layout="crlf")
@example(row=4, field=0, text='p"4', layout="crlf")
@example(row=4, field=2, text="1_0", layout="crlf")
@example(row=4, field=2, text=" 1", layout="crlf")
@example(row=4, field=1, text="+1", layout="crlf")
@example(row=4, field=2, text="007", layout="crlf")
@example(row=4, field=5, text="\x1c1", layout="crlf")
@example(row=4, field=2, text="5", layout="blank-line")
@example(row=4, field=2, text="5", layout="extra-field")
@example(row=4, field=2, text="5", layout="missing-field")
@example(row=4, field=2, text="5", layout="header-only")
@example(row=20, field=2, text="5", layout="no-final-newline")
@example(row=4, field=2, text="5", layout="lf")
@example(row=4, field=2, text="5", layout="cr")
def test_single_field_mutation_loads_or_names_its_line(row, field, text, layout):
    """Any one field replaced by single-line text, in any file layout:
    ``load_cohort`` gives the cohort or the error text of the row reader.
    With every row intact, that is a clean load or a CohortFormatError
    naming the mutated line (for a duplicated id, the later line)."""
    _check_single_field_mutation(row, field, text, layout)


@settings(max_examples=40, deadline=None)
@given(
    row=st.integers(1, 20),
    field=st.integers(0, 7),
    text=st.text(st.characters(blacklist_characters="\r\n", blacklist_categories=("Cs",))),
    layout=st.sampled_from(sorted(_LAYOUTS)),
)
@example(row=4, field=2, text="5", layout="crlf")
@example(row=4, field=2, text="5", layout="lf")
@example(row=4, field=2, text="5", layout="cr")
@example(row=20, field=2, text="5", layout="no-final-newline")
@example(row=3, field=0, text="p01", layout="crlf")
@example(row=18, field=5, text="x", layout="lf")
def test_single_field_mutation_in_forked_parts(force_parts, row, field, text, layout):
    """The same, with the 20 rows split over three forked parts."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        force_parts(monkeypatch, 3)
        _check_single_field_mutation(row, field, text, layout)


def _check_single_field_mutation(row, field, text, layout):
    rows = [list(r) for r in _base_rows()]
    rows[row][field] = text
    line = row + 1
    if field == 0:
        twins = [i for i, r in enumerate(rows[1:], start=1) if r[0] == text and i != row]
        line = max([line] + [i + 1 for i in twins])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cohort.csv"
        path.write_bytes(_LAYOUTS[layout](_lines(rows), row).encode())
        outcome = _outcome(load_cohort, path)
        assert outcome == _outcome(estimation._load_rows, path)
    if layout in _ROWS_INTACT:
        if isinstance(outcome, str):
            assert f": line {line}:" in outcome
        else:
            assert len(outcome[0]) == 20


class TestPipeline:
    def test_recovers_planted_parameters(self, bundled_pipeline):
        spec, true_classes, result = bundled_pipeline
        params, planted = result.params, spec.planted_params()
        assert params.pi00 == pytest.approx(planted.pi00, abs=0.02)
        assert params.pi01 == pytest.approx(planted.pi01, abs=0.02)
        assert params.pi10 == pytest.approx(planted.pi10, abs=0.02)
        assert params.pi11 == pytest.approx(planted.pi11, abs=0.02)
        assert params.gamma == pytest.approx(planted.gamma, abs=0.02)
        assert result.diagnostics.n_matched == 2 * result.diagnostics.n_treated
        assert not result.diagnostics.assumption_warnings

    def test_recovers_planted_cox_coefficients(self, bundled_pipeline):
        _, _, result = bundled_pipeline
        assert result.diagnostics.cox_control["beta"] == pytest.approx(
            synthetic.BETA_CONTROL, abs=0.05
        )
        assert result.diagnostics.cox_treated["beta"] == pytest.approx(
            synthetic.BETA_TREATED, abs=0.05
        )

    def test_empty_cohort_fails_at_first_stage(self):
        with pytest.raises(StageError) as excinfo:
            run_pipeline(make_cohort(np.empty((0, 3)), 0))
        assert excinfo.value.stage == "fit_propensity"

    def test_collinear_cohort_fails_at_propensity_fit(self):
        """A balanced score makes the fit converge at iteration 0; the equal
        covariates must still be caught there, not in a later stage."""
        z1 = np.tile(np.arange(1.0, 7.0), 2)
        cohort = make_cohort(np.column_stack([z1, z1]), np.repeat([1, 0], 6), t=np.arange(1, 13))
        with pytest.raises(StageError) as excinfo:
            run_pipeline(cohort)
        assert excinfo.value.stage == "fit_propensity"
        assert "covariates are collinear" in str(excinfo.value.__cause__)

    def test_deterministic(self, rng):
        spec = SyntheticCohortSpec(n=4000, treated_fraction=0.3)
        cohort, _ = generate_cohort(spec, 21)
        a = run_pipeline(cohort)
        b = run_pipeline(cohort)
        assert a.params == b.params
        assert a.diagnostics == b.diagnostics

    def test_assumption_violation_warns_but_succeeds(self):
        # plant an ordering violation: treating good responders hurts them
        spec = SyntheticCohortSpec(
            n=20_000, treated_fraction=0.5, planted=ModelParams(0.51, 0.75, 0.85, 0.55, 0.5)
        )
        cohort, _ = generate_cohort(spec, 31)
        result = run_pipeline(cohort)
        assert any(
            note.startswith("ordering violated") for note in result.diagnostics.assumption_warnings
        )

    def test_cutoff_sets_the_good_responder_share(self, monkeypatch):
        """The pipeline applies its cutoff once: gamma_hat is the matched
        sample's share of scores strictly above it, as fraction_positive
        reports, and it falls as the cutoff rises."""
        cohort, _ = generate_cohort(SyntheticCohortSpec(n=4000, treated_fraction=0.3), 21)
        scored = []

        def recording(*args):
            scored.append(response_scores(*args))
            return scored[-1]

        monkeypatch.setattr(estimation, "response_scores", recording)
        shares = []
        for cutoff in (0.0, 0.5):
            result = run_pipeline(cohort, estimation.PipelineConfig(cutoff=cutoff))
            share = float(np.mean(scored[-1] > cutoff))
            assert len(scored[-1]) == result.diagnostics.n_matched
            assert result.params.gamma == share
            assert result.diagnostics.score_summary["fraction_positive"] == share
            shares.append(share)
        assert shares[1] < shares[0]

    def test_histogram_export_shape(self, bundled_pipeline):
        _, _, result = bundled_pipeline
        hist = result.diagnostics.histogram
        assert len(hist["bin_edges"]) == len(hist["counts"]) + 1
        assert sum(hist["counts"]) == result.diagnostics.n_matched


@pytest.mark.parametrize("n", [50, 1_000, 20_000, 100_000])
@pytest.mark.parametrize("target", [0.01, 0.1, 0.5, 0.93])
def test_intercept_bisection_stops_at_its_fixed_point(n, target):
    """Stopping once the midpoint hits an endpoint gives the bits of all 200 steps."""
    linear = np.random.default_rng(n).normal(0.3, 0.8, n)
    lo, hi = -30.0, 30.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if float(np.mean(1.0 / (1.0 + np.exp(-(mid + linear))))) < target:
            lo = mid
        else:
            hi = mid
    assert synthetic._solve_intercept(linear, target) == 0.5 * (lo + hi)


def test_the_default_cohort_plants_the_case_study(icp_params):
    assert synthetic.CASE_STUDY == icp_params
    assert SyntheticCohortSpec().planted_params() == synthetic.CASE_STUDY
