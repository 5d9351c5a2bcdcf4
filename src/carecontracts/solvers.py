"""Closed-form optimal contracts for the three provider risk profiles.

Three models share the reduced system (c0, c1, c2 / b0, b1, b2):

* free payment: fines allowed, the binding system pins expected payment
  at zero and leaves ``p11`` as the free parameter of an affine family;
* non-negative payment: a linear program whose optimum is the responder
  prevalence ``gamma``, attained on a segment parameterized by t in [0,1];
* risk-averse provider: payments enter the incentive constraints through
  a concave transform g, and the optimum pays g^-1(1) for intensive care
  and g^-1(0) otherwise, certified by a full KKT residual check.

Every solver here has an independent brute-force counterpart in
:mod:`carecontracts.lp`; the test suite certifies one against the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .domain import (
    AssignmentRule,
    Contract,
    ModelParams,
    NormalizedSystem,
    _payment_coefficients,
    build_normalized_system,
    expected_survival,
    freeze,
    require_distinct_benefit,
    require_ordering,
)
from .errors import InvalidParamsError, NumericalError, SingularMatrixError
from .lp import StandardFormLP, solve_linear_system, solve_lp

FEASIBILITY_TOL = 1e-9
FAMILY_TOL = 1e-2
KKT_TOL = 1e-8
PROBE_UPPER = 4.0
# Strictness margin on the solvability condition s1 < 1; values this close
# to the boundary produce numerically useless contracts.
SOLVABILITY_MARGIN = 1e-6


# --- solvability ------------------------------------------------------------


@dataclass(frozen=True)
class SolvabilityCertificate:
    """Whether the binding free-payment system admits a solution."""

    solvable: bool
    s1: float


def check_binding_solvability(params: ModelParams) -> SolvabilityCertificate:
    """Solvability of the binding system.

    The system is solvable iff the uniform-high survival rate s1 stays
    strictly below one; ``SOLVABILITY_MARGIN`` guards the boundary.
    """
    require_ordering(params)
    s1 = expected_survival(params, AssignmentRule.PURE_HIGH)
    return SolvabilityCertificate(solvable=bool(s1 < 1.0 - SOLVABILITY_MARGIN), s1=s1)


# --- free payment model -----------------------------------------------------


@dataclass(frozen=True)
class FreePaymentSolution:
    """A member of the zero-expected-payment family, indexed by ``p11``.

    ``sensitivity`` holds (dp00/dp11, dp01/dp11, dp10/dp11): raising the
    reward for intensive care with survival forces the low-expenditure
    survival payment up and the two death payments down.
    """

    contract: Contract
    sensitivity: np.ndarray

    def __post_init__(self) -> None:
        freeze(self, "sensitivity")


def free_payment_sensitivity(params: ModelParams) -> np.ndarray:
    """(dp00/dp11, dp01/dp11, dp10/dp11) along the binding family."""
    s0 = expected_survival(params, AssignmentRule.PURE_LOW)
    s1 = expected_survival(params, AssignmentRule.PURE_HIGH)
    den = (params.pi10 - params.pi00) * (1.0 - s1)
    spread = params.pi11 - params.pi01
    return np.array([-spread * s0 / den, -s1 / (1.0 - s1), spread * (1.0 - s0) / den])


def solve_free_payment(params: ModelParams, p11: float = 1.0) -> FreePaymentSolution:
    """Contract with zero expected payment and both incentives binding.

    ``p11`` is free; the remaining payments follow in closed form. Fails
    when s1 >= 1 or pi10 == pi00 (the family's denominator vanishes).
    """
    cert = check_binding_solvability(params)
    if not cert.solvable:
        raise InvalidParamsError(
            f"binding system unsolvable: uniform-high survival s1={cert.s1:.6f} is not < 1"
        )
    if params.pi10 - params.pi00 <= 1e-12:
        raise InvalidParamsError("pi10 == pi00: free-payment family denominator vanishes")

    pi00, pi01, pi10, pi11 = params.pi00, params.pi01, params.pi10, params.pi11
    g = params.gamma
    s0 = expected_survival(params, AssignmentRule.PURE_LOW)
    s1 = expected_survival(params, AssignmentRule.PURE_HIGH)
    den = (pi10 - pi00) * (1.0 - s1)
    spread = pi11 - pi01

    p00 = (
        -p11 * spread * s0
        + g * (pi00 * pi01 - 2 * pi00 * pi11 + pi00 + pi10 * pi11 - pi10)
        + pi00 * spread
    ) / den
    p01 = (1.0 - g - p11 * s1) / (1.0 - s1)
    p10 = (
        p11 * spread * (1.0 - s0)
        + g * (pi00 * pi01 - 2 * pi00 * pi11 + pi00 - pi01 + pi10 * pi11 - pi10 + pi11)
        - (1.0 - pi00) * spread
    ) / den

    return FreePaymentSolution(
        contract=Contract(p00, p01, p10, float(p11)),
        sensitivity=free_payment_sensitivity(params),
    )


# --- non-negative payment model ----------------------------------------------


@dataclass(frozen=True)
class NonNegativeSolution:
    """A point of the optimal segment: p = (0, t, 0, (1 - t(1-pi11))/pi11)."""

    contract: Contract
    t: float
    slack_v1: float
    slack_v2: float
    optimal_value: float


def solve_non_negative(params: ModelParams, t: float = 0.0) -> NonNegativeSolution:
    """Optimal non-negative contract for family parameter ``t`` in [0, 1].

    Every member costs exactly ``gamma`` in expectation; t = 0 maximizes
    the incentive gap v2, t = 1 closes it.
    """
    require_ordering(params)
    require_distinct_benefit(params)
    if not (0.0 <= t <= 1.0):
        raise ValueError(f"family parameter t={t!r} must lie in [0, 1]")
    pi11, pi01 = params.pi11, params.pi01
    p11 = (1.0 - t * (1.0 - pi11)) / pi11
    return NonNegativeSolution(
        contract=Contract(0.0, float(t), 0.0, p11),
        t=float(t),
        slack_v1=0.0,
        slack_v2=(1.0 - t) * (1.0 - pi01 / pi11),
        optimal_value=params.gamma,
    )


def misclassified_objective(params: ModelParams) -> np.ndarray:
    """Expected-payment coefficients of the matched map under the params'
    label noise: the provider acts on the observed label, so each contract
    cell mixes true good and bad responders through the false negative rate
    ``w0`` and false positive rate ``w1``. Equal to ``c0`` without noise."""
    return np.array(
        _payment_coefficients(params, AssignmentRule.MATCHED.response, params.w0, params.w1)
    )


@dataclass(frozen=True)
class MisclassifiedSolution:
    """Unique optimum under label noise, with its objective value m_w."""

    contract: Contract
    slack_v1: float
    slack_v2: float
    optimal_value: float
    objective: np.ndarray

    def __post_init__(self) -> None:
        freeze(self, "objective")


def solve_non_negative_misclassified(params: ModelParams) -> MisclassifiedSolution:
    """Optimal non-negative contract when responder labels are noisy.

    The optimum is the maximal-gap contract (0, 0, 0, 1/pi11) regardless
    of the noise rates; only the value moves:
    m_w = gamma * (1 - pi01*w1/pi11 - w0) + pi01*w1/pi11.
    """
    require_ordering(params)
    require_distinct_benefit(params)
    pi01, pi11, g = params.pi01, params.pi11, params.gamma
    leak = pi01 * params.w1 / pi11
    return MisclassifiedSolution(
        contract=Contract(0.0, 0.0, 0.0, 1.0 / pi11),
        slack_v1=0.0,
        slack_v2=1.0 - pi01 / pi11,
        optimal_value=g * (1.0 - leak - params.w0) + leak,
        objective=misclassified_objective(params),
    )


def misclassification_raises_cost(params: ModelParams) -> bool:
    """Sign test: label noise raises the payer's cost iff
    pi01*w1 / (pi11*w0 + pi01*w1) > gamma."""
    numerator = params.pi01 * params.w1
    denominator = params.pi11 * params.w0 + numerator
    if denominator == 0.0:
        return False
    return numerator / denominator > params.gamma


# --- risk-averse provider model ----------------------------------------------


@dataclass(frozen=True)
class UtilityTransform:
    """Concave money-to-utility map g with its inverse and the inverse's slope.

    All three callables must accept numpy arrays elementwise.
    """

    name: str
    forward: Callable[[np.ndarray], np.ndarray]
    inverse: Callable[[np.ndarray], np.ndarray]
    inverse_derivative: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self) -> None:
        """Checked when built: bijectivity, concavity, positivity and inverse
        consistency are probed on a 64-point grid over [0, PROBE_UPPER]."""
        x = np.linspace(0.0, PROBE_UPPER, 64)
        fx = np.asarray(self.forward(x), dtype=float)
        if not np.all(np.isfinite(fx)):
            raise InvalidParamsError("transform produced non-finite values on the probe grid")
        if abs(float(fx[0])) > 1e-9:
            raise InvalidParamsError(f"g(0) = {fx[0]!r}, expected 0 for a bijection of [0, inf)")
        if np.any(np.diff(fx) <= 0):
            raise InvalidParamsError("transform is not strictly increasing on the probe grid")
        if np.any(fx[1:] <= 0):
            raise InvalidParamsError("transform is not positive for positive arguments")
        # midpoint concavity on consecutive grid triples
        if np.any(fx[1:-1] < 0.5 * (fx[:-2] + fx[2:]) - 1e-9):
            raise InvalidParamsError("transform fails midpoint concavity on the probe grid")
        back = np.asarray(self.inverse(fx), dtype=float)
        if np.max(np.abs(back - x)) > 1e-10 * PROBE_UPPER:
            raise InvalidParamsError("inverse(g(x)) deviates from x beyond 1e-10 on the grid")
        # slope of the inverse vs central differences, away from the endpoints
        y = np.asarray(self.forward(x[1:-1]), dtype=float)
        h = 1e-6
        fd = (np.asarray(self.inverse(y + h)) - np.asarray(self.inverse(y - h))) / (2 * h)
        slope = np.asarray(self.inverse_derivative(y), dtype=float)
        if np.max(np.abs(slope - fd) / np.maximum(1.0, np.abs(fd))) > 1e-4:
            raise InvalidParamsError("inverse_derivative disagrees with finite differences")

    @classmethod
    def power(cls, exponent: float) -> "UtilityTransform":
        """g(x) = x**a for a in (0, 1]; a = 1 is the risk-neutral boundary."""
        if not (0.0 < exponent <= 1.0):
            raise InvalidParamsError(f"power exponent {exponent!r} must lie in (0, 1]")
        inv_exp = 1.0 / exponent
        return cls(
            name=f"power:{exponent:g}",
            forward=lambda x: np.power(x, exponent),
            inverse=lambda y: np.power(y, inv_exp),
            inverse_derivative=lambda y: inv_exp * np.power(y, inv_exp - 1.0),
        )

    @classmethod
    def log(cls) -> "UtilityTransform":
        """g(x) = ln(1 + x), inverse exp(y) - 1."""
        return cls(
            name="log",
            forward=np.log1p,
            inverse=np.expm1,
            inverse_derivative=np.exp,
        )

    @classmethod
    def parse(cls, spec: str) -> "UtilityTransform":
        """Build from a CLI-style spec: ``power:<a>`` or ``log``."""
        if spec == "log":
            return cls.log()
        if spec.startswith("power:"):
            return cls.power(float(spec.split(":", 1)[1]))
        raise InvalidParamsError(f"unknown transform spec {spec!r}")


@dataclass(frozen=True)
class KKTReport:
    """Residuals of the first-order optimality system at a candidate point."""

    stationarity: float
    primal_violation: float
    dual_violation: float
    complementarity: float

    @property
    def max_residual(self) -> float:
        return max(self.stationarity, self.primal_violation, self.dual_violation, self.complementarity)


@dataclass(frozen=True)
class RiskAverseSolution:
    """Optimal transformed payments W, the money contract, and multipliers."""

    w_contract: np.ndarray
    contract: Contract
    lambda1: float
    lambda2: float
    mu: np.ndarray  # (mu00, mu01, mu10, mu11)
    optimal_value: float
    kkt: KKTReport

    def __post_init__(self) -> None:
        freeze(self, "w_contract", "mu")


def _kkt_report(
    system: NormalizedSystem,
    g: UtilityTransform,
    w: np.ndarray,
    lambda1: float,
    lambda2: float,
    mu: np.ndarray,
) -> KKTReport:
    grad = system.c0 * np.asarray(g.inverse_derivative(w), dtype=float)
    stationarity = float(np.max(np.abs(grad - lambda1 * system.c1 - lambda2 * system.c2 - mu)))
    slack1 = float(system.c1 @ w - system.b1)
    slack2 = float(system.c2 @ w - system.b2)
    primal = max(0.0, -slack1, -slack2, float(-np.min(w)))
    dual = max(0.0, -lambda1, -lambda2, float(-np.min(mu)))
    comp = max(abs(lambda1 * slack1), abs(lambda2 * slack2), float(np.max(np.abs(mu * w))))
    return KKTReport(stationarity, primal, dual, comp)


def solve_risk_averse(params: ModelParams, g: UtilityTransform) -> RiskAverseSolution:
    """Optimal contract for a provider with concave payment utility ``g``.

    The transformed optimum is W = (0, 1, 0, 1): payment utility depends
    only on the expenditure level, so outcome-contingent incentives
    vanish. Multipliers come from a direct solve of the stationarity
    system restricted to the active constraints; the full KKT residual
    must pass at 1e-8.
    """
    require_ordering(params)
    require_distinct_benefit(params)

    system = build_normalized_system(params)
    w = np.array([0.0, 1.0, 0.0, 1.0])
    pay = np.asarray(g.inverse(w), dtype=float)
    slope = np.asarray(g.inverse_derivative(w), dtype=float)

    # Stationarity at W: [c1 | c2 | e1 | e3] (lambda1, lambda2, mu00, mu10) = c0 * inv_slope
    columns = np.column_stack(
        [system.c1, system.c2, np.array([1.0, 0, 0, 0]), np.array([0, 0, 1.0, 0])]
    )
    rhs = system.c0 * slope
    try:
        lam1, lam2, mu00, mu10 = solve_linear_system(columns, rhs)
    except SingularMatrixError:
        # pi01 == pi11 leaves a multiplier ray; pick its lambda2 = 0 member.
        lam1 = params.gamma * float(slope[3])
        lam2 = 0.0
        mu00 = float(rhs[0] - lam1 * system.c1[0])
        mu10 = float(rhs[2] - lam1 * system.c1[2])

    mu = np.array([mu00, 0.0, mu10, 0.0])
    report = _kkt_report(system, g, w, float(lam1), float(lam2), mu)
    if report.max_residual > KKT_TOL:
        raise NumericalError(
            f"KKT residual {report.max_residual:.3e} exceeds {KKT_TOL:.1e} at the closed form"
        )
    return RiskAverseSolution(
        w_contract=w,
        contract=Contract.from_array(pay),
        lambda1=float(lam1),
        lambda2=float(lam2),
        mu=mu,
        optimal_value=params.gamma * float(pay[1]),
        kkt=report,
    )


# --- feasibility / optimality certification -----------------------------------


@dataclass(frozen=True)
class ConstraintStatus:
    name: str
    value: float
    bound: float
    slack: float
    satisfied: bool


@dataclass(frozen=True)
class ContractCertificate:
    """Report-only audit of a contract against one model's constraints."""

    model: str
    feasible: bool
    constraints: tuple[ConstraintStatus, ...]
    expected_payment: float
    optimality_gap: float
    distance_to_optimal_family: float
    near_optimal: bool


def _nonneg_segment_ends(params: ModelParams) -> tuple[np.ndarray, ...]:
    """The t = 0 and t = 1 ends of the optimal non-negative segment."""
    return tuple(solve_non_negative(params, t).contract.as_array() for t in (0.0, 1.0))


def _segment_distance(x: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    d = b - a
    denom = float(d @ d)
    t = 0.0 if denom == 0.0 else min(1.0, max(0.0, float((x - a) @ d) / denom))
    return float(np.linalg.norm(x - (a + t * d)))


def _line_distance(x: np.ndarray, point: np.ndarray, direction: np.ndarray) -> float:
    d = direction / np.linalg.norm(direction)
    offset = x - point
    return float(np.linalg.norm(offset - (offset @ d) * d))


def verify_contract(
    params: ModelParams,
    contract: Contract,
    model: str,
    *,
    g: UtilityTransform | None = None,
) -> ContractCertificate:
    """Audit ``contract`` against model ``model`` in {free, nonneg, nonneg-w,
    risk-averse}; reports signed slacks, never raises on infeasibility.

    ``near_optimal`` flags feasible contracts within ``FAMILY_TOL``
    (euclidean, in payment space) of the known optimal family.
    """
    system = build_normalized_system(params)
    p = contract.as_array()

    def status(name: str, value: float, bound: float) -> ConstraintStatus:
        slack = value - bound
        return ConstraintStatus(name, value, bound, slack, slack >= -FEASIBILITY_TOL)

    # the risk-averse provider weighs incentives in transformed payments
    utility = p
    if model == "risk-averse":
        if g is None:
            raise InvalidParamsError("risk-averse verification needs a utility transform")
        utility = np.asarray(g.forward(np.maximum(p, 0.0)), dtype=float)
    constraints = [
        status("treat-good-responders", float(system.c1 @ utility), system.b1),
        status("spare-bad-responders", float(system.c2 @ utility), system.b2),
    ]
    if model != "free":
        for idx, name in enumerate(("p00", "p01", "p10", "p11")):
            constraints.append(status(f"{name} >= 0", float(p[idx]), 0.0))

    expected = float(system.c0 @ p)
    if model == "free":
        constraints.append(status("nonnegative-expected-payment", expected, 0.0))
        base = solve_free_payment(params, 0.0).contract.as_array()
        direction = np.append(free_payment_sensitivity(params), 1.0)
        distance = _line_distance(p, base, direction)
        gap = abs(expected - 0.0)
    elif model == "nonneg":
        distance = _segment_distance(p, *_nonneg_segment_ends(params))
        gap = expected - params.gamma
    elif model == "nonneg-w":
        solution = solve_non_negative_misclassified(params)
        distance = float(np.linalg.norm(p - solution.contract.as_array()))
        gap = float(solution.objective @ p) - solution.optimal_value
    elif model == "risk-averse":
        # the closed form of solve_risk_averse: W = (0, 1, 0, 1), paid at g^-1(W)
        optimum = np.asarray(g.inverse(np.array([0.0, 1.0, 0.0, 1.0])), dtype=float)
        distance = float(np.linalg.norm(p - optimum))
        gap = expected - params.gamma * float(optimum[1])
    else:
        raise ValueError(f"unknown model kind {model!r}")

    feasible = all(c.satisfied for c in constraints)
    return ContractCertificate(
        model=model,
        feasible=feasible,
        constraints=tuple(constraints),
        expected_payment=expected,
        optimality_gap=float(gap),
        distance_to_optimal_family=distance,
        near_optimal=bool(feasible and distance <= FAMILY_TOL),
    )


# --- oracle bridges ----------------------------------------------------------


def non_negative_lp(params: ModelParams):
    """The slack-variable standard form of the non-negative payment model.

    Variables are (p00, p01, p10, p11, v1, v2); the objective is the
    expected payment under the params' label noise, which is ``c0`` when
    ``w0`` and ``w1`` are zero.
    """
    system = build_normalized_system(params)
    eq = np.vstack(
        [
            np.concatenate([system.c1, [-1.0, 0.0]]),
            np.concatenate([system.c2, [0.0, -1.0]]),
        ]
    )
    return StandardFormLP(
        objective=np.concatenate([misclassified_objective(params), [0.0, 0.0]]),
        eq_matrix=eq,
        eq_rhs=np.array([system.b1, system.b2]),
    )


def binding_system_solution(params: ModelParams, p11: float) -> np.ndarray:
    """Independent route to the free-payment contract: direct 3x3 solve
    of the binding system with ``p11`` pinned."""
    system = build_normalized_system(params)
    stacked = system.stacked()
    rhs = system.rhs() - stacked[:, 3] * p11
    head = solve_linear_system(stacked[:, :3], rhs)
    return np.append(head, p11)


CERTIFIED_CLAIMS = (
    "non-negative closed form vs vertex enumeration",
    "free-payment closed form vs direct binding solve",
    "label-noise optimum vs vertex enumeration",
    "risk-averse KKT certificate",
)


def certify(params: ModelParams, g: UtilityTransform) -> dict[str, bool]:
    """Check every closed form against its independent route, keyed by
    :data:`CERTIFIED_CLAIMS`.

    The non-negative optimum must match vertex enumeration without label
    noise in value and lie on the closed-form segment at every optimal
    vertex; the free-payment contract must match a direct solve of the
    binding system; the
    label-noise optimum must match enumeration under the noisy objective;
    and the risk-averse contract, mapped back through ``g``, must pass the
    KKT residual check at 1e-8 with the solver's multipliers.
    """
    result = solve_lp(non_negative_lp(params.with_misclassification(0.0, 0.0)))
    lo, hi = _nonneg_segment_ends(params)
    nonneg_ok = (
        result.status == "optimal"
        and abs(result.value - params.gamma) <= 1e-8
        and all(
            _segment_distance(point.solution[:4], lo, hi) <= 1e-8
            for point in result.optimal_points
        )
    )

    closed = solve_free_payment(params, p11=1.0).contract.as_array()
    free_ok = float(np.max(np.abs(closed - binding_system_solution(params, 1.0)))) <= 1e-8

    noisy = solve_non_negative_misclassified(params)
    noisy_lp = solve_lp(non_negative_lp(params))
    p = noisy.contract.as_array()
    noisy_ok = (
        noisy_lp.status == "optimal"
        and abs(noisy_lp.value - noisy.optimal_value) <= 1e-8
        and abs(float(noisy.objective @ p) - noisy.optimal_value) <= 1e-10
        and any(
            float(np.max(np.abs(point.solution[:4] - p))) <= 1e-8
            for point in noisy_lp.optimal_points
        )
    )

    # the solver raises on its own residual, so recompute it from the contract it returns
    averse = solve_risk_averse(params, g)
    w = np.asarray(g.forward(averse.contract.as_array()), dtype=float)
    system = build_normalized_system(params)
    kkt = _kkt_report(system, g, w, averse.lambda1, averse.lambda2, averse.mu)

    verdicts = (nonneg_ok, free_ok, noisy_ok, kkt.max_residual <= KKT_TOL)
    return {claim: bool(ok) for claim, ok in zip(CERTIFIED_CLAIMS, verdicts)}
