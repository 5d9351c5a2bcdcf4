"""Model parameters, payment contracts, and the reduced constraint system.

Payments are indexed by (outcome, expenditure): ``p_ij`` is paid when the
patient outcome is Q=i (1 = survival) and the expenditure level is E=j
(1 = intensive intervention, 0 = palliative care). Patients are good
responders (S=1, prevalence ``gamma``) or bad responders (S=0), and
survival is Bernoulli(``pi_sj``) in responder status s and expenditure j.
Payments are expressed in units of the provider's high-expenditure
disutility F; rendering in dollars is a presentation concern only.

Under the matched assignment rule (good responders treated intensively,
bad responders palliatively) every contract model reduces to the vectors
``c0, c1, c2`` and scalars ``b0, b1, b2``:

* ``c0 . P`` is the expected payment,
* ``c1 . P >= b1`` makes intensive care the provider's best action on a
  good responder,
* ``c2 . P >= b2`` makes palliative care the best action on a bad one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import AssumptionViolationError, InvalidParamsError, ParamsFormatError

# Probabilities are kept strictly inside (0, 1) by this guard so downstream
# closed forms never divide by zero.
PROB_GUARD = 1e-9

# Default conversion of one disutility unit F into dollars.
DEFAULT_F_DOLLARS = 10_000.0


def dollars(value: float, f_dollars: float = DEFAULT_F_DOLLARS) -> float:
    """``value`` in F units rendered in dollars, rounded to cents."""
    return round(value * f_dollars, 2)


class AssignmentRule(str, Enum):
    """Expenditure assignment rules a payer can contemplate."""

    MATCHED = "matched"
    PURE_HIGH = "pure-high"
    PURE_LOW = "pure-low"


def _check_prob(name: str, value: float) -> None:
    if not np.isfinite(value) or not (PROB_GUARD < value < 1.0 - PROB_GUARD):
        raise InvalidParamsError(
            f"{name}={value!r} must lie strictly inside ({PROB_GUARD}, {1 - PROB_GUARD})"
        )


@dataclass(frozen=True)
class ModelParams:
    """Outcome probabilities and preference weights of one contract problem.

    ``pi_sj`` is the survival probability of a responder-status-s patient
    under expenditure level j. ``w0`` is the rate at which true good
    responders are observed as bad (false negatives), ``w1`` the rate at
    which true bad responders are observed as good.
    """

    pi00: float
    pi01: float
    pi10: float
    pi11: float
    gamma: float
    phi: float = 1.0
    disutility_f: float = 1.0
    w0: float = 0.0
    w1: float = 0.0

    def __post_init__(self) -> None:
        for name in ("pi00", "pi01", "pi10", "pi11", "gamma"):
            _check_prob(name, getattr(self, name))
        if not np.isfinite(self.phi) or self.phi <= 0:
            raise InvalidParamsError(f"phi={self.phi!r} must be a positive real")
        if not np.isfinite(self.disutility_f) or self.disutility_f <= 0:
            raise InvalidParamsError(f"disutility_f={self.disutility_f!r} must be positive")
        for name in ("w0", "w1"):
            value = getattr(self, name)
            if not np.isfinite(value) or not (0.0 <= value < 1.0):
                raise InvalidParamsError(f"{name}={value!r} must lie in [0, 1)")

    def pi(self, s: int, e: int) -> float:
        """Survival probability for responder status ``s`` and expenditure ``e``."""
        return (
            (self.pi00, self.pi01),
            (self.pi10, self.pi11),
        )[s][e]

    def ordering_violations(self) -> list[str]:
        """Failed inequalities of the monotone outcome ordering, if any.

        The ordering requires that more expenditure never hurts and that
        good responders never fare worse than bad ones at equal expenditure.
        """
        checks = (
            ("pi01 >= pi00", self.pi01 >= self.pi00),
            ("pi11 >= pi10", self.pi11 >= self.pi10),
            ("pi10 >= pi00", self.pi10 >= self.pi00),
            ("pi11 >= pi01", self.pi11 >= self.pi01),
        )
        return [label for label, ok in checks if not ok]

    def distinct_benefit_margin(self) -> float:
        """Signed margin ``pi01*pi10 - pi00*pi11``.

        Zero means the relative survival benefit of being a good responder
        is identical at both expenditure levels, which degenerates the
        non-negative payment problem.
        """
        return self.pi01 * self.pi10 - self.pi00 * self.pi11

    def with_misclassification(self, w0: float, w1: float) -> "ModelParams":
        return replace(self, w0=w0, w1=w1)


def require_ordering(params: ModelParams) -> None:
    """Raise unless the monotone outcome ordering holds."""
    violations = params.ordering_violations()
    if violations:
        raise InvalidParamsError(
            "outcome probabilities violate the monotone ordering: " + ", ".join(violations)
        )


def require_distinct_benefit(params: ModelParams, atol: float = 1e-12) -> None:
    """Raise when ``pi01*pi10 == pi00*pi11`` within ``atol``.

    The boundary is rejected explicitly rather than silently returning a
    degenerate vertex.
    """
    if abs(params.distinct_benefit_margin()) <= atol:
        raise AssumptionViolationError(
            "pi01*pi10 == pi00*pi11: responder benefit is identical at both "
            "expenditure levels, the payment family is degenerate"
        )


@dataclass(frozen=True)
class Contract:
    """The four payments, ordered as the vector P = [p00, p01, p10, p11]."""

    p00: float
    p01: float
    p10: float
    p11: float

    def as_array(self) -> np.ndarray:
        return np.array([self.p00, self.p01, self.p10, self.p11], dtype=float)

    @classmethod
    def from_array(cls, vec) -> "Contract":
        p = np.asarray(vec, dtype=float)
        if p.shape != (4,):
            raise InvalidParamsError(f"contract vector must have 4 entries, got shape {p.shape}")
        return cls(*map(float, p))

    def payment(self, q: int, e: int) -> float:
        """Payment for outcome ``q`` under expenditure ``e``."""
        return ((self.p00, self.p01), (self.p10, self.p11))[q][e]


@dataclass(frozen=True)
class NormalizedSystem:
    """Coefficient vectors and right-hand sides of the reduced problem."""

    c0: np.ndarray
    c1: np.ndarray
    c2: np.ndarray
    b0: float = 0.0
    b1: float = 1.0
    b2: float = -1.0

    def __post_init__(self) -> None:
        for name in ("c0", "c1", "c2"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def stacked(self) -> np.ndarray:
        """Rows c0, c1, c2 as a 3x4 matrix."""
        return np.vstack([self.c0, self.c1, self.c2])

    def rhs(self) -> np.ndarray:
        return np.array([self.b0, self.b1, self.b2], dtype=float)


def build_normalized_system(params: ModelParams) -> NormalizedSystem:
    """Assemble the reduced constraint system for valid, ordered parameters."""
    require_ordering(params)
    g = params.gamma
    c0 = [
        (1 - g) * (1 - params.pi00),
        g * (1 - params.pi11),
        (1 - g) * params.pi00,
        g * params.pi11,
    ]
    c1 = [params.pi10 - 1.0, 1.0 - params.pi11, -params.pi10, params.pi11]
    c2 = [1.0 - params.pi00, params.pi01 - 1.0, params.pi00, -params.pi01]
    return NormalizedSystem(c0=np.array(c0), c1=np.array(c1), c2=np.array(c2))


@dataclass(frozen=True)
class SurvivalSummary:
    """Population survival under uniform low (s0) / uniform high (s1) care."""

    s0: float
    s1: float


def survival_summary(params: ModelParams) -> SurvivalSummary:
    g = params.gamma
    return SurvivalSummary(
        s0=(1 - g) * params.pi00 + g * params.pi10,
        s1=(1 - g) * params.pi01 + g * params.pi11,
    )


def expected_survival(params: ModelParams, rule: AssignmentRule | str) -> float:
    """Expected survival rate when expenditure follows ``rule``."""
    rule = AssignmentRule(rule)
    g = params.gamma
    if rule is AssignmentRule.MATCHED:
        return (1 - g) * params.pi00 + g * params.pi11
    summary = survival_summary(params)
    return summary.s1 if rule is AssignmentRule.PURE_HIGH else summary.s0


def expected_payment(
    params: ModelParams, contract: Contract, rule: AssignmentRule | str
) -> float:
    """Expected payment per patient when expenditure follows ``rule``."""
    rule = AssignmentRule(rule)
    g = params.gamma
    if rule is AssignmentRule.MATCHED:
        system = build_normalized_system(params)
        return float(system.c0 @ contract.as_array())
    e = 1 if rule is AssignmentRule.PURE_HIGH else 0
    per_status = [
        (1 - params.pi(s, e)) * contract.payment(0, e) + params.pi(s, e) * contract.payment(1, e)
        for s in (0, 1)
    ]
    return (1 - g) * per_status[0] + g * per_status[1]


def payer_utility(
    params: ModelParams, contract: Contract, rule: AssignmentRule | str = AssignmentRule.MATCHED
) -> float:
    """Expected survival minus ``phi`` times the expected payment."""
    return expected_survival(params, rule) - params.phi * expected_payment(params, contract, rule)


def provider_expected_payment(params: ModelParams, contract: Contract, s: int, e: int) -> float:
    """Expected payment to the provider given responder status and expenditure."""
    pi = params.pi(s, e)
    return (1 - pi) * contract.payment(0, e) + pi * contract.payment(1, e)


def provider_utility(params: ModelParams, contract: Contract, s: int, e: int) -> float:
    """Provider's expected payment net of the disutility of intensive care."""
    cost = params.disutility_f if e == 1 else 0.0
    return provider_expected_payment(params, contract, s, e) - cost


# --- JSON parameter files ---------------------------------------------------
#
# Schema (field names fixed):
#   { "pi": {"00": .., "01": .., "10": .., "11": ..},
#     "gamma": .., "phi": .., "F": .., "w0": .., "w1": .. }


def params_to_dict(params: ModelParams) -> dict:
    return {
        "pi": {
            "00": params.pi00,
            "01": params.pi01,
            "10": params.pi10,
            "11": params.pi11,
        },
        "gamma": params.gamma,
        "phi": params.phi,
        "F": params.disutility_f,
        "w0": params.w0,
        "w1": params.w1,
    }


def params_from_dict(data: Mapping) -> ModelParams:
    """Parse the schema above; a missing key or a wrong-typed field is a
    ``ParamsFormatError``, a value out of range an ``InvalidParamsError``."""
    try:
        pi = data["pi"]
        values = dict(
            pi00=float(pi["00"]),
            pi01=float(pi["01"]),
            pi10=float(pi["10"]),
            pi11=float(pi["11"]),
            gamma=float(data["gamma"]),
            phi=float(data.get("phi", 1.0)),
            disutility_f=float(data.get("F", 1.0)),
            w0=float(data.get("w0", 0.0)),
            w1=float(data.get("w1", 0.0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParamsFormatError(f"malformed parameter file: missing or bad field {exc}") from exc
    return ModelParams(**values)


def load_params(path: str | Path) -> ModelParams:
    with open(path, "r", encoding="utf-8") as fh:
        return params_from_dict(json.load(fh))


def dump_params(params: ModelParams, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(params_to_dict(params), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
