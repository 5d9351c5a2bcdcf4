"""Model parameters, payment contracts, and the reduced constraint system.

Payments are indexed by (outcome, expenditure): ``p_ij`` is paid when the
patient outcome is Q=i (1 = survival) and the expenditure level is E=j
(1 = intensive intervention, 0 = palliative care). Patients are good
responders (S=1, prevalence ``gamma``) or bad responders (S=0), and
survival is Bernoulli(``pi_sj``) in responder status s and expenditure j.
Payments are expressed in units of the provider's high-expenditure
disutility F; rendering in dollars is a presentation concern only.

A policy is a response map ``(e_bad, e_good)``: the expenditure level an
observed bad and an observed good responder get. ``AssignmentRule`` names
the four maps. Under the params' label noise a map reaches a set of
(status, expenditure) cells, each with its probability; expected survival
and every payment coefficient are sums over those cells, a payment
coefficient through one payment row per cell. Under the matched map
(0, 1) with true labels every contract model reduces to the rows
``c0, c1, c2`` of one read-only 3x4 matrix and the right-hand sides
``b0, b1, b2 = REDUCED_RHS = (0, 1, -1)``:

* ``c0 . P`` is the expected payment,
* ``c1 . P >= b1`` makes intensive care the provider's best action on a
  good responder,
* ``c2 . P >= b2`` makes palliative care the best action on a bad one.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import InvalidParamsError, ParamsFormatError

# Probabilities are kept strictly inside (0, 1) by this guard so downstream
# closed forms never divide by zero.
PROB_GUARD = 1e-9

# Default conversion of one disutility unit F into dollars.
DEFAULT_F_DOLLARS = 10_000.0


def freeze(obj, *names: str, dtype=float) -> None:
    """Replace each named field of the frozen dataclass ``obj`` with a
    read-only array copy of ``dtype`` (None keeps the inferred dtype)."""
    for name in names:
        arr = np.array(getattr(obj, name), dtype=dtype)
        arr.flags.writeable = False
        object.__setattr__(obj, name, arr)


def dollars(value: float, f_dollars: float = DEFAULT_F_DOLLARS) -> float:
    """``value`` in F units rendered in dollars, rounded to cents."""
    return round(value * f_dollars, 2)


class AssignmentRule(str, Enum):
    """Expenditure assignment rules a payer can contemplate, each the name
    of one response map."""

    MATCHED = "matched"
    PURE_HIGH = "pure-high"
    PURE_LOW = "pure-low"
    INVERSE = "inverse"

    @property
    def response(self) -> tuple[int, int]:
        """Expenditure ``(e_bad, e_good)`` for an observed bad / good responder."""
        return {"matched": (0, 1), "pure-high": (1, 1), "pure-low": (0, 0), "inverse": (1, 0)}[
            self.value
        ]


def _check_prob(name: str, value: float) -> None:
    if not PROB_GUARD < value < 1.0 - PROB_GUARD:
        raise InvalidParamsError(
            f"{name}={value!r} must lie strictly inside ({PROB_GUARD}, {1 - PROB_GUARD})"
        )


def check_noise_rate(name: str, value: float) -> None:
    """Raise unless the label-noise rate ``value`` is in [0, 1)."""
    if not 0.0 <= value < 1.0:
        raise InvalidParamsError(f"{name}={value!r} must lie in [0, 1)")


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
    w0: float = 0.0
    w1: float = 0.0

    def __post_init__(self) -> None:
        for name in ("pi00", "pi01", "pi10", "pi11", "gamma"):
            _check_prob(name, getattr(self, name))
        if not 0.0 < self.phi < math.inf:
            raise InvalidParamsError(f"phi={self.phi!r} must be a positive real")
        for name in ("w0", "w1"):
            check_noise_rate(name, getattr(self, name))

    def pi(self, s: int, e: int) -> float:
        """Survival probability for responder status ``s`` and expenditure ``e``."""
        return ((self.pi00, self.pi01), (self.pi10, self.pi11))[s][e]

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


def require_distinct_benefit(params: ModelParams) -> None:
    """Raise when ``pi01*pi10 == pi00*pi11`` or ``pi01 == pi11`` within 1e-12.

    Both boundaries are rejected explicitly rather than silently returning
    a degenerate vertex: at ``pi01 == pi11`` the non-negative optimum is a
    wider face and the risk-averse multipliers are a ray.
    """
    if abs(params.distinct_benefit_margin()) <= 1e-12:
        raise InvalidParamsError(
            "pi01*pi10 == pi00*pi11: responder benefit is identical at both "
            "expenditure levels, the payment family is degenerate"
        )
    if params.pi11 - params.pi01 <= 1e-12:
        raise InvalidParamsError(
            "pi01 == pi11: good and bad responders survive intensive care alike, "
            "the optimal contract is not unique"
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

    def payment(self, q: int, e: int) -> float:
        """Payment for outcome ``q`` under expenditure ``e``."""
        return ((self.p00, self.p01), (self.p10, self.p11))[q][e]


# Right-hand sides b0, b1, b2 of the reduced system: constants, because
# payments are in units of F.
REDUCED_RHS = (0.0, 1.0, -1.0)


def _payment_rows(params: ModelParams, cells) -> list[float]:
    """Coefficients of P in the sum of ``weight`` times the expected payment of
    cell (status s, expenditure e) over ``cells`` of (weight, s, e), added in
    order in plain floats. A cell's row is 1 - pi_se at p0e, pi_se at p1e."""
    row = [0.0, 0.0, 0.0, 0.0]
    for weight, s, e in cells:
        pi = params.pi(s, e)
        row[e] += weight * (1 - pi)
        row[2 + e] += weight * pi
    return row


def _response_cells(params: ModelParams, response, w0: float, w1: float) -> tuple:
    """Cells (P(status, expenditure), s, e) of the map ``response`` when a good
    responder is observed bad at rate ``w0`` and a bad one good at rate ``w1``:
    one per status for a constant map, whose expenditure no label changes,
    and one per (status, observed class) otherwise, status-major."""
    g, (e_bad, e_good) = params.gamma, response
    if e_bad == e_good:
        return ((1 - g, 0, e_bad), (g, 1, e_good))
    shares = ((1 - g) * (1 - w1), (1 - g) * w1, g * w0, g * (1 - w0))
    return tuple(zip(shares, (0, 0, 1, 1), response * 2))


def build_normalized_system(params: ModelParams) -> np.ndarray:
    """The reduced system for valid, ordered parameters as a read-only 3x4
    matrix with rows ``c0, c1, c2``: the matched map's payment with true
    labels and each class's incentive as a row difference."""
    require_ordering(params)
    system = np.array(
        [
            _payment_rows(params, _response_cells(params, AssignmentRule.MATCHED.response, 0.0, 0.0)),
            _payment_rows(params, ((1.0, 1, 1), (-1.0, 1, 0))),
            _payment_rows(params, ((1.0, 0, 0), (-1.0, 0, 1))),
        ]
    )
    system.flags.writeable = False
    return system


def expected_survival(params: ModelParams, rule: AssignmentRule | str) -> float:
    """Expected survival rate when expenditure follows ``rule``'s response map
    and each patient is observed through the params' label noise."""
    survival = 0.0
    for weight, s, e in _response_cells(params, AssignmentRule(rule).response, params.w0, params.w1):
        survival += weight * params.pi(s, e)
    return survival


def payment_coefficients(params: ModelParams, rule: AssignmentRule | str) -> np.ndarray:
    """Expected-payment coefficients of P when expenditure follows ``rule``'s
    response map under the params' label noise; the provider acts on the
    observed label, so each cell mixes true good and bad responders. The
    matched map's vector is ``c0`` without noise."""
    cells = _response_cells(params, AssignmentRule(rule).response, params.w0, params.w1)
    return np.array(_payment_rows(params, cells))


def expected_payment(params: ModelParams, contract: Contract, rule: AssignmentRule | str) -> float:
    """Expected payment per patient when expenditure follows ``rule``'s
    response map, under the params' label noise as in :func:`expected_survival`."""
    return float(payment_coefficients(params, rule) @ contract.as_array())


def payer_utility(
    params: ModelParams, contract: Contract, rule: AssignmentRule | str = AssignmentRule.MATCHED
) -> float:
    """Expected survival minus ``phi`` times the expected payment."""
    return expected_survival(params, rule) - params.phi * expected_payment(params, contract, rule)


def provider_expected_payment(params: ModelParams, contract: Contract, s: int, e: int) -> float:
    """Expected payment to the provider given responder status and expenditure."""
    return float(np.dot(_payment_rows(params, ((1.0, s, e),)), contract.as_array()))


def provider_utility(params: ModelParams, contract: Contract, s: int, e: int) -> float:
    """Provider's expected payment net of the disutility of intensive care,
    which is the payment unit F."""
    return provider_expected_payment(params, contract, s, e) - e


# --- JSON parameter files ---------------------------------------------------
#
# Schema (field names fixed):
#   { "pi": {"00": .., "01": .., "10": .., "11": ..},
#     "gamma": .., "phi": .., "F": .., "w0": .., "w1": .. }
# F is the payment unit, so it must be 1 when given.


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
        "F": 1.0,
        "w0": params.w0,
        "w1": params.w1,
    }


def json_number(name: str, value) -> float:
    """JSON field ``name`` as a float; a string, a boolean or null is a TypeError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name!r}: {value!r:.40} is not a JSON number")
    return float(value)


def params_from_dict(data: Mapping) -> ModelParams:
    """Parse the schema above; a missing key or a wrong-typed field is a
    ``ParamsFormatError``, a value out of range an ``InvalidParamsError``."""
    try:
        pi = data["pi"]
        unit = json_number("F", data.get("F", 1.0))
        values = dict(
            pi00=json_number("pi.00", pi["00"]),
            pi01=json_number("pi.01", pi["01"]),
            pi10=json_number("pi.10", pi["10"]),
            pi11=json_number("pi.11", pi["11"]),
            gamma=json_number("gamma", data["gamma"]),
            phi=json_number("phi", data.get("phi", 1.0)),
            w0=json_number("w0", data.get("w0", 0.0)),
            w1=json_number("w1", data.get("w1", 0.0)),
        )
    except (KeyError, TypeError, OverflowError) as exc:
        raise ParamsFormatError(f"malformed parameter file: missing or bad field {exc}") from exc
    if unit != 1.0:
        raise InvalidParamsError(f"F={unit!r} must be 1: payments are in units of F")
    return ModelParams(**values)


def read_json(path: str | Path):
    """The JSON value in the file at ``path``; text that is not UTF-8 or
    not JSON, or nested too deeply for the parser, is a
    ``ParamsFormatError`` naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ParamsFormatError(f"{path}: {exc}") from exc
        except RecursionError:
            raise ParamsFormatError(f"{path}: JSON nested too deeply") from None


def load_params(path: str | Path) -> ModelParams:
    return params_from_dict(read_json(path))


def write_json(payload, out: str | Path | None = None) -> None:
    """Write ``payload`` as strict JSON (NaN or infinity raise ValueError),
    indented, keys sorted, newline-terminated, to file ``out`` or stdout."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def dump_params(params: ModelParams, path: str | Path) -> None:
    write_json(params_to_dict(params), path)
