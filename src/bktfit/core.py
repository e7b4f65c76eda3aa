"""Core two-state mastery model: parameters, constraints, and belief updates.

The model tracks one skill. A learner is either proficient or not, and
proficiency is absorbing: once reached it is never lost. Four probabilities
govern everything observable:

    l0  chance the learner is proficient before the first attempt
    g   chance a non-proficient learner answers correctly (guess)
    s   chance a proficient learner answers incorrectly (slip)
    r   chance a non-proficient learner becomes proficient after an attempt

Conditioning the current proficiency belief p on an observed answer and then
applying the learning transition gives the belief after the attempt:

    correct:    q = p(1-s) / (p(1-s) + (1-p)g)
    incorrect:  q = ps / (ps + (1-p)(1-g))
    transition: p' = q + r(1-q)

Under repeated failures the belief cannot drop below the fixed point

    p_star = (1-g)r / (1-s-g)

which exists whenever s + g < 1. Behaviorally sensible parameters also
satisfy 1-s >= g (a proficient learner is at least as likely to answer
correctly as a non-proficient one) and p_star < l0 < 1. The signed margin

    c(theta) = (1-s-g)l0 - (1-g)r

is positive exactly when both hold strictly; the constrained fitting code
keeps c(theta) >= 0, while validate_params reports every condition
separately.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass
from typing import Iterable

import numpy as np

from .data import _flags

__all__ = [
    "ParamSet",
    "ConstraintReport",
    "ParameterError",
    "UndefinedFixedPointError",
    "PARAM_NAMES",
    "validate_params",
    "validate_values",
    "fixed_point",
    "trace_sequence",
]

PARAM_NAMES = ("l0", "g", "s", "r")


class ParameterError(ValueError):
    """A model parameter fell outside its valid range."""


class UndefinedFixedPointError(ValueError):
    """The failure-trace fixed point does not exist because s + g >= 1."""


@dataclass(frozen=True)
class ParamSet:
    """The four model probabilities, each strictly inside (0, 1).

    Construction never clamps: out-of-range input raises ParameterError.
    """

    l0: float
    g: float
    s: float
    r: float

    def __post_init__(self) -> None:
        l0, g, s, r = self.l0, self.g, self.s, self.r
        # Every M-step builds one from four floats in (0, 1), which need no more checks.
        if type(l0) is type(g) is type(s) is type(r) is float and (
            0.0 < l0 < 1.0 and 0.0 < g < 1.0 and 0.0 < s < 1.0 and 0.0 < r < 1.0
        ):
            return
        for name in PARAM_NAMES:
            value = getattr(self, name)
            if type(value) is not float:
                value = _require_real(value, f"parameter {name!r}", ParameterError)
                object.__setattr__(self, name, value)
            if not 0.0 < value < 1.0:  # NaN fails this too
                raise ParameterError(
                    f"parameter {name!r} must lie strictly between 0 and 1, got {value!r}"
                )

    def astuple(self) -> tuple[float, float, float, float]:
        return (self.l0, self.g, self.s, self.r)

    def to_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in PARAM_NAMES}

    @classmethod
    def from_dict(cls, mapping: object) -> "ParamSet":
        return cls(**param_values(mapping))


def parse_object(
    payload: object,
    names: Iterable[str],
    what: str,
    *,
    required: Iterable[str] = (),
    error: type[ValueError] = ValueError,
) -> dict[str, object]:
    """Shape-check a decoded JSON object and return its fields as keyword arguments.

    payload must be a JSON object that holds every required key and no key
    outside names; anything else raises `error`. Values pass through as they
    are: the constructor they feed checks them, from JSON and Python alike.
    """

    if not isinstance(payload, dict):
        raise error(f"{what} must be a JSON object, got {payload!r}")
    missing = [key for key in required if key not in payload]
    if missing:
        raise error(f"missing {what} keys: {', '.join(missing)}")
    unknown = sorted(set(payload) - set(names))
    if unknown:
        raise error(f"unknown {what} keys: {', '.join(unknown)}")
    return dict(payload)


def _require_int(value: object, what: str) -> None:
    """Raise ValueError unless value is an int; a bool is not one."""

    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")


def _require_real(value: object, what: str, error: type[ValueError] = ValueError) -> float:
    """value as a float; a bool, a str, bytes or any other non-real value raises `error`.

    So does an int too large for a float, such as a JSON integer of 400 digits.
    """

    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise error(f"{what} is too large for a float") from None


def param_values(payload: object, what: str = "parameter") -> dict[str, float]:
    """The four parameters of a JSON object as finite floats, not yet range-checked.

    what names the object in a shape error. Python's JSON reader turns NaN,
    Infinity and 1e400 into floats that are not finite; they are refused
    here, naming their key.
    """

    fields = parse_object(payload, PARAM_NAMES, what, required=PARAM_NAMES, error=ParameterError)
    values = {}
    for key, value in fields.items():
        number = _require_real(value, f"parameter {key!r}", ParameterError)
        if not math.isfinite(number):
            raise ParameterError(f"parameter {key!r} must be a finite number, got {number!r}")
        values[key] = number
    return values


@dataclass(frozen=True)
class ConstraintReport:
    """Per-condition verdicts for one parameter vector.

    guess_in_range, slip_in_range, transit_in_range: each of g, s, r lies
    strictly inside (0, 1). proficient_advantage: 1 - s >= g, non-strict.
    prior_above_fixed_point: p_star < l0, strict; False whenever the fixed
    point is undefined. prior_below_one: l0 < 1. margin is the signed value
    of c(theta); fixed_point is None when s + g >= 1.
    """

    guess_in_range: bool
    slip_in_range: bool
    transit_in_range: bool
    proficient_advantage: bool
    prior_above_fixed_point: bool
    prior_below_one: bool
    margin: float
    fixed_point: float | None
    satisfied: bool

    def to_dict(self) -> dict[str, object]:
        return asdict(self)


def _in_open_unit_interval(value: float) -> bool:
    return math.isfinite(value) and 0.0 < value < 1.0


def _margin(l0: float, g: float, s: float, r: float) -> float:
    """The signed constraint margin c(theta) = (1-s-g)l0 - (1-g)r."""

    return (1.0 - s - g) * l0 - (1.0 - g) * r


def _fixed_point(g: float, s: float, r: float) -> float | None:
    """p_star = (1-g)r / (1-s-g), or None when s + g >= 1 (or either is NaN)."""

    headroom = 1.0 - s - g
    return (1.0 - g) * r / headroom if headroom > 0.0 else None


def validate_values(l0: float, g: float, s: float, r: float) -> ConstraintReport:
    """Build a ConstraintReport from raw floats.

    Unlike validate_params this accepts values outside (0, 1), so it can
    report on parameter files that the ParamSet constructor would reject.
    """

    guess_in_range = _in_open_unit_interval(g)
    slip_in_range = _in_open_unit_interval(s)
    transit_in_range = _in_open_unit_interval(r)
    proficient_advantage = 1.0 - s - g >= 0.0
    margin = _margin(l0, g, s, r)
    p_star = _fixed_point(g, s, r)
    prior_above_fixed_point = p_star is not None and p_star < l0
    prior_below_one = l0 < 1.0
    satisfied = (
        guess_in_range
        and slip_in_range
        and transit_in_range
        and proficient_advantage
        and prior_above_fixed_point
        and prior_below_one
    )
    return ConstraintReport(
        guess_in_range=guess_in_range,
        slip_in_range=slip_in_range,
        transit_in_range=transit_in_range,
        proficient_advantage=proficient_advantage,
        prior_above_fixed_point=prior_above_fixed_point,
        prior_below_one=prior_below_one,
        margin=margin,
        fixed_point=p_star,
        satisfied=satisfied,
    )


def validate_params(theta: ParamSet) -> ConstraintReport:
    """Check every behavioral condition on theta and report each verdict."""

    return validate_values(theta.l0, theta.g, theta.s, theta.r)


def fixed_point(theta: ParamSet) -> float:
    """Infimum of the proficiency belief under an all-incorrect sequence.

    p_star = (1-g)r / (1-s-g). Defined only when s + g < 1.
    """

    if (p_star := _fixed_point(theta.g, theta.s, theta.r)) is None:
        raise UndefinedFixedPointError(f"fixed point undefined: s + g = {theta.s + theta.g} >= 1")
    return p_star


def trace_sequence(theta: ParamSet, observations: Iterable[object]) -> list[float]:
    """Proficiency belief after each observed attempt, starting from l0.

    Each step conditions on the answer and then applies the transition, so
    entry t is the belief held after grading attempt t. Each posterior lies
    in [0, 1] for theta in (0, 1)^4, so every entry lies in [r, 1].
    """

    obs = _flags(observations, "observation")
    if not obs:
        raise ValueError("observations must contain at least one attempt")
    p, g, s, r = theta.astuple()
    trace: list[float] = []
    for y in obs:
        if y:
            hit = p * (1.0 - s)
            q = hit / (hit + (1.0 - p) * g)
        else:
            miss = p * s
            q = miss / (miss + (1.0 - p) * (1.0 - g))
        p = q + r * (1.0 - q)
        trace.append(p)
    return trace

