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

import json
import math
from dataclasses import asdict, dataclass
from typing import Iterable, Mapping

from .data import _as_bool_tuple

__all__ = [
    "ParamSet",
    "MasteryState",
    "ConstraintReport",
    "ParameterError",
    "UndefinedFixedPointError",
    "PARAM_NAMES",
    "validate_params",
    "validate_values",
    "fixed_point",
    "predict_correct",
    "posterior_given_obs",
    "apply_transition",
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
        for name in PARAM_NAMES:
            value = getattr(self, name)
            value = float(value)
            if not (0.0 < value < 1.0) or not math.isfinite(value):
                raise ParameterError(
                    f"parameter {name!r} must lie strictly between 0 and 1, got {value!r}"
                )
            object.__setattr__(self, name, value)

    def astuple(self) -> tuple[float, float, float, float]:
        return (self.l0, self.g, self.s, self.r)

    def to_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in PARAM_NAMES}

    @classmethod
    def from_dict(cls, mapping: object) -> "ParamSet":
        return cls(**param_values(mapping))

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "ParamSet":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParameterError(f"invalid parameter JSON: {exc}") from exc
        return cls.from_dict(payload)


_KIND_NAMES = {float: "a number", int: "an integer", dict: "a JSON object", list: "a list"}


def parse_object(
    payload: object,
    kinds: Mapping[str, type],
    what: str,
    *,
    required: Iterable[str] = (),
    error: type[ValueError] = ValueError,
) -> dict[str, object]:
    """Type-check a decoded JSON object and return its fields as keyword arguments.

    kinds maps every allowed key to float, int, dict or list. A float field
    takes any JSON number and returns a float; an int field refuses 2.5; no
    field takes a boolean. Anything else raises `error`, so a malformed file
    never reaches a constructor with a wrong type.
    """

    if not isinstance(payload, dict):
        raise error(f"{what} must be a JSON object, got {payload!r}")
    missing = [key for key in required if key not in payload]
    if missing:
        raise error(f"missing {what} keys: {', '.join(missing)}")
    unknown = sorted(set(payload) - set(kinds))
    if unknown:
        raise error(f"unknown {what} keys: {', '.join(unknown)}")
    fields: dict[str, object] = {}
    for key, value in payload.items():
        kind = kinds[key]
        accepted = (int, float) if kind is float else kind
        if isinstance(value, bool) or not isinstance(value, accepted):
            raise error(f"{what} {key!r} must be {_KIND_NAMES[kind]}, got {value!r}")
        if kind is float:
            try:
                value = float(value)
            except OverflowError:
                raise error(f"{what} {key!r} is too large for a float") from None
        fields[key] = value
    return fields


def param_values(payload: object) -> dict[str, float]:
    """The four parameters of a JSON object as floats, not yet range-checked."""

    kinds = dict.fromkeys(PARAM_NAMES, float)
    return parse_object(  # type: ignore[return-value]
        payload, kinds, "parameter", required=PARAM_NAMES, error=ParameterError
    )


@dataclass(frozen=True)
class MasteryState:
    """Current proficiency belief for one learner.

    The belief may approach its bounds through iteration but 0 itself is
    unreachable (a learner is never provably non-proficient), so p is kept
    in (0, 1].
    """

    p: float

    def __post_init__(self) -> None:
        p = float(self.p)
        if not (0.0 < p <= 1.0):
            raise ParameterError(f"mastery probability must be in (0, 1], got {p!r}")
        object.__setattr__(self, "p", p)


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


def validate_values(l0: float, g: float, s: float, r: float) -> ConstraintReport:
    """Build a ConstraintReport from raw floats.

    Unlike validate_params this accepts values outside (0, 1), so it can
    report on parameter files that the ParamSet constructor would reject.
    """

    guess_in_range = _in_open_unit_interval(g)
    slip_in_range = _in_open_unit_interval(s)
    transit_in_range = _in_open_unit_interval(r)
    headroom = 1.0 - s - g
    proficient_advantage = headroom >= 0.0
    margin = _margin(l0, g, s, r)
    if headroom > 0.0:
        p_star: float | None = (1.0 - g) * r / headroom
        prior_above_fixed_point = p_star < l0
    else:
        p_star = None
        prior_above_fixed_point = False
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

    headroom = 1.0 - theta.s - theta.g
    if headroom <= 0.0:
        raise UndefinedFixedPointError(
            f"fixed point undefined: s + g = {theta.s + theta.g} >= 1"
        )
    return (1.0 - theta.g) * theta.r / headroom


def predict_correct(theta: ParamSet, state: MasteryState) -> float:
    """Probability the next answer is correct given the current belief."""

    p = state.p
    return p * (1.0 - theta.s) + (1.0 - p) * theta.g


def posterior_given_obs(theta: ParamSet, state: MasteryState, correct: bool) -> float:
    """Proficiency belief conditioned on one observed answer."""

    p = state.p
    if correct:
        hit = p * (1.0 - theta.s)
        return hit / (hit + (1.0 - p) * theta.g)
    miss = p * theta.s
    return miss / (miss + (1.0 - p) * (1.0 - theta.g))


def apply_transition(theta: ParamSet, posterior: float) -> float:
    """Advance the conditioned belief by one learning opportunity."""

    if not (0.0 <= posterior <= 1.0):
        raise ValueError(f"posterior must be in [0, 1], got {posterior!r}")
    return posterior + theta.r * (1.0 - posterior)


def trace_sequence(theta: ParamSet, observations: Iterable[object]) -> list[float]:
    """Proficiency belief after each observed attempt, starting from l0.

    Each step conditions on the answer and then applies the transition, so
    entry t is the belief held after grading attempt t.
    """

    obs = _as_bool_tuple(observations, "observation")
    if not obs:
        raise ValueError("observations must contain at least one attempt")
    p = theta.l0
    trace: list[float] = []
    for y in obs:
        p = apply_transition(theta, posterior_given_obs(theta, MasteryState(p), y))
        trace.append(p)
    return trace

