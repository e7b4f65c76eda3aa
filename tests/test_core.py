"""Parameter container, constraint verdicts, and belief updates."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bktfit import (
    MasteryState,
    ParamSet,
    ParameterError,
    UndefinedFixedPointError,
    apply_transition,
    fixed_point,
    posterior_given_obs,
    predict_correct,
    trace_sequence,
    validate_params,
    validate_values,
)
from conftest import TRUE_THETA


def test_paramset_accepts_interior_values():
    theta = ParamSet(l0=0.45, g=0.25, s=0.1, r=0.3)
    assert theta.astuple() == (0.45, 0.25, 0.1, 0.3)


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.5, float("nan"), float("inf")])
@pytest.mark.parametrize("name", ["l0", "g", "s", "r"])
def test_paramset_rejects_out_of_range(name, bad):
    values = {"l0": 0.4, "g": 0.2, "s": 0.1, "r": 0.3, name: bad}
    with pytest.raises(ParameterError, match=name):
        ParamSet(**values)


def test_paramset_dict_round_trip():
    assert ParamSet.from_dict(TRUE_THETA.to_dict()) == TRUE_THETA


def test_paramset_json_round_trip():
    assert ParamSet.from_json(TRUE_THETA.to_json()) == TRUE_THETA


def test_paramset_from_dict_missing_key():
    with pytest.raises(ParameterError, match="missing parameter keys: r"):
        ParamSet.from_dict({"l0": 0.4, "g": 0.2, "s": 0.1})


def test_paramset_from_dict_unknown_key():
    with pytest.raises(ParameterError, match="unknown parameter keys"):
        ParamSet.from_dict({"l0": 0.4, "g": 0.2, "s": 0.1, "r": 0.3, "x": 1.0})


def test_paramset_from_dict_rejects_booleans():
    with pytest.raises(ParameterError, match="must be a number"):
        ParamSet.from_dict({"l0": 0.4, "g": 0.2, "s": 0.1, "r": True})


def test_mastery_state_bounds():
    assert MasteryState(1.0).p == 1.0
    with pytest.raises(ValueError):
        MasteryState(0.0)
    with pytest.raises(ValueError):
        MasteryState(1.2)


def test_fixed_point_value():
    # (1-g) r / (1-s-g) = 0.75 * 0.3 / 0.65
    assert fixed_point(TRUE_THETA) == pytest.approx(0.225 / 0.65, rel=1e-15)


def test_fixed_point_undefined_when_no_headroom():
    with pytest.raises(UndefinedFixedPointError):
        fixed_point(ParamSet(l0=0.5, g=0.6, s=0.5, r=0.2))


def test_validate_params_all_satisfied():
    report = validate_params(TRUE_THETA)
    assert report.satisfied
    assert report.margin == pytest.approx(0.65 * 0.45 - 0.75 * 0.3)
    assert report.fixed_point == pytest.approx(0.225 / 0.65)


def test_validate_params_flags_low_prior():
    report = validate_params(ParamSet(l0=0.2, g=0.25, s=0.1, r=0.3))
    assert not report.prior_above_fixed_point
    assert report.proficient_advantage
    assert not report.satisfied
    assert report.margin < 0


def test_validate_params_flags_no_advantage():
    report = validate_params(ParamSet(l0=0.5, g=0.6, s=0.5, r=0.2))
    assert not report.proficient_advantage
    assert report.fixed_point is None
    assert not report.prior_above_fixed_point
    assert not report.satisfied


def test_validate_values_out_of_range_inputs():
    report = validate_values(l0=1.2, g=0.2, s=0.1, r=0.3)
    assert not report.prior_below_one
    assert not report.satisfied
    report = validate_values(l0=0.4, g=-0.1, s=0.1, r=0.3)
    assert not report.guess_in_range
    assert not report.satisfied


def test_predict_correct_value():
    # p(1-s) + (1-p)g with p = 0.5
    value = predict_correct(TRUE_THETA, MasteryState(0.5))
    assert value == pytest.approx(0.5 * 0.9 + 0.5 * 0.25, rel=1e-15)


def test_posterior_values():
    state = MasteryState(0.5)
    post_correct = posterior_given_obs(TRUE_THETA, state, True)
    assert post_correct == pytest.approx(0.45 / (0.45 + 0.125), rel=1e-15)
    post_wrong = posterior_given_obs(TRUE_THETA, state, False)
    assert post_wrong == pytest.approx(0.05 / (0.05 + 0.375), rel=1e-15)


def test_apply_transition_value():
    assert apply_transition(TRUE_THETA, 0.4) == pytest.approx(0.4 + 0.3 * 0.6, rel=1e-15)


def test_trace_matches_manual_fold():
    observations = [True, False, True]
    trace = trace_sequence(TRUE_THETA, observations)
    p = TRUE_THETA.l0
    expected = []
    for correct in observations:
        q = posterior_given_obs(TRUE_THETA, MasteryState(p), correct)
        p = apply_transition(TRUE_THETA, q)
        expected.append(p)
    assert trace == pytest.approx(expected, rel=1e-15)
    assert len(trace) == 3


def test_trace_accepts_int_observations():
    assert trace_sequence(TRUE_THETA, [1, 0, 1]) == trace_sequence(
        TRUE_THETA, [True, False, True]
    )


def test_trace_rejects_empty():
    with pytest.raises(ValueError):
        trace_sequence(TRUE_THETA, [])


@pytest.mark.parametrize("bad", [None, 2, 0.5, "1"])
def test_trace_rejects_non_binary_observations(bad):
    with pytest.raises(ValueError, match="0/1 or boolean"):
        trace_sequence(TRUE_THETA, [bad])


_unit = st.floats(min_value=0.02, max_value=0.98)


@given(l0=_unit, g=_unit, s=_unit, r=_unit)
def test_satisfied_iff_positive_margin(l0, g, s, r):
    report = validate_params(ParamSet(l0=l0, g=g, s=s, r=r))
    assert report.satisfied == (report.margin > 0)


@given(
    l0=_unit,
    g=_unit,
    s=_unit,
    r=_unit,
    observations=st.lists(st.booleans(), min_size=1, max_size=30),
)
def test_trace_stays_in_unit_interval(l0, g, s, r, observations):
    trace = trace_sequence(ParamSet(l0=l0, g=g, s=s, r=r), observations)
    assert all(0.0 < p <= 1.0 for p in trace)


def test_failure_trace_bounded_below_by_fixed_point():
    rng = np.random.default_rng(7)
    for _ in range(50):
        l0, g, s, r = rng.uniform(0.05, 0.95, 4)
        theta = ParamSet(l0=l0, g=g, s=s, r=r)
        report = validate_params(theta)
        if not report.satisfied:
            continue
        trace = trace_sequence(theta, [False] * 60)
        floor = report.fixed_point
        assert all(p > floor - 1e-12 for p in trace)
        assert all(b <= a + 1e-15 for a, b in zip(trace, trace[1:]))
