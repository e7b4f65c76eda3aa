"""Parameter container, constraint verdicts, and belief updates."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bktfit import (
    ParamSet,
    ParameterError,
    UndefinedFixedPointError,
    fixed_point,
    trace_sequence,
    validate_params,
)
from bktfit.core import validate_values
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


def test_paramset_from_dict_missing_key():
    with pytest.raises(ParameterError, match="missing parameter keys: r"):
        ParamSet.from_dict({"l0": 0.4, "g": 0.2, "s": 0.1})


def test_paramset_from_dict_unknown_key():
    with pytest.raises(ParameterError, match="unknown parameter keys"):
        ParamSet.from_dict({"l0": 0.4, "g": 0.2, "s": 0.1, "r": 0.3, "x": 1.0})


def test_paramset_from_dict_rejects_booleans():
    with pytest.raises(ParameterError, match="must be a number"):
        ParamSet.from_dict({"l0": 0.4, "g": 0.2, "s": 0.1, "r": True})


@pytest.mark.parametrize("text", ["0.5", b"0.5"], ids=["str", "bytes"])
def test_paramset_refuses_strings_and_bytes(text):
    # float() used to read both as 0.5, while a parameter file refused "0.5".
    with pytest.raises(ParameterError, match="^parameter 'l0' must be a number"):
        ParamSet(text, 0.2, 0.1, 0.1)
    theta = ParamSet(np.float32(0.5), 0.2, 0.1, 0.1)
    assert type(theta.l0) is float and theta.l0 == 0.5


def test_paramset_names_an_int_too_large_for_a_float():
    with pytest.raises(ParameterError, match="^parameter 'g' is too large for a float$"):
        ParamSet(0.5, 10**400, 0.1, 0.1)


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


def test_posterior_values():
    # One step from l0 = 0.5: the answer's posterior, then the transition.
    theta = ParamSet(l0=0.5, g=0.25, s=0.1, r=0.3)
    post_correct = 0.45 / (0.45 + 0.125)
    post_wrong = 0.05 / (0.05 + 0.375)
    for answer, post in ((True, post_correct), (False, post_wrong)):
        (belief,) = trace_sequence(theta, [answer])
        assert belief == pytest.approx(post + 0.3 * (1 - post), rel=1e-15)


def test_apply_transition_value():
    # With g = 1 - s an answer carries no news: the posterior stays 0.5 and the
    # step is the transition alone, 0.5 + r * 0.5.
    theta = ParamSet(l0=0.5, g=0.6, s=0.4, r=0.3)
    for answer in (True, False):
        assert trace_sequence(theta, [answer]) == [pytest.approx(0.5 + 0.3 * 0.5, rel=1e-15)]


def _theta_draw(rng):
    # One in four coordinates at an extreme, 1e-6 from either end of (0, 1).
    extremes = rng.choice([1e-6, 1 - 1e-6], size=4)
    values = np.where(rng.random(4) < 0.25, extremes, rng.uniform(1e-6, 1 - 1e-6, 4))
    return ParamSet(*values.tolist())


def test_trace_matches_manual_fold():
    # The three formulas written out: trace_sequence returns their floats exactly.
    rng = np.random.default_rng(34)
    for _ in range(500):
        theta = _theta_draw(rng)
        observations = (rng.random(int(rng.integers(1, 60))) < rng.random()).tolist()
        p, g, s, r = theta.astuple()
        expected = []
        for correct in observations:
            if correct:
                hit = p * (1.0 - s)
                q = hit / (hit + (1.0 - p) * g)
            else:
                miss = p * s
                q = miss / (miss + (1.0 - p) * (1.0 - g))
            p = q + r * (1.0 - q)
            expected.append(p)
        assert trace_sequence(theta, observations) == expected


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
