"""Fit options, reports, and initial-guess sampling."""

from __future__ import annotations

import pytest

from bktfit import FitOptions, fit_baum_welch, fit_constrained, random_init, simulate_dataset
from bktfit.fitting import INIT_HIGH, INIT_LOW
from conftest import TRUE_THETA


def test_options_defaults():
    options = FitOptions()
    assert options.max_iterations == 500
    assert options.loglik_tolerance == 1e-8
    assert options.param_tolerance == 1e-8


def test_options_round_trip():
    options = FitOptions(max_iterations=30, loglik_tolerance=1e-6)
    assert FitOptions.from_dict(options.to_dict()) == options


def test_options_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown fit option"):
        FitOptions.from_dict({"max_iterations": 10, "bogus": 1})
    with pytest.raises(ValueError, match="unknown fit option keys: seed"):
        FitOptions.from_dict({"seed": 0})


@pytest.mark.parametrize(
    "payload",
    [
        {"max_iterations": "5"},
        {"max_iterations": 2.5},
        {"max_iterations": True},
        {"loglik_tolerance": None},
        {"param_tolerance": [1e-8]},
        [("max_iterations", 5)],
    ],
)
def test_options_from_dict_rejects_wrong_types(payload):
    with pytest.raises(ValueError, match="must be"):
        FitOptions.from_dict(payload)


@pytest.mark.parametrize(
    "kwargs",
    [{"max_iterations": 0}, {"loglik_tolerance": 0.0}, {"param_tolerance": -1.0}],
)
def test_options_validation(kwargs):
    with pytest.raises(ValueError):
        FitOptions(**kwargs)


def test_random_init_deterministic_and_bounded():
    a = random_init(17)
    b = random_init(17)
    assert a == b
    assert a != random_init(18)
    for value in a.astuple():
        assert INIT_LOW < value < INIT_HIGH


def test_random_init_accepts_tuple_seeds():
    assert random_init((3, 1, 5)) == random_init((3, 1, 5))
    assert random_init((3, 1, 5)) != random_init((3, 1, 6))


@pytest.mark.parametrize("fit", [fit_baum_welch, fit_constrained])
def test_fitters_accept_one_shot_iterables(fit):
    rows = [seq.attempts for seq in simulate_dataset(TRUE_THETA, 30, 6, 4)]
    init = random_init(2)
    assert fit(iter(rows), init).to_dict() == fit(rows, init).to_dict()
