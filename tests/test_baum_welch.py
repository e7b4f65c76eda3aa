"""Closed-form M-step and the unconstrained EM loop."""

from __future__ import annotations

import numpy as np
import pytest

from bktfit import (
    AttemptSequence,
    DegenerateStatsError,
    fit_baum_welch,
    m_step_closed_form,
    random_init,
    read_dataset,
    simulate_dataset,
    sufficient_stats,
)
from bktfit.baum_welch import BOUNDARY_NUDGE, closed_form_ratios
from bktfit.estep import SufficientStats
from bktfit.fitting import ALGORITHM_BAUM_WELCH, FitOptions
from conftest import TRUE_THETA


def _stats(prior, guess, slip, transit, learners=10) -> SufficientStats:
    return SufficientStats(
        prior=prior,
        guess=guess,
        slip=slip,
        transit=transit,
        learner_count=learners,
        log_likelihood=-1.0,
    )


def test_closed_form_ratios_hand_values():
    stats = _stats((4.0, 6.0), (3.0, 9.0), (1.0, 7.0), (2.0, 6.0), learners=10)
    l0, g, s, r = closed_form_ratios(stats)
    assert l0 == pytest.approx(0.4)
    assert g == pytest.approx(0.25)
    assert s == pytest.approx(0.125)
    assert r == pytest.approx(0.25)


def test_closed_form_is_unconstrained_maximizer():
    # The ratio must beat every grid point on the separable objective,
    # one parameter at a time.
    stats = _stats((4.0, 6.0), (13.0, 9.0), (1.0, 17.0), (2.0, 6.0))
    theta = m_step_closed_form(stats)
    grid = np.linspace(0.01, 0.99, 199)
    for index, (a, b) in enumerate(stats.pairs()):
        scan = a * np.log(grid) + b * np.log(1 - grid)
        value = theta.astuple()[index]
        own = a * np.log(value) + b * np.log(1 - value)
        assert own >= scan.max() - 1e-12 * abs(scan.max())


def test_boundary_ratios_are_nudged_inward():
    stats = _stats((0.0, 10.0), (5.0, 0.0), (0.0, 8.0), (3.0, 5.0))
    theta = m_step_closed_form(stats)
    assert 0.0 < theta.l0 < 1e-9
    assert 1.0 - 1e-9 < theta.g < 1.0
    assert 0.0 < theta.s < 1e-9


def test_degenerate_transit_counts_raise():
    stats = _stats((4.0, 6.0), (3.0, 9.0), (1.0, 7.0), (0.0, 0.0))
    with pytest.raises(DegenerateStatsError, match="transit"):
        closed_form_ratios(stats)


def test_single_step_dataset_is_degenerate():
    dataset = [AttemptSequence((True,)), AttemptSequence((False,))]
    stats = sufficient_stats(TRUE_THETA, dataset)
    with pytest.raises(DegenerateStatsError):
        m_step_closed_form(stats)


def test_fit_monotone_and_converges():
    dataset = simulate_dataset(TRUE_THETA, 60, 8, 2024)
    report = fit_baum_welch(dataset, random_init(5))
    assert report.algorithm == ALGORITHM_BAUM_WELCH
    assert report.converged
    trace = np.array(report.loglik_trace)
    assert trace.shape == (report.iterations + 1,)
    assert np.all(np.diff(trace) >= -1e-10)


def test_fit_improves_on_bad_init():
    dataset = simulate_dataset(TRUE_THETA, 40, 10, 77)
    init = random_init(1)
    report = fit_baum_welch(dataset, init)
    assert report.final_log_likelihood > report.loglik_trace[0]
    assert report.initial_theta == init


def test_fit_respects_iteration_cap():
    dataset = simulate_dataset(TRUE_THETA, 40, 10, 78)
    options = FitOptions(max_iterations=2)
    report = fit_baum_welch(dataset, random_init(2), options)
    assert report.iterations <= 2
    assert not report.converged


def test_fit_one_iteration_matches_manual_m_step():
    dataset = simulate_dataset(TRUE_THETA, 30, 6, 79)
    init = random_init(3)
    stats = sufficient_stats(init, dataset)
    manual = m_step_closed_form(stats)
    report = fit_baum_welch(dataset, init, FitOptions(max_iterations=1))
    assert report.theta_hat == manual


def test_boundary_hits_name_the_parameters_each_m_step_nudged(tmp_path):
    # Two learners answer both steps correctly: every M-step's ratios put g at 1
    # and s at 0, and the report lists both at each iteration.
    path = tmp_path / "all-correct.csv"
    path.write_text("learner_id,step,correct\n0,1,1\n0,2,1\n1,1,1\n1,2,1\n")
    report = fit_baum_welch(read_dataset(path), random_init(0))
    assert report.iterations >= 2
    assert report.diagnostics["boundary_hits"] == [
        {"iteration": k, "parameters": ["g", "s"]} for k in range(1, report.iterations + 1)
    ]
    # Paired master seed 0, run 0: every M-step's ratios are interior, so nothing is listed.
    dataset = simulate_dataset(TRUE_THETA, 100, 10, (0, 0, 0))
    interior = fit_baum_welch(dataset, random_init((0, 1, 0)))
    assert interior.converged and interior.iterations > 2
    assert interior.diagnostics["boundary_hits"] == []
    # Run 2 reaches r = 0 at iteration 39 and stays there: interior M-steps, then r at each.
    dataset = simulate_dataset(TRUE_THETA, 100, 10, (0, 0, 2))
    floor = fit_baum_welch(dataset, random_init((0, 1, 2)))
    hits = floor.diagnostics["boundary_hits"]
    assert [hit["iteration"] for hit in hits] == list(range(39, floor.iterations + 1))
    assert all(hit["parameters"] == ["r"] for hit in hits)
    assert floor.theta_hat.r == BOUNDARY_NUDGE
