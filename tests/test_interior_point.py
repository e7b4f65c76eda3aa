"""Barrier M-step: derivatives, Newton solve, projection, and the EM loop."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

import bktfit.interior_point as interior_point
from bktfit import (
    BarrierSchedule,
    BarrierState,
    DegenerateStatsError,
    FitOptions,
    InfeasibleStateError,
    NewtonConvergenceError,
    ParamSet,
    barrier_continuation,
    closed_form_ratios,
    constraint_gradient,
    constraint_value,
    enumerate_em_objective,
    fit_baum_welch,
    fit_constrained,
    interior_point_m_step,
    kkt_jacobian,
    kkt_residual,
    m_step_closed_form,
    objective_gradient,
    objective_hessian_diag,
    objective_value,
    project_feasible,
    random_init,
    simulate_dataset,
    solve_barrier_subproblem,
    sufficient_stats,
    validate_params,
)
from bktfit.estep import SufficientStats
from bktfit.fitting import _run_em
from bktfit.interior_point import DEFAULT_SCHEDULE
from conftest import TRUE_THETA, random_theta, random_valid_theta


def _random_stats(rng, learners=25, steps=7):
    truth = random_valid_theta(rng)
    dataset = simulate_dataset(truth, learners, steps, int(rng.integers(1 << 31)))
    reference = random_theta(rng, 0.05, 0.95)
    return sufficient_stats(reference, dataset), reference, dataset


def test_constraint_value_formula():
    l0, g, s, r = TRUE_THETA.astuple()
    assert constraint_value(TRUE_THETA) == pytest.approx((1 - s - g) * l0 - (1 - g) * r)


def test_constraint_gradient_matches_finite_differences():
    rng = np.random.default_rng(21)
    h = 1e-7
    for _ in range(20):
        theta = random_theta(rng, 0.05, 0.95)
        grad = constraint_gradient(theta)
        base = np.array(theta.astuple())
        for index in range(4):
            plus, minus = base.copy(), base.copy()
            plus[index] += h
            minus[index] -= h
            fd = (
                constraint_value(ParamSet(*plus)) - constraint_value(ParamSet(*minus))
            ) / (2 * h)
            assert grad[index] == pytest.approx(fd, abs=1e-7)


def test_objective_equals_enumerated_em_surrogate():
    # The (a, b)-pair objective must agree with the oracle's expected
    # complete-data log-likelihood, term for term, with no offset.
    rng = np.random.default_rng(22)
    for _ in range(10):
        stats, reference, dataset = _random_stats(rng, learners=8, steps=6)
        theta = random_theta(rng, 0.05, 0.95)
        direct = objective_value(stats, theta)
        oracle = enumerate_em_objective(theta, reference, dataset)
        assert direct == pytest.approx(oracle, rel=1e-11)


def test_objective_derivatives_match_finite_differences():
    rng = np.random.default_rng(23)
    h = 1e-5
    for _ in range(10):
        stats, _, _ = _random_stats(rng)
        theta = random_theta(rng, 0.1, 0.9)
        grad = objective_gradient(stats, theta)
        hess = objective_hessian_diag(stats, theta)
        base = np.array(theta.astuple())
        for index in range(4):
            plus, minus = base.copy(), base.copy()
            plus[index] += h
            minus[index] -= h
            f_plus = objective_value(stats, ParamSet(*plus))
            f_minus = objective_value(stats, ParamSet(*minus))
            f_zero = objective_value(stats, theta)
            assert grad[index] == pytest.approx((f_plus - f_minus) / (2 * h), rel=1e-7)
            assert hess[index] == pytest.approx(
                (f_plus - 2 * f_zero + f_minus) / h**2, rel=1e-5
            )


def test_kkt_residual_composition():
    rng = np.random.default_rng(24)
    stats, _, _ = _random_stats(rng)
    state = BarrierState(theta=TRUE_THETA, dual=2.5, mu=0.3)
    residual = kkt_residual(state, stats)
    expected_top = objective_gradient(stats, TRUE_THETA) + 2.5 * constraint_gradient(
        TRUE_THETA
    )
    np.testing.assert_allclose(residual[:4], expected_top, rtol=1e-14)
    assert residual[4] == pytest.approx(2.5 * constraint_value(TRUE_THETA) - 0.3)


def test_kkt_jacobian_matches_finite_differences():
    rng = np.random.default_rng(25)
    stats, _, _ = _random_stats(rng)
    theta = TRUE_THETA
    dual, mu = 1.7, 0.2
    jac = kkt_jacobian(BarrierState(theta=theta, dual=dual, mu=mu), stats)
    h = 1e-6
    fd = np.empty((5, 5))
    base = np.array(theta.astuple() + (dual,))
    for col in range(5):
        plus, minus = base.copy(), base.copy()
        plus[col] += h
        minus[col] -= h
        r_plus = kkt_residual(
            BarrierState(theta=ParamSet(*plus[:4]), dual=plus[4], mu=mu), stats
        )
        r_minus = kkt_residual(
            BarrierState(theta=ParamSet(*minus[:4]), dual=minus[4], mu=mu), stats
        )
        fd[:, col] = (r_plus - r_minus) / (2 * h)
    scale = np.abs(jac).max()
    np.testing.assert_allclose(jac, fd, rtol=1e-4, atol=1e-7 * scale)


def test_schedule_sequence_decreasing_to_floor():
    schedule = BarrierSchedule()
    mus = schedule.mu_sequence()
    assert mus[0] == 1.0
    assert mus[-1] == schedule.mu_floor
    assert all(b < a for a, b in zip(mus, mus[1:]))


@pytest.mark.parametrize(
    "kwargs",
    [
        {"mu_initial": 0.0},
        {"decay": 1.0},
        {"mu_floor": 0.0},
        {"mu_floor": 2.0},
        {"newton_tolerance": 0.0},
        {"max_newton_steps": 0},
        {"fraction_to_boundary": 1.0},
        {"mu_initial": float("inf")},
    ],
)
def test_schedule_validation(kwargs):
    with pytest.raises(ValueError):
        BarrierSchedule(**kwargs)


def test_schedule_round_trip():
    schedule = BarrierSchedule(mu_initial=0.5, decay=0.3, mu_floor=1e-8)
    assert BarrierSchedule.from_dict(schedule.to_dict()) == schedule


def test_barrier_state_rejects_infeasible_theta():
    infeasible = ParamSet(l0=0.3, g=0.6, s=0.5, r=0.4)
    assert constraint_value(infeasible) < 0
    with pytest.raises(InfeasibleStateError):
        BarrierState(theta=infeasible, dual=1.0, mu=1.0)


def test_solve_barrier_subproblem_reaches_tolerance():
    rng = np.random.default_rng(26)
    for _ in range(5):
        stats, _, _ = _random_stats(rng)
        mu = 1.0
        start = BarrierState(
            theta=TRUE_THETA, dual=mu / constraint_value(TRUE_THETA), mu=mu
        )
        solved = solve_barrier_subproblem(stats, start)
        residual = np.abs(kkt_residual(solved, stats)).max()
        assert residual < DEFAULT_SCHEDULE.newton_tolerance
        assert solved.dual * constraint_value(solved.theta) == pytest.approx(mu, rel=1e-6)


def test_barrier_continuation_reaches_floor_certificate():
    rng = np.random.default_rng(27)
    for _ in range(5):
        stats, _, _ = _random_stats(rng)
        final = barrier_continuation(stats, TRUE_THETA)
        assert final.mu == DEFAULT_SCHEDULE.mu_floor
        assert np.abs(kkt_residual(final, stats)).max() < 1e-8
        assert constraint_value(final.theta) > 0


def test_continuation_rejects_infeasible_start():
    rng = np.random.default_rng(28)
    stats, _, _ = _random_stats(rng)
    with pytest.raises(InfeasibleStateError):
        barrier_continuation(stats, ParamSet(l0=0.3, g=0.6, s=0.5, r=0.4))


def test_m_step_matches_closed_form_when_constraint_inactive():
    # Referencing a theta that satisfies the constraint keeps the closed-form
    # maximizer feasible often enough to exercise the inactive branch.
    rng = np.random.default_rng(29)
    found = 0
    for _ in range(20):
        truth = random_valid_theta(rng)
        dataset = simulate_dataset(truth, 25, 7, int(rng.integers(1 << 31)))
        stats = sufficient_stats(truth, dataset)
        unconstrained = m_step_closed_form(stats)
        if constraint_value(unconstrained) <= 1e-3:
            continue
        found += 1
        constrained = interior_point_m_step(stats, truth)
        np.testing.assert_allclose(
            constrained.astuple(), unconstrained.astuple(), atol=1e-6
        )
    assert found >= 3


def test_m_step_never_decreases_objective():
    rng = np.random.default_rng(30)
    for _ in range(10):
        stats, reference, _ = _random_stats(rng)
        start = reference
        if constraint_value(start) <= 0:
            start, _ = project_feasible(start)
        result = interior_point_m_step(stats, start)
        assert constraint_value(result) > 0
        assert objective_value(stats, result) >= objective_value(stats, start) - 1e-9


def test_m_step_beats_feasible_grid_when_constraint_active():
    rng = np.random.default_rng(31)
    hits = 0
    for _ in range(12):
        stats, reference, _ = _random_stats(rng)
        unconstrained = m_step_closed_form(stats)
        if constraint_value(unconstrained) > 0:
            continue
        hits += 1
        result = interior_point_m_step(stats, reference)
        assert constraint_value(result) >= 0
        axes = [np.linspace(0.02, 0.98, 13)] * 4
        mesh = np.meshgrid(*axes, indexing="ij")
        margin = (1 - mesh[2] - mesh[1]) * mesh[0] - (1 - mesh[1]) * mesh[3]
        pairs = stats.pairs()
        objective = sum(
            pairs[i, 0] * np.log(mesh[i]) + pairs[i, 1] * np.log(1 - mesh[i])
            for i in range(4)
        )
        best_feasible = objective[margin >= 0].max()
        assert objective_value(stats, result) >= best_feasible - 1e-8
    assert hits >= 2


def test_project_feasible_leaves_good_points_alone():
    adjusted, info = project_feasible(TRUE_THETA)
    assert adjusted is TRUE_THETA
    assert info is None


def test_project_feasible_repairs_infeasible_points():
    theta = ParamSet(l0=0.3, g=0.6, s=0.5, r=0.4)  # s + g > 1
    adjusted, info = project_feasible(theta)
    assert info is not None
    assert info["margin_before"] < 0
    assert constraint_value(adjusted) > 0
    assert adjusted.l0 == theta.l0
    assert adjusted.g <= theta.g
    assert adjusted.s <= theta.s
    assert adjusted.r <= theta.r


_box = st.floats(min_value=0.01, max_value=0.99)


@given(l0=_box, g=_box, s=_box, r=_box)
def test_project_feasible_always_lands_strictly_inside(l0, g, s, r):
    adjusted, _ = project_feasible(ParamSet(l0=l0, g=g, s=s, r=r))
    margin = constraint_value(adjusted)
    assert margin > 0
    assert margin >= min(1e-3, l0 / 4) * 0.99


def test_fit_constrained_satisfies_constraints():
    dataset = simulate_dataset(TRUE_THETA, 50, 8, 99)
    report = fit_constrained(dataset, random_init(4))
    assert report.converged
    assert report.constraints.satisfied
    assert validate_params(report.theta_hat).satisfied
    trace = np.array(report.loglik_trace)
    assert np.all(np.diff(trace) >= -1e-10)
    assert report.diagnostics["final_kkt_residual"] < 1e-8


def test_fit_constrained_records_restoration_of_infeasible_init():
    dataset = simulate_dataset(TRUE_THETA, 50, 8, 100)
    init = ParamSet(l0=0.3, g=0.6, s=0.5, r=0.4)
    assert constraint_value(init) < 0
    report = fit_constrained(dataset, init)
    restorations = report.diagnostics["restorations"]
    assert restorations and restorations[0]["iteration"] == 1
    assert report.constraints.satisfied


def test_solver_failure_keeps_the_partial_fit(monkeypatch):
    # The Baum-Welch fit of this dataset violates c, and from this init the
    # closed form is infeasible in each of the first three M-steps, so each
    # of them runs all the barrier stages.
    dataset = simulate_dataset(TRUE_THETA, 50, 8, 106)
    init = random_init(3)
    assert not fit_baum_welch(dataset, init).constraints.satisfied
    first_three = fit_constrained(dataset, init, FitOptions(max_iterations=3))
    assert first_three.diagnostics["barrier_m_steps"] == 3
    stages_per_m_step = len(DEFAULT_SCHEDULE.mu_sequence())
    fail_at = 2 * stages_per_m_step + 5  # inside the third M-step
    calls = 0
    original = interior_point.solve_barrier_subproblem

    def failing(*args, **kwargs):
        nonlocal calls
        calls += 1
        if calls == fail_at:
            raise NewtonConvergenceError("injected", mu=1.0, residual_norm=1.0, restarts=5)
        return original(*args, **kwargs)

    monkeypatch.setattr(interior_point, "solve_barrier_subproblem", failing)
    with pytest.raises(NewtonConvergenceError) as info:
        fit_constrained(dataset, init)
    partial = info.value.report
    assert partial.iterations == 2
    assert len(partial.loglik_trace) == 3
    assert not partial.converged
    assert partial.constraints.satisfied
    monkeypatch.setattr(interior_point, "solve_barrier_subproblem", original)
    full = fit_constrained(dataset, init)
    assert partial.loglik_trace == full.loglik_trace[:3]


def test_fit_constrained_agrees_with_baum_welch_when_inactive():
    dataset = simulate_dataset(TRUE_THETA, 200, 12, 4242)
    init = random_init(12)
    unconstrained = fit_baum_welch(dataset, init)
    if unconstrained.constraints.margin <= 1e-3:
        pytest.skip("constraint active for this draw; covered by acceptance run")
    constrained = fit_constrained(dataset, init)
    np.testing.assert_allclose(
        constrained.theta_hat.astuple(), unconstrained.theta_hat.astuple(), atol=1e-3
    )


def test_all_correct_dataset_is_degenerate_for_barrier_m_step():
    stats = sufficient_stats(TRUE_THETA, [[True, True, True] for _ in range(5)])
    with pytest.raises(DegenerateStatsError):
        interior_point_m_step(stats, TRUE_THETA)


def test_first_m_step_takes_the_closed_form_only_when_it_is_feasible():
    # One iteration from init is one M-step on sufficient_stats(init, data).
    rng = np.random.default_rng(32)
    seen = {"inactive": 0, "active": 0}
    for _ in range(20):
        stats, reference, dataset = _random_stats(rng)
        report = fit_constrained(dataset, reference, FitOptions(max_iterations=1))
        ratios = closed_form_ratios(stats)
        if constraint_value(ParamSet(*ratios)) > 0:
            seen["inactive"] += 1
            assert report.theta_hat.astuple() == ratios
            assert report.diagnostics["barrier_m_steps"] == 0
            assert report.diagnostics["final_dual"] == 0.0
            gradient = objective_gradient(stats, report.theta_hat)
            assert report.diagnostics["final_kkt_residual"] == np.abs(gradient).max()
        else:
            seen["active"] += 1
            assert report.theta_hat == interior_point_m_step(stats, reference)
            assert report.diagnostics["barrier_m_steps"] == 1
    assert seen["inactive"] >= 2 and seen["active"] >= 2


def test_fit_constrained_matches_the_barrier_only_fit():
    def barrier_only(dataset, init):
        return _run_em(
            "barrier-only",
            dataset,
            init,
            None,
            lambda stats, theta, iteration: interior_point_m_step(stats, theta),
            {},
        )

    rng = np.random.default_rng(33)
    infeasible_inits = shortcut_steps = barrier_steps = 0
    for pair in range(20):
        dataset = simulate_dataset(TRUE_THETA, 40, 8, int(rng.integers(1 << 31)))
        init = random_init(pair)
        report = fit_constrained(dataset, init)
        reference = barrier_only(dataset, init)
        np.testing.assert_allclose(
            report.theta_hat.astuple(), reference.theta_hat.astuple(), rtol=0, atol=1e-6
        )
        assert abs(report.final_log_likelihood - reference.final_log_likelihood) <= 1e-9
        assert report.constraints.satisfied
        # From an infeasible init the projection may cost likelihood at
        # iteration 1; from the first feasible iterate on the trace is monotone.
        feasible_init = constraint_value(init) > 0
        infeasible_inits += not feasible_init
        trace = np.array(report.loglik_trace[0 if feasible_init else 1 :])
        assert np.all(np.diff(trace) >= -1e-10)
        barrier = report.diagnostics["barrier_m_steps"]
        barrier_steps += barrier
        shortcut_steps += report.iterations - barrier
    assert infeasible_inits >= 5
    assert shortcut_steps > 0 and barrier_steps > 0
