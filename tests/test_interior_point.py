"""Barrier M-step: derivatives, Newton solve, projection, and the EM loop."""

from __future__ import annotations

import functools
import math
import operator
import random
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import bktfit.interior_point as interior_point
from bktfit import (
    DegenerateStatsError,
    ExperimentConfig,
    FitOptions,
    NewtonConvergenceError,
    ParamSet,
    enumerate_em_objective,
    fit_baum_welch,
    fit_constrained,
    interior_point_m_step,
    kkt_residual,
    m_step_closed_form,
    project_feasible,
    random_init,
    simulate_dataset,
    sufficient_stats,
    validate_params,
)
from bktfit.baum_welch import closed_form_ratios
from bktfit.estep import SufficientStats
from bktfit.fitting import MStep, _run_em
from bktfit.interior_point import (
    _MU_FLOOR,
    _margin_gradient,
    _objective,
    constraint_value,
    objective_gradient,
    objective_hessian_diag,
    objective_value,
    solve_barrier_subproblem,
)
from conftest import (
    PURE_BARRIER_MUS,
    TRUE_THETA,
    fail_floor_stage,
    pure_barrier,
    random_theta,
    random_valid_theta,
)


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
        grad = _margin_gradient(*theta.astuple())
        base = np.array(theta.astuple())
        for index in range(4):
            plus, minus = base.copy(), base.copy()
            plus[index] += h
            minus[index] -= h
            fd = (
                constraint_value(ParamSet(*plus)) - constraint_value(ParamSet(*minus))
            ) / (2 * h)
            assert grad[index] == pytest.approx(fd, abs=1e-7)


def test_objective_is_the_left_fold_of_its_terms():
    # sum() adds floats with compensation from Python 3.12 on; the objective
    # adds its four terms left to right, so its bits are the same on every
    # Python version.
    rng = random.Random(20)
    for _ in range(400):
        ab = [(rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)) for _ in range(4)]
        theta = [rng.uniform(1e-6, 1.0 - 1e-6) for _ in range(4)]
        terms = [a * math.log(p) + b * math.log1p(-p) for (a, b), p in zip(ab, theta)]
        assert _objective(ab, theta) == functools.reduce(operator.add, terms)


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


def _nudged(base: np.ndarray, index: int, h: float) -> tuple[ParamSet, ParamSet]:
    plus, minus = base.copy(), base.copy()
    plus[index] += h
    minus[index] -= h
    return ParamSet(*plus), ParamSet(*minus)


def test_objective_derivatives_match_finite_differences():
    # The Hessian is checked against a first difference of the gradient: a
    # second difference of the objective carries rounding errors near 1e-5
    # relative, the size of the tolerance.
    rng = np.random.default_rng(23)
    for _ in range(10):
        stats, _, _ = _random_stats(rng)
        theta = random_theta(rng, 0.1, 0.9)
        grad = objective_gradient(stats, theta)
        hess = objective_hessian_diag(stats, theta)
        base = np.array(theta.astuple())
        for index in range(4):
            h = 1e-5
            plus, minus = _nudged(base, index, h)
            fd_grad = (objective_value(stats, plus) - objective_value(stats, minus)) / (2 * h)
            assert grad[index] == pytest.approx(fd_grad, rel=1e-7)
            h = 1e-6
            plus, minus = _nudged(base, index, h)
            fd_hess = (
                objective_gradient(stats, plus)[index] - objective_gradient(stats, minus)[index]
            ) / (2 * h)
            assert hess[index] == pytest.approx(fd_hess, rel=1e-5)


def test_kkt_residual_composition():
    rng = np.random.default_rng(24)
    stats, _, _ = _random_stats(rng)
    residual = kkt_residual(stats, TRUE_THETA, 2.5, 0.3)
    l0, g, s, r = TRUE_THETA.astuple()
    margin_gradient = np.array([1 - s - g, r - l0, -l0, g - 1])
    expected_top = objective_gradient(stats, TRUE_THETA) + 2.5 * margin_gradient
    np.testing.assert_allclose(residual[:4], expected_top, rtol=1e-14)
    assert residual[4] == pytest.approx(2.5 * constraint_value(TRUE_THETA) - 0.3)


def test_slack_derivatives_match_finite_differences():
    # The Newton routine's gradient and exact Hessian in x = (l0, g, k, e),
    # barrier term included, against central differences of the stage
    # objective and of that gradient; the Gauss-Newton Hessian against
    # J^T diag(objective Hessian) J from a differenced Jacobian of theta(x).
    rng = np.random.default_rng(25)
    stats, _, _ = _random_stats(rng)
    ab = stats.pairs().tolist()
    for mu in (0.0, 0.3):
        for _ in range(5):
            x = tuple(rng.uniform(0.1, 0.9, 4))

            def stage_objective(y):
                l0, g, k, e = y
                barrier = mu * np.log((1 - g) * k * l0 * e) if mu else 0.0
                return objective_value(stats, ParamSet(*interior_point._point(y))) + barrier

            grad, exact, gauss_newton = interior_point._derivatives(ab, x, mu)
            h = 1e-6
            fd_grad, fd_hess, jac = np.empty(4), np.empty((4, 4)), np.empty((4, 4))
            for col in range(4):
                plus, minus = list(x), list(x)
                plus[col] += h
                minus[col] -= h
                fd_grad[col] = (stage_objective(plus) - stage_objective(minus)) / (2 * h)
                g_plus = interior_point._derivatives(ab, tuple(plus), mu)[0]
                g_minus = interior_point._derivatives(ab, tuple(minus), mu)[0]
                fd_hess[:, col] = (np.array(g_plus) - np.array(g_minus)) / (2 * h)
                jac[:, col] = (
                    np.array(interior_point._point(plus)) - np.array(interior_point._point(minus))
                ) / (2 * h)
            np.testing.assert_allclose(grad, fd_grad, rtol=1e-6, atol=1e-6)
            scale = np.abs(exact).max()
            np.testing.assert_allclose(exact, fd_hess, rtol=1e-5, atol=1e-7 * scale)
            theta = ParamSet(*interior_point._point(x))
            barrier = mu / np.array([x[0], 1 - x[1], x[2], x[3]]) ** 2
            expected = jac.T @ np.diag(objective_hessian_diag(stats, theta)) @ jac
            expected -= np.diag(barrier)
            np.testing.assert_allclose(gauss_newton, expected, rtol=1e-6, atol=1e-7 * scale)


def test_schedule_sequence_decreasing_to_floor():
    # The reference barrier's mu path: 1.0 times 0.2 per stage, ending
    # exactly at the floor of the library's one barrier stage, 1e-10.
    assert len(PURE_BARRIER_MUS) == 16
    assert PURE_BARRIER_MUS[0] == 1.0
    assert PURE_BARRIER_MUS[-1] == _MU_FLOOR == 1e-10
    assert all(b < a for a, b in zip(PURE_BARRIER_MUS, PURE_BARRIER_MUS[1:]))


@pytest.mark.parametrize(
    "kwargs",
    [
        {"mu_initial": 0.0},
        {"decay": 1.0},
        {"mu_floor": 0.0},
        {"mu_floor": 2.0},
        {"decay": 0.0},
        {"mu_initial": -1.0},
        {"mu_floor": float("nan")},
        {"mu_initial": 0.5, "decay": 0.3, "mu_floor": 1e-8},
    ],
)
def test_schedule_validation(kwargs):
    # The mu path is a solver constant: no entry point takes a schedule,
    # whatever it holds.
    rng = np.random.default_rng(25)
    stats, reference, dataset = _random_stats(rng)
    with pytest.raises(TypeError, match="schedule"):
        fit_constrained(dataset, reference, schedule=kwargs)
    with pytest.raises(TypeError, match="schedule"):
        interior_point_m_step(stats, reference, schedule=kwargs)
    payload = {"true_theta": TRUE_THETA.to_dict(), "num_datasets": 1, "schedule": kwargs}
    with pytest.raises(ValueError, match="unknown config keys: schedule"):
        ExperimentConfig.from_dict(payload)


def test_schedule_round_trip():
    # A config round-trips without a schedule, and the mu floor still
    # reaches the report.
    config = ExperimentConfig(true_theta=TRUE_THETA, num_datasets=2)
    assert "schedule" not in config.to_dict()
    assert ExperimentConfig.from_dict(config.to_dict()) == config
    report = fit_constrained(simulate_dataset(TRUE_THETA, 30, 6, 3), random_init(1))
    assert report.diagnostics["mu_floor"] == _MU_FLOOR


def test_solve_barrier_subproblem_reaches_tolerance():
    rng = np.random.default_rng(26)
    for _ in range(5):
        stats, _, _ = _random_stats(rng)
        mu = 1.0
        start = interior_point._slack(TRUE_THETA)
        x, _ = solve_barrier_subproblem(interior_point._ab(stats), start, mu)
        theta, dual = interior_point._state(x, mu)
        residual = np.abs(kkt_residual(stats, theta, dual, mu)).max()
        assert residual < 1e-9
        assert dual * constraint_value(theta) == pytest.approx(mu, rel=1e-6)


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


def _counting_stages(monkeypatch):
    """Record the mu of every barrier stage, a call of
    interior_point.solve_barrier_subproblem, in the returned list."""

    mus = []
    original = interior_point.solve_barrier_subproblem

    def counted(ab, x, mu):
        mus.append(mu)
        return original(ab, x, mu)

    monkeypatch.setattr(interior_point, "solve_barrier_subproblem", counted)
    return mus


def _three_binding_m_steps(monkeypatch):
    # The Baum-Welch fit of this dataset violates c, and from this init the
    # closed form is infeasible in each of the first three M-steps, so each
    # of them takes the reduced solve and its one floor stage.
    dataset = simulate_dataset(TRUE_THETA, 50, 8, 106)
    init = random_init(3)
    assert not fit_baum_welch(dataset, init).constraints.satisfied
    with monkeypatch.context() as patch:
        stages = _counting_stages(patch)
        first_three = fit_constrained(dataset, init, FitOptions(max_iterations=3))
    assert first_three.diagnostics["barrier_m_steps"] == 3
    assert stages == [_MU_FLOOR] * 3
    return dataset, init, fit_constrained(dataset, init, FitOptions(max_iterations=2))


def _replace_third_solve(monkeypatch, barrier, outcome):
    """Make the third reduced solve (barrier False) or the third floor stage
    (barrier True) of interior_point._newton raise outcome, or return it."""

    calls = 0
    original = interior_point._newton

    def replaced(ab, x, mu):
        nonlocal calls
        calls += (mu > 0.0) == barrier
        if (mu > 0.0) != barrier or calls != 3:
            return original(ab, x, mu)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    monkeypatch.setattr(interior_point, "_newton", replaced)


@pytest.mark.parametrize(
    "barrier, outcome, message",
    [
        (False, interior_point._failure("injected", 0.0, (1.0,)), "reduced solve"),
        (True, NewtonConvergenceError("floor", mu=_MU_FLOOR, residual_norm=1.0), "floor"),
        # A feasible point far below the current iterate on the objective.
        (True, (interior_point._slack(ParamSet(0.5, 0.01, 0.01, 0.01)), 1), "decreased the EM"),
    ],
    ids=["reduced solve", "floor stage", "objective drop"],
)
def test_one_failing_binding_m_step_stops_the_fit(monkeypatch, barrier, outcome, message):
    # The third binding M-step fails, so the fit stops with the first two
    # and returns them with the error's message as its failure.
    dataset, init, first_two = _three_binding_m_steps(monkeypatch)
    _replace_third_solve(monkeypatch, barrier, outcome)
    report = fit_constrained(dataset, init)
    assert re.search(message, report.failure)
    assert replace(report, failure="") == first_two
    assert first_two.failure == ""
    assert first_two.iterations == 2 and not first_two.converged
    assert first_two.constraints.satisfied


def test_solver_failure_keeps_the_partial_fit(monkeypatch):
    # Every floor stage fails from the third M-step on, so the fit stops
    # there and keeps the first two.
    dataset, init, first_two = _three_binding_m_steps(monkeypatch)
    calls = 0
    original = interior_point._newton

    def failing(ab, x, mu):
        nonlocal calls
        calls += mu > 0.0
        if mu == 0.0 or calls < 3:
            return original(ab, x, mu)
        raise NewtonConvergenceError("floor", mu=mu, residual_norm=1.0)

    monkeypatch.setattr(interior_point, "_newton", failing)
    partial = fit_constrained(dataset, init)
    assert calls == 3
    assert partial.failure == f"floor (mu={_MU_FLOOR:g}, residual max-norm=1)"
    assert partial.iterations == 2
    assert len(partial.loglik_trace) == 3
    assert not partial.converged
    assert partial.constraints.satisfied
    assert partial.diagnostics["barrier_m_steps"] == 2
    assert replace(partial, failure="") == first_two
    # Called directly, the M-step and a barrier stage still raise.
    stats = sufficient_stats(partial.theta_hat, dataset)
    with pytest.raises(NewtonConvergenceError, match="^floor") as info:
        interior_point_m_step(stats, partial.theta_hat)
    assert not hasattr(info.value, "report")
    x = interior_point._slack(partial.theta_hat)
    with pytest.raises(NewtonConvergenceError, match="^floor"):
        solve_barrier_subproblem(interior_point._ab(stats), x, 1.0)
    monkeypatch.undo()
    full = fit_constrained(dataset, init)
    assert partial.loglik_trace == full.loglik_trace[:3]


def test_a_fit_whose_first_m_step_fails_has_no_final_m_step(monkeypatch):
    # The first M-step of this fit binds, and its floor stage fails, so no
    # M-step completes: the diagnostics count nothing and name no last M-step.
    fail_floor_stage(monkeypatch, 1)
    report = fit_constrained(simulate_dataset(TRUE_THETA, 50, 8, 106), random_init(3))
    assert report.failure.startswith("injected") and report.iterations == 0
    assert report.diagnostics == {
        "restorations": [],
        "barrier_m_steps": 0,
        "newton_steps": 0,
        "mu_floor": _MU_FLOOR,
    }


# Counts whose closed form (0.5, 0.6, 0.5, 0.001) violates c, so the M-step binds.
_BINDING_COUNTS = ((0.5, 0.6, 0.5, 0.001), (40.0, 200.0, 100.0, 300.0))


def test_newton_fails_on_a_singular_hessian():
    # With every count zero the objective is flat: no Hessian has a pivot.
    with pytest.raises(
        NewtonConvergenceError,
        match=r"^reduced solve failed: Hessian is singular \(mu=0, residual max-norm=0\)$",
    ):
        interior_point._newton(((0.0, 0.0),) * 4, (0.5, 0.5, 0.5, 0.0), 0.0)


def test_binding_m_step_falls_back_to_gauss_newton():
    # The first M-step of paired master seed 0, run 1: the projected start
    # of the reduced solve, where the exact Hessian in (l0, g, k) is not
    # negative definite, so the first Newton step takes the Gauss-Newton one.
    stats = SufficientStats(
        (79.94802257210448, 20.05197742789553),
        (5.500977445333135, 17.73248109966465),
        (153.2675189003353, 823.4990225546675),
        (20.051977411738203, 3.181481117102255),
        learner_count=100,
        log_likelihood=0.0,
    )
    theta_star = ParamSet(
        0.8137850389598954, 0.27883204474017265, 0.2544780273864751, 0.8828545186053273
    )
    assert theta_star == random_init((0, 1, 1))
    ab = interior_point._ab(stats)
    x = interior_point._slack(project_feasible(theta_star)[0])[:3] + (0.0,)
    grad, exact, gauss_newton = interior_point._derivatives(ab, x, 0.0)
    assert np.linalg.eigvalsh(np.array(exact)[:3, :3]).max() >= 0.0
    assert interior_point._ascent_step(exact, grad, 3) is None
    assert interior_point._ascent_step(gauss_newton, grad, 3) is not None
    theta, dual, residual = interior_point._m_step(stats, theta_star)[:3]
    assert theta == interior_point_m_step(stats, theta_star)
    assert constraint_value(theta) > 0.0 and dual > 0.0
    assert residual < 1e-8
    assert np.abs(kkt_residual(stats, theta, dual, _MU_FLOOR)).max() == residual


def test_newton_fails_when_no_step_raises_the_objective(monkeypatch):
    # With the backtracking cap at zero no trial point is tried, so the
    # reduced solve fails at its first Newton step.
    monkeypatch.setattr(interior_point, "_MAX_STEP_HALVINGS", 0)
    stats = _binding_stats(*_BINDING_COUNTS)
    with pytest.raises(
        NewtonConvergenceError, match="^reduced solve failed: objective stopped increasing"
    ):
        interior_point_m_step(stats, TRUE_THETA)


def test_newton_fails_at_the_step_limit(monkeypatch):
    # One Newton step cannot bring a barrier stage's decrement below 1e-18.
    monkeypatch.setattr(interior_point, "_MAX_NEWTON_STEPS", 1)
    stats = sufficient_stats(TRUE_THETA, simulate_dataset(TRUE_THETA, 50, 8, 7))
    x = interior_point._slack(TRUE_THETA)
    with pytest.raises(
        NewtonConvergenceError, match=r"^barrier stage failed: step limit reached \(mu=0.001,"
    ):
        solve_barrier_subproblem(interior_point._ab(stats), x, 1e-3)


def test_binding_m_step_fails_when_the_constraint_is_slack_on_c_0(monkeypatch):
    # A reduced solve ending at r = k l0 = 0.81, far above the closed-form
    # r = 0.001, has df/dr < 0: no positive dual, so no floor stage starts.
    calls = []

    def reduced_far_off(ab, x, mu):
        calls.append(mu)
        return (0.9, 0.1, 0.9, 0.0), 1

    monkeypatch.setattr(interior_point, "_newton", reduced_far_off)
    stats = _binding_stats(*_BINDING_COUNTS)
    with pytest.raises(
        NewtonConvergenceError,
        match=r"^reduced solve failed: constraint is slack on c = 0 \(mu=0, residual",
    ):
        interior_point_m_step(stats, TRUE_THETA)
    assert calls == [0.0]


def test_binding_m_steps_end_at_the_floor_with_a_certificate(monkeypatch):
    steps = []
    original = interior_point._m_step

    def recording(stats, theta_star):
        record = original(stats, theta_star)
        if record.dual > 0.0:  # a binding M-step, which ends at the floor stage
            steps.append((stats, record))
        return record

    monkeypatch.setattr(interior_point, "_m_step", recording)
    stages = _counting_stages(monkeypatch)
    rng = np.random.default_rng(34)
    for pair in range(10):
        dataset = simulate_dataset(TRUE_THETA, 100, 10, int(rng.integers(1 << 31)))
        steps.clear()
        stages.clear()
        report = fit_constrained(dataset, random_init(pair))
        assert len(steps) == report.diagnostics["barrier_m_steps"]
        # One floor stage per binding M-step.
        assert stages == [_MU_FLOOR] * len(steps)
        for stats, record in steps:
            assert np.abs(kkt_residual(stats, record.theta, record.dual, _MU_FLOOR)).max() < 1e-8
            assert constraint_value(record.theta) > 0
    assert len(steps) > 0


def test_the_floor_stage_is_called_by_its_module_name(monkeypatch):
    # The benchmark counts barrier stages by wrapping the module attribute
    # interior_point.solve_barrier_subproblem: every binding M-step calls it
    # exactly once, and no closed-form M-step calls it.
    stages = _counting_stages(monkeypatch)
    calls = []
    original = interior_point._m_step

    def recording(stats, theta_star):
        before = len(stages)
        record = original(stats, theta_star)
        calls.append((record.dual > 0.0, len(stages) - before))
        return record

    monkeypatch.setattr(interior_point, "_m_step", recording)
    # From this init 10 of the fit's 53 M-steps bind.
    report = fit_constrained(simulate_dataset(TRUE_THETA, 50, 8, 1), random_init(2))
    assert len(calls) == report.iterations
    assert {binding for binding, _ in calls} == {True, False}
    assert all(count == binding for binding, count in calls)


_ratio = st.floats(min_value=0.02, max_value=0.98)
_count = st.floats(min_value=5.0, max_value=2000.0)


def _binding_stats(ratios, totals):
    """Expected counts whose closed form is the ratios, with the given totals."""

    return SufficientStats(
        *((p * n, (1 - p) * n) for p, n in zip(ratios, totals)),
        learner_count=totals[0],
        log_likelihood=0.0,
    )


@given(
    ratios=st.tuples(_ratio, _ratio, _ratio, _ratio),
    totals=st.tuples(_count, _count, _count, _count),
    star=st.tuples(_ratio, _ratio, _ratio, _ratio),
)
@example(ratios=(0.0209, 0.625, 0.02, 0.02), totals=(5.0,) * 4, star=(0.5,) * 4)
@example(
    ratios=(0.5, 0.826171875, 0.16719891579960847, 0.03125), totals=(5.0,) * 4, star=(0.5,) * 4
)
@settings(deadline=None)
def test_reduced_solve_and_floor_stage_match_the_pure_barrier(ratios, totals, star):
    # Expected counts whose closed form, the ratios, violates c.
    assume(constraint_value(ParamSet(*ratios)) < 0)
    stats = _binding_stats(ratios, totals)
    theta_star = ParamSet(*star)
    start = project_feasible(theta_star)[0]
    with pytest.MonkeyPatch.context() as patch:
        stages = _counting_stages(patch)
        theta, dual = interior_point._m_step(stats, theta_star)[:2]
    # A binding M-step: its one barrier stage is the floor stage.
    assert stages == [_MU_FLOOR] and dual > 0.0
    # The dual on c = 0, lam = (df/dr)/(1-g), at the reduced solve's point
    # after one more exact Newton step (the step the floor stage also takes).
    pairs = stats.pairs()
    l0, g, s, _ = start.astuple()
    x = (l0, g, (1 - s - g) / (1 - g), 0.0)
    for _ in range(2):
        x, _ = interior_point._newton(pairs.tolist(), x, 0.0)
    (a, b), r = pairs[3], x[2] * x[0]
    lam = (a / r - b / (1 - r)) / (1 - x[1])
    # The floor stage's dual is lam plus a term linear in mu, large
    # where the constraint is nearly slack (the first example: 1.6e-5
    # relative); the stage at 2 mu cancels it.
    x, _ = solve_barrier_subproblem(pairs.tolist(), interior_point._slack(theta), 2 * _MU_FLOOR)
    assert 2 * dual - interior_point._state(x, 2 * _MU_FLOOR)[1] == pytest.approx(lam, rel=1e-5)
    assert constraint_value(theta) > 0
    assert np.abs(kkt_residual(stats, theta, dual, _MU_FLOOR)).max() < 1e-8
    reference, _ = pure_barrier(stats, theta_star)
    np.testing.assert_allclose(theta.astuple(), reference.astuple(), rtol=0, atol=1e-7)
    # Both solve the floor stage with one routine, so they tie up to rounding.
    best = objective_value(stats, reference)
    assert objective_value(stats, theta) >= best - 1e-12 * abs(best)


def test_binding_m_step_solves_the_lopsided_counts():
    # A prior total under 2 against a transit total near 1.5e4: the reduced
    # solve ends at l0 = 0.99987 with lam = 2.4e4, so the floor stage starts
    # at c = 4e-15, near the rounding of c as a difference of O(1) terms.
    stats = _binding_stats((0.359, 0.403, 0.822, 0.733), (1.75, 694, 27316, 14986))
    theta_star = ParamSet(0.379, 0.823, 0.843, 0.619)
    theta, dual, residual = interior_point._m_step(stats, theta_star)[:3]
    assert interior_point_m_step(stats, theta_star) == theta
    assert constraint_value(theta) > 0 and dual > 0
    certificate = np.abs(kkt_residual(stats, theta, dual, _MU_FLOOR)).max()
    assert certificate == residual < 1e-8


def _binding_draws(count):
    """Realistic binding M-step inputs from generator seed 0: n learners
    log-uniform in [1, 1e4], T in [2, 50] steps, ratios and theta_star uniform
    in [0.02, 0.98], guess and slip totals splitting nT, a prior total of n
    and a transit total of n(T-1); only draws whose ratios violate c."""

    rng = np.random.default_rng(0)
    draws = []
    while len(draws) < count:
        n = int(math.exp(rng.uniform(0.0, math.log(1e4))))
        steps = int(rng.integers(2, 51))
        ratios, star = rng.uniform(0.02, 0.98, 4), rng.uniform(0.02, 0.98, 4)
        split = rng.uniform()
        totals = (n, split * n * steps, (1 - split) * n * steps, n * (steps - 1))
        if constraint_value(ParamSet(*ratios)) < 0:
            draws.append((ratios, totals, ParamSet(*star)))
    return draws


@pytest.mark.parametrize(
    "count, scale",
    # At ten times the counts, lam nears 1e6 and c = mu/lam can fall below
    # the rounding of c's difference form; the four floats then keep c > 0
    # only because the floor stage moves r down by a few ulps.
    [(5000, 1), (400, 10)],
    ids=["realistic counts", "ten times the counts"],
)
def test_binding_m_steps_succeed_on_a_sweep(count, scale):
    # Large duals put many floor stages near the rounding of c, as above.
    for ratios, totals, theta_star in _binding_draws(count):
        totals = tuple(scale * total for total in totals)
        stats = _binding_stats(ratios, totals)
        theta, dual, residual = interior_point._m_step(stats, theta_star)[:3]
        assert constraint_value(theta) > 0 and dual > 0
        assert residual < 1e-9 * max(totals)


def _public_m_step_fit(dataset, init):
    """The EM loop over interior_point_m_step, as a library user would run it."""

    return _run_em(
        "public-m-step",
        dataset,
        init,
        None,
        lambda stats, theta: MStep(interior_point_m_step(stats, theta)),
        lambda records: {},
    )


def test_fit_constrained_converges_on_the_known_barrier_stall_case():
    # The pure barrier stalls on this dataset at M-step 36 from this init, an
    # M-step whose closed form is feasible. Neither the fitter nor an EM loop
    # over the public M-step runs it.
    truth = ParamSet(
        0.8401254584672667, 0.08571233751231444, 0.3431255032173312, 0.08822924066694832
    )
    dataset = simulate_dataset(truth, 40, 8, 1922194574)
    report = fit_constrained(dataset, random_init(5))
    assert report.converged
    assert report.constraints.satisfied
    assert constraint_value(report.theta_hat) > 0
    public = _public_m_step_fit(dataset, random_init(5))
    assert public.converged
    assert public.theta_hat == report.theta_hat


def test_public_m_step_solves_the_pure_barrier_stall_counts():
    # From this theta_star the pure barrier stalls at mu = 1 on these counts
    # (residual max-norm 26818.4 after 5 restarts).
    stats = SufficientStats(
        (2.5, 2.5),
        (753.75, 50.25),
        (1932.65625, 62.34375),
        (1132.5, 75.5),
        learner_count=1,
        log_likelihood=0.0,
    )
    theta_star = ParamSet(0.0625, 0.25, 0.25, 0.5)
    theta, dual, residual = interior_point._m_step(stats, theta_star)[:3]
    assert interior_point_m_step(stats, theta_star) == theta
    assert constraint_value(theta) > 0 and dual > 0
    certificate = np.abs(kkt_residual(stats, theta, dual, _MU_FLOOR)).max()
    assert certificate == residual < 1e-8


def test_em_over_the_public_m_step_is_fit_constrained():
    # The benchmark's traced replay drives interior_point_m_step with the
    # fitters' stopping rule, so it must retrace fit_constrained exactly.
    rng = np.random.default_rng(35)
    binding_fits = 0
    for pair in range(24):
        truth = TRUE_THETA if pair % 2 else random_valid_theta(rng)
        dataset = simulate_dataset(truth, 40, 8, int(rng.integers(1 << 31)))
        report = fit_constrained(dataset, random_init(pair))
        public = _public_m_step_fit(dataset, random_init(pair))
        assert public.theta_hat == report.theta_hat
        assert public.loglik_trace == report.loglik_trace
        assert public.iterations == report.iterations
        binding_fits += report.diagnostics["barrier_m_steps"] > 0
    assert 0 < binding_fits < 24


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
            barrier, _ = pure_barrier(stats, reference)
            np.testing.assert_allclose(
                report.theta_hat.astuple(), barrier.astuple(), rtol=0, atol=1e-7
            )
            assert objective_value(stats, report.theta_hat) >= objective_value(stats, barrier)
            assert report.diagnostics["barrier_m_steps"] == 1
    assert seen["inactive"] >= 2 and seen["active"] >= 2


def test_float_m_steps_match_the_array_formulas_bitwise():
    # closed_form_ratios and both M-step branches work on the stats' Python
    # floats; each must give the bits of the same formula on (4, 2) arrays,
    # written out here rather than taken from the module's array helpers,
    # which share the float formulas. Half the counts sit at a theta
    # satisfying the constraint, scaled by totals across seven decades, so
    # that both M-step branches occur.
    rng = np.random.default_rng(23)
    inactive = binding = 0
    for index in range(200):
        learners = int(rng.integers(1, 5000))
        target = np.array((random_valid_theta(rng) if index % 2 else random_theta(rng)).astuple())
        totals = learners * 10.0 ** rng.uniform(-3.0, 4.0, 4)
        totals[0] = learners
        counts = np.column_stack((target * totals, (1.0 - target) * totals))
        stats = SufficientStats(*map(tuple, counts.tolist()), learners, log_likelihood=-1.0)
        pairs = stats.pairs()
        expected = pairs[:, 0] / np.append(learners, pairs[1:].sum(axis=1))
        ratios = closed_form_ratios(stats)
        assert ratios == tuple(expected.tolist())
        theta = ParamSet(*ratios)
        got, dual, residual = interior_point._m_step(stats, theta)[:3]
        l0, g, s, r = v = np.array(got.astuple())
        gradient = pairs[:, 0] / v - pairs[:, 1] / (1.0 - v)
        if constraint_value(theta) > 0.0:
            inactive += 1
            assert (got, dual) == (theta, 0.0)
            assert residual == np.abs(gradient).max()
        else:
            binding += 1
            top = gradient + dual * np.array([1.0 - s - g, r - l0, -l0, g - 1.0])
            last = dual * ((1.0 - s - g) * l0 - (1.0 - g) * r) - 1e-10
            assert residual == np.abs(np.append(top, last)).max()
    assert inactive >= 50 and binding >= 50


def test_fit_constrained_matches_the_barrier_only_fit():
    def barrier_only(dataset, init):
        return _run_em(
            "barrier-only",
            dataset,
            init,
            None,
            lambda stats, theta: MStep(pure_barrier(stats, theta)[0]),
            lambda records: {},
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
