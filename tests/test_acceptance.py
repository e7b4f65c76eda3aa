"""Acceptance suite: eight go/no-go checks with pinned tolerances.

Each test wraps its body in the `criterion` fixture so the pytest run ends
with one PASS/FAIL line per criterion. Criteria 3-5 share one batch of 100
paired fits; criterion 8 has its own recovery batch. Both batches are
session-scoped so the suite pays for them once.
"""

from __future__ import annotations

import math
import os
import time

import numpy as np
import pytest

from bktfit import (
    AttemptSequence,
    ExperimentConfig,
    FitOptions,
    fit_constrained,
    fixed_point,
    interior_point_m_step,
    kkt_residual,
    posteriors,
    run_experiment,
    simulate_dataset,
    sufficient_stats,
    trace_sequence,
)
from bktfit.core import PARAM_NAMES, ParamSet
from bktfit.interior_point import (
    constraint_value,
    objective_gradient,
    objective_value,
)
from bktfit.fitting import ALGORITHM_BAUM_WELCH, ALGORITHM_CONSTRAINED
from conftest import TRUE_THETA, random_attempts, random_theta, random_valid_theta
from reference import (
    enumerate_em_objective,
    enumerate_likelihood,
    enumerate_posteriors,
    forward_backward,
    objective_hessian_diag,
)


def _jobs() -> int:
    return min(4, os.cpu_count() or 1)


@pytest.fixture(scope="session")
def paired_experiment():
    """100 datasets from the well-behaved parameters, both algorithms."""

    config = ExperimentConfig(true_theta=TRUE_THETA, num_datasets=100, master_seed=0)
    started = time.perf_counter()
    result = run_experiment(config, jobs=_jobs())
    elapsed = time.perf_counter() - started
    return result, elapsed


@pytest.fixture(scope="session")
def recovery_runs():
    """20 large datasets (1,000 learners, 20 steps), constrained fits only."""

    config = ExperimentConfig(
        true_theta=TRUE_THETA,
        num_datasets=20,
        learners=1000,
        steps=20,
        master_seed=1,
        algorithms=(ALGORITHM_CONSTRAINED,),
    )
    started = time.perf_counter()
    result = run_experiment(config, jobs=_jobs())
    elapsed = time.perf_counter() - started
    return result, elapsed


def _records_by_algorithm(result, algorithm):
    return {rec.run_id: rec for rec in result.records if rec.algorithm == algorithm}


def test_criterion_1_oracle_equivalence(criterion):
    with criterion(1, "oracle equivalence"):
        rng = np.random.default_rng(101)
        started = time.perf_counter()
        for _ in range(1000):
            theta = random_theta(rng)
            length = int(rng.integers(1, 13))
            seq = AttemptSequence(random_attempts(rng, length))
            fb = forward_backward(theta, seq)
            exact = enumerate_likelihood(theta, seq)
            assert math.exp(fb.log_likelihood) == pytest.approx(exact, rel=1e-12)
            got = posteriors(theta, seq)
            want = enumerate_posteriors(theta, seq)
            np.testing.assert_allclose(got.gamma, want.gamma, rtol=1e-12, atol=1e-300)
            np.testing.assert_allclose(got.xi, want.xi, rtol=1e-12, atol=1e-300)
        assert time.perf_counter() - started < 10.0


def test_criterion_2_derivative_certification(criterion):
    with criterion(2, "derivative certification"):
        rng = np.random.default_rng(202)
        started = time.perf_counter()
        # Fourth-order central stencils: at this step size both truncation and
        # cancellation error sit near 1e-8, well inside the pinned tolerances.
        h = 1e-3
        for _ in range(100):
            learners = int(rng.integers(1, 6))
            steps = int(rng.integers(1, 7))
            sequences = [
                AttemptSequence(random_attempts(rng, steps)) for _ in range(learners)
            ]
            # Interior box keeps theta +- 2h strictly inside (0, 1).
            theta = random_theta(rng, 0.1, 0.9)
            reference = random_theta(rng, 0.1, 0.9)
            stats = sufficient_stats(reference, sequences)
            grad = objective_gradient(stats, theta)
            hess = objective_hessian_diag(stats, theta)
            base = np.array(theta.astuple())
            f_zero = enumerate_em_objective(theta, reference, sequences)
            for index in range(4):

                def f_at(offset: float) -> float:
                    shifted = base.copy()
                    shifted[index] += offset
                    return enumerate_em_objective(
                        ParamSet(*shifted), reference, sequences
                    )

                f_p1, f_m1 = f_at(h), f_at(-h)
                f_p2, f_m2 = f_at(2 * h), f_at(-2 * h)
                fd_grad = (-f_p2 + 8 * f_p1 - 8 * f_m1 + f_m2) / (12 * h)
                fd_hess = (-f_p2 + 16 * f_p1 - 30 * f_zero + 16 * f_m1 - f_m2) / (
                    12 * h**2
                )
                np.testing.assert_allclose(grad[index], fd_grad, rtol=1e-6, atol=1e-8)
                np.testing.assert_allclose(hess[index], fd_hess, rtol=1e-5, atol=1e-6)
        assert time.perf_counter() - started < 30.0


def test_criterion_3_constraint_guarantee(criterion, paired_experiment):
    with criterion(3, "constraint guarantee"):
        result, elapsed = paired_experiment
        assert elapsed < 300.0
        constrained = _records_by_algorithm(result, ALGORITHM_CONSTRAINED)
        baum_welch = _records_by_algorithm(result, ALGORITHM_BAUM_WELCH)
        assert len(constrained) == 100 and len(baum_welch) == 100

        for rec in constrained.values():
            assert rec.report.constraints.satisfied
            assert rec.margin >= -1e-10

        violating = [run for run, rec in baum_welch.items() if not rec.satisfied]
        assert len(violating) >= 1

        for run in violating:
            ll_constrained = constrained[run].report.final_log_likelihood
            ll_baum_welch = baum_welch[run].report.final_log_likelihood
            rescued = ll_constrained >= ll_baum_welch or abs(
                ll_constrained - ll_baum_welch
            ) <= 0.01 * abs(ll_baum_welch)
            assert rescued, f"run {run} not rescued"


def test_criterion_4_agreement_when_constraint_inactive(criterion, paired_experiment):
    with criterion(4, "agreement when inactive"):
        result, _ = paired_experiment
        constrained = _records_by_algorithm(result, ALGORITHM_CONSTRAINED)
        baum_welch = _records_by_algorithm(result, ALGORITHM_BAUM_WELCH)
        compared = 0
        for run, rec in baum_welch.items():
            if rec.margin <= 1e-3:
                continue
            compared += 1
            gaps = [
                abs(a - b)
                for a, b in zip(
                    rec.report.theta_hat.astuple(),
                    constrained[run].report.theta_hat.astuple(),
                )
            ]
            assert max(gaps) <= 1e-3, f"run {run} diverged: {gaps}"
        assert compared >= 1


def test_criterion_5_em_monotonicity(criterion, paired_experiment):
    with criterion(5, "EM monotonicity"):
        result, _ = paired_experiment
        assert len(result.records) == 200
        for rec in result.records:
            trace = np.array(rec.report.loglik_trace)
            drops = np.diff(trace)
            assert np.all(drops >= -1e-10), f"run {rec.run_id} ({rec.algorithm})"


def test_criterion_6_belief_trace_limits(criterion):
    with criterion(6, "belief-trace limits"):
        rng = np.random.default_rng(606)
        started = time.perf_counter()
        cap = 10000
        for _ in range(100):
            theta = random_valid_theta(rng)
            floor = fixed_point(theta)

            walk = [theta.l0] + trace_sequence(theta, bytes(cap + 1))
            for p, nxt in zip(walk, walk[1:]):
                if p - floor <= 1e-6:
                    break
                assert nxt <= p + 1e-15
                assert nxt > floor - 1e-12
            else:
                pytest.fail("all-incorrect trace did not reach the fixed point")

            walk = [theta.l0] + trace_sequence(theta, b"\x01" * (cap + 1))
            for p, nxt in zip(walk, walk[1:]):
                if 1.0 - p <= 1e-6:
                    break
                assert nxt >= p - 1e-15
            else:
                pytest.fail("all-correct trace did not approach mastery")

            # Mixed traces stay inside (fixed point, 1); the upper endpoint
            # may round to exactly 1.0 once 1 - p underflows.
            mixed = trace_sequence(theta, random_attempts(rng, 200))
            assert all(floor - 1e-12 < p <= 1.0 for p in mixed)
        assert time.perf_counter() - started < 10.0


def test_criterion_7_kkt_certificate(criterion):
    with criterion(7, "optimality certificate"):
        rng = np.random.default_rng(707)
        axis = np.linspace(0.025, 0.975, 20)
        mesh = np.meshgrid(axis, axis, axis, axis, indexing="ij")
        feasible = (1 - mesh[2] - mesh[1]) * mesh[0] - (1 - mesh[1]) * mesh[3] >= 0
        log_mesh = [np.log(m) for m in mesh]
        log1m_mesh = [np.log1p(-m) for m in mesh]
        for _ in range(20):
            truth = random_valid_theta(rng)
            dataset = simulate_dataset(truth, 30, 8, int(rng.integers(1 << 31)))
            reference = random_theta(rng, 0.05, 0.95)
            stats = sufficient_stats(reference, dataset)

            # The first M-step of a fit from reference runs on these stats.
            report = fit_constrained(dataset, reference, FitOptions(max_iterations=1))
            theta, dual = report.theta_hat, report.diagnostics["final_dual"]
            assert interior_point_m_step(stats, reference) == theta
            assert constraint_value(theta) > 0
            # A binding M-step ends at mu = 1e-10; a closed-form one has
            # lam = 0, and its residual is the gradient.
            residual = kkt_residual(stats, theta, dual, 1e-10 if dual > 0 else 0.0)
            assert np.abs(residual).max() < 1e-8

            pairs = stats.pairs()
            grid_objective = sum(
                pairs[i, 0] * log_mesh[i] + pairs[i, 1] * log1m_mesh[i]
                for i in range(4)
            )
            best_grid = grid_objective[feasible].max()
            assert objective_value(stats, theta) >= best_grid - 1e-8


def test_criterion_8_parameter_recovery(criterion, recovery_runs):
    with criterion(8, "parameter recovery"):
        result, elapsed = recovery_runs
        assert elapsed < 300.0
        assert len(result.records) == 20
        truth = TRUE_THETA.to_dict()
        for name in PARAM_NAMES:
            errors = [
                abs(getattr(rec.report.theta_hat, name) - truth[name])
                for rec in result.records
            ]
            assert float(np.median(errors)) < 0.05, f"{name}: {np.median(errors)}"
        for rec in result.records:
            assert rec.satisfied
