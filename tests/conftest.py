"""Shared samplers plus the acceptance-criteria summary hook.

Acceptance tests wrap their bodies in the `criterion` fixture so the run
ends with one PASS/FAIL line per criterion, whatever pytest's capture
settings are.
"""

from __future__ import annotations

import contextlib
from itertools import accumulate
from operator import mul

import numpy as np
import pytest

import bktfit.interior_point as interior_point
from bktfit import NewtonConvergenceError, ParamSet, project_feasible, validate_params

# Well-behaved generating parameters used across the suite: comfortably
# inside every constraint (margin 0.0675, fixed point 0.346 < l0).
TRUE_THETA = ParamSet(l0=0.45, g=0.25, s=0.1, r=0.3)


def random_theta(rng: np.random.Generator, low: float = 0.02, high: float = 0.98) -> ParamSet:
    """Arbitrary interior parameters; constraints may or may not hold."""

    l0, g, s, r = rng.uniform(low, high, 4)
    return ParamSet(l0=l0, g=g, s=s, r=r)


def random_valid_theta(rng: np.random.Generator) -> ParamSet:
    """Rejection-sample parameters that satisfy every behavioral constraint."""

    while True:
        theta = random_theta(rng, 0.05, 0.95)
        if validate_params(theta).satisfied:
            return theta


def random_attempts(rng: np.random.Generator, length: int) -> tuple[bool, ...]:
    return tuple(bool(b) for b in rng.integers(0, 2, length))


def fail_floor_stage(monkeypatch, number: int) -> None:
    """Make floor stage number `number` of this process raise.

    Each binding M-step runs one floor stage, a call of
    interior_point.solve_barrier_subproblem, so this fails the binding
    M-step of that number, counted across fits.
    """

    calls = 0
    original = interior_point.solve_barrier_subproblem

    def failing(ab, x, mu):
        nonlocal calls
        calls += 1
        if calls == number:
            raise NewtonConvergenceError("injected", mu=mu, residual_norm=1.0)
        return original(ab, x, mu)

    monkeypatch.setattr(interior_point, "solve_barrier_subproblem", failing)


# The paper's barrier weights: 1.0 times 0.2 per stage while above the
# library's floor 1e-10, then the floor itself; 16 stages.
PURE_BARRIER_MUS = (*accumulate([0.2] * 14, mul, initial=1.0), interior_point._MU_FLOOR)


def pure_barrier(stats, theta_star: ParamSet) -> tuple[ParamSet, float]:
    """The paper's constrained M-step, kept as a reference: one
    solve_barrier_subproblem stage per weight in PURE_BARRIER_MUS, each
    warm-started in slack coordinates at the last, from theta_star projected
    inward. Returns theta and the dual mu/c at the last stage."""

    ab = interior_point._ab(stats)
    x = interior_point._slack(project_feasible(theta_star)[0])
    for mu in PURE_BARRIER_MUS:
        x, _ = interior_point.solve_barrier_subproblem(ab, x, mu)
    return interior_point._state(x, mu)


_ACCEPTANCE_RESULTS: list[tuple[int, str, bool]] = []


@pytest.fixture
def criterion():
    """Record a criterion outcome for the end-of-run summary."""

    @contextlib.contextmanager
    def _criterion(number: int, name: str):
        try:
            yield
        except BaseException:
            _ACCEPTANCE_RESULTS.append((number, name, False))
            raise
        _ACCEPTANCE_RESULTS.append((number, name, True))

    return _criterion


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.ensure_newline()
    terminalreporter.section("acceptance criteria")
    for number, name, passed in sorted(set(_ACCEPTANCE_RESULTS)):
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {number} ({name}): {verdict}")
