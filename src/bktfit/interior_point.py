"""Constraint-guaranteeing M-step: one Newton routine in slack coordinates.

The M-step objective is separable in the four parameters,

    objective(theta) = sum over parameters p of  a log p + b log(1-p),

with the (a, b) pairs taken from SufficientStats. The behavioral conditions
combine into the single inequality c(theta) >= 0 with

    c(theta) = (1-s-g)l0 - (1-g)r.

interior_point_m_step maximizes the objective subject to c >= 0, and
fit_constrained runs it as its M-step. The objective is strictly concave, so
when the closed-form ratios satisfy c > 0 they are the M-step's answer.
Otherwise the maximizer lies on c = 0.

The solver works in slack coordinates x = (l0, g, k, e) in the open box
(0,1)^4, with s = (1-g)(1-k) and r = k l0 (1-e). There c = (1-g) k l0 e is a
product that keeps full relative precision however small it is, and c > 0 is
the box itself. One Newton routine maximizes objective + mu*log(c) over the
box, with the exact Hessian or, where that is not negative definite, the
Gauss-Newton one, backtracking on that objective. It stops on the Newton
decrement: a step whose decrement is below 1e-8 is taken in full, and ends
the solve if that decrement is also below 1e-8 at mu = 0, or 1e-18 at mu > 0,
where the dual mu/c rests on e alone. A binding M-step runs it twice. The
reduced solve holds e at 0, the face c = 0, at mu = 0 (r eliminated as in
Nocedal & Wright, Numerical Optimization, 2006, 15.2); its dual is
lam = (df/dr)/(1-g). The floor stage, solve_barrier_subproblem, runs at
mu = 1e-10 from e where c = mu/lam, which makes c strictly positive. The
certificate is the KKT residual in theta, [grad objective + lam * grad c,
lam*c - mu]. The floor and the stop rules are module constants, not options.
When a solve fails, or the result scores below the current iterate, the
M-step raises NewtonConvergenceError.

The M-step runs on the stats' Python floats, with numpy only in the public
helpers that return arrays.

The parameter box needs no extra barrier terms: the objective's log terms
already blow up at the walls wherever the matching expected counts are
positive. Datasets whose counts vanish (all answers identical, or no
learner answering twice) push a parameter onto the wall, so they are
rejected as degenerate up front.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from .baum_welch import _PARAM_LABELS, DegenerateStatsError, closed_form_ratios
from .core import ParamSet, _margin
from .data import Dataset
from .estep import SufficientStats
from .fitting import (
    ALGORITHM_CONSTRAINED,
    FitOptions,
    FitReport,
    MStep,
    NewtonConvergenceError,
    _run_em,
)

__all__ = [
    "NewtonConvergenceError",
    "constraint_value",
    "constraint_gradient",
    "objective_value",
    "objective_gradient",
    "objective_hessian_diag",
    "kkt_residual",
    "project_feasible",
    "interior_point_m_step",
    "fit_constrained",
]

# Warm starts are pushed at least this far inside the feasible set.
_FEASIBLE_MARGIN = 1e-3

# Barrier weight of the floor stage, which moves the reduced solve's point
# off c = 0 to c = mu/lam, strictly inside.
_MU_FLOOR = 1e-10

# Newton stop rules: the step cap, the backtracking cap, and the decrement,
# in objective units, below which steps are taken in full. A full step whose
# decrement is below _DECREMENT ends the reduced solve, and one below
# _DECREMENT * _MU_FLOOR ends a barrier stage, so that its dual mu/c, which
# rests on e alone, is as accurate as the point at every mu.
_MAX_NEWTON_STEPS = 100
_MAX_STEP_HALVINGS = 45
_DECREMENT = 1e-8


def _ab(stats: SufficientStats) -> tuple[tuple[float, float], ...]:
    """The four (a, b) pairs in (l0, g, s, r) order, as the stats' floats."""

    return stats.prior, stats.guess, stats.slip, stats.transit


def _margin_gradient(l0: float, g: float, s: float, r: float) -> list[float]:
    return [1.0 - s - g, r - l0, -l0, g - 1.0]


def _objective(ab: Iterable[tuple[float, float]], theta: Iterable[float]) -> float:
    """The M-step objective: a log p + b log(1-p) summed over the parameters."""

    return sum(a * math.log(p) + b * math.log1p(-p) for (a, b), p in zip(ab, theta))


def _residual(
    ab: Iterable[tuple[float, float]], theta: tuple[float, ...], lam: float, mu: float
) -> list[float]:
    """The KKT residual [grad f + lam * grad c, lam*c - mu] at theta."""

    top = [
        a / p - b / (1.0 - p) + lam * dc
        for (a, b), p, dc in zip(ab, theta, _margin_gradient(*theta))
    ]
    return top + [lam * _margin(*theta) - mu]


def constraint_value(theta: ParamSet) -> float:
    """Signed feasibility margin c(theta) = (1-s-g)l0 - (1-g)r."""

    return _margin(*theta.astuple())


def constraint_gradient(theta: ParamSet) -> np.ndarray:
    """Gradient of the margin: (1-s-g, r-l0, -l0, g-1)."""

    return np.array(_margin_gradient(*theta.astuple()))


def objective_value(stats: SufficientStats, theta: ParamSet) -> float:
    """M-step objective (expected complete-data log-likelihood) at theta."""

    return _objective(_ab(stats), theta.astuple())


def objective_gradient(stats: SufficientStats, theta: ParamSet) -> np.ndarray:
    """Per-parameter derivative a/p - b/(1-p)."""

    return np.array(_residual(_ab(stats), theta.astuple(), 0.0, 0.0)[:4])


def objective_hessian_diag(stats: SufficientStats, theta: ParamSet) -> np.ndarray:
    """Diagonal second derivatives -a/p^2 - b/(1-p)^2; cross terms are zero."""

    ab, v = _ab(stats), theta.astuple()
    return np.array([-a / (p * p) - b / ((1.0 - p) * (1.0 - p)) for (a, b), p in zip(ab, v)])


def kkt_residual(stats: SufficientStats, theta: ParamSet, dual: float, mu: float) -> np.ndarray:
    """Five-component optimality residual [grad objective + dual * grad c,
    dual*c - mu] at theta."""

    return np.array(_residual(_ab(stats), theta.astuple(), dual, mu))


def _point(x: tuple[float, ...]) -> tuple[float, float, float, float]:
    """theta at the slack coordinates x = (l0, g, k, e)."""

    l0, g, k, e = x
    return l0, g, (1.0 - g) * (1.0 - k), k * l0 * (1.0 - e)


def _slack(theta: ParamSet) -> tuple[float, float, float, float]:
    """The slack coordinates of a strictly feasible theta."""

    l0, g, s, r = theta.astuple()
    k = (1.0 - s - g) / (1.0 - g)
    return l0, g, k, _margin(l0, g, s, r) / ((1.0 - g) * k * l0)


def _state(x: tuple[float, ...], mu: float) -> tuple[ParamSet, float]:
    """theta at x, with the dual mu/c from c's product form.

    Where c is below the rounding of c's difference form, the four floats
    can still give c <= 0; r then moves down past that rounding.
    """

    l0, g, k, e = x
    _, _, s, r = _point(x)
    while not _margin(l0, g, s, r) > 0.0:
        r = math.nextafter(r + _margin(l0, g, s, r) / (1.0 - g), 0.0)
    return ParamSet(l0, g, s, r), mu / ((1.0 - g) * k * l0 * e)


def _derivatives(
    ab: list[list[float]], x: tuple[float, ...], mu: float
) -> tuple[list[float], list[list[float]], list[list[float]]]:
    """Gradient, exact Hessian and Gauss-Newton Hessian in x of f(theta(x)) + mu log c."""

    l0, g, k, e = x
    d1, d2 = [], []
    for (a, b), q in zip(ab, _point(x)):
        u, v = a / q, b / (1.0 - q)
        d1.append(u - v)
        d2.append(-u / q - v / (1.0 - q))
    (f0, fg, fs, fr), (h0, hg, hs, hr) = d1, d2
    # J = dtheta/dx: l0 and g are coordinates, and s and r have these rows.
    s1, s2 = k - 1.0, g - 1.0
    r0, r2, r3 = k * (1.0 - e), l0 * (1.0 - e), -k * l0
    grad = [f0 + fr * r0, fg + fs * s1, fs * s2 + fr * r2, fr * r3]
    gn = [
        [h0 + hr * r0 * r0, 0.0, hr * r0 * r2, hr * r0 * r3],
        [0.0, hg + hs * s1 * s1, hs * s1 * s2, 0.0],
        [hr * r0 * r2, hs * s1 * s2, hs * s2 * s2 + hr * r2 * r2, hr * r2 * r3],
        [hr * r0 * r3, 0.0, hr * r2 * r3, hr * r3 * r3],
    ]
    if mu:  # log c = log l0 + log(1-g) + log k + log e
        for i, dlog in enumerate((1.0 / l0, -1.0 / (1.0 - g), 1.0 / k, 1.0 / e)):
            grad[i] += mu * dlog
            gn[i][i] -= mu * dlog * dlog
    exact = [row[:] for row in gn]
    # The curvature of s in (g, k) and of r in (l0, k, e).
    for i, j, term in ((1, 2, fs), (0, 2, fr * (1.0 - e)), (0, 3, -fr * k), (2, 3, -fr * l0)):
        exact[i][j] += term
        exact[j][i] += term
    return grad, exact, gn


def _ascent_step(
    hess: list[list[float]], grad: list[float], n: int
) -> tuple[list[float], float] | None:
    """The Newton step -hess^-1 grad over the first n coordinates and its
    decrement, by Gauss-Jordan elimination on [-hess | grad]; None unless
    every pivot is positive, that is unless -hess is positive definite."""

    rows = [[-h for h in row[:n]] + [gi] for row, gi in zip(hess, grad[:n])]
    for i, pivot_row in enumerate(rows):
        if not pivot_row[i] > 0.0:
            return None
        for row in rows:
            if row is not pivot_row:
                factor = row[i] / pivot_row[i]
                for j in range(i + 1, n + 1):
                    row[j] -= factor * pivot_row[j]
    step = [row[n] / row[i] for i, row in enumerate(rows)]
    return step, sum(g * d for g, d in zip(grad, step))


def _newton(
    ab: tuple[tuple[float, float], ...], x: tuple[float, ...], mu: float
) -> tuple[tuple[float, ...], int]:
    """Maximize f(theta(x)) + mu log c over the open box (0,1)^4 from x, as
    the module docstring describes; at mu = 0, e keeps its start value.
    Returns the maximizer and the number of Newton steps taken. Raises
    NewtonConvergenceError at mu, with the gradient's max-norm in x as
    residual."""

    n = 4 if mu > 0.0 else 3

    def value(x: tuple[float, ...]) -> float:
        if not all(0.0 < t < 1.0 for t in x[:n]):
            return -math.inf
        f = _objective(ab, _point(x))
        return f + mu * math.log((1.0 - x[1]) * x[2] * x[0] * x[3]) if mu else f

    stop = _DECREMENT * _MU_FLOOR if mu else _DECREMENT
    f = value(x)
    for steps in range(1, _MAX_NEWTON_STEPS + 1):
        grad, exact_hess, gn_hess = _derivatives(ab, x, mu)
        for exact, hess in ((True, exact_hess), (False, gn_hess)):
            solved = _ascent_step(hess, grad, n)
            if solved is not None:
                break
        else:
            raise _failure("Hessian is singular", mu, grad)
        step, decrement = solved
        full = exact and decrement < _DECREMENT
        t = 1.0
        for _ in range(_MAX_STEP_HALVINGS):
            trial = tuple(xi + t * di for xi, di in zip(x, step)) + x[n:]
            f_trial = value(trial)
            if f_trial >= f + 1e-4 * t * decrement or (full and f_trial > -math.inf):
                break
            t *= 0.5
        else:
            raise _failure("objective stopped increasing", mu, grad)
        x, f = trial, f_trial
        if full and t == 1.0 and decrement < stop:
            return x, steps
    raise _failure("step limit reached", mu, grad)


def _failure(reason: str, mu: float, grad: Iterable[float]) -> NewtonConvergenceError:
    stage = "barrier stage" if mu else "reduced solve"
    return NewtonConvergenceError(
        f"{stage} failed: {reason}", mu=mu, residual_norm=max(map(abs, grad), default=0.0)
    )


def solve_barrier_subproblem(
    ab: tuple[tuple[float, float], ...], x: tuple[float, ...], mu: float
) -> tuple[tuple[float, ...], int]:
    """One barrier stage: maximize objective + mu*log(c), mu > 0, over the
    box from the slack coordinates x. Returns the maximizer in slack
    coordinates, where e keeps its precision however small c is, and the
    Newton steps taken; _state gives its theta and dual. Every binding
    M-step runs one, the floor stage."""

    return _newton(ab, x, mu)


def project_feasible(theta: ParamSet) -> tuple[ParamSet, dict[str, object] | None]:
    """Return a parameter vector with margin at least ~1e-3.

    The transit rate r enters the margin linearly with a negative
    coefficient, so it is scaled down first; when even r -> 0 cannot reach
    that margin (s + g too close to 1, which random inits hit often), s and
    g are shrunk proportionally beforehand. Returns the adjusted vector and
    a change record, or (theta, None) when theta already clears the margin.
    """

    l0, g, s, r = theta.astuple()
    before = _margin(l0, g, s, r)
    if before >= _FEASIBLE_MARGIN:
        return theta, None
    target = min(_FEASIBLE_MARGIN, l0 / 4.0)
    if (1.0 - s - g) * l0 < 2.0 * target:
        shrink = (1.0 - 2.0 * target / l0) / (s + g)
        s *= shrink
        g *= shrink
    if _margin(l0, g, s, r) < target:
        r = ((1.0 - s - g) * l0 - target) / (1.0 - g)
    adjusted = ParamSet(l0, g, s, r)
    info: dict[str, object] = {
        "margin_before": before,
        "margin_after": constraint_value(adjusted),
        "from": theta.to_dict(),
        "to": adjusted.to_dict(),
    }
    return adjusted, info


def _m_step(stats: SufficientStats, theta_star: ParamSet) -> MStep:
    """interior_point_m_step's theta as an MStep record: its dual is 0.0
    exactly when the closed form is feasible, and its restoration is
    project_feasible's record when theta_star violates c. A failed binding
    M-step raises NewtonConvergenceError naming the reduced solve, the floor
    stage or the objective check."""

    ratios = closed_form_ratios(stats)
    ab = _ab(stats)
    for label, (a, b) in zip(_PARAM_LABELS[1:], ab[1:]):
        if a == 0.0 or b == 0.0:
            raise DegenerateStatsError(
                f"cannot update {label!r}: one-sided expected counts put the "
                f"maximizer on the boundary"
            )
    start, adjustment = project_feasible(theta_star)
    feasible = constraint_value(theta_star) > 0.0
    restoration = None if feasible else adjustment
    if all(0.0 < p < 1.0 for p in ratios) and _margin(*ratios) > 0.0:
        residual = max(map(abs, _residual(ab, ratios, 0.0, 0.0)))
        return MStep(ParamSet(*ratios), 0.0, residual, restoration=restoration)
    (l0, g, k, _), reduced = _newton(ab, _slack(start)[:3] + (0.0,), 0.0)
    # On c = 0 the dual is lam = (df/dr)/(1-g), and c = (1-g)k l0 e, so the
    # floor stage starts at c = mu/lam, e = mu/(r df/dr), inside the box.
    rate = k * l0 * _residual(ab, _point((l0, g, k, 0.0)), 0.0, 0.0)[3]
    if not rate > _MU_FLOOR:
        raise _failure("constraint is slack on c = 0", 0.0, ())
    x, floor = solve_barrier_subproblem(ab, (l0, g, k, _MU_FLOOR / rate), _MU_FLOOR)
    theta, dual = _state(x, _MU_FLOOR)
    residual = max(map(abs, _residual(ab, theta.astuple(), dual, _MU_FLOOR)))
    # The barrier gap at the floor is below 1e-10, so any real drop below a
    # feasible theta_star means the solver landed on the wrong point.
    drop = _objective(ab, theta.astuple()) - _objective(ab, theta_star.astuple())
    if feasible and drop < -1e-9:
        raise NewtonConvergenceError(
            "constrained M-step decreased the EM objective", mu=_MU_FLOOR, residual_norm=residual
        )
    return MStep(theta, dual, residual, reduced, floor, restoration)


def interior_point_m_step(stats: SufficientStats, theta_star: ParamSet) -> ParamSet:
    """Maximize the M-step objective subject to c(theta) >= 0.

    This is fit_constrained's update: the closed-form ratios when they
    satisfy c > 0, else the reduced solve on c = 0 from (a feasible version
    of) theta_star and one floor stage. The result satisfies the constraint
    strictly and never scores below a feasible theta_star on the objective.
    Raises DegenerateStatsError for one-sided counts, and
    NewtonConvergenceError when the reduced solve, the floor stage or the
    objective check fails.
    """

    return _m_step(stats, theta_star).theta


def _diagnostics(records: list[MStep]) -> dict[str, object]:
    diagnostics: dict[str, object] = {
        "restorations": [
            {"iteration": iteration, **record.restoration}
            for iteration, record in enumerate(records, 1)
            if record.restoration is not None
        ],
        # Only a binding M-step has a dual, and it is positive.
        "barrier_m_steps": sum(record.dual > 0.0 for record in records),
        "newton_steps": sum(record.reduced_steps + record.floor_steps for record in records),
        "mu_floor": _MU_FLOOR,
    }
    if records:
        diagnostics["final_kkt_residual"] = records[-1].kkt_residual
        diagnostics["final_dual"] = records[-1].dual
    return diagnostics


def fit_constrained(
    dataset: Dataset | Iterable[object],
    init: ParamSet,
    options: FitOptions | None = None,
) -> FitReport:
    """EM loop whose M-step, interior_point_m_step from the current
    iterate, keeps every iterate and the final estimate inside the
    behavioral constraints.

    When an M-step fails, the fit stops and returns the fit up to the last
    completed M-step, with the error's message as failure. The diagnostics
    record genuine restorations (margin <= 0, typically only the initial
    guess) and, over the completed M-steps, the counts of binding M-steps
    and of Newton steps (reduced solve and floor stage). The log-likelihood
    trace is non-decreasing from the first feasible iterate on: from an
    infeasible init, the projection can lose likelihood at iteration 1.
    """

    return _run_em(ALGORITHM_CONSTRAINED, dataset, init, options, _m_step, _diagnostics)
